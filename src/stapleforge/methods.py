"""Translation-set generation: n-best lists, round-trip paraphrasing, and
multi-checkpoint ensembles.

``predict`` is the one entry point: it runs a method on the newest forward
and backward checkpoints the method reads (``checkpoints_read``), so callers
load those and nothing else. Each method is one per-prompt composition over
the same source path: the prompt's canonical tokens
(``textproc.sentence_tokens``, once per prompt), decode, join the tokens with
spaces, de-duplicate. A model trained here knows canonical words only, so its
candidates are canonical sentences: they are de-duplicated, compared and
split for back-translation as plain strings, never canonicalized again. Bad
input on one prompt (a StapleForgeError) degrades that prompt to an empty
candidate list and one warning record whose stage is the method's name; it
never aborts the batch. Any other exception is a programming error and
propagates. Every method is deterministic: identical inputs produce
byte-identical prediction files.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import PredictionSet, Prompt
from .errors import StapleForgeError, ValidationError
from .textproc import TokenSeq, sentence_tokens, tokenize
from .translator import Checkpoint, CheckpointSeries, DecodeParams, decode_nbest

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MethodParams:
    n: int = 10
    n_prime: int = 3
    m: int = 6
    top_k_lexicon: int = 8

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.n_prime < 1:
            raise ValidationError(f"n_prime must be >= 1, got {self.n_prime}")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if self.top_k_lexicon < 1:
            raise ValidationError(f"top_k_lexicon must be >= 1, got {self.top_k_lexicon}")


@dataclass(frozen=True)
class MethodWarning:
    prompt_id: str
    stage: str
    message: str


def dedup(candidates: Iterable[str]) -> list[str]:
    """Stable first-occurrence de-duplication of canonical sentences."""
    return list(dict.fromkeys(candidates))


def _decode_sentences(
    ckpt: Checkpoint, tokens: TokenSeq, n: int, params: MethodParams
) -> list[str]:
    decode = DecodeParams(n_best=n, top_k_lexicon=params.top_k_lexicon)
    return [" ".join(h.tokens) for h in decode_nbest(ckpt, tokens, decode) if h.tokens]


def _per_prompt(
    prompts: Sequence[Prompt],
    stage: str,
    candidates: Callable[[Prompt], list[str]],
    warnings: list[MethodWarning] | None,
) -> list[PredictionSet]:
    """One PredictionSet per prompt; bad input degrades only its own prompt."""
    sets: list[PredictionSet] = []
    for prompt in prompts:
        try:
            cands = candidates(prompt)
            problem = "" if cands else "no candidates"
        except StapleForgeError as exc:  # degrade, never abort the batch
            log.warning("prompt %s: %s failed: %s", prompt.id, stage, exc)
            cands, problem = [], str(exc)
        if problem and warnings is not None:
            warnings.append(MethodWarning(prompt.id, stage, problem))
        sets.append(PredictionSet(prompt.id, tuple(cands)))
    return sets


def nbest_predict(
    ckpt: Checkpoint,
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Top-n decoded translations per prompt, de-duplicated in score order."""

    def candidates(prompt: Prompt) -> list[str]:
        return dedup(_decode_sentences(ckpt, sentence_tokens(prompt.text), params.n, params))

    return _per_prompt(prompts, "nbest", candidates, warnings)


def paraphrase_predict(
    fwd: Checkpoint,
    bwd: Checkpoint,
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Extend each n-best list via round-trip paraphrases.

    Per prompt: (1) forward n-best; (2) back-translate each hypothesis to its
    n'-best source sentences, pool, de-duplicate, and drop the original
    prompt; (3) forward-translate each surviving paraphrase 1-best. The output
    is the union of steps 1 and 3, step-1 order first, so it is a superset of
    the plain n-best output.
    """
    if fwd.direction == bwd.direction:
        raise ValidationError(
            f"paraphrasing needs opposite-direction checkpoints, got "
            f"{fwd.direction!r} and {bwd.direction!r}"
        )

    def candidates(prompt: Prompt) -> list[str]:
        tokens = sentence_tokens(prompt.text)
        step1 = dedup(_decode_sentences(fwd, tokens, params.n, params))
        pool: list[str] = []
        for sent in step1:
            pool.extend(_decode_sentences(bwd, tokenize(sent), params.n_prime, params))
        source = " ".join(tokens)
        paraphrases = [p for p in dedup(pool) if p != source]
        step3: list[str] = []
        for para in paraphrases:
            step3.extend(_decode_sentences(fwd, tokenize(para), 1, params))
        return dedup(step1 + step3)

    return _per_prompt(prompts, "paraphrase", candidates, warnings)


def multi_checkpoint_predict(
    series: CheckpointSeries,
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Union of n-best outputs from the m most recent checkpoints, latest first."""
    if params.m > len(series):
        raise ValidationError(
            f"m={params.m} exceeds the series length {len(series)}"
        )
    latest_first = list(reversed(series.checkpoints[-params.m :]))

    def candidates(prompt: Prompt) -> list[str]:
        tokens = sentence_tokens(prompt.text)
        pooled: list[str] = []
        for ckpt in latest_first:
            pooled.extend(_decode_sentences(ckpt, tokens, params.n, params))
        return dedup(pooled)

    return _per_prompt(prompts, "ensemble", candidates, warnings)


METHODS = ("nbest", "paraphrase", "ensemble")


def checkpoints_read(method: str, params: MethodParams) -> tuple[int, int]:
    """How many of the newest forward and backward checkpoints ``method`` reads."""
    return {"nbest": (1, 0), "paraphrase": (1, 1), "ensemble": (params.m, 0)}[method]


def predict(
    method: str,
    fwd: CheckpointSeries,
    bwd: CheckpointSeries | None,
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Run ``method`` on the newest checkpoints of ``fwd`` (and ``bwd``) it reads.

    A method that cannot run on the models given (paraphrase without a
    backward model, an ensemble larger than the series) raises ValidationError.
    """
    if method == "ensemble":
        return multi_checkpoint_predict(fwd, prompts, params, warnings)
    if method == "nbest":
        return nbest_predict(fwd.checkpoints[-1], prompts, params, warnings)
    if bwd is None:
        raise ValidationError("paraphrase needs a backward model")
    return paraphrase_predict(fwd.checkpoints[-1], bwd.checkpoints[-1], prompts, params, warnings)
