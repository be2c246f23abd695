"""Translation-set generation: n-best lists, round-trip paraphrasing, and
multi-checkpoint ensembles.

``predict`` is the one entry point, and the one place that knows which of a
model's checkpoints a method reads. Methods decode through a ``Decoder`` per
checkpoint, which loads its checkpoint when it is first decoded with and
memoizes each source's n-best list per n, so the decoders a sweep shares
across its cells decode each request once. Each method is one per-prompt
composition over the same source path: the prompt's canonical tokens
(``textproc.sentence_tokens``, once per prompt), decode, join the tokens with
spaces, de-duplicate. A model trained here knows canonical words only, so
its candidates are canonical sentences: they are de-duplicated, compared and
split for back-translation as plain strings, never canonicalized again. Bad
input on one prompt (a ValidationError) degrades that prompt to an empty
candidate list and one warning record whose stage is the method's name; it
never aborts the batch. A checkpoint that fails to load (a CheckpointError)
and any other exception propagate. Every method is deterministic: identical
inputs produce byte-identical prediction files.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import PredictionSet, Prompt
from .errors import ValidationError
from .textproc import TokenSeq, sentence_tokens, tokenize
from .translator import Checkpoint, DecodeParams, decode_nbest

log = logging.getLogger(__name__)


class Decoder:
    """One checkpoint's n-best lists, each request decoded once.

    The checkpoint comes from ``load`` when a decode first needs it, and
    ``release`` drops it; the memo outlives it, so a released decoder
    answers every request its memo covers without loading again. The memo
    is keyed on (source, n, top-k): a list is never sliced from a deeper
    one, because rounding can make n-best(n) differ from the first n
    entries of n-best(N) (the caveat in ``decode_nbest``).
    """

    def __init__(self, load: Callable[[], Checkpoint], direction: str):
        self.direction = direction
        self._load = load
        self._ckpt: Checkpoint | None = None
        self._memo: dict[tuple[str, int, int], list[str]] = {}

    @classmethod
    def of(cls, ckpt: Checkpoint) -> Decoder:
        """A decoder over a checkpoint already in memory."""
        return cls(lambda: ckpt, ckpt.direction)

    def sentences(self, source: Sequence[str], params: DecodeParams) -> list[str]:
        """The hypotheses of ``decode_nbest`` on this decoder's checkpoint,
        each as its tokens joined by spaces."""
        # canonical tokens hold no space, so the joined source identifies it
        key = (" ".join(source), params.n_best, params.top_k_lexicon)
        sents = self._memo.get(key)
        if sents is None:
            if self._ckpt is None:
                self._ckpt = self._load()
            hyps = decode_nbest(self._ckpt, source, params)
            # interned: the lists of a series' checkpoints share most sentences
            sents = self._memo[key] = [sys.intern(" ".join(h.tokens)) for h in hyps]
        return sents

    def release(self) -> None:
        """Drop the checkpoint; the memo stays."""
        self._ckpt = None


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
    decoder: Decoder, tokens: TokenSeq, n: int, params: MethodParams
) -> list[str]:
    decode = DecodeParams(n_best=n, top_k_lexicon=params.top_k_lexicon)
    return [sent for sent in decoder.sentences(tokens, decode) if sent]


def _per_prompt(
    prompts: Sequence[Prompt],
    stage: str,
    candidates: Callable[[int], list[str]],
    warnings: list[MethodWarning] | None,
) -> list[PredictionSet]:
    """One PredictionSet per prompt, from ``candidates`` of its position;
    bad input degrades only its own prompt."""
    sets: list[PredictionSet] = []
    for i, prompt in enumerate(prompts):
        try:
            cands = candidates(i)
            problem = "" if cands else "no candidates"
        except ValidationError as exc:  # degrade, never abort the batch
            log.warning("prompt %s: %s failed: %s", prompt.id, stage, exc)
            cands, problem = [], str(exc)
        if problem and warnings is not None:
            warnings.append(MethodWarning(prompt.id, stage, problem))
        sets.append(PredictionSet(prompt.id, tuple(cands)))
    return sets


def nbest_predict(
    decoder: Decoder,
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Top-n decoded translations per prompt, de-duplicated in score order."""

    def candidates(i: int) -> list[str]:
        tokens = sentence_tokens(prompts[i].text)
        return dedup(_decode_sentences(decoder, tokens, params.n, params))

    return _per_prompt(prompts, "nbest", candidates, warnings)


def paraphrase_predict(
    fwd: Decoder,
    bwd: Decoder,
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

    def candidates(i: int) -> list[str]:
        tokens = sentence_tokens(prompts[i].text)
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
    decoders: Sequence[Decoder],
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Union of n-best outputs from the m most recent checkpoints, latest first.

    ``decoders`` hold a series' checkpoints, oldest first. The checkpoints
    are decoded with one at a time, latest first: each decodes every prompt
    and is then released, so one is resident at a time, and each prompt's
    union keeps the latest-first order.
    """
    if params.m > len(decoders):
        raise ValidationError(f"m={params.m} exceeds the series length {len(decoders)}")
    latest_first = list(reversed(decoders[-params.m :]))
    tokens = [sentence_tokens(prompt.text) for prompt in prompts]
    pooled: list[list[str]] = [[] for _ in prompts]
    failed: dict[int, ValidationError] = {}
    for decoder in latest_first:
        for i, toks in enumerate(tokens):
            if i in failed:
                continue
            try:
                pooled[i].extend(_decode_sentences(decoder, toks, params.n, params))
            except ValidationError as exc:  # _per_prompt degrades the prompt
                failed[i] = exc
        decoder.release()

    def candidates(i: int) -> list[str]:
        if i in failed:
            raise failed[i]
        return dedup(pooled[i])

    return _per_prompt(prompts, "ensemble", candidates, warnings)


METHODS = ("nbest", "paraphrase", "ensemble")


def predict(
    method: str,
    fwd: Sequence[Decoder],
    bwd: Sequence[Decoder],
    prompts: Sequence[Prompt],
    params: MethodParams,
    warnings: list[MethodWarning] | None = None,
) -> list[PredictionSet]:
    """Run ``method`` on the decoders of a forward (and backward) model, each
    oldest first: nbest reads the newest forward one, paraphrase the newest of
    each side, an ensemble the newest ``m``. A method that cannot run on the
    models given (paraphrase without a backward model, an ensemble larger
    than the series) raises ValidationError.
    """
    if method == "ensemble":
        return multi_checkpoint_predict(fwd, prompts, params, warnings)
    if method == "nbest":
        return nbest_predict(fwd[-1], prompts, params, warnings)
    if not bwd:
        raise ValidationError("paraphrase needs a backward model")
    return paraphrase_predict(fwd[-1], bwd[-1], prompts, params, warnings)
