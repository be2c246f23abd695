"""Translation-set generation: n-best lists, round-trip paraphrasing, and
multi-checkpoint ensembles.

``predict`` is the one entry point, and the one place that knows which of a
model's checkpoints a method reads. Every decode request of every method
goes through ``Decoder.sentences``, on one ``Decoder`` per checkpoint, which
loads its checkpoint when it is first decoded with and memoizes each
source's n-best list per n and top-k, so the decoders a sweep shares across
its cells decode each request once; it alone calls ``decode_nbest``, with a
``DecodeParams`` built once per decode. Each method is one per-prompt
composition over the same source path: the prompt's canonical tokens
(``textproc.sentence_tokens``, once per prompt), decode, join the tokens with
spaces, de-duplicate. A model trained here knows canonical words only, so
its candidates are canonical sentences: they are de-duplicated, compared and
split for back-translation as plain strings, never canonicalized again.
Every method returns one PredictionSet per prompt, in prompt order, and a
set is empty exactly when the prompt's canonical form has no words: that is
the only way a prompt degrades, since the parsers and ``MethodParams`` check
every other input before any decode. Any exception raised inside a method,
a checkpoint that fails to load (a CheckpointError) included, propagates.
Every method is deterministic: identical inputs produce byte-identical
prediction files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import PredictionSet, Prompt
from .errors import ValidationError
from .textproc import sentence_tokens, tokenize
from .translator import Checkpoint, DecodeParams, decode_nbest


class Decoder:
    """One checkpoint's n-best lists, each request decoded once.

    The checkpoint comes from ``load``, a loader of its model's index
    (``translator.read_index``), when a decode first needs it, and
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

    def sentences(self, source: Sequence[str], n: int, top_k: int) -> list[str]:
        """The non-empty hypotheses of ``decode_nbest`` on this decoder's
        checkpoint, n-best over the ``top_k`` lexicon candidates of each
        word, each as its tokens joined by spaces. A ``DecodeParams`` is
        built only on a memo miss, so once per decode."""
        # canonical tokens hold no space, so the joined source identifies it
        key = (" ".join(source), n, top_k)
        sents = self._memo.get(key)
        if sents is None:
            if self._ckpt is None:
                self._ckpt = self._load()
            hyps = decode_nbest(self._ckpt, source, DecodeParams(n_best=n, top_k_lexicon=top_k))
            # interned: the lists of a series' checkpoints share most sentences
            sents = self._memo[key] = [sys.intern(s) for h in hyps if (s := " ".join(h.tokens))]
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


def dedup(candidates: Iterable[str]) -> list[str]:
    """Stable first-occurrence de-duplication of canonical sentences."""
    return list(dict.fromkeys(candidates))


def nbest_predict(
    decoder: Decoder, prompts: Sequence[Prompt], params: MethodParams
) -> list[PredictionSet]:
    """Top-n decoded translations per prompt, de-duplicated in score order."""
    sets: list[PredictionSet] = []
    for prompt in prompts:
        sents = decoder.sentences(sentence_tokens(prompt.text), params.n, params.top_k_lexicon)
        sets.append(PredictionSet(prompt.id, tuple(dedup(sents))))
    return sets


def paraphrase_predict(
    fwd: Decoder, bwd: Decoder, prompts: Sequence[Prompt], params: MethodParams
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
    sets: list[PredictionSet] = []
    for prompt in prompts:
        tokens = sentence_tokens(prompt.text)
        step1 = dedup(fwd.sentences(tokens, params.n, params.top_k_lexicon))
        pool: list[str] = []
        for sent in step1:
            pool.extend(bwd.sentences(tokenize(sent), params.n_prime, params.top_k_lexicon))
        source = " ".join(tokens)
        step3: list[str] = []
        for para in dedup(pool):
            if para != source:
                step3.extend(fwd.sentences(tokenize(para), 1, params.top_k_lexicon))
        sets.append(PredictionSet(prompt.id, tuple(dedup(step1 + step3))))
    return sets


def multi_checkpoint_predict(
    decoders: Sequence[Decoder], prompts: Sequence[Prompt], params: MethodParams
) -> list[PredictionSet]:
    """Union of n-best outputs from the m most recent checkpoints, latest first.

    ``decoders`` hold a series' checkpoints, oldest first. The checkpoints
    are decoded with one at a time, latest first: each decodes every prompt
    and is then released, so one is resident at a time, and each prompt's
    union keeps the latest-first order.
    """
    if params.m > len(decoders):
        raise ValidationError(f"m={params.m} exceeds the series length {len(decoders)}")
    tokens = [sentence_tokens(prompt.text) for prompt in prompts]
    pooled: list[list[str]] = [[] for _ in prompts]
    for decoder in reversed(decoders[-params.m :]):
        for pool, toks in zip(pooled, tokens):
            pool.extend(decoder.sentences(toks, params.n, params.top_k_lexicon))
        decoder.release()
    return [PredictionSet(p.id, tuple(dedup(pool))) for p, pool in zip(prompts, pooled)]


METHODS = ("nbest", "paraphrase", "ensemble")


def predict(
    method: str,
    fwd: Sequence[Decoder],
    bwd: Sequence[Decoder],
    prompts: Sequence[Prompt],
    params: MethodParams,
) -> list[PredictionSet]:
    """Run ``method`` on the decoders of a forward (and backward) model, each
    oldest first: nbest reads the newest forward one, paraphrase the newest of
    each side, an ensemble the newest ``m``. The result holds one set per
    prompt, in prompt order, empty exactly when the prompt has no words. A
    method that cannot run on the models given (paraphrase without a
    backward model, an ensemble larger than the series) raises
    ValidationError before any decode.
    """
    if method == "ensemble":
        return multi_checkpoint_predict(fwd, prompts, params)
    if method == "nbest":
        return nbest_predict(fwd[-1], prompts, params)
    if not bwd:
        raise ValidationError("paraphrase needs a backward model")
    return paraphrase_predict(fwd[-1], bwd[-1], prompts, params)
