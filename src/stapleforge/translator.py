"""A small trainable statistical translator with persisted checkpoints.

The model is a word-translation lexicon t(target|source) trained with EM
(uniform initialization over co-occurring pairs, then per-iteration fractional
counts and renormalization) plus an add-alpha bigram language model estimated
once from the target side. There is no NULL source word: decoding is monotone
word for word, emitting one target word per source word from the lexicon's
top-k candidates (unknown source words copy through at a fixed penalty), and
hypotheses are scored by average log-likelihood. Ties are broken
lexicographically by token sequence.

Decoding is exact k-best search over a lattice, not a beam: every hypothesis
has one word per source word and the bigram LM's state is just the last word,
so a position has at most top-k states, and keeping the n best partial
hypotheses per state finds the n best sequences exactly, except where two
partial totals that differ only in rounding tie once extended: the 1-best of
``tests/test_methods.py::TestDecoder::test_rounding_near_tie_is_not_sliced``
is ``b z w``, where exhaustive order puts ``a z w`` first (ROADMAP item 2).
The paper's beam of width 100 searches neural models that condition on the
whole prefix; this model has no such search problem, so that width has no
counterpart here. Totals are summed in the same order as by exhaustive
enumeration, which the decoder otherwise matches element for element.

A checkpoint is persisted after every EM iteration. Training does each
piece of work once: the E-step that reads a lexicon also adds up its corpus
log-likelihood from the same sums, in the same order (Och & Ney 2003), so
checkpoint i is saved once the E-step of iteration i + 1 is done and only the
last checkpoint takes a separate ``corpus_loglikelihood`` pass; the M-step
renormalizes the counts in place and formats each lexicon value once, for
both the quantized value and the lexicon.tsv text, which it keeps as one
block per source word, never joined, for save_checkpoint to write; and
lm.tsv is rendered once per series, from each value's ``repr``
(``_lm_text``). Training keeps no checkpoint once it is saved, so it holds one
lexicon and its text at a time, however many iterations it runs. Every file
is byte-identical to rendering each checkpoint on its own, and, as both steps
total floats left to right (``corpus.ordered_sum``), on every Python version.
On-disk layout, one directory per checkpoint:

    meta.tsv     key<TAB>value rows: iteration, direction, corpus_loglik,
                 alpha, checksum (sha256 over the two model files); each
                 key non-empty, at most once; unknown keys are ignored
    lexicon.tsv  source<TAB>target<TAB>prob
    lm.tsv       w1<TAB>w2<TAB>logprob, including <s>/</s> boundary rows,
                 one "<other>" row per history (add-alpha mass for an
                 unseen in-vocabulary successor) and "<unk>" unigram-backoff
                 rows used when the history itself is out of vocabulary

Each model file's rows are sorted by their two words, each pair once, so
every row's (w1, w2) is strictly after the row before's.

All three are UTF-8 with LF line endings, and the checksum is taken over the
model files' bytes on disk. The reserved tokens (``corpus.RESERVED_TOKENS``)
mark lm.tsv's own rows only. Probabilities are stored with 12 significant
digits; model values are canonicalized to that precision when built
(``quantize``, or for the lexicon ``_format_value``, which formats each
value once, for the value and its text), so a saved checkpoint loads back
bit-exactly.

``load_checkpoint`` reads each file in bounded chunks that feed the
checksum, the file's own sha256 (which its model's index keeps, for the
command line's manifests) and the row parser together, so it never holds a
whole file. It verifies the checksum and parses every value. Both model
files are read by one row reader (``_rows``), which yields each run of rows
sharing their first word and rejects a row out of order or repeating a
pair, and every stored number, a model value, meta.tsv's
``corpus_loglik`` and ``alpha`` or a series.tsv log-likelihood, by one
reader (``_number``): a plain ASCII number (no surrounding whitespace, ``_``
or non-ASCII digit, which ``float`` would accept) whose value is finite.
The iteration must be a positive decimal integer as written, and
probabilities non-negative. Every word of lexicon.tsv, and every word of
lm.tsv other than the reserved tokens, must be a model word
(``corpus.is_model_word``); the loader checks each distinct word once per
process (``_WORDS``), and each reserved token only in its lm.tsv role
(``_parse_lm``). A malformed checkpoint raises ``CheckpointError``
naming its directory, and the file and row where there is one; a malformed
row is reported only once the checksum, known at the end of the files,
holds.
Nothing in a checkpoint depends on when it was written, so training the same
corpus twice gives byte-identical series directories.

A training run's checkpoints live in ``ckpt-0001/ ... ckpt-NNNN/`` under one
series directory, indexed by its ``series.tsv``:

    direction<TAB>fwd
    ckpt-0001<TAB>corpus_loglik
    ...

one row per checkpoint, iterations strictly increasing and log-likelihoods
non-decreasing. Like meta.tsv's ``corpus_loglik`` and ``alpha``, each
log-likelihood is a plain ASCII number, and the rows end in LF alone.
``save_checkpoint`` writes a checkpoint into ``.ckpt-NNNN.partial/`` and
renames it into place, so a ``ckpt-NNNN/`` directory is always complete; it
only creates directories, and never replaces a checkpoint.
The index is the source of truth: training rewrites it atomically after each
checkpoint is in place, so an interrupted run leaves an index of complete
checkpoints, and a ``ckpt-*`` directory it
does not list is never loaded. Every model is read one way, through its
index (``read_index``): a series' series.tsv, or a lone checkpoint's own
meta.tsv. The index is read once, checked and hashed from the bytes parsed,
and gives one loader per checkpoint it lists, so a caller loads each
checkpoint only when it needs it (the commands do, through
``methods.Decoder``); ``load_series`` loads them all at once. Training
refuses a directory that already holds a series.

A loaded series holds its shared state once, as a trained one does: the
checkpoints of a series have the same lm.tsv, which is parsed once into one
``BigramLm`` they all refer to, and words are interned, so every checkpoint
and the LM share one string per word. Each ``read_index`` call owns what
its loads share: the LMs loaded, by lm.tsv digest and alpha, and the sha256
of each file read; so no load depends on what ran before it. Each lm.tsv is
hashed first, and read again, to be parsed, only when its model has no LM
of that digest and alpha; a second read that hashes otherwise is rejected.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import re
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import RESERVED_TOKENS, is_model_word, ordered_sum
from .errors import CheckpointError, ValidationError
from .textproc import TokenSeq

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12
FLOOR_LOGPROB = math.log(PROB_FLOOR)
UNKNOWN_COPY_LOGPROB = -10.0

BOS, EOS, UNSEEN, BACKOFF = RESERVED_TOKENS

DIRECTIONS = ("fwd", "bwd")
SERIES_INDEX = "series.tsv"
CHECKPOINT_FILES = ("lexicon.tsv", "lm.tsv", "meta.tsv")  # in the order they are written
# iterations count from 1: a positive decimal integer, zero-padded in names
_ITERATION = re.compile(r"[1-9][0-9]*")
_CKPT_NAME = re.compile(rf"ckpt-0*({_ITERATION.pattern})")

LexiconTable = dict[str, dict[str, float]]


def quantize(x: float) -> float:
    """Round to 12 significant digits, the persisted precision of model values."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _format_value(x: float) -> tuple[float, str]:
    """``quantize(x)`` and its ``repr``, from one 12-digit formatting.

    A normal float's shortest round-trip digits are the at most 12 digits
    that ``.12g`` wrote for it, and both forms use fixed notation for
    exponents -4 to 11 and scientific notation below -4; ``repr`` only adds
    ".0" to an integral value. Every other value, subnormal, large or not
    finite, takes ``repr``.
    """
    s = f"{x:.12g}"
    value = float(s)
    if "e" not in s:
        if "." in s:
            return value, s
        if s[-1].isdigit():
            return value, s + ".0"
    elif "e-" in s and abs(value) >= sys.float_info.min:
        return value, s
    return value, repr(value)


@dataclass(frozen=True, eq=True)
class BigramLm:
    """Add-alpha bigram model over the target vocabulary plus sentence boundaries."""

    bigram_logprob: dict[tuple[str, str], float]
    unseen_logprob: dict[str, float]
    unigram_logprob: dict[str, float]
    alpha: float

    def logprob(self, w1: str, w2: str) -> float:
        lp = self.bigram_logprob.get((w1, w2))
        if lp is not None:
            return lp
        if w1 in self.unseen_logprob:
            if w2 in self.unigram_logprob:
                return self.unseen_logprob[w1]
            return FLOOR_LOGPROB
        if w2 in self.unigram_logprob:
            return self.unigram_logprob[w2]
        return FLOOR_LOGPROB


def build_bigram_lm(target_corpus: Iterable[TokenSeq], alpha: float = 0.1) -> BigramLm:
    """The add-alpha bigram LM of ``target_corpus``, each value quantized
    (``quantize``), so lm.tsv (``_lm_text``) loads back bit-exactly."""
    if not 0.0 < alpha < math.inf:
        raise ValidationError(f"alpha must be finite and > 0, got {alpha!r}")
    unigram_counts: Counter[str] = Counter()
    bigram_counts: Counter[tuple[str, str]] = Counter()
    vocab: set[str] = set()
    for seq in target_corpus:
        if not seq:
            continue
        vocab.update(seq)
        unigram_counts.update(seq)
        unigram_counts[EOS] += 1
        prev = BOS
        for w in seq:
            bigram_counts[(prev, w)] += 1
            prev = w
        bigram_counts[(prev, EOS)] += 1
    if not vocab:
        raise ValidationError("cannot estimate a language model from an empty corpus")

    support = sorted(vocab | {EOS})
    v = len(support)
    histories = sorted(vocab | {BOS})
    context_totals: dict[str, int] = {h: 0 for h in histories}
    for (w1, _), c in bigram_counts.items():
        context_totals[w1] += c

    n_events = sum(unigram_counts.values())
    denom_u = n_events + alpha * v
    # denom_u is the largest denominator and alpha the smallest numerator, so
    # when their ratio is positive and finite every log-probability is finite
    if not (math.isfinite(denom_u) and alpha / denom_u > 0.0):
        raise ValidationError(f"alpha={alpha!r} makes language-model values non-finite")
    unseen_logprob = {
        w1: quantize(math.log(alpha / (context_totals[w1] + alpha * v))) for w1 in histories
    }
    bigram_logprob = {
        (w1, w2): quantize(math.log((c + alpha) / (context_totals[w1] + alpha * v)))
        for (w1, w2), c in bigram_counts.items()
    }
    unigram_logprob = {
        w: quantize(math.log((unigram_counts[w] + alpha) / denom_u)) for w in support
    }
    return BigramLm(
        bigram_logprob=bigram_logprob,
        unseen_logprob=unseen_logprob,
        unigram_logprob=unigram_logprob,
        alpha=alpha,
    )


@dataclass(frozen=True, eq=True)
class Checkpoint:
    iteration: int
    lexicon: LexiconTable
    lm: BigramLm
    corpus_loglik: float
    direction: str = "fwd"
    # decode_nbest's ranked emission rows, by (source word, top-k); valid
    # because nothing mutates a checkpoint's lexicon once it is built
    emissions: dict[tuple[str, int], list[tuple[str, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # model files rendered by training, as blocks of bytes by file name, for
    # save_checkpoint to write instead of rendering them again; it empties
    # this once written
    rendered: dict[str, list[bytes]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise ValidationError(f"checkpoint iteration must be >= 1, got {self.iteration}")
        if not math.isfinite(self.corpus_loglik):
            raise ValidationError("corpus log-likelihood must be finite")


@dataclass(frozen=True)
class Hypothesis:
    """A decoded token sequence and its total log-likelihood; n-best lists
    rank by its average per token."""

    tokens: tuple[str, ...]
    total_logprob: float


@dataclass(frozen=True)
class DecodeParams:
    n_best: int = 10
    top_k_lexicon: int = 8

    def __post_init__(self) -> None:
        if self.n_best < 1:
            raise ValidationError(f"n_best must be >= 1, got {self.n_best}")
        if self.top_k_lexicon < 1:
            raise ValidationError(f"top_k_lexicon must be >= 1, got {self.top_k_lexicon}")


def corpus_loglikelihood(
    lexicon: LexiconTable, parallel: Sequence[tuple[TokenSeq, TokenSeq]]
) -> float:
    """Sum over pairs of sum_j log((1/l) * sum_i t(f_j | e_i)), no NULL word."""
    # both sums add left to right from 0.0, as corpus.ordered_sum does
    total = 0.0
    for src, tgt in parallel:
        if not src or not tgt:
            continue
        inv_len = 1.0 / len(src)
        rows = [lexicon[e] for e in src if e in lexicon]
        for f in tgt:
            inner = 0.0
            for row in rows:
                inner += row.get(f, 0.0)
            total += math.log(max(inner * inv_len, PROB_FLOOR))
    return total


def train_toy(
    parallel: Sequence[tuple[TokenSeq, TokenSeq]],
    iterations: int,
    checkpoint_dir: Path | str,
    direction: str = "fwd",
    alpha: float = 0.1,
) -> list[tuple[int, float]]:
    """EM-train the lexicon into ``checkpoint_dir``, saving a checkpoint
    after every iteration, and return the ``(iteration, loglik)`` rows
    series.tsv lists (``load_series`` loads the checkpoints back).

    The directory must not be, or lie under, a file, nor hold a series.
    Each checkpoint is saved with ``save_checkpoint`` once the next E-step
    has summed its log-likelihood, and leaves memory before the next M-step,
    so training holds one lexicon and its text at a time, whatever the
    number of iterations, and the support once, as the lexicon's rows, whose
    keys keep the order of first co-occurrence that each E-step's count rows
    take and are summed in. The model's tables key on the corpus's own
    strings: one per word when the corpus holds one, as ``train`` reads it.
    The first pair, empty sides included, holding a word that is not a model
    word (``corpus.is_model_word``), a reserved token named first, is refused
    before anything is written. Training is deterministic.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    out_dir = Path(checkpoint_dir)
    _check_directory(out_dir)
    if out_dir.is_dir() and any(
        p.name == SERIES_INDEX or p.name.startswith("ckpt-") for p in out_dir.iterdir()
    ):
        raise ValidationError(
            f"{out_dir} already holds a checkpoint series; train into a new directory"
        )
    bad = {w for w in {w for pair in parallel for side in pair for w in side}
           if not is_model_word(w)}
    for number, (src, tgt) in enumerate(parallel, start=1):
        words = (*src, *tgt)
        if not bad.isdisjoint(words):
            reserved = [w for w in words if w in RESERVED_TOKENS]
            what = "uses the reserved token" if reserved else "holds the non-canonical word"
            word = reserved[0] if reserved else min(bad.intersection(words))
            raise ValidationError(f"sentence pair {number} {what} {word!r}: {src!r} -> {tgt!r}")
    pairs: list[tuple[TokenSeq, TokenSeq]] = []
    for src, tgt in parallel:
        if not src or not tgt:
            log.warning("skipping sentence pair with an empty side: %r -> %r", src, tgt)
            continue
        pairs.append((src, tgt))
    if not pairs:
        raise ValidationError("no usable sentence pairs in the parallel corpus")

    # the support never changes: a source word's lexicon row holds the words
    # it co-occurs with, in order of first co-occurrence, which the E-step's
    # count row takes and is summed in, and the in-place M-step keeps;
    # lexicon.tsv lists them sorted (``support``)
    first_seen: dict[str, dict[str, None]] = {}
    for src, tgt in pairs:
        targets = dict.fromkeys(tgt)
        for e in src:
            first_seen.setdefault(e, {}).update(targets)
    lexicon: LexiconTable = {
        e: dict.fromkeys(row, quantize(1.0 / len(row))) for e, row in sorted(first_seen.items())
    }
    del first_seen
    support = {e: sorted(row) for e, row in lexicon.items()}

    lm = build_bigram_lm([tgt for _, tgt in pairs], alpha=alpha)
    out_dir.mkdir(parents=True, exist_ok=True)
    lm_blocks = [_lm_text(lm).encode("utf-8")]

    rows: list[tuple[int, float]] = []

    def finish(
        iteration: int, lexicon: LexiconTable, blocks: list[bytes], loglik: float
    ) -> None:
        ckpt = Checkpoint(
            iteration=iteration,
            lexicon=lexicon,
            lm=lm,
            corpus_loglik=loglik,
            direction=direction,
        )
        ckpt.rendered.update({"lexicon.tsv": blocks, "lm.tsv": lm_blocks})
        save_checkpoint(ckpt, out_dir / checkpoint_name(iteration))
        rows.append((iteration, loglik))
        _write_series_index(out_dir, direction, rows)
        log.info("iteration %d: corpus log-likelihood %.6f", iteration, loglik)

    # the E-step of iteration it + 1 sums the log-likelihood of the lexicon
    # of iteration it, so that checkpoint is complete only after it
    lexicon_blocks: list[bytes] = []
    for it in range(1, iterations + 1):
        counts, loglik = _expected_counts(lexicon, pairs)
        if it > 1:
            finish(it - 1, lexicon, lexicon_blocks, loglik)
        # drop the loop's references, so a saved checkpoint leaves memory before the M-step
        del lexicon, lexicon_blocks
        lexicon, lexicon_blocks = _renormalize(counts, support)
    finish(iterations, lexicon, lexicon_blocks, corpus_loglikelihood(lexicon, pairs))
    return rows


def _expected_counts(
    lexicon: LexiconTable, pairs: Sequence[tuple[TokenSeq, TokenSeq]]
) -> tuple[dict[str, dict[str, float]], float]:
    """The E-step: fractional counts under ``lexicon``, each row starting at
    zero with the key order of the lexicon row it reads, and its
    ``corpus_loglikelihood``, added up from the same sums in the same order."""
    # z and loglik add left to right from 0.0, as corpus.ordered_sum does,
    # inline in the loops that do the E-step's work
    counts = {e: dict.fromkeys(row, 0.0) for e, row in lexicon.items()}
    loglik = 0.0
    log = math.log
    for src, tgt in pairs:
        inv_len = 1.0 / len(src)
        rows = [lexicon[e] for e in src]
        cells = [(lexicon[e], counts[e]) for e in src]
        for f in tgt:
            z = 0.0
            for row in rows:
                z += row[f]
            loglik += log(max(z * inv_len, PROB_FLOOR))
            for row, count_row in cells:
                count_row[f] += row[f] / z
    return counts, loglik


def _renormalize(
    counts: dict[str, dict[str, float]], support: dict[str, list[str]]
) -> tuple[LexiconTable, list[bytes]]:
    """The M-step, in place: ``counts`` becomes the quantized lexicon, and
    its lexicon.tsv text is built beside it, one block per source word.

    A row's total (``corpus.ordered_sum``) is taken before any count is
    replaced, in the order they were summed in. Each value is formatted once
    (``_format_value``), for both the lexicon and the text. The blocks are
    never joined, so the text is held once and in small pieces: one buffer
    of the whole text, grown as it is built, fragments the heap, and the
    process's peak then rises with the number of iterations.
    """
    blocks = []
    for e, targets in support.items():
        row = counts[e]
        norm = ordered_sum(row.values())
        lines = []
        for f in targets:
            row[f], value = _format_value(row[f] / norm)
            lines.append(f"{e}\t{f}\t{value}\n")
        blocks.append("".join(lines).encode("utf-8"))
    return counts, blocks


def emission_candidates(
    lexicon: LexiconTable, source_word: str, top_k: int
) -> list[tuple[str, float]]:
    """The per-position emission model: top-k lexicon entries, or a penalized copy."""
    row = lexicon.get(source_word)
    if not row:
        return [(source_word, UNKNOWN_COPY_LOGPROB)]
    ranked = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [(w, math.log(max(p, PROB_FLOOR))) for w, p in ranked]


def decode_nbest(
    ckpt: Checkpoint, source: Sequence[str], params: DecodeParams
) -> list[Hypothesis]:
    """The exact n-best hypotheses by average log-likelihood (k-best Viterbi).

    The states of a position are its candidate words (the bigram LM's
    history). Each state keeps the n best ``(-total, tokens)`` entries that
    reach it; every entry of a state is extended by the same emission and LM
    scores, so pruning to n per state never drops a member of the overall
    n-best (barring two partial totals that differ only in rounding and tie
    once extended). The LM is consulted once per (state, word) pair, and each
    checkpoint ranks a source word's lexicon row once
    (``Checkpoint.emissions``).
    """
    if not source:
        return [Hypothesis(tokens=(), total_logprob=0.0)]
    n = params.n_best
    top_k = params.top_k_lexicon
    logprob = ckpt.lm.logprob
    lattice = []
    for src_word in source:
        cands = ckpt.emissions.get((src_word, top_k))
        if cands is None:
            cands = emission_candidates(ckpt.lexicon, src_word, top_k)
            ckpt.emissions[(src_word, top_k)] = cands
        lattice.append(cands)
    # negation is exact, so plain tuple order is the key (-total, tokens)
    states: dict[str, list[tuple[float, tuple[str, ...]]]] = {BOS: [(0.0, ())]}
    for cands in lattice:
        extended = {}
        for word, emit_lp in cands:
            pool: list[tuple[float, tuple[str, ...]]] = []
            for prev, entries in states.items():
                lm_lp = logprob(prev, word)
                # -((total + emit_lp) + lm_lp), summed left to right like every total
                pool.extend([((neg - emit_lp) - lm_lp, toks) for neg, toks in entries])
            pool.sort()  # every entry gains the same last word, so prefixes decide ties
            extended[word] = [(neg, toks + (word,)) for neg, toks in pool[:n]]
        states = extended
    length = len(source)
    ranked = sorted(
        (neg / length, toks, neg) for entries in states.values() for neg, toks in entries
    )
    return [Hypothesis(tokens=toks, total_logprob=-neg) for _, toks, neg in ranked[:n]]


def _checksum(lexicon_blocks: Iterable[bytes], lm_blocks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for block in lexicon_blocks:
        digest.update(block)
    digest.update(b"\x00")
    for block in lm_blocks:
        digest.update(block)
    return digest.hexdigest()


def _lexicon_text(lexicon: LexiconTable) -> str:
    rows = []
    for e in sorted(lexicon):
        for f in sorted(lexicon[e]):
            rows.append(f"{e}\t{f}\t{lexicon[e][f]!r}\n")
    return "".join(rows)


def _lm_text(lm: BigramLm) -> str:
    """lm.tsv's text: every row, sorted by its two words, with the ``repr``
    of its value; training renders it once per series."""
    rows = [(w1, w2, lp) for (w1, w2), lp in lm.bigram_logprob.items()]
    rows.extend((w1, UNSEEN, lp) for w1, lp in lm.unseen_logprob.items())
    rows.extend((BACKOFF, w, lp) for w, lp in lm.unigram_logprob.items())
    rows.sort()  # no two rows share their words, so the values are never compared
    return "".join([f"{w1}\t{w2}\t{lp!r}\n" for w1, w2, lp in rows])


def _check_directory(directory: Path) -> None:
    """Refuse ``directory`` if it, or else its nearest existing parent, is not a directory."""
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"{existing} is not a directory")


def save_checkpoint(ckpt: Checkpoint, directory: Path | str) -> None:
    """Persist a checkpoint into the new directory ``directory``; two saves
    of the same checkpoint are byte-identical.

    The files are written into ``.NAME.partial`` beside ``directory``, which
    then takes its name with one rename, so ``directory`` is never
    half-written: a save that fails removes the partial directory, and a
    partial directory left by a crash is cleared by the next save of that
    name. A save never replaces anything: an existing ``directory``, or a
    file above it, raises ValidationError with nothing written.
    """
    directory = Path(directory)
    _check_directory(directory)
    if directory.exists():
        raise ValidationError(f"{directory} already exists; save a checkpoint into a new directory")
    # training's blocks if it rendered them, else the files rendered here
    rendered = ckpt.rendered
    lexicon_blocks = rendered.get("lexicon.tsv") or [_lexicon_text(ckpt.lexicon).encode("utf-8")]
    lm_blocks = rendered.get("lm.tsv") or [_lm_text(ckpt.lm).encode("utf-8")]
    meta_rows = [
        ("iteration", str(ckpt.iteration)),
        ("direction", ckpt.direction),
        ("corpus_loglik", repr(ckpt.corpus_loglik)),
        ("alpha", repr(ckpt.lm.alpha)),
        ("checksum", _checksum(lexicon_blocks, lm_blocks)),
    ]
    meta_text = "".join(f"{k}\t{v}\n" for k, v in meta_rows).encode("utf-8")

    partial = directory.parent / f".{directory.name}.partial"
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir(parents=True)
    try:
        for name, blocks in zip(CHECKPOINT_FILES, (lexicon_blocks, lm_blocks, [meta_text])):
            with (partial / name).open("wb") as sink:
                sink.writelines(blocks)
        os.replace(partial, directory)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    rendered.clear()


# bytes per read: a load holds about this much of a file at a time
_CHUNK = 1 << 14
# bytes that float() skips around a number ("\r" of a CRLF line ending among
# them) or reads between its digits ("_") but repr never writes, and that no
# canonical word holds, so only a block holding one needs its values checked;
# float() of bytes already rejects non-ASCII digits
_LENIENT_BYTES = (b" ", b"\r", b"\x0b", b"\x0c", b"_")


def _blocks(path: Path, digests: Sequence[hashlib._Hash]) -> Iterator[bytes]:
    """The bytes of ``path`` as blocks of whole lines, each block without its
    last newline, read in chunks of ``_CHUNK`` bytes that update every hash of
    ``digests`` as they are read. A last line with no newline ends the last
    block."""
    with open(path, "rb") as stream:
        pending: list[bytes] = []
        while chunk := stream.read(_CHUNK):
            for digest in digests:
                digest.update(chunk)
            end = chunk.rfind(b"\n")
            if end < 0:
                pending.append(chunk)
                continue
            pending.append(chunk[:end])
            yield b"".join(pending)
            pending = [chunk[end + 1 :]]
        last = b"".join(pending)
        if last:
            yield last


def _number(raw: bytes) -> float:
    """The value of a plain ASCII number, the one way a stored value is
    written (``repr`` of a finite float): text that float() reads, with no
    surrounding whitespace, ``_`` or non-ASCII digit, whose value is finite.
    Raises ValueError saying which of these ``raw`` is not."""
    try:
        value = float(raw)  # float() of bytes reads ASCII digits only
    except ValueError:
        raise ValueError("non-numeric value") from None
    if raw.strip() != raw or b"_" in raw:
        raise ValueError("badly written number")
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


# the model words seen so far, and the reserved tokens of lm.tsv's own rows,
# by their UTF-8 bytes, as the loader reads them, interned: each distinct word
# is checked once
_WORDS: dict[bytes, str] = {w.encode("utf-8"): w for w in RESERVED_TOKENS}


def _word(raw: bytes) -> str:
    """The model word (``corpus.is_model_word``) ``raw`` encodes, interned and
    added to ``_WORDS``; raises ValueError if it is not UTF-8 or not one."""
    try:
        word = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("invalid UTF-8") from None
    if not is_model_word(word):
        raise ValueError(f"non-canonical word {word!r}")
    word = _WORDS[raw] = sys.intern(word)
    return word


def _rows(blocks: Iterable[bytes], name: str) -> Iterator[tuple[str, dict[str, float]]]:
    """Each run of rows of a model file, lexicon.tsv or lm.tsv, that share
    their first word, as ``(w1, {w2: value})``. A row is
    ``word<TAB>word<TAB>number``, each word a model word (``_word``) or a
    reserved token, each number plain (``_number``), and its ``(w1, w2)``
    strictly after the row before's in UTF-8 byte order, which is the
    code-point order the files are written in; raises ValueError naming the
    first row that is not."""
    known = _WORDS.get
    prev = None
    last = b""  # the previous row's second word
    w1 = ""
    run: dict[str, float] = {}
    rows = 0  # in the blocks before this one
    for block in blocks:
        lenient = any(b in block for b in _LENIENT_BYTES)
        lines = block.split(b"\n")
        for line in lines:
            try:
                raw1, raw2, raw = line.split(b"\t")
                value = float(raw)
                # a value float() reads is other than a plain number only in
                # a block holding a lenient byte, or as nan or an infinity,
                # whose value - value is nan, so true
                if lenient or value - value:
                    value = _number(raw)
                if raw1 != prev:
                    word = known(raw1) or _word(raw1)
                    if prev is not None and raw1 < prev:
                        raise ValueError("unsorted or repeated row")
                    if run:
                        yield w1, run
                    prev, w1, run, last = raw1, word, {}, b""
                run[known(raw2) or _word(raw2)] = value
                # after the word's check, so a non-canonical word is reported
                # as that, wherever it sorts
                if raw2 <= last:
                    raise ValueError("unsorted or repeated row")
                last = raw2
            except ValueError as exc:
                shown = line.decode("utf-8", "replace")
                # the line itself, by identity: an equal line before it may be
                # the row it repeats (bytes of one byte or none are shared
                # objects, but such a line fails wherever it is first)
                index = next(i for i, other in enumerate(lines) if other is line)
                at = f"{name} row {rows + index + 1}: {shown!r}"
                if line.count(b"\t") != 2:
                    raise ValueError(f"corrupt {at}") from None
                try:
                    _number(raw)  # says why float() failed, if it did
                except ValueError as why:
                    exc = why
                raise ValueError(f"{exc} in {at}") from None
        rows += len(lines)
    if run:
        yield w1, run


def _parse_lexicon(blocks: Iterable[bytes]) -> LexiconTable:
    """The lexicon lexicon.tsv's line blocks hold; raises ValueError naming
    the first malformed row, or a source word whose row holds a reserved token
    or whose probabilities are not a distribution."""
    lexicon: LexiconTable = dict(_rows(blocks, "lexicon.tsv"))
    for e, row in lexicon.items():
        for token in RESERVED_TOKENS:
            if token == e or token in row:
                raise ValueError(f"lexicon row for {e!r} holds the reserved token {token!r}")
        total = ordered_sum(row.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"lexicon row for {e!r} sums to {total!r}, expected 1")
        if min(row.values()) < 0.0:
            raise ValueError(f"lexicon row for {e!r} holds a negative probability")
    return lexicon


def _parse_lm(blocks: Iterable[bytes], alpha: float) -> BigramLm:
    """The LM lm.tsv's line blocks hold; raises ValueError naming the first
    malformed row, or a reserved token out of its role: ``</s>`` or ``<other>``
    as a history, ``<s>`` or ``<unk>`` as a successor, or ``<unk> <other>``."""
    bigram: dict[tuple[str, str], float] = {}
    unseen: dict[str, float] = {}
    unigram: dict[str, float] = {}
    for w1, run in _rows(blocks, "lm.tsv"):
        if w1 in (EOS, UNSEEN):
            raise ValueError(f"reserved token {w1!r} is never a history in lm.tsv")
        for token in ((BOS, BACKOFF, UNSEEN) if w1 == BACKOFF else (BOS, BACKOFF)):
            if token in run:
                raise ValueError(f"reserved token {token!r} never follows {w1!r} in lm.tsv")
        if UNSEEN in run:
            unseen[w1] = run.pop(UNSEEN)
        if w1 == BACKOFF:
            unigram.update(run)
        else:
            for w2, lp in run.items():
                bigram[w1, w2] = lp
    return BigramLm(
        bigram_logprob=bigram, unseen_logprob=unseen, unigram_logprob=unigram, alpha=alpha
    )


# the LMs one model's loads share, by (lm.tsv digest, alpha)
LoadedLms = dict[tuple[str, float], BigramLm]


def _load_lm(
    path: Path, alpha: float, checksum: hashlib._Hash, digest: hashlib._Hash, lms: LoadedLms
) -> BigramLm:
    """The LM of an lm.tsv, whose bytes update ``checksum`` and the file's
    own ``digest``; raises ValueError naming a malformed row.

    ``lms`` holds the LMs already loaded by the caller's model, by (digest,
    alpha): every checkpoint of a series has the same lm.tsv (training
    estimates the LM once), so a series loaded through one index holds one
    LM, as a trained one does. The file is hashed first, and read again to
    be parsed only when its digest and alpha are not in ``lms``; that read
    must give the same digest, and only then is the LM added to ``lms``.
    """
    for _ in _blocks(path, (checksum, digest)):
        pass
    key = (digest.hexdigest(), alpha)
    lm = lms.get(key)
    if lm is None:
        again = hashlib.sha256()
        lm = _parse_lm(_blocks(path, (again,)), alpha)
        if again.digest() != digest.digest():
            raise ValueError("lm.tsv changed while it was read")
        lms[key] = lm
    return lm


def _read_meta(directory: Path, read: dict[Path, str]) -> tuple[int, str, float, float, str]:
    """meta.tsv's iteration, direction, corpus_loglik, alpha and checksum,
    each checked, from rows of ``key<TAB>value``, the key non-empty, unknown
    keys ignored; the sha256 of the bytes read is added to ``read``, by path."""
    if not directory.is_dir():
        raise CheckpointError(f"checkpoint directory not found: {directory}")
    if not (directory / "meta.tsv").is_file():
        raise CheckpointError(f"missing checkpoint file: {directory / 'meta.tsv'}")
    digest = hashlib.sha256()
    meta: dict[str, str] = {}
    for block in _blocks(directory / "meta.tsv", (digest,)):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"meta.tsv of {directory} is not UTF-8") from None
        for line in text.split("\n"):
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0]:
                raise CheckpointError(f"corrupt meta.tsv row in {directory}: {line!r}")
            if cols[0] in meta:
                raise CheckpointError(f"repeated key {cols[0]!r} in meta.tsv of {directory}")
            meta[cols[0]] = cols[1]
    for key in ("iteration", "direction", "corpus_loglik", "alpha", "checksum"):
        if key not in meta:
            raise CheckpointError(f"meta.tsv in {directory} is missing key {key!r}")
    if meta["direction"] not in DIRECTIONS:
        raise CheckpointError(f"bad direction {meta['direction']!r} in meta.tsv of {directory}")
    if _ITERATION.fullmatch(meta["iteration"]) is None:
        raise CheckpointError(f"bad iteration {meta['iteration']!r} in meta.tsv of {directory}")
    numbers = []
    for key in ("corpus_loglik", "alpha"):
        try:
            numbers.append(_number(meta[key].encode("utf-8")))
        except ValueError:
            raise CheckpointError(f"bad {key} {meta[key]!r} in meta.tsv of {directory}") from None
    read[directory / "meta.tsv"] = digest.hexdigest()
    return int(meta["iteration"]), meta["direction"], *numbers, meta["checksum"]


def load_checkpoint(
    directory: Path | str, meta: tuple[int, str, float, float, str] | None = None,
    lms: LoadedLms | None = None, read: dict[Path, str] | None = None,
) -> Checkpoint:
    """Load and verify the checkpoint in ``directory``; ``meta`` is what
    ``_read_meta`` gave for it, when its meta.tsv has been read already.
    ``lms`` and ``read``, which a direct call gets fresh, are what the loads
    of one index share: its LMs (``_load_lm``), and the sha256 of each file
    read, by path, to which this load adds those of its own files.

    Each file is read in chunks of ``_CHUNK`` bytes, and each chunk feeds
    the checksum (over the bytes on disk), the file's own sha256 and the row
    parser; no whole file, list of its lines or copy of it is held.
    lexicon.tsv and meta.tsv are read once; lm.tsv is hashed, and read a
    second time only when its LM is not in ``lms``. A malformed row is
    reported only once the checksum holds: a file whose checksum fails is
    reported as that.
    """
    directory = Path(directory)
    lms = {} if lms is None else lms
    read = {} if read is None else read
    iteration, direction, corpus_loglik, alpha, expected = meta or _read_meta(directory, read)
    digests = {name: hashlib.sha256() for name in ("lexicon.tsv", "lm.tsv")}  # in read order
    for name in digests:
        if not (directory / name).is_file():
            raise CheckpointError(f"missing checkpoint file: {directory / name}")

    checksum = hashlib.sha256()
    problems = []  # raised only once the checksum, known at the end, holds
    blocks = _blocks(directory / "lexicon.tsv", (checksum, digests["lexicon.tsv"]))
    try:
        lexicon = _parse_lexicon(blocks)
    except ValueError as exc:
        problems.append(exc)
        for _ in blocks:  # the rest of the file, for the checksum's verdict
            pass
    checksum.update(b"\x00")
    try:
        lm = _load_lm(directory / "lm.tsv", alpha, checksum, digests["lm.tsv"], lms)
    except ValueError as exc:
        problems.append(exc)
    if expected != checksum.hexdigest():
        raise CheckpointError(f"checksum mismatch for checkpoint {directory}")
    if problems:
        raise CheckpointError(f"{problems[0]} (in {directory})")
    read.update((directory / name, digest.hexdigest()) for name, digest in digests.items())
    return Checkpoint(
        iteration=iteration,
        lexicon=lexicon,
        lm=lm,
        corpus_loglik=corpus_loglik,
        direction=direction,
    )


def checkpoint_name(iteration: int) -> str:
    return f"ckpt-{iteration:04d}"


def _write_series_index(
    directory: Path, direction: str, rows: Sequence[tuple[int, float]]
) -> None:
    """Replace series.tsv atomically, so readers only ever see a whole index."""
    lines = [f"direction\t{direction}\n"]
    for iteration, loglik in rows:
        lines.append(f"{checkpoint_name(iteration)}\t{loglik!r}\n")
    partial = directory / (SERIES_INDEX + ".partial")
    partial.write_text("".join(lines), encoding="utf-8", newline="\n")
    os.replace(partial, directory / SERIES_INDEX)


def read_index(
    directory: Path | str, series: bool
) -> tuple[str, list[Callable[[], Checkpoint]], Path, dict[Path, str]]:
    """Read a model's index once: a series' series.tsv, or with ``series``
    false a lone checkpoint's meta.tsv. Returns the model's direction, one
    loader per checkpoint the index lists, oldest first, the index's path
    and the sha256 of each file read, by path: the index's, then those of
    each checkpoint loaded. The loaders share their LMs (``_load_lm``).

    Nothing else is read until a loader is called. A series' loader checks
    its checkpoint against its index row (iteration, direction and
    log-likelihood); a lone checkpoint's loader reuses the meta.tsv values
    read here. series.tsv's rows are split on LF alone and each
    log-likelihood must be a plain ASCII number (``_number``), so a CRLF
    copy, or a value with surrounding whitespace or ``_``, is malformed.
    """
    directory = Path(directory)
    lms: LoadedLms = {}
    read: dict[Path, str] = {}
    if not series:
        meta = _read_meta(directory, read)
        return (meta[1], [lambda: load_checkpoint(directory, meta, lms, read)],
                directory / "meta.tsv", read)
    if not directory.is_dir():
        raise CheckpointError(f"checkpoint series directory not found: {directory}")
    path = directory / SERIES_INDEX
    if not path.is_file():
        raise CheckpointError(f"missing series index: {path}")
    data = path.read_bytes()
    read[path] = hashlib.sha256(data).hexdigest()
    try:
        lines = data.decode("utf-8").removesuffix("\n").split("\n")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path} is not UTF-8") from None
    head = lines[0].split("\t")
    if len(head) != 2 or head[0] != "direction" or head[1] not in DIRECTIONS:
        raise CheckpointError(f"{path}: first row must be 'direction<TAB>fwd|bwd'")
    direction = head[1]
    rows: list[tuple[int, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        match = _CKPT_NAME.fullmatch(cols[0])
        if len(cols) != 2 or match is None or checkpoint_name(int(match[1])) != cols[0]:
            raise CheckpointError(f"{path} row {lineno}: expected 'ckpt-NNNN<TAB>loglik': {line!r}")
        try:
            loglik = _number(cols[1].encode("utf-8"))
        except ValueError:
            raise CheckpointError(f"{path} row {lineno}: bad log-likelihood {cols[1]!r}") from None
        iteration = int(match[1])
        if rows and iteration <= rows[-1][0]:
            raise CheckpointError(f"{path} row {lineno}: iterations must strictly increase")
        if rows and loglik < rows[-1][1] - 1e-9:
            raise CheckpointError(f"{path} row {lineno}: log-likelihood decreases")
        rows.append((iteration, loglik))
    if not rows:
        raise CheckpointError(f"{path} lists no checkpoints")

    def load(iteration: int, loglik: float) -> Checkpoint:
        ckpt_dir = directory / checkpoint_name(iteration)
        ckpt = load_checkpoint(ckpt_dir, None, lms, read)
        if (ckpt.iteration, ckpt.direction, ckpt.corpus_loglik) != (iteration, direction, loglik):
            raise CheckpointError(
                f"{ckpt_dir} (iteration {ckpt.iteration}, {ckpt.direction}, loglik "
                f"{ckpt.corpus_loglik!r}) does not match its {SERIES_INDEX} row "
                f"(iteration {iteration}, {direction}, loglik {loglik!r})"
            )
        return ckpt

    return direction, [functools.partial(load, *row) for row in rows], path, read


def load_series(directory: Path | str) -> tuple[Checkpoint, ...]:
    """Load every checkpoint series.tsv lists, oldest first, each checked
    against its row (``read_index``); directories the index does not list
    are ignored."""
    return tuple(load() for load in read_index(directory, series=True)[1])
