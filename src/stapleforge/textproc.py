"""Whitespace tokenization of canonical text and joint byte-pair encoding.

``sentence_tokens`` is the one way text becomes model tokens: the sentence's
canonical form (``corpus.normalize``), then the tokenizer. Training, BPE
learning and decoding all call it, so a model reads canonical text only.

Canonical text holds no punctuation and single spaces between words, so the
tokenizer is a whitespace split, and joining tokens with single spaces
inverts it.

BPE follows the usual scheme: every word type is decomposed into characters
with an end-of-word marker attached to the final character as a suffix
("low" -> l o w</w>), then the most frequent adjacent symbol pair is merged
repeatedly. Frequency ties are broken lexicographically by (left, right) so
learning is deterministic. Segmented output uses the ``@@`` continuation
suffix on every non-final subword of a word, which bpe_decode inverts. The
suffix is therefore reserved: a token whose own text ends in ``@@`` cannot
round-trip (its terminal subword is indistinguishable from a continuation),
and bpe_apply warns when it meets one.

Model file format: first line ``#bpe v1 eow=</w>``, then one merge per line
as ``left<TAB>right`` in learned order. Exact bytes matter: the file is the
model.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .corpus import normalize, split_lines
from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

TokenSeq = list[str]

EOW = "</w>"
CONTINUATION = "@@"
BPE_HEADER = f"#bpe v1 eow={EOW}"


def tokenize(text: str) -> TokenSeq:
    """Split canonical text (``corpus.normalize``'s output) into its words."""
    return text.split()


def sentence_tokens(text: str) -> TokenSeq:
    """The tokens a model reads for a sentence: its canonical form, tokenized."""
    return tokenize(normalize(text))


@dataclass(frozen=True)
class BpeModel:
    """An ordered merge inventory; list position is the merge rank."""

    merges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.merges)) != len(self.merges):
            raise ValidationError("BPE merges must be pairwise distinct")

    @property
    def num_merges(self) -> int:
        return len(self.merges)

    @property
    def ranks(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}


def _decompose(word: str) -> tuple[str, ...]:
    # end-of-word marker rides on the final character as a suffix symbol
    return tuple(word[:-1]) + (word[-1] + EOW,)


def _merge_symbols(symbols: Sequence[str], pair: tuple[str, str]) -> tuple[str, ...]:
    """Replace non-overlapping occurrences of pair, left to right."""
    left, right = pair
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _adjacent_pairs(symbols: Sequence[str]) -> Iterable[tuple[str, str]]:
    return zip(symbols, symbols[1:])


def bpe_learn(corpus: Iterable[TokenSeq], num_merges: int) -> BpeModel:
    """Learn merge operations from tokenized text.

    Pair frequencies are counted over word types weighted by token frequency,
    and statistics are updated incrementally: after a merge only the word
    types that contained the merged pair are rescanned. Each merge is the
    least ``(-count, pair)`` of a heap with lazy deletion: it is built once
    from the initial counts, every pair whose count a merge changed is pushed
    again with its new count, and an entry whose count is no longer the
    pair's current one is dropped when it reaches the top. So picking a merge
    costs a few heap operations rather than a scan of every pair count, and
    the merges are those of the full scan. Joint BPE is simply a matter of
    concatenating the source and target corpora before calling this.
    """
    if num_merges < 0:
        raise ValidationError(f"num_merges must be >= 0, got {num_merges}")
    word_freq: Counter[str] = Counter()
    for seq in corpus:
        word_freq.update(seq)
    if not word_freq:
        raise ValidationError("BPE corpus is empty")

    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for word, freq in word_freq.items():
        words.append(_decompose(word))
        freqs.append(freq)

    stats: Counter[tuple[str, str]] = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for idx, symbols in enumerate(words):
        for pair in _adjacent_pairs(symbols):
            stats[pair] += freqs[idx]
            where.setdefault(pair, set()).add(idx)

    heap = [(-count, pair) for pair, count in stats.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(merges) < num_merges and heap:
        neg_count, best = heapq.heappop(heap)
        if stats.get(best) != -neg_count:  # stale: the pair's count has changed
            continue
        merges.append(best)
        touched: set[tuple[str, str]] = set()
        for idx in sorted(where.get(best, ())):
            old = words[idx]
            new = _merge_symbols(old, best)
            freq = freqs[idx]
            touched.update(_adjacent_pairs(old), _adjacent_pairs(new))
            for pair in _adjacent_pairs(old):
                stats[pair] -= freq
                if stats[pair] <= 0:
                    del stats[pair]
                bucket = where.get(pair)
                if bucket is not None:
                    bucket.discard(idx)
                    if not bucket:
                        del where[pair]
            for pair in _adjacent_pairs(new):
                stats[pair] += freq
                where.setdefault(pair, set()).add(idx)
            words[idx] = new
        for pair in touched:
            if pair in stats:
                heapq.heappush(heap, (-stats[pair], pair))
    return BpeModel(merges=tuple(merges))


def bpe_apply(model: BpeModel, tokens: Sequence[str]) -> TokenSeq:
    """Segment each word into subwords using the model's merges in rank order."""
    ranks = model.ranks
    out: TokenSeq = []
    cache: dict[str, list[str]] = {}
    for word in tokens:
        segmented = cache.get(word)
        if segmented is None:
            segmented = _segment_word(word, ranks)
            cache[word] = segmented
        out.extend(segmented)
    return out


def _segment_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    symbols = _decompose(word)
    while len(symbols) > 1:
        ranked = [
            (ranks[pair], pair) for pair in set(_adjacent_pairs(symbols)) if pair in ranks
        ]
        if not ranked:
            break
        _, pair = min(ranked)
        symbols = _merge_symbols(symbols, pair)
    stripped = symbols[:-1] + (symbols[-1][: -len(EOW)],)
    subwords = [s + CONTINUATION for s in stripped[:-1]] + [stripped[-1]]
    if subwords[-1].endswith(CONTINUATION):
        log.warning(
            "word %r segments to a terminal subword ending in %s; decode cannot invert it",
            word,
            CONTINUATION,
        )
    return subwords


def bpe_decode(tokens: Sequence[str]) -> TokenSeq:
    """Invert bpe_apply: join each run of ``@@``-marked subwords with its terminal."""
    out: TokenSeq = []
    buffer = ""
    for tok in tokens:
        if tok.endswith(CONTINUATION):
            buffer += tok[: -len(CONTINUATION)]
        else:
            out.append(buffer + tok)
            buffer = ""
    if buffer:
        log.warning("dangling %s continuation at end of sequence", CONTINUATION)
        out.append(buffer)
    return out


def save_bpe(model: BpeModel, sink: TextIO) -> None:
    sink.write(BPE_HEADER + "\n")
    for left, right in model.merges:
        sink.write(f"{left}\t{right}\n")


def load_bpe(stream: str) -> BpeModel:
    lines = split_lines(stream)
    if not lines or lines[0].strip() != BPE_HEADER:
        raise ParseError(f"bad BPE model header (expected {BPE_HEADER!r})", 1)
    merges: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 'left<TAB>right': {line!r}", lineno)
        merges.append((cols[0], cols[1]))
    return BpeModel(merges=tuple(merges))
