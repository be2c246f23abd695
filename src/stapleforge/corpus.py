"""Prompt/translation corpora: normalization, block-format parsing, and writing.

Gold file format (UTF-8, LF line endings):

    q1|is my explanation clear?
    minha explicação está clara?|0.26739
    minha explicação é clara?|0.16168

    q2|this is my fault.
    isto é minha culpa.|0.17991

One block per prompt: a header line ``id|prompt text`` followed by one
``translation|weight`` line per accepted translation (weight is a decimal in
(0, 1], ``.`` separator, at most 6 fractional digits), blocks separated by a
blank line. Weights are response fractions; a block's weights may sum to less
than 1 (published sets are often truncated) and are never renormalized.

Prediction files use the same block layout with bare translation lines (no
weights). A prompts file is just the header lines, one ``id|text`` per line.
Every header is read alike: split on the first ``|``, both sides stripped,
the id non-empty and unique within its file. Every text input, these three,
the parallel corpus and the ``bpe`` inputs, is split into lines by one rule
(``split_lines``): a line ends at LF, CRLF or CR only, and a leading
byte-order mark is dropped.

``normalize`` defines a sentence's canonical form (NFC, lowercase, strip
punctuation, collapse whitespace). It is the one comparison rule of the
toolkit, applied once where a sentence is read: the parsers hold prompts,
gold translations and candidates in canonical form, so the methods decode
prompts as they are, the scorer and the methods compare plain strings, and
models read canonical text only. A model word (``is_model_word``) is one
canonical token other than the ``RESERVED_TOKENS``, which mark the LM's own
rows: training, the checkpoint loader and prompts admit no other word.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

WEIGHT_SUM_TOLERANCE = 1e-6
# the weight literal grammar; the range (0, 1] is checked on the value
WEIGHT_LITERAL = re.compile(r"[0-9]+(?:\.[0-9]{1,6})?")


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: the package's one float total,
    the same on every Python version, where builtin ``sum`` of floats is
    compensated since 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


class _PunctDeletion(dict):
    """A ``str.translate`` table deleting punctuation: each code point is
    looked up with ``is_punct`` the first time it is met, then remembered."""

    def __missing__(self, code: int) -> int | None:
        kept = None if is_punct(chr(code)) else code
        self[code] = kept
        return kept


_DROP_PUNCT = _PunctDeletion()


# the LM's sentence boundaries, the add-alpha row of a successor unseen after
# its history and the unigram-backoff row of an unknown history; no model
# reads them as words
RESERVED_TOKENS = ("<s>", "</s>", "<other>", "<unk>")


def normalize(text: str) -> str:
    """Canonicalize a sentence: NFC, lowercase, strip Unicode punctuation,
    collapse whitespace, NFC.

    Deterministic and idempotent for every Unicode input; an empty result is
    legal and signals an all-punctuation input. The result holds no
    punctuation and single spaces only between words, so ``split()`` is its
    tokenization.
    """
    text = unicodedata.normalize("NFC", text).lower()
    text = text.translate(_DROP_PUNCT)
    text = " ".join(text.split())
    # removing characters can juxtapose a base letter with a combining mark;
    # re-composing keeps normalize(normalize(x)) == normalize(x)
    return unicodedata.normalize("NFC", text)


def is_model_word(word: str) -> bool:
    """Whether a model may read ``word``: one canonical token, since its
    candidates are compared with canonical gold as plain strings, and not a
    reserved one."""
    return normalize(word).split() == [word] and word not in RESERVED_TOKENS


@dataclass(frozen=True)
class Prompt:
    """A prompt and its canonical text, empty if it was punctuation alone."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("prompt id must be non-empty")
        if any(ch in self.id for ch in "|\t\n"):
            raise ValidationError(f"prompt id may not contain '|', a tab or newline: {self.id!r}")
        if normalize(self.text) != self.text:
            raise ValidationError(f"prompt {self.id}: text {self.text!r} is not in canonical form")
        reserved = [w for w in self.text.split() if w in RESERVED_TOKENS]
        if reserved:
            raise ValidationError(f"prompt {self.id}: holds the reserved token {reserved[0]!r}")


@dataclass(frozen=True)
class WeightedTranslation:
    """An accepted translation in canonical form and its response weight."""

    text: str
    weight: float

    def __post_init__(self) -> None:
        if normalize(self.text) != self.text:
            raise ValidationError(f"translation {self.text!r} is not in canonical form")
        if not (0.0 < self.weight <= 1.0):
            raise ValidationError(f"weight {self.weight} outside (0, 1] for {self.text!r}")


@dataclass(frozen=True)
class GoldSet:
    """A prompt plus its canonical weighted translations, sorted by weight."""

    prompt: Prompt
    translations: tuple[WeightedTranslation, ...]

    @property
    def total_weight(self) -> float:
        return ordered_sum(t.weight for t in self.translations)


@dataclass(frozen=True)
class PredictionSet:
    """Canonical, de-duplicated candidate translations for one prompt, best first."""

    prompt_id: str
    candidates: tuple[str, ...]


def split_lines(text: str) -> list[str]:
    """The lines of a text input, by the one line rule of every text file the
    toolkit reads: a line ends at LF, CRLF or CR only, never at the other
    characters ``str.splitlines`` ends one at (VT, FF, NEL, U+2028, U+2029
    and more), a leading byte-order mark is dropped, and a final line end
    starts no further line."""
    lines = text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _blocks(stream: str) -> Iterable[list[tuple[int, str]]]:
    """Yield blocks as lists of (1-based line number, line), lines as
    ``split_lines`` reads them.

    Only strictly empty lines separate blocks; a whitespace-only line stays
    inside its block (prediction parsing skips it with a warning).
    """
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(split_lines(stream), start=1):
        if line == "":
            if block:
                yield block
                block = []
            continue
        block.append((lineno, line))
    if block:
        yield block


def _read_header(lineno: int, line: str, seen: set[str]) -> tuple[str, str]:
    """The stripped id and text of a header; the id must be non-empty and not
    in ``seen``, the file's ids so far, to which it is added."""
    if "|" not in line:
        raise ParseError(f"malformed header (expected 'id|prompt'): {line!r}", lineno)
    pid, text = (part.strip() for part in line.split("|", 1))
    if not pid:
        raise ValidationError("prompt id must be non-empty", lineno)
    if pid in seen:
        raise ValidationError(f"duplicate prompt id {pid!r}", lineno)
    seen.add(pid)
    return pid, text


def _parse_prompt(lineno: int, line: str, seen: set[str]) -> Prompt:
    pid, text = _read_header(lineno, line, seen)
    try:
        if not text:
            raise ValidationError(f"prompt {pid}: text is empty")
        return Prompt(id=pid, text=normalize(text))
    except ValidationError as exc:
        raise ValidationError(str(exc), lineno) from None


def parse_gold(stream: str) -> list[GoldSet]:
    """Parse a gold corpus into canonical translations sorted by weight, non-increasing."""
    golds: list[GoldSet] = []
    ids: set[str] = set()
    for block in _blocks(stream):
        header_lineno, header = block[0]
        prompt = _parse_prompt(header_lineno, header, ids)
        if len(block) == 1:
            raise ValidationError(f"empty block for prompt {prompt.id!r}", header_lineno)
        translations: list[WeightedTranslation] = []
        seen: dict[str, str] = {}
        for lineno, line in block[1:]:
            if "|" not in line:
                raise ParseError(f"expected 'translation|weight': {line!r}", lineno)
            raw, weight_str = line.rsplit("|", 1)
            raw = raw.strip()
            if WEIGHT_LITERAL.fullmatch(weight_str) is None:
                raise ParseError(
                    f"bad weight literal {weight_str!r} (expected a decimal like 0.26739, "
                    f"'.' separator, at most 6 fractional digits)",
                    lineno,
                )
            weight = float(weight_str)
            text = normalize(raw)
            if not text:
                raise ValidationError(f"translation is empty after normalization: {raw!r}", lineno)
            if text in seen:
                raise ValidationError(
                    f"duplicate translation {raw!r} (same as {seen[text]!r} after normalization)",
                    lineno,
                )
            seen[text] = raw
            try:
                translations.append(WeightedTranslation(text=text, weight=weight))
            except ValidationError as exc:
                raise ValidationError(str(exc), lineno) from None
        total = ordered_sum(t.weight for t in translations)
        if total > 1.0 + WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"weights for prompt {prompt.id!r} sum to {total}, above 1", header_lineno
            )
        translations.sort(key=lambda t: -t.weight)
        golds.append(GoldSet(prompt=prompt, translations=tuple(translations)))
    return golds


def parse_predictions(stream: str) -> list[PredictionSet]:
    """Parse a prediction corpus.

    Candidates come back in canonical form, de-duplicated (first occurrence
    wins); an all-punctuation line is the empty sentence, which matches no
    gold translation. Every dropped line is reported through the module
    logger: nothing is discarded silently.
    """
    sets: list[PredictionSet] = []
    ids: set[str] = set()
    for block in _blocks(stream):
        pid, _ = _read_header(*block[0], ids)
        candidates: dict[str, None] = {}  # insertion-ordered set
        for lineno, line in block[1:]:
            raw = line.strip()
            if not raw:
                log.warning("line %d: skipped empty candidate line", lineno)
                continue
            text = normalize(raw)
            if text in candidates:
                log.warning("line %d: dropped duplicate candidate %r", lineno, raw)
                continue
            candidates[text] = None
        sets.append(PredictionSet(prompt_id=pid, candidates=tuple(candidates)))
    return sets


def write_predictions(sets: Iterable[PredictionSet], sink: TextIO) -> None:
    """Write prediction sets in block format; parse_predictions inverts this."""
    first = True
    for pset in sets:
        if not first:
            sink.write("\n")
        first = False
        sink.write(f"{pset.prompt_id}|\n")
        for cand in pset.candidates:
            if not cand.strip():
                raise ValidationError(
                    f"prompt {pset.prompt_id!r}: empty candidates cannot be written"
                )
            sink.write(cand + "\n")


def parse_prompts(stream: str) -> list[Prompt]:
    """Parse a prompts file: one ``id|text`` line per prompt (``split_lines``),
    blank lines ignored."""
    prompts: list[Prompt] = []
    ids: set[str] = set()
    for lineno, raw in enumerate(split_lines(stream), start=1):
        line = raw.strip()
        if line:
            prompts.append(_parse_prompt(lineno, line, ids))
    return prompts
