"""Independent oracles and random-instance generators used by the tests, plus
a helper that edits a checkpoint's model files behind its checksum.

Everything here deliberately re-derives results from first principles rather
than calling the implementation paths it checks: the decoding oracle
enumerates every candidate sequence, the BPE oracle rescans the whole corpus
every round, the normalization oracle tests each character on its own, and
the scoring oracle evaluates the metric definitions directly
on normalized sets.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Sequence

from stapleforge.corpus import (
    GoldSet,
    PredictionSet,
    Prompt,
    WeightedTranslation,
    normalize,
)
from stapleforge.errors import ValidationError
from stapleforge.translator import (
    BOS,
    Checkpoint,
    Hypothesis,
    build_bigram_lm,
    emission_candidates,
    quantize,
)

EOW = "</w>"
EXHAUSTIVE_LIMIT = 10**6


class SearchSpaceError(Exception):
    """Exhaustive enumeration refused because the candidate space is too large."""


def exhaustive_nbest(
    ckpt: Checkpoint, source: Sequence[str], n_best: int, top_k_lexicon: int = 8
) -> list[Hypothesis]:
    """Enumerate the full candidate space under the decoder's emission model.

    This is the testing oracle for decode_nbest; it refuses spaces larger than
    10^6 sequences.
    """
    if n_best < 1:
        raise ValidationError(f"n_best must be >= 1, got {n_best}")
    if not source:
        return [Hypothesis(tokens=(), total_logprob=0.0)]
    per_position = [emission_candidates(ckpt.lexicon, w, top_k_lexicon) for w in source]
    size = 1
    for cands in per_position:
        size *= len(cands)
        if size > EXHAUSTIVE_LIMIT:
            raise SearchSpaceError(
                f"candidate space holds at least {size} sequences "
                f"(limit {EXHAUSTIVE_LIMIT}); refusing to enumerate"
            )
    hyps: list[Hypothesis] = []
    for combo in itertools.product(*per_position):
        total = 0.0
        prev = BOS
        toks: list[str] = []
        for word, emit_lp in combo:
            total = total + emit_lp + ckpt.lm.logprob(prev, word)
            toks.append(word)
            prev = word
        hyps.append(Hypothesis(tokens=tuple(toks), total_logprob=total))
    # by average log-likelihood per token, best first, then by tokens
    hyps.sort(key=lambda h: (-(h.total_logprob / max(1, len(h.tokens))), h.tokens))
    return hyps[:n_best]


def normalize_oracle(text: str) -> str:
    """``corpus.normalize`` written character by character: NFC, lowercase,
    drop each character whose Unicode category is punctuation, collapse
    whitespace, NFC."""
    text = unicodedata.normalize("NFC", text).lower()
    text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    return unicodedata.normalize("NFC", " ".join(text.split()))


def bpe_learn_oracle(corpus: list[list[str]], num_merges: int) -> list[tuple[str, str]]:
    """Brute-force BPE learning: recount every adjacent pair each round."""
    freq: Counter[str] = Counter()
    for seq in corpus:
        freq.update(seq)
    words = {w: tuple(w[:-1]) + (w[-1] + EOW,) for w in freq}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pairs: Counter[tuple[str, str]] = Counter()
        for w, syms in words.items():
            for pair in zip(syms, syms[1:]):
                pairs[pair] += freq[w]
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        left, right = best
        for w, syms in words.items():
            out: list[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = tuple(out)
    return merges


def score_prompt_oracle(gold: GoldSet, pred: PredictionSet) -> tuple[float, float, float]:
    """Direct evaluation of the metric definitions on normalized sets."""
    gold_keys = {normalize(t.text): t.weight for t in gold.translations}
    pred_keys = {normalize(c) for c in pred.candidates}
    tp = len(pred_keys & set(gold_keys))
    fp = len(pred_keys - set(gold_keys))
    wtp = sum(w for k, w in gold_keys.items() if k in pred_keys)
    wfn = sum(w for k, w in gold_keys.items() if k not in pred_keys)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = wtp / (wtp + wfn) if wtp + wfn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision and recall else 0.0
    return precision, recall, f1


def gen_random_parallel(rng: random.Random) -> list[tuple[list[str], list[str]]]:
    """A random toy parallel corpus for EM property tests."""
    svocab = [f"e{i}" for i in range(rng.randint(2, 5))]
    tvocab = [f"f{i}" for i in range(rng.randint(2, 5))]
    pairs = []
    for _ in range(rng.randint(2, 8)):
        src = [rng.choice(svocab) for _ in range(rng.randint(1, 5))]
        tgt = [rng.choice(tvocab) for _ in range(rng.randint(1, 5))]
        pairs.append((src, tgt))
    return pairs


def gen_random_checkpoint(rng: random.Random) -> Checkpoint:
    """A random small checkpoint (lexicon + LM) for decoder equivalence tests."""
    tvocab = [f"t{i}" for i in range(rng.randint(2, 5))]
    lexicon: dict[str, dict[str, float]] = {}
    for i in range(rng.randint(1, 3)):
        targets = rng.sample(tvocab, rng.randint(1, min(4, len(tvocab))))
        raw = [rng.uniform(0.05, 1.0) for _ in targets]
        total = sum(raw)
        lexicon[f"s{i}"] = {t: quantize(x / total) for t, x in zip(targets, raw)}
    lm_corpus = [
        [rng.choice(tvocab) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 5))
    ]
    lm = build_bigram_lm(lm_corpus, alpha=rng.choice([0.01, 0.1, 1.0]))
    return Checkpoint(
        iteration=1,
        lexicon=lexicon,
        lm=lm,
        corpus_loglik=-1.0,
        direction="fwd",
    )


def gen_random_lattice(
    rng: random.Random, max_space: int = 20_000
) -> tuple[Checkpoint, list[str]]:
    """A random checkpoint with up to 8 candidates per source word, and a 4-6
    word source over it (OOV words included), for decoder exactness tests.

    Sources are redrawn until their lattice holds at most ``max_space``
    sequences, which keeps the exhaustive oracle fast.
    """
    tvocab = [f"t{i}" for i in range(rng.randint(8, 12))]
    lexicon: dict[str, dict[str, float]] = {}
    for i in range(rng.randint(2, 4)):
        targets = rng.sample(tvocab, rng.randint(2, 8))
        raw = [rng.uniform(0.05, 1.0) for _ in targets]
        total = sum(raw)
        lexicon[f"s{i}"] = {t: quantize(x / total) for t, x in zip(targets, raw)}
    lm_corpus = [
        [rng.choice(tvocab) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(2, 12))
    ]
    lm = build_bigram_lm(lm_corpus, alpha=rng.choice([0.01, 0.1, 1.0]))
    ckpt = Checkpoint(
        iteration=1,
        lexicon=lexicon,
        lm=lm,
        corpus_loglik=-1.0,
        direction="fwd",
    )
    words = [*lexicon, "oov"]
    width = {w: len(lexicon.get(w, ())) or 1 for w in words}
    while True:
        source = [rng.choice(words) for _ in range(rng.randint(4, 6))]
        if math.prod(width[w] for w in source) <= max_space:
            return ckpt, source


def gen_random_gold(rng: random.Random, prompt_id: str = "g") -> GoldSet:
    n = rng.randint(1, 8)
    texts = rng.sample([f"sentence variant {i}" for i in range(20)], n)
    weights = sorted((rng.uniform(0.001, 1.0 / n) for _ in range(n)), reverse=True)
    return GoldSet(
        prompt=Prompt(id=prompt_id, text="a prompt"),
        translations=tuple(
            WeightedTranslation(text=t, weight=w) for t, w in zip(texts, weights)
        ),
    )


def rewrite_model_file(ckpt_dir: Path, name: str, text: str) -> None:
    """Replace a checkpoint's lexicon.tsv or lm.tsv with ``text`` and restamp
    meta.tsv's checksum (sha256 over lexicon.tsv, a NUL byte, then lm.tsv), so
    that only the loader's row checks can reject the new file."""
    (ckpt_dir / name).write_text(text, encoding="utf-8", newline="\n")
    digest = hashlib.sha256()
    digest.update((ckpt_dir / "lexicon.tsv").read_bytes())
    digest.update(b"\x00")
    digest.update((ckpt_dir / "lm.tsv").read_bytes())
    meta = ckpt_dir / "meta.tsv"
    rows = [row for row in meta.read_text(encoding="utf-8").splitlines()
            if not row.startswith("checksum\t")]
    rows.append(f"checksum\t{digest.hexdigest()}")
    meta.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


def word_renamed(path: Path, old: str, new: str) -> str:
    """The text of a lexicon.tsv or lm.tsv with every ``old`` word renamed
    ``new`` and its rows sorted again by their two words' UTF-8 bytes, as
    they are written, so only the loader's word checks can reject it."""
    rows = [row.split("\t") for row in path.read_text(encoding="utf-8").splitlines()]
    rows = [[new if word == old else word for word in row[:2]] + row[2:] for row in rows]
    rows.sort(key=lambda row: (row[0].encode("utf-8"), row[1].encode("utf-8")))
    return "".join("\t".join(row) + "\n" for row in rows)


def row_added(path: Path, row: str) -> str:
    """The text of a lexicon.tsv or lm.tsv with ``row`` added where its two
    words sort, for ``rewrite_model_file``."""
    rows = [*path.read_text(encoding="utf-8").splitlines(), row]
    rows.sort(key=lambda row: [word.encode("utf-8") for word in row.split("\t")[:2]])
    return "".join(row + "\n" for row in rows)


FULL_WIDTH_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def first_value_rewritten(path: Path, rewrite) -> str:
    """The text of a lexicon.tsv or lm.tsv with its first row's value
    replaced by ``rewrite`` of it, for ``rewrite_model_file``."""
    rows = path.read_text(encoding="utf-8").splitlines()
    key, value = rows[0].rsplit("\t", 1)
    rows[0] = f"{key}\t{rewrite(value)}"
    return "\n".join(rows) + "\n"
