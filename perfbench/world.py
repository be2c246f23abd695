"""Seeded synthetic world for the stapleforge benchmark.

The world is built only from the seed (``random.Random(seed)``); the program
under test never sees the seed, only the files written here:

    parallel.tsv   source<TAB>target training pairs (monotone, one target
                   word per source word, drawn from a hidden lexicon)
    src.txt        the source side, one sentence per line (BPE input)
    tgt.txt        the target side, one sentence per line (BPE input)
    prompts.txt    ``id|text`` prompts
    gold.txt       weighted gold sets for the prompts, derived from the hidden
                   lexicon so that a trained model scores well above 0

The sizes are the module constants below: the ROADMAP world (2,000 source
and 3,000 target types, 5,000 pairs of 3-12 tokens) scaled down to 600/900
types and 1,500 pairs of 3-8 tokens, so that a benchmark run with its two
trained set-ups takes well under a minute on 2 cores. 1-3 targets per source
word and 200 prompts with 1-6 gold variants are kept.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path

SRC_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z")
SRC_VOWELS = ("a", "e", "i", "o", "u")
TGT_ONSETS = ("b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "qu", "r", "s", "t", "v", "ch")
TGT_VOWELS = ("a", "e", "i", "o", "u", "á", "ã", "é", "ê", "í", "ó", "õ", "ú", "ç")
END_PUNCT = (".", ".", ".", "!", "?")

SOURCE_TYPES = 600
TARGET_TYPES = 900
PAIRS = 1500
MIN_LEN = 3
MAX_LEN = 8
PROMPTS = 200
PROMPT_MAX_LEN = 6
MAX_GOLD = 6


def _words(rng: random.Random, count: int, onsets, vowels) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cumulative(count: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(count)))


def _draw(rng: random.Random, items: list, cumulative: list[float]):
    return items[bisect.bisect(cumulative, rng.random() * cumulative[-1])]


def _surface(tokens: list[str], rng: random.Random) -> str:
    """Sentence case plus final punctuation; normalization maps it back."""
    text = " ".join(tokens)
    return text[:1].upper() + text[1:] + rng.choice(END_PUNCT)


def _weights(rng: random.Random, raw: list[float]) -> list[str]:
    """Scale raw weights to a total in [0.8, 0.99], as decimals with 6 digits, all > 0."""
    total = sum(raw)
    scale = rng.uniform(0.8, 0.99) / total
    return [f"{max(1, int(w * scale * 1_000_000)) / 1_000_000:.6f}" for w in raw]


class World:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        rng = self.rng
        self.source_vocab = _words(rng, SOURCE_TYPES, SRC_ONSETS, SRC_VOWELS)
        self.target_vocab = _words(rng, TARGET_TYPES, TGT_ONSETS, TGT_VOWELS)
        self.source_cum = _zipf_cumulative(SOURCE_TYPES, 0.6)
        # hidden lexicon: each source word has 1-3 targets, the first most likely
        self.lexicon: dict[str, list[tuple[str, float]]] = {}
        for word in self.source_vocab:
            targets = rng.sample(self.target_vocab, rng.randint(1, 3))
            raw = sorted((rng.uniform(0.2, 1.0) for _ in targets), reverse=True)
            raw[0] += 1.0
            total = sum(raw)
            self.lexicon[word] = [(t, w / total) for t, w in zip(targets, raw)]

    def _source_sentence(self, length: int) -> list[str]:
        return [_draw(self.rng, self.source_vocab, self.source_cum) for _ in range(length)]

    def _translate(self, source: list[str]) -> list[str]:
        out = []
        for word in source:
            entries = self.lexicon[word]
            r = self.rng.random()
            for target, p in entries:
                r -= p
                if r <= 0:
                    break
            out.append(target)
        return out

    def parallel(self) -> list[tuple[str, str]]:
        pairs = []
        for _ in range(PAIRS):
            src = self._source_sentence(self.rng.randint(MIN_LEN, MAX_LEN))
            pairs.append((_surface(src, self.rng), _surface(self._translate(src), self.rng)))
        return pairs

    def _gold_variants(self, source: list[str], count: int) -> list[tuple[list[str], float]]:
        """Distinct translations of source with their lexicon probability, likeliest first."""
        best = [self.lexicon[w][0][0] for w in source]
        variants = {tuple(best)}
        for _ in range(count * 8):
            if len(variants) >= count:
                break
            variants.add(tuple(self._translate(source)))
        scored = []
        for variant in variants:
            p = 1.0
            for word, target in zip(source, variant):
                p *= dict(self.lexicon[word])[target]
            scored.append((list(variant), p))
        scored.sort(key=lambda vp: (-vp[1], vp[0]))
        return scored

    def prompts_and_gold(self) -> tuple[list[str], list[str]]:
        prompts, blocks = [], []
        lengths = range(MIN_LEN, PROMPT_MAX_LEN + 1)
        for i in range(1, PROMPTS + 1):
            # lengths and gold set sizes cycle rather than vary at random, so
            # decoding work and F1 of a prompt set depend little on the seed
            src = self._source_sentence(lengths[i % len(lengths)])
            header = f"p{i:04d}|{_surface(src, self.rng)}"
            prompts.append(header)
            variants = self._gold_variants(src, 1 + i % MAX_GOLD)
            weights = _weights(self.rng, [p for _, p in variants])
            lines = [header]
            lines += [f"{_surface(v, self.rng)}|{w}" for (v, _), w in zip(variants, weights)]
            blocks.append("\n".join(lines) + "\n")
        return prompts, blocks

    def write_corpus(self, out: Path, heads: set[int] = frozenset()) -> None:
        """Training pairs, BPE inputs, prompts and gold, plus the first-k
        prompts and gold blocks as prompts_<k>.txt / gold_<k>.txt."""
        pairs = self.parallel()
        prompts, gold = self.prompts_and_gold()
        files = {
            "parallel.tsv": "".join(f"{s}\t{t}\n" for s, t in pairs),
            "src.txt": "".join(f"{s}\n" for s, _ in pairs),
            "tgt.txt": "".join(f"{t}\n" for _, t in pairs),
            "prompts.txt": "".join(f"{p}\n" for p in prompts),
            "gold.txt": "\n".join(gold),
        }
        for k in heads:
            files[f"prompts_{k}.txt"] = "".join(f"{p}\n" for p in prompts[:k])
            files[f"gold_{k}.txt"] = "\n".join(gold[:k])
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8", newline="\n")
