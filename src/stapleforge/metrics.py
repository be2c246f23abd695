"""Weighted macro-F1 scoring for translation sets.

Per prompt: a candidate matches a gold translation when their canonical
forms (``corpus.normalize``) are equal. Both are held in canonical form (the
parsers canonicalize what they read, and generated candidates are canonical),
so matching is exact string set intersection. Precision is unweighted,
TP/(TP+FP); recall is weighted by the gold response-rate weights,
WTP/(WTP+WFN); their harmonic mean is the prompt's weighted F1; the corpus
score is the arithmetic mean of per-prompt F1 over the gold prompts.

Any score whose denominator is zero is defined as 0, which makes the metric
total (an empty prediction set scores 0). The weighted-recall denominator is
computed as the direct sum of all gold weights, identical to WTP+WFN in real
arithmetic; both are ``corpus.ordered_sum`` totals in gold order, so recall
is exactly monotone (as floats) when a prediction set grows, a property the
ensemble method relies on, on every Python version.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, TextIO

from .corpus import GoldSet, PredictionSet, ordered_sum
from .errors import ValidationError

log = logging.getLogger(__name__)

REPORT_NOTE = "# precision = TP/(TP+FP), unweighted; recall weighted by gold response rates"
REPORT_HEADER = "prompt_id\tprecision\tweighted_recall\tweighted_f1"


@dataclass(frozen=True)
class PromptScore:
    prompt_id: str
    precision: float
    weighted_recall: float
    weighted_f1: float


@dataclass(frozen=True)
class CorpusScore:
    macro_f1: float
    mean_precision: float
    mean_weighted_recall: float
    per_prompt: tuple[PromptScore, ...]


def score_prompt(gold: GoldSet, pred: PredictionSet) -> PromptScore:
    """Score one prompt; gold texts and candidates are canonical, so a match is
    string equality."""
    predicted = set(pred.candidates)
    tp = len(predicted.intersection(t.text for t in gold.translations))
    precision = tp / len(pred.candidates) if pred.candidates else 0.0
    # sum in gold order so wtp is float-monotone under prediction growth
    wtp = ordered_sum(t.weight for t in gold.translations if t.text in predicted)
    total = gold.total_weight
    weighted_recall = wtp / total if total > 0.0 else 0.0
    if precision > 0.0 and weighted_recall > 0.0:
        weighted_f1 = 2.0 * precision * weighted_recall / (precision + weighted_recall)
    else:
        weighted_f1 = 0.0
    return PromptScore(
        prompt_id=gold.prompt.id,
        precision=precision,
        weighted_recall=weighted_recall,
        weighted_f1=weighted_f1,
    )


def score_corpus(golds: Sequence[GoldSet], preds: Sequence[PredictionSet]) -> CorpusScore:
    """Score a corpus; gold prompts define the corpus, extra prediction ids are ignored."""
    seen: set[str] = set()
    for gold in golds:
        if gold.prompt.id in seen:
            raise ValidationError(f"duplicate gold prompt id {gold.prompt.id!r}")
        seen.add(gold.prompt.id)
    by_id = {p.prompt_id: p for p in preds}
    for pid in by_id:
        if pid not in seen:
            log.warning("prediction set for unknown prompt id %r ignored", pid)
    scores: list[PromptScore] = []
    for gold in golds:
        pred = by_id.get(gold.prompt.id, PredictionSet(prompt_id=gold.prompt.id, candidates=()))
        scores.append(score_prompt(gold, pred))
    n = len(scores)
    return CorpusScore(
        macro_f1=ordered_sum(s.weighted_f1 for s in scores) / n if n else 0.0,
        mean_precision=ordered_sum(s.precision for s in scores) / n if n else 0.0,
        mean_weighted_recall=ordered_sum(s.weighted_recall for s in scores) / n if n else 0.0,
        per_prompt=tuple(scores),
    )


def write_report(score: CorpusScore, sink: TextIO) -> None:
    """Write the per-prompt TSV report with a final MACRO row (6-decimal fractions)."""
    sink.write(REPORT_NOTE + "\n")
    sink.write(REPORT_HEADER + "\n")
    for s in score.per_prompt:
        sink.write(
            f"{s.prompt_id}\t{s.precision:.6f}\t{s.weighted_recall:.6f}\t{s.weighted_f1:.6f}\n"
        )
    sink.write(
        f"MACRO\t{score.mean_precision:.6f}\t{score.mean_weighted_recall:.6f}"
        f"\t{score.macro_f1:.6f}\n"
    )


def summary_line(score: CorpusScore) -> str:
    return f"macro_f1={score.macro_f1:.6f}"
