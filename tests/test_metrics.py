from __future__ import annotations

import io
import logging
import random

import pytest
from hypothesis import given, strategies as st

from oracles import gen_random_gold, score_prompt_oracle
from stapleforge.corpus import (
    GoldSet,
    PredictionSet,
    Prompt,
    WeightedTranslation,
    parse_gold,
)
from stapleforge.errors import ValidationError
from stapleforge.metrics import (
    score_corpus,
    score_prompt,
    summary_line,
    write_report,
)

TABLE_WEIGHTS = [0.26739, 0.16168, 0.11109, 0.08778, 0.05717]


def make_gold(weighted: dict[str, float], pid: str = "p") -> GoldSet:
    return GoldSet(
        prompt=Prompt(id=pid, text="src"),
        translations=tuple(
            WeightedTranslation(text=t, weight=w)
            for t, w in sorted(weighted.items(), key=lambda kv: -kv[1])
        ),
    )


def make_pred(candidates: list[str], pid: str = "p") -> PredictionSet:
    return PredictionSet(prompt_id=pid, candidates=tuple(candidates))


class TestMatchCounts:
    """TP and FP counts show in precision, matched gold weight in recall;
    each is checked by hand and against the oracle's direct evaluation."""

    @pytest.mark.parametrize(
        "weighted, candidates, precision, recall",
        [({"a": 0.5, "b": 0.3, "c": 0.2}, ["a", "d"], 1 / 2, 0.5 / 1.0),
         ({"a": 0.5, "b": 0.3}, ["b", "a"], 2 / 2, 0.8 / 0.8),
         ({"a": 0.5, "b": 0.3}, [], 0.0, 0.0),
         ({"a": 0.4, "b": 0.3, "c": 0.1}, ["a", "x", "c", "y"], 2 / 4, 0.5 / 0.8)],
        ids=["partial", "perfect", "empty", "mixed"],
    )
    def test_counts_and_recall(self, weighted, candidates, precision, recall):
        gold, pred = make_gold(weighted), make_pred(candidates)
        score = score_prompt(gold, pred)
        want = score_prompt_oracle(gold, pred)
        assert score.precision == pytest.approx(precision, abs=1e-12)
        assert score.weighted_recall == pytest.approx(recall, abs=1e-12)
        assert score.precision == pytest.approx(want[0], abs=1e-12)
        assert score.weighted_recall == pytest.approx(want[1], abs=1e-12)


class TestScorePrompt:
    def test_table_fixture_top1(self):
        gold = make_gold(dict(zip(["t1", "t2", "t3", "t4", "t5"], TABLE_WEIGHTS)))
        score = score_prompt(gold, make_pred(["t1"]))
        assert score.precision == 1.0
        assert score.weighted_recall == pytest.approx(0.26739 / 0.68511, abs=1e-12)
        assert score.weighted_f1 == pytest.approx(
            2 * 0.26739 / (0.68511 + 0.26739), abs=1e-12
        )

    def test_perfect_prediction(self):
        gold = make_gold(dict(zip(["t1", "t2"], [0.6, 0.2])))
        score = score_prompt(gold, make_pred(["t1", "t2"]))
        assert (score.precision, score.weighted_recall, score.weighted_f1) == (1.0, 1.0, 1.0)

    def test_half_and_half(self):
        gold = make_gold({"a": 0.5, "b": 0.3, "c": 0.2})
        score = score_prompt(gold, make_pred(["a", "d"]))
        assert score.precision == 0.5
        assert score.weighted_recall == pytest.approx(0.5, abs=1e-12)
        assert score.weighted_f1 == pytest.approx(0.5, abs=1e-12)

    def test_zero_denominators_score_zero(self):
        gold = make_gold({"a": 0.5})
        score = score_prompt(gold, make_pred([]))
        assert (score.precision, score.weighted_recall, score.weighted_f1) == (0.0, 0.0, 0.0)
        score = score_prompt(gold, make_pred(["x", "y"]))
        assert score.weighted_f1 == 0.0

    def test_harmonic_mean_identity(self):
        rng = random.Random(4)
        for _ in range(50):
            gold = gen_random_gold(rng)
            texts = [t.text for t in gold.translations]
            pred = make_pred(rng.sample(texts, rng.randint(0, len(texts))) + ["junk"])
            s = score_prompt(gold, pred)
            if s.precision > 0 and s.weighted_recall > 0:
                expect = 2 * s.precision * s.weighted_recall / (s.precision + s.weighted_recall)
                assert abs(s.weighted_f1 - expect) <= 1e-12

    def test_matches_direct_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            gold = gen_random_gold(rng)
            texts = [t.text for t in gold.translations]
            extras = [f"junk {i}" for i in range(rng.randint(0, 3))]
            pred = make_pred(rng.sample(texts, rng.randint(0, len(texts))) + extras)
            got = score_prompt(gold, pred)
            want = score_prompt_oracle(gold, pred)
            assert got.precision == pytest.approx(want[0], abs=1e-12)
            assert got.weighted_recall == pytest.approx(want[1], abs=1e-12)
            assert got.weighted_f1 == pytest.approx(want[2], abs=1e-12)


class TestScoreCorpus:
    def test_mean_of_prompt_f1(self):
        g1 = make_gold({"a": 0.5}, "p1")
        g2 = make_gold({"b": 0.4, "c": 0.4}, "p2")
        preds = [make_pred(["a"], "p1"), make_pred(["b", "x"], "p2")]
        score = score_corpus([g1, g2], preds)
        s2 = score_prompt(g2, preds[1])
        assert score.macro_f1 == pytest.approx((1.0 + s2.weighted_f1) / 2, abs=1e-12)
        assert len(score.per_prompt) == 2

    def test_missing_prediction_counts_as_empty(self):
        g1 = make_gold({"a": 0.5}, "p1")
        g2 = make_gold({"b": 0.5}, "p2")
        score = score_corpus([g1, g2], [make_pred(["a"], "p1")])
        assert score.macro_f1 == pytest.approx(0.5, abs=1e-12)

    def test_no_predictions_at_all(self):
        score = score_corpus([make_gold({"a": 0.5}, "p1")], [])
        assert score.macro_f1 == 0.0

    def test_single_prompt_identity(self):
        gold = make_gold({"a": 0.7, "b": 0.2}, "p1")
        pred = make_pred(["a"], "p1")
        assert score_corpus([gold], [pred]).macro_f1 == score_prompt(gold, pred).weighted_f1

    def test_duplicate_gold_id_rejected(self):
        g = make_gold({"a": 0.5}, "p1")
        with pytest.raises(ValidationError, match="duplicate"):
            score_corpus([g, g], [])

    def test_unknown_prediction_ids_warned_and_excluded(self, caplog):
        gold = make_gold({"a": 0.5}, "p1")
        preds = [make_pred(["a"], "p1"), make_pred(["zzz"], "ghost")]
        with caplog.at_level(logging.WARNING, logger="stapleforge.metrics"):
            score = score_corpus([gold], preds)
        assert len(score.per_prompt) == 1
        assert score.macro_f1 == 1.0
        assert any("ghost" in r.message for r in caplog.records)


class TestMetricProperties:
    def test_superset_recall_monotone_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            gold = gen_random_gold(rng)
            texts = [t.text for t in gold.translations]
            universe = texts + [f"junk {i}" for i in range(4)]
            rng.shuffle(universe)
            cut = rng.randint(0, len(universe))
            smaller = universe[:cut]
            larger = universe[: rng.randint(cut, len(universe))]
            wr_small = score_prompt(gold, make_pred(smaller)).weighted_recall
            wr_large = score_prompt(gold, make_pred(larger)).weighted_recall
            assert wr_large >= wr_small  # tolerance zero: set inclusion

    def test_adding_matching_candidate_adds_its_weight_exactly(self):
        gold = make_gold({"a": 0.5, "b": 0.25, "c": 0.125})  # dyadic: float sums exact
        base = score_prompt(gold, make_pred(["a"]))
        grown = score_prompt(gold, make_pred(["a", "c"]))
        assert base.weighted_recall == 0.5 / gold.total_weight
        assert grown.weighted_recall == (0.5 + 0.125) / gold.total_weight

    def test_adding_non_matching_candidate_only_hurts_precision(self):
        gold = make_gold({"a": 0.5, "b": 0.25})
        before = score_prompt(gold, make_pred(["a"]))
        after = score_prompt(gold, make_pred(["a", "zzz"]))
        assert after.precision < before.precision
        assert after.weighted_recall == before.weighted_recall

    @given(st.data())
    def test_permutation_invariance(self, data):
        weights = data.draw(
            st.lists(
                st.sampled_from([0.5, 0.25, 0.125, 0.0625, 0.03125]),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        texts = [f"t{i}" for i in range(len(weights))]
        entries = list(zip(texts, weights))
        perm = data.draw(st.permutations(entries))
        candidates = data.draw(st.permutations(texts + ["x", "y"]))
        gold_a = GoldSet(
            prompt=Prompt(id="p", text="s"),
            translations=tuple(WeightedTranslation(t, w) for t, w in entries),
        )
        gold_b = GoldSet(
            prompt=Prompt(id="p", text="s"),
            translations=tuple(WeightedTranslation(t, w) for t, w in perm),
        )
        s_a = score_prompt(gold_a, make_pred(list(candidates)))
        s_b = score_prompt(gold_b, make_pred(texts + ["x", "y"]))
        assert s_a.precision == s_b.precision
        assert s_a.weighted_recall == s_b.weighted_recall  # dyadic weights: exact
        assert s_a.weighted_f1 == s_b.weighted_f1

    def test_conservation(self):
        """Every gold weight is matched by a picked subset or by its complement."""
        rng = random.Random(13)
        for _ in range(300):
            gold = gen_random_gold(rng)
            texts = [t.text for t in gold.translations]
            picked = rng.sample(texts, rng.randint(0, len(texts)))
            rest = [t for t in texts if t not in picked]
            recall = [score_prompt(gold, make_pred(part + ["j1", "j2"])).weighted_recall
                      for part in (picked, rest)]
            assert abs(sum(recall) - 1.0) <= 1e-9

    def test_corpus_score_matches_per_prompt_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            golds = [gen_random_gold(rng, f"p{i}") for i in range(rng.randint(1, 5))]
            preds = []
            for gold in golds:
                if rng.random() < 0.2:
                    continue  # exercise the missing-prediction path
                texts = [t.text for t in gold.translations]
                picked = rng.sample(texts, rng.randint(0, len(texts)))
                preds.append(make_pred(picked + ["junk"], gold.prompt.id))
            score = score_corpus(golds, preds)
            by_id = {p.prompt_id: p for p in preds}
            oracle_f1s = [
                score_prompt_oracle(g, by_id.get(g.prompt.id, make_pred([], g.prompt.id)))[2]
                for g in golds
            ]
            assert score.macro_f1 == pytest.approx(
                sum(oracle_f1s) / len(golds), abs=1e-12
            )


class TestReport:
    def test_report_shape_and_summary(self):
        golds = parse_gold("p1|x\na|0.5\n\np2|y\nb|0.5\n")
        preds = [make_pred(["a"], "p1"), make_pred([], "p2")]
        score = score_corpus(golds, preds)
        buf = io.StringIO()
        write_report(score, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "prompt_id\tprecision\tweighted_recall\tweighted_f1"
        assert lines[2] == "p1\t1.000000\t1.000000\t1.000000"
        assert lines[3] == "p2\t0.000000\t0.000000\t0.000000"
        assert lines[4] == "MACRO\t0.500000\t0.500000\t0.500000"
        assert summary_line(score) == "macro_f1=0.500000"
