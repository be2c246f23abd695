"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets are asserted with wall-clock checks.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import decoder_of, trained_series
from oracles import (
    bpe_learn_oracle,
    exhaustive_nbest,
    gen_random_gold,
    gen_random_lattice,
    gen_random_parallel,
)
from stapleforge.cli import main
from stapleforge.corpus import PredictionSet, parse_gold, parse_predictions
from stapleforge.methods import (
    MethodParams,
    multi_checkpoint_predict,
    nbest_predict,
    paraphrase_predict,
)
from stapleforge.metrics import score_corpus, score_prompt
from stapleforge.textproc import bpe_apply, bpe_decode, bpe_learn
from stapleforge.translator import DecodeParams, decode_nbest, train_toy

TABLE_WEIGHTS = ["0.26739", "0.16168", "0.11109", "0.08778", "0.05717"]


def _pass(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def _params(n=10, n_prime=3, m=1):
    return MethodParams(n=n, n_prime=n_prime, m=m)


def test_criterion_1_metric_fixture_exactness(fixtures_path):
    started = time.monotonic()
    golds = parse_gold((fixtures_path / "example_gold_single.txt").read_text(encoding="utf-8"))
    # the gold's top translation in surface form, canonicalized by the parser
    pred_text = (fixtures_path / "example_pred_top1.txt").read_text(encoding="utf-8")
    score = score_prompt(golds[0], parse_predictions(pred_text)[0])

    # independent hand evaluation in exact rational arithmetic:
    # precision = 1, recall = w_top / total, F1 = 2*w_top / (total + w_top)
    weights = [Fraction(w) for w in TABLE_WEIGHTS]
    total = sum(weights)
    expected_recall = float(weights[0] / total)
    expected_f1 = float(2 * weights[0] / (total + weights[0]))

    assert score.precision == 1.0
    assert abs(score.weighted_recall - 0.390288) <= 1e-6
    assert abs(score.weighted_recall - expected_recall) <= 1e-12
    assert abs(score.weighted_f1 - expected_f1) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(
        "1 metric-fixture-exactness",
        f"(precision=1.000000, recall={score.weighted_recall:.6f}, "
        f"f1={score.weighted_f1:.6f}, {elapsed:.3f}s)",
    )


def test_criterion_2_perfect_and_empty_bounds(fixtures_path):
    golds = parse_gold((fixtures_path / "example_gold.txt").read_text(encoding="utf-8"))
    perfect = [
        PredictionSet(g.prompt.id, tuple(t.text for t in g.translations)) for g in golds
    ]
    assert score_corpus(golds, perfect).macro_f1 == 1.0
    empty = [PredictionSet(g.prompt.id, ()) for g in golds]
    assert score_corpus(golds, empty).macro_f1 == 0.0
    assert score_corpus(golds, []).macro_f1 == 0.0
    _pass("2 perfect-and-empty-bounds", "(macro F1 exactly 1 and exactly 0)")


# Published reference points for this metric on the full-scale EN->PT
# shared-task test data, in percent. Toy models trained by this package are
# not comparable to these; they are recorded for context only.
FULL_SCALE_REFERENCE_MACRO_F1 = {
    "six_checkpoint_ensemble": 37.57,
    "aws_baseline": 21.29,
    "fairseq_baseline": 13.57,
}


def test_criterion_3_reference_constants_recorded():
    ref = FULL_SCALE_REFERENCE_MACRO_F1
    assert ref["six_checkpoint_ensemble"] > ref["aws_baseline"] > ref["fairseq_baseline"]
    _pass("3 reference-constants", f"(documentation-only, not reproduced: {ref})")


def test_criterion_3a_ensemble_recall_monotonicity(toy_fwd_series, toy_prompts, toy_golds):
    scores = []
    for m in (1, 2, 3, 4):
        decoders = [decoder_of(ckpt) for ckpt in toy_fwd_series]
        sets = multi_checkpoint_predict(decoders, toy_prompts, _params(n=10, m=m))
        scores.append(score_corpus(toy_golds, sets))
    for prev, cur in zip(scores, scores[1:]):
        for p_prev, p_cur in zip(prev.per_prompt, cur.per_prompt):
            assert p_cur.weighted_recall >= p_prev.weighted_recall  # tolerance 0
        assert cur.mean_weighted_recall >= prev.mean_weighted_recall
    recalls = [f"{s.mean_weighted_recall:.4f}" for s in scores]
    _pass("3a ensemble-recall-monotonicity", f"(mean recall over m=1..4: {recalls})")


def test_criterion_3b_paraphrase_superset(
    toy_fwd_series, toy_bwd_series, toy_prompts, toy_golds
):
    fwd = decoder_of(toy_fwd_series[-1])
    bwd = decoder_of(toy_bwd_series[-1])
    params = _params(n=10, n_prime=3)
    base_sets = nbest_predict(fwd, toy_prompts, params)
    para_sets = paraphrase_predict(fwd, bwd, toy_prompts, params)
    for base, para in zip(base_sets, para_sets):
        assert set(base.candidates) <= set(para.candidates)  # exact set inclusion
    base_score = score_corpus(toy_golds, base_sets)
    para_score = score_corpus(toy_golds, para_sets)
    for b, p in zip(base_score.per_prompt, para_score.per_prompt):
        assert p.weighted_recall >= b.weighted_recall
    _pass(
        "3b paraphrase-superset",
        f"(recall {base_score.mean_weighted_recall:.4f} -> "
        f"{para_score.mean_weighted_recall:.4f})",
    )


def test_criterion_3c_decoder_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(31415)
    for i in range(200):
        ckpt, source = gen_random_lattice(rng)
        n = rng.randint(1, 30)
        got = decode_nbest(ckpt, source, DecodeParams(n_best=n, top_k_lexicon=8))
        oracle = exhaustive_nbest(ckpt, source, n, top_k_lexicon=8)
        assert got == oracle, f"instance {i}: decoder and oracle disagree"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass("3c decoder-oracle-equivalence", f"(200/200 instances, {elapsed:.2f}s)")


def test_criterion_3d_em_monotonicity(tmp_path):
    started = time.monotonic()
    rng = random.Random(27182)
    for i in range(50):
        lls = [ll for _, ll in train_toy(gen_random_parallel(rng), 10, tmp_path / str(i))]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass("3d em-monotonicity", f"(50 corpora x 10 iterations, {elapsed:.2f}s)")


def test_criterion_3e_bpe_oracle():
    started = time.monotonic()
    rng = random.Random(16180)
    for _ in range(100):
        alphabet = rng.choice(["ab", "abc", "abcd"])
        corpus = [
            ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))]
            * rng.randint(1, 9)
            for _ in range(rng.randint(1, 30))
        ]
        k = rng.randint(0, 40)
        assert list(bpe_learn(corpus, k).merges) == bpe_learn_oracle(corpus, k)

    model = bpe_learn(
        [["".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))] for _ in range(40)],
        30,
    )
    done = 0
    while done < 1000:
        word = "".join(rng.choice("abcdefg@") for _ in range(rng.randint(1, 10)))
        if word.endswith("@@"):  # reserved continuation suffix
            continue
        assert bpe_decode(bpe_apply(model, [word])) == [word]
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass("3e bpe-oracle", f"(100 corpora + 1000 round trips, {elapsed:.2f}s)")


def test_criterion_3f_conservation(tmp_path):
    rng = random.Random(14142)
    for _ in range(1000):
        gold = gen_random_gold(rng)
        texts = [t.text for t in gold.translations]
        picked = rng.sample(texts, rng.randint(0, len(texts)))
        rest = [t for t in texts if t not in picked]
        junk = [f"junk {i}" for i in range(rng.randint(0, 3))]
        recall = [score_prompt(gold, PredictionSet("g", tuple(part + junk))).weighted_recall
                  for part in (picked, rest)]
        assert abs(sum(recall) - 1.0) <= 1e-9
    for i in range(10):
        for ckpt in trained_series(tmp_path / str(i), gen_random_parallel(rng), 5):
            for row in ckpt.lexicon.values():
                assert abs(sum(row.values()) - 1.0) <= 1e-9
    _pass("3f conservation", "(1000 subset/complement pairs, 10x5 M-steps)")


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory, fixtures_path):
    root = tmp_path_factory.mktemp("acceptance")
    parallel = str(fixtures_path / "toy_parallel.tsv")
    assert main(["train", "--parallel", parallel, "--iterations", "5",
                 "--out", str(root / "fwd")]) == 0
    assert main(["train", "--parallel", parallel, "--iterations", "5",
                 "--out", str(root / "bwd"), "--direction", "bwd"]) == 0
    return root


def test_criterion_4_sweep_determinism(cli_world, fixtures_path):
    table = cli_world / "table.tsv"
    argv = ["sweep", "--series", str(cli_world / "fwd"),
            "--bwd-series", str(cli_world / "bwd"),
            "--gold", str(fixtures_path / "toy_gold.txt"),
            "--prompts", str(fixtures_path / "toy_prompts.txt"),
            "--out", str(table), "--m", "1,2,3,4,5"]
    assert main(argv) == 0
    first_table = table.read_bytes()
    first_manifest = (cli_world / "table.tsv.manifest.tsv").read_bytes()
    assert main(argv) == 0
    assert table.read_bytes() == first_table
    assert (cli_world / "table.tsv.manifest.tsv").read_bytes() == first_manifest
    _pass("4 sweep-determinism", "(byte-identical table and manifest)")


def test_criterion_5_end_to_end_smoke(tmp_path, fixtures_path):
    started = time.monotonic()
    parallel = str(fixtures_path / "toy_parallel.tsv")
    prompts = str(fixtures_path / "toy_prompts.txt")
    gold = str(fixtures_path / "toy_gold.txt")
    assert main(["train", "--parallel", parallel, "--iterations", "5",
                 "--out", str(tmp_path / "fwd")]) == 0
    assert main(["train", "--parallel", parallel, "--iterations", "5",
                 "--out", str(tmp_path / "bwd"), "--direction", "bwd"]) == 0

    runs = {
        "nbest": ["generate", "--method", "nbest", "--series", str(tmp_path / "fwd"),
                  "--prompts", prompts, "--n", "10",
                  "--out", str(tmp_path / "pred_nbest.txt")],
        "paraphrase": ["generate", "--method", "paraphrase", "--series", str(tmp_path / "fwd"),
                       "--bwd-series", str(tmp_path / "bwd"), "--prompts", prompts,
                       "--n", "10", "--n-prime", "3",
                       "--out", str(tmp_path / "pred_paraphrase.txt")],
        "ensemble": ["generate", "--method", "ensemble", "--series", str(tmp_path / "fwd"),
                     "--prompts", prompts, "--n", "10", "--m", "5",
                     "--out", str(tmp_path / "pred_ensemble.txt")],
    }
    for method, argv in runs.items():
        assert main(argv) == 0, method
        assert main(["score", "--gold", gold,
                     "--pred", str(tmp_path / f"pred_{method}.txt"),
                     "--out", str(tmp_path / f"report_{method}.tsv")]) == 0, method
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _pass("5 end-to-end-smoke", f"(train + 3 methods + scoring in {elapsed:.2f}s)")
