from __future__ import annotations

import dataclasses
import hashlib
import itertools
import logging
import math
import random
import re
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import stapleforge.translator as translator
from conftest import load_toy_pairs, trained_series
from oracles import (
    FULL_WIDTH_DIGITS,
    SearchSpaceError,
    bigram_lm_oracle,
    exhaustive_nbest,
    first_value_rewritten,
    gen_random_checkpoint,
    gen_random_lattice,
    gen_random_parallel,
    rewrite_model_file,
    row_added,
    rows_dropped,
    word_renamed,
)
from stapleforge.errors import CheckpointError, ValidationError
from stapleforge.translator import (
    BOS,
    EOS,
    Checkpoint,
    DecodeParams,
    build_bigram_lm,
    corpus_loglikelihood,
    decode_nbest,
    emission_candidates,
    load_checkpoint,
    load_series,
    save_checkpoint,
    train_toy,
)

HAND_CORPUS = [(["a", "b"], ["x", "y"]), (["a"], ["x"])]


@pytest.fixture()
def hand_series(tmp_path):
    """The hand corpus trained into tmp_path / "series", loaded back."""
    return trained_series(tmp_path / "series", HAND_CORPUS, 3)


class TestTrainToy:
    def test_hand_em_iteration_one(self, hand_series):
        lex = hand_series[0].lexicon
        assert lex["a"]["x"] == 0.75
        assert lex["a"]["y"] == 0.25
        assert lex["b"]["x"] == 0.5
        assert lex["b"]["y"] == 0.5

    def test_single_pair_converges_immediately(self, tmp_path):
        for ckpt in trained_series(tmp_path / "s", [(["a"], ["x"])], 3):
            assert ckpt.lexicon["a"]["x"] == 1.0

    def test_empty_pairs_skipped_with_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="stapleforge.translator"):
            rows = train_toy([([], ["x"]), (["a"], ["x"])], 1, tmp_path / "s")
        assert len(rows) == 1
        assert any("empty side" in r.message for r in caplog.records)

    def test_zero_iterations_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            train_toy(HAND_CORPUS, 0, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_unknown_direction_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="direction"):
            train_toy(HAND_CORPUS, 1, tmp_path / "s", direction="sideways")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("token", ["<s>", "</s>", "<other>", "<unk>"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_reserved_token_rejected_before_anything_is_written(self, tmp_path, token, side):
        """A target-side "<other>" or "<unk>" used to save an lm.tsv that loads
        back as another LM, with a valid checksum."""
        pair = (["a", token], ["x"]) if side == "source" else (["b"], ["x", token])
        with pytest.raises(ValidationError, match=f"pair 2 uses the reserved token '{token}'"):
            train_toy([(["a"], ["x"]), pair], 2, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("word", ["Gato", "gato!", "gato peixe"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_non_canonical_word_rejected_before_anything_is_written(self, tmp_path, word, side):
        """Such a word used to train and save a series that load_checkpoint
        then refused, breaking load_series(d) == train_toy(..., d)."""
        pair = (["a", word], ["x"]) if side == "source" else (["b"], ["x", word])
        with pytest.raises(ValidationError, match=f"pair 2 holds the non-canonical word '{word}'"):
            train_toy([(["a"], ["x"]), pair], 2, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("pair", [(["Gato"], []), ([], ["x", "gato!"])],
                             ids=["source", "target"])
    def test_non_canonical_word_in_a_pair_with_an_empty_side_rejected(self, tmp_path, pair):
        """Such a pair used to be skipped unchecked; every word of every pair
        is checked alike now."""
        with pytest.raises(ValidationError, match="pair 2 holds the non-canonical word"):
            train_toy([(["a"], ["x"]), pair], 2, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_first_pair_holding_a_word_that_is_not_a_model_word_is_named(self, tmp_path):
        """A reserved token and a non-canonical word fail one check, so the
        first pair holding either is named, by its reserved token if it has
        one; the reserved tokens used to be sought in every pair first."""
        with pytest.raises(ValidationError, match="pair 2 holds the non-canonical word 'Gato'"):
            train_toy([(["a"], ["x"]), (["Gato"], ["x"]), (["a"], ["<s>"])], 2, tmp_path / "s")
        with pytest.raises(ValidationError, match="pair 1 uses the reserved token '<unk>'"):
            train_toy([(["Gato", "<unk>"], ["x"])], 2, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_all_pairs_unusable_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            train_toy([([], [])], 1, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_loglik_non_decreasing(self, hand_series):
        lls = [c.corpus_loglik for c in hand_series]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_lexicon_rows_sum_to_one(self, hand_series):
        for ckpt in hand_series:
            for row in ckpt.lexicon.values():
                assert abs(sum(row.values()) - 1.0) <= 1e-9


class TestCorpusLoglikelihood:
    def test_certain_pair_contributes_zero(self):
        assert corpus_loglikelihood({"a": {"x": 1.0}}, [(["a"], ["x"])]) == 0.0

    def test_direct_substitution(self):
        got = corpus_loglikelihood({"a": {"x": 0.5}}, [(["a"], ["x"])])
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_additive_over_pairs(self):
        one = corpus_loglikelihood({"a": {"x": 0.5}}, [(["a"], ["x"])])
        two = corpus_loglikelihood({"a": {"x": 0.5}}, [(["a"], ["x"])] * 2)
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_floor_prevents_log_zero(self):
        got = corpus_loglikelihood({}, [(["a"], ["x"])])
        assert math.isfinite(got)


LM_WORDS = ["a", "b", "ção", "d"]


class TestBigramLm:
    def test_distributions_sum_to_one(self):
        lm = build_bigram_lm([["x", "y"], ["x"]], alpha=0.1)
        support = sorted(lm.rows[translator.BACKOFF])
        for history in sorted(set(lm.rows) - {translator.BACKOFF}):
            total = sum(math.exp(lm.logprob(history, w)) for w in support)
            assert total == pytest.approx(1.0, abs=1e-9), history
        # unknown history falls back to the unigram distribution, also normalized
        total = sum(math.exp(lm.logprob("never-seen", w)) for w in support)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_boundaries_present(self):
        lm = build_bigram_lm([["x", "y"]], alpha=0.1)
        assert "x" in lm.rows[BOS]
        assert EOS in lm.rows["y"]

    @given(
        st.lists(st.lists(st.sampled_from(LM_WORDS), max_size=5), min_size=1, max_size=6)
        .filter(any),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @example([["a"], []], 0.1)
    def test_every_value_is_the_oracles(self, corpus, alpha):
        """Every pair over the words, the boundaries and a word no corpus
        holds: a seen bigram, an unseen in-vocabulary successor, an unknown
        history and an out-of-vocabulary successor, built and loaded back
        from lm.tsv's text."""
        oracle = bigram_lm_oracle(corpus, alpha)
        built = build_bigram_lm(corpus, alpha=alpha)
        text = translator._table_text(built.rows).removesuffix("\n").encode("utf-8")
        loaded = translator._parse_lm([text], alpha)
        tokens = [*LM_WORDS, BOS, EOS, "unseen"]
        for w1, w2 in itertools.product(tokens, repeat=2):
            assert built.logprob(w1, w2) == loaded.logprob(w1, w2) == oracle(w1, w2), (w1, w2)


class TestDecodeParams:
    def test_invariants(self):
        with pytest.raises(ValidationError, match="n_best"):
            DecodeParams(n_best=0)
        with pytest.raises(ValidationError, match="top_k_lexicon"):
            DecodeParams(top_k_lexicon=0)


class TestDecode:
    @pytest.fixture()
    def skewed_ckpt(self, hand_series):
        return Checkpoint(
            iteration=1,
            lexicon={"a": {"x": 0.9, "z": 0.1}},
            lm=hand_series[0].lm,
            corpus_loglik=-1.0,
        )

    def test_two_best_order(self, skewed_ckpt):
        hyps = decode_nbest(skewed_ckpt, ["a"], DecodeParams(n_best=2))
        assert [h.tokens for h in hyps] == [("x",), ("z",)]
        assert hyps[0].total_logprob > hyps[1].total_logprob  # one token each

    def test_top1_is_argmax(self, skewed_ckpt):
        top2 = decode_nbest(skewed_ckpt, ["a"], DecodeParams(n_best=2))
        top1 = decode_nbest(skewed_ckpt, ["a"], DecodeParams(n_best=1))
        assert top1 == top2[:1]

    def test_empty_source(self, skewed_ckpt):
        hyps = decode_nbest(skewed_ckpt, [], DecodeParams())
        assert len(hyps) == 1
        assert hyps[0].tokens == () and hyps[0].total_logprob == 0.0

    def test_unknown_word_copies_through(self, skewed_ckpt):
        hyps = decode_nbest(skewed_ckpt, ["mystery"], DecodeParams(n_best=1))
        assert hyps[0].tokens == ("mystery",)

    def test_ranked_by_average_logprob(self, skewed_ckpt):
        hyps = decode_nbest(skewed_ckpt, ["a", "a"], DecodeParams(n_best=4))
        assert all(len(hyp.tokens) == 2 for hyp in hyps)
        averages = [hyp.total_logprob / 2 for hyp in hyps]
        assert averages == sorted(averages, reverse=True)

    def test_nbest_nesting(self, skewed_ckpt):
        params = lambda k: DecodeParams(n_best=k)
        src = ["a", "a", "a"]
        lists = [decode_nbest(skewed_ckpt, src, params(k)) for k in range(1, 8)]
        for shorter, longer in zip(lists, lists[1:]):
            assert longer[: len(shorter)] == shorter

    def test_matches_exhaustive_oracle(self, skewed_ckpt):
        got = decode_nbest(skewed_ckpt, ["a", "a"], DecodeParams(n_best=4))
        want = exhaustive_nbest(skewed_ckpt, ["a", "a"], 4)
        assert got == want

    def test_duplicate_free(self, skewed_ckpt):
        hyps = decode_nbest(skewed_ckpt, ["a", "a"], DecodeParams(n_best=4))
        assert len({h.tokens for h in hyps}) == len(hyps)


class TestExhaustive:
    def test_refuses_huge_spaces(self):
        rng = random.Random(0)
        ckpt = gen_random_checkpoint(rng)
        lexicon = {f"s{i}": {f"t{j}": 0.2 for j in range(5)} for i in range(10)}
        big = Checkpoint(
            iteration=1,
            lexicon=lexicon,
            lm=ckpt.lm,
            corpus_loglik=-1.0,
        )
        with pytest.raises(SearchSpaceError, match="sequences"):
            exhaustive_nbest(big, [f"s{i % 10}" for i in range(20)], 1, top_k_lexicon=5)

    def test_n_larger_than_space_returns_all(self):
        rng = random.Random(1)
        ckpt = gen_random_checkpoint(rng)
        src = list(ckpt.lexicon)[:1]
        hyps = exhaustive_nbest(ckpt, src, 1000, top_k_lexicon=8)
        assert len(hyps) == len(ckpt.lexicon[src[0]])

    def test_random_decoder_oracle_equivalence(self):
        rng = random.Random(2024)
        for i in range(50):
            ckpt, source = gen_random_lattice(rng)
            n = rng.randint(1, 30)
            got = decode_nbest(ckpt, source, DecodeParams(n_best=n, top_k_lexicon=8))
            assert got == exhaustive_nbest(ckpt, source, n, top_k_lexicon=8), f"instance {i}"

    def test_small_top_k_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            ckpt, source = gen_random_lattice(rng)
            k = rng.randint(1, 4)
            got = decode_nbest(ckpt, source, DecodeParams(n_best=12, top_k_lexicon=k))
            assert got == exhaustive_nbest(ckpt, source, 12, top_k_lexicon=k)

    def test_decoder_returns_whole_space_when_n_exceeds_it(self):
        rng = random.Random(5)
        for _ in range(20):
            ckpt, source = gen_random_lattice(rng, max_space=2_000)
            per_position = [
                [w for w, _ in emission_candidates(ckpt.lexicon, s, 8)] for s in source
            ]
            space = set(itertools.product(*per_position))
            hyps = decode_nbest(ckpt, source, DecodeParams(n_best=len(space) + 5))
            assert len(hyps) == len(space)
            assert {h.tokens for h in hyps} == space


class TestPersistence:
    def test_round_trip_recovers_hand_value(self, hand_series, tmp_path):
        ckpt = hand_series[0]
        save_checkpoint(ckpt, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        assert loaded == ckpt
        assert loaded.lexicon["a"]["x"] == 0.75

    def test_load_from_empty_dir_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="meta.tsv"):
            load_checkpoint(tmp_path)

    def test_two_saves_byte_identical(self, hand_series, tmp_path):
        ckpt = hand_series[1]
        save_checkpoint(ckpt, tmp_path / "one")
        save_checkpoint(ckpt, tmp_path / "two")
        for name in ("meta.tsv", "lexicon.tsv", "lm.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_checksum_mismatch_detected(self, hand_series, tmp_path):
        save_checkpoint(hand_series[0], tmp_path / "c")
        lex = tmp_path / "c" / "lexicon.tsv"
        lex.write_text(lex.read_text().replace("0.75", "0.25"), encoding="utf-8")
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(tmp_path / "c")

    def test_random_checkpoints_round_trip(self, tmp_path):
        """load_checkpoint inverts save_checkpoint on random models, LM included."""
        rng = random.Random(31)
        for i in range(100):
            ckpt = dataclasses.replace(
                gen_random_checkpoint(rng),
                iteration=rng.randint(1, 20_000),
                corpus_loglik=-rng.uniform(0.0, 1e4),
                direction=rng.choice(("fwd", "bwd")),
            )
            save_checkpoint(ckpt, tmp_path / str(i))
            assert load_checkpoint(tmp_path / str(i)) == ckpt, f"instance {i}"

    def test_series_round_trip(self, hand_series, tmp_path):
        """A second run of the same corpus loads back as the same series,
        every checkpoint of it, oldest first."""
        loaded = trained_series(tmp_path / "s", HAND_CORPUS, 3)
        assert loaded == hand_series
        assert [c.iteration for c in loaded] == [1, 2, 3]


def set_meta(ckpt_dir, key, value):
    meta = ckpt_dir / "meta.tsv"
    rows = [f"{key}\t{value}" if row.startswith(f"{key}\t") else row
            for row in meta.read_text(encoding="utf-8").splitlines()]
    meta.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestCheckpointFaults:
    @pytest.mark.parametrize("row", ["iteration\t1", "direction\tbwd", "created_at\tx"],
                             ids=["iteration", "direction", "unknown-key"])
    def test_repeated_meta_key_rejected(self, hand_series, tmp_path, row):
        """A meta.tsv key, known or unknown, may appear once: a repeat used to
        override the row before it, so an appended direction row turned a
        forward checkpoint into a backward one."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        meta = ckpt / "meta.tsv"
        meta.write_text(meta.read_text(encoding="utf-8") + row + "\n" + row + "\n",
                        encoding="utf-8")
        expected = f"repeated key '{row.split()[0]}' in meta.tsv of .*ckpt-0001"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "key, value",
        [("iteration", "two"), ("iteration", "0"), ("iteration", " 2_0"), ("iteration", "+1"),
         ("iteration", "01"), ("corpus_loglik", "x"), ("alpha", "x"),
         ("corpus_loglik", " -17970.37"), ("corpus_loglik", "-2_0595.7"),
         ("alpha", "0.1 "), ("alpha", "0.1".translate(FULL_WIDTH_DIGITS)),
         ("direction", "sideways")],
    )
    def test_bad_meta_value_rejected(self, hand_series, tmp_path, key, value):
        """An iteration is a positive decimal integer as written: int() would
        also take 0, " 2_0" (20), "+1" and "01". corpus_loglik and alpha are
        plain ASCII numbers, which float() reads with surrounding whitespace,
        "_" between digits or full-width digits too."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        set_meta(ckpt, key, value)
        expected = f"bad {key} {re.escape(repr(value))} in meta.tsv of .*ckpt-0001"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "name, edit, reason",
        [
            ("lexicon.tsv", lambda row: row.rsplit("\t", 1)[0] + "\tabc",
             "non-numeric value in lexicon.tsv row 1"),
            ("lexicon.tsv", lambda row: row.rsplit("\t", 1)[0], "corrupt lexicon.tsv row 1"),
            ("lm.tsv", lambda row: row.rsplit("\t", 1)[0] + "\t",
             "non-numeric value in lm.tsv row 1"),
            ("lm.tsv", lambda row: row + "\t0.5", "corrupt lm.tsv row 1"),
        ],
        ids=["lexicon-value", "lexicon-columns", "lm-value", "lm-columns"],
    )
    def test_malformed_model_row_rejected(self, hand_series, tmp_path, name, edit, reason):
        """Rows whose checksum was restamped, so only the row checks can catch them."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        rows = (ckpt / name).read_text(encoding="utf-8").splitlines()
        rows[0] = edit(rows[0])
        rewrite_model_file(ckpt, name, "\n".join(rows) + "\n")
        with pytest.raises(CheckpointError, match=f"{reason}: .* \\(in .*ckpt-0001\\)"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("row", ["", "   ", "\t", "created_at\tx\ty"],
                             ids=["blank", "spaces", "tab", "three-columns"])
    def test_meta_row_out_of_format_rejected(self, hand_series, tmp_path, row):
        """Every meta.tsv row is ``key<TAB>value`` with a non-empty key: a
        blank row, a row of spaces and a lone tab used to be skipped."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        meta = ckpt / "meta.tsv"
        meta.write_text(row + "\n" + meta.read_text(encoding="utf-8"), encoding="utf-8")
        expected = f"corrupt meta.tsv row in .*ckpt-0001: {re.escape(repr(row))}"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "w1, w2, reason",
        [("</s>", "x", "reserved token '</s>' is never a history"),
         ("<other>", "x", "reserved token '<other>' is never a history"),
         ("x", "<s>", "reserved token '<s>' never follows 'x'"),
         ("x", "<unk>", "reserved token '<unk>' never follows 'x'"),
         ("<unk>", "<other>", "reserved token '<other>' never follows '<unk>'")],
        ids=["eos-history", "other-history", "bos-successor", "unk-successor", "unk-other"],
    )
    def test_reserved_lm_token_out_of_its_role_rejected(self, hand_series, tmp_path, w1, w2,
                                                        reason):
        """``<s>`` starts a history and ``</s>`` ends one; ``<other>`` is
        the row of a history's unseen successors and ``<unk>`` the history of
        the back-off rows, which have no unseen row. Such a row, in order,
        used to load as a bigram; it is reported once the checksum holds."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        text = row_added(ckpt / "lm.tsv", f"{w1}\t{w2}\t-0.5")
        (ckpt / "lm.tsv").write_text(text, encoding="utf-8")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(ckpt)
        rewrite_model_file(ckpt, "lm.tsv", text)
        with pytest.raises(CheckpointError, match=f"{re.escape(reason)} in lm.tsv \\(in .*ckpt"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "prefix, reason",
        [("y\t<other>\t", "history 'y' has no '<other>' row in lm.tsv"),
         ("<s>\t<other>\t", "history '<s>' has no '<other>' row in lm.tsv"),
         ("<unk>\t", "lm.tsv has no '<unk>' rows")],
        ids=["word-other", "bos-other", "unk-rows"],
    )
    def test_lm_without_a_backoff_row_rejected(self, hand_series, tmp_path, prefix, reason):
        """Training writes every history's ``<other>`` row and the ``<unk>``
        rows. An lm.tsv without one, its checksum restamped, used to load,
        and the LM backed off silently where it needed the missing row."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        rewrite_model_file(ckpt, "lm.tsv", rows_dropped(ckpt / "lm.tsv", prefix))
        with pytest.raises(CheckpointError, match=f"^{re.escape(reason)} \\(in .*ckpt-0001\\)$"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("word, token, row", [("b", "<unk>", "<unk>"), ("y", "<s>", "a")],
                             ids=["source", "target"])
    def test_reserved_lexicon_word_rejected(self, hand_series, tmp_path, word, token, row):
        """Every lexicon word is a model word. A reserved target, its rows in
        order and its checksum restamped, used to load, and decoding wrote it
        as a candidate."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        rewrite_model_file(ckpt, "lexicon.tsv", word_renamed(ckpt / "lexicon.tsv", word, token))
        with pytest.raises(CheckpointError,
                           match=f"lexicon row for '{row}' holds the reserved token '{token}'"):
            load_checkpoint(ckpt)


# every stored number: a model value, meta.tsv's corpus_loglik and alpha, a
# series.tsv log-likelihood
VALUE_SITES = ("lexicon", "lm", "corpus_loglik", "alpha", "series")
# spellings of a number that float() reads, or that it reads as nan or an
# infinity, each with why a model row holding it is rejected
VALUE_SPELLINGS = {
    "leading-space": (lambda v: " " + v, "badly written number"),
    "trailing-space": (lambda v: v + " ", "badly written number"),
    "carriage-return": (lambda v: v + "\r", "badly written number"),
    "underscore": (lambda v: v + "_0", "badly written number"),
    "full-width": (lambda v: v.translate(FULL_WIDTH_DIGITS), "non-numeric value"),
    "nan": (lambda v: "nan", "non-finite value"),
    "inf": (lambda v: "inf", "non-finite value"),
}


class TestRowOrder:
    """Model rows are written sorted by their two words, so on load each
    row's (w1, w2) must be strictly after the row before's, in UTF-8 byte
    order. The loader used to accept any order, and the later row of a
    repeated pair won: an extra ``<s> <other> -0.5`` row in lm.tsv loaded
    as that history's unseen-successor log-probability."""

    @pytest.mark.parametrize("name", ["lexicon.tsv", "lm.tsv"])
    @pytest.mark.parametrize("fault", ["swapped", "parted", "repeated-pair", "repeated-line"])
    def test_unsorted_or_repeated_model_row_rejected(self, hand_series, tmp_path, name, fault):
        """Each fault, its checksum restamped, names the first row out of
        order: ``swapped`` exchanges the first two rows, which share their
        first word; ``parted`` moves the first row to the end, so its word's
        rows come apart; ``repeated-pair`` repeats a row's pair with another
        value (in lm.tsv, the ``<s> <other>`` row's) and ``repeated-line`` a
        whole row."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        rows = (ckpt / name).read_text(encoding="utf-8").splitlines()
        assert rows == sorted(rows) and rows[0].split("\t")[0] == rows[1].split("\t")[0]
        if fault == "swapped":
            rows[0], rows[1] = rows[1], rows[0]
            bad = 2
        elif fault == "parted":
            rows.append(rows.pop(0))
            bad = len(rows)
        elif fault == "repeated-pair":
            i = 0 if name == "lexicon.tsv" else next(
                i for i, row in enumerate(rows) if row.startswith("<s>\t<other>\t"))
            rows.insert(i + 1, rows[i].rsplit("\t", 1)[0] + "\t-0.5")
            bad = i + 2
        else:
            rows.insert(3, rows[2])
            bad = 4
        rewrite_model_file(ckpt, name, "\n".join(rows) + "\n")
        expected = f"unsorted or repeated row in {name} row {bad}: .* \\(in .*ckpt-0001\\)"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(ckpt)


class TestDocumentedBytes:
    """Model files hold UTF-8 with LF line endings and each value as a plain
    ASCII number. float() also reads surrounding whitespace, "_" between
    digits and non-ASCII digits, so each of these, with its checksum
    restamped, used to load as the number it spells."""

    @pytest.mark.parametrize(
        "site, spelling",
        list(itertools.product(VALUE_SITES, VALUE_SPELLINGS)),
        ids=[f"{site}-{spelling}" for site in VALUE_SITES for spelling in VALUE_SPELLINGS],
    )
    def test_value_written_another_way_rejected(self, hand_series, tmp_path, site, spelling):
        """One number reader takes every stored number, so each spelling is
        rejected at every site, naming the file."""
        rewrite, reason = VALUE_SPELLINGS[spelling]
        series = tmp_path / "series"
        ckpt = series / "ckpt-0001"
        if site in ("lexicon", "lm"):
            name = f"{site}.tsv"
            rewrite_model_file(ckpt, name, first_value_rewritten(ckpt / name, rewrite))
            expected = f"{reason} in {name} row 1: .* \\(in .*ckpt-0001\\)"
        elif site == "series":
            rows = last_loglik_rewritten(index_rows(series), rewrite)
            (series / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
            expected = f"series.tsv row {len(rows)}: bad log-likelihood"
        else:
            meta = dict(row.split("\t")
                        for row in (ckpt / "meta.tsv").read_text(encoding="utf-8").splitlines())
            value = rewrite(meta[site])
            set_meta(ckpt, site, value)
            expected = f"bad {site} {re.escape(repr(value))} in meta.tsv of .*ckpt-0001"
        with pytest.raises(CheckpointError, match=expected):
            load_series(series)

    def test_crlf_copy_fails_its_checksum(self, hand_series, tmp_path):
        """The checksum is taken over the bytes on disk; the text used to be
        read with universal newlines, so a CRLF copy loaded."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        for name in ("lexicon.tsv", "lm.tsv"):
            text = (ckpt / name).read_text(encoding="utf-8")
            (ckpt / name).write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        with pytest.raises(CheckpointError, match="checksum mismatch for checkpoint"):
            load_checkpoint(ckpt)

    def test_crlf_copy_with_its_checksum_restamped_names_the_first_row(
        self, hand_series, tmp_path
    ):
        ckpt = tmp_path / "series" / "ckpt-0001"
        text = (ckpt / "lexicon.tsv").read_text(encoding="utf-8")
        rewrite_model_file(ckpt, "lexicon.tsv", text.replace("\n", "\r\n"))
        with pytest.raises(CheckpointError, match="badly written number in lexicon.tsv row 1"):
            load_checkpoint(ckpt)

    def test_crlf_meta_rejected(self, hand_series, tmp_path):
        ckpt = tmp_path / "series" / "ckpt-0001"
        text = (ckpt / "meta.tsv").read_text(encoding="utf-8")
        (ckpt / "meta.tsv").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        with pytest.raises(CheckpointError, match="in meta.tsv of .*ckpt-0001"):
            load_checkpoint(ckpt)

    def test_invalid_utf8_word_names_its_row(self, hand_series, tmp_path):
        """A file that is not UTF-8 used to fail with an internal error."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        data = (ckpt / "lexicon.tsv").read_bytes().replace(b"x", b"\xff", 1)
        (ckpt / "lexicon.tsv").write_bytes(data)
        digest = hashlib.sha256(data + b"\x00" + (ckpt / "lm.tsv").read_bytes()).hexdigest()
        set_meta(ckpt, "checksum", digest)
        expected = "invalid UTF-8 in lexicon.tsv row 1: .*ckpt-0001"
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(ckpt)

    def test_malformed_row_behind_a_wrong_checksum_is_a_checksum_mismatch(
        self, hand_series, tmp_path
    ):
        """Rows are parsed as they are read, before the checksum is known,
        yet the checksum's verdict comes first, as when it was checked first."""
        ckpt = tmp_path / "series" / "ckpt-0001"
        for name in ("lexicon.tsv", "lm.tsv"):
            text = (ckpt / name).read_text(encoding="utf-8")
            (ckpt / name).write_text("a\tb\tnot a number\n" + text, encoding="utf-8")
            with pytest.raises(CheckpointError, match="checksum mismatch"):
                load_checkpoint(ckpt)
            (ckpt / name).write_text(text, encoding="utf-8")


class TestStreamingLoad:
    """``load_checkpoint`` reads each file once, in bounded chunks that feed
    the checksum, the file's digest and the parser together."""

    def test_digests_are_each_files_sha256(self, hand_series, tmp_path):
        ckpt_dir = tmp_path / "series" / "ckpt-0002"
        read = {}
        assert load_checkpoint(ckpt_dir, None, None, read) == hand_series[1]
        assert read == {
            ckpt_dir / name: hashlib.sha256((ckpt_dir / name).read_bytes()).hexdigest()
            for name in ("lexicon.tsv", "lm.tsv", "meta.tsv")
        }

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_any_chunk_size_loads_the_same_checkpoint(self, tmp_path, monkeypatch, chunk):
        """Rows and multi-byte characters cut by a chunk boundary, and a
        last line without its newline, parse as whole rows. The words take
        UTF-8 sequences of 1 to 4 bytes, whose byte order the row order check
        uses: U+FFEF sorts before U+10428 by code point and in UTF-8, though
        not in UTF-16."""
        pairs = [(["não", "é"], ["ça", "über"]), (["não"], ["ça"]),
                 (["ação"], ["ñandú"]), (["a\uffef", "a𐐨"], ["ぁ", "𐐨"])]
        train_toy(pairs, 1, tmp_path / "r")
        ckpt_dir = tmp_path / "r" / "ckpt-0001"
        text = (ckpt_dir / "lm.tsv").read_text(encoding="utf-8")
        expected = load_checkpoint(ckpt_dir)
        monkeypatch.setattr(translator, "_CHUNK", chunk)
        assert load_checkpoint(ckpt_dir) == expected
        rewrite_model_file(ckpt_dir, "lm.tsv", text.rstrip("\n"))
        assert load_checkpoint(ckpt_dir) == expected

    def test_malformed_first_row_of_a_many_chunk_file_names_the_row(self, tmp_path, monkeypatch):
        """The parser stops at a malformed row, and the loader reads the rest
        of the file for the checksum, which holds, so the row is reported."""
        train_toy(load_toy_pairs(), 1, tmp_path / "s")
        ckpt = tmp_path / "s" / "ckpt-0001"
        text = (ckpt / "lexicon.tsv").read_text(encoding="utf-8")
        rewrite_model_file(ckpt, "lexicon.tsv", first_value_rewritten(
            ckpt / "lexicon.tsv", lambda value: "abc"))
        monkeypatch.setattr(translator, "_CHUNK", 64)
        assert len(text) > 10 * 64
        with pytest.raises(CheckpointError, match="non-numeric value in lexicon.tsv row 1"):
            load_checkpoint(ckpt)

    def test_lm_is_parsed_once_per_series(self, tmp_path, monkeypatch):
        """The index's LMs are keyed on lm.tsv's digest and alpha."""
        train_toy(HAND_CORPUS, 3, tmp_path / "s")
        parses = []
        real_parse = translator._parse_lm

        def parse(blocks, alpha):
            parses.append(alpha)
            return real_parse(blocks, alpha)

        monkeypatch.setattr(translator, "_parse_lm", parse)
        load_series(tmp_path / "s")
        assert parses == [0.1]

    def test_same_size_lm_with_other_bytes_loads_its_own_lm(self, tmp_path):
        train_toy(HAND_CORPUS, 3, tmp_path / "s")
        second = tmp_path / "s" / "ckpt-0002"
        text = (second / "lm.tsv").read_text(encoding="utf-8")
        digit = re.search(r"[1-8]\n", text).start()
        edited = text[:digit] + str(int(text[digit]) + 1) + text[digit + 1 :]
        rewrite_model_file(second, "lm.tsv", edited)
        first, other, third = load_series(tmp_path / "s")
        assert first.lm is third.lm
        assert other.lm != first.lm
        assert other.lm == translator._parse_lm(translator._blocks(second / "lm.tsv", ()), 0.1)

    def test_lm_changed_between_hash_and_parse_rejected(self, tmp_path, monkeypatch):
        """lm.tsv is hashed, then read again to be parsed when its model has
        no such LM yet; a file rewritten in between is rejected, and its LM
        is not kept: once the file is restored, the same loader parses it
        afresh and loads."""
        train_toy(HAND_CORPUS, 1, tmp_path / "s")
        ckpt = tmp_path / "s" / "ckpt-0001"
        text = (ckpt / "lm.tsv").read_text(encoding="utf-8")
        digit = re.search(r"[1-8]\n", text).start()
        edited = text[:digit] + str(int(text[digit]) + 1) + text[digit + 1 :]
        real_parse = translator._parse_lm
        parses = []

        def parse(blocks, alpha):
            parses.append(alpha)
            if len(parses) == 1:
                (ckpt / "lm.tsv").write_text(edited, encoding="utf-8")  # before the first block
            return real_parse(blocks, alpha)

        monkeypatch.setattr(translator, "_parse_lm", parse)
        (load,) = translator.read_index(tmp_path / "s", True)[1]
        with pytest.raises(CheckpointError,
                           match=r"lm.tsv changed while it was read \(in .*ckpt-0001\)"):
            load()
        (ckpt / "lm.tsv").write_text(text, encoding="utf-8")
        assert load() == load_checkpoint(ckpt)
        assert len(parses) == 3  # the rejected load, the reload, and the fresh load_checkpoint

    def test_load_holds_a_bounded_part_of_a_file(self, tmp_path):
        """Loading a checkpoint of 20,000 lexicon rows (about 600 KB) peaks
        less than a quarter of lexicon.tsv's size above the memory the loaded
        checkpoint keeps. Measured with tracemalloc: about 0.13 of it with
        16 KiB chunks, and more than 3 times it when the loader held the whole
        text, a list of its lines and a re-encoded copy for the checksum."""
        rng = random.Random(5)
        lexicon = {}
        for i in range(1_000):
            targets = rng.sample(range(3_000), 20)
            weights = [rng.random() + 0.01 for _ in targets]
            lexicon[f"s{i:05d}"] = {
                f"t{t:05d}": translator.quantize(w / sum(weights))
                for t, w in zip(targets, weights)
            }
        lm = build_bigram_lm([[f"t{rng.randrange(3_000):05d}" for _ in range(8)]
                              for _ in range(200)])
        ckpt_dir = tmp_path / "big"
        save_checkpoint(Checkpoint(iteration=1, lexicon=lexicon, lm=lm, corpus_loglik=-1.0),
                        ckpt_dir)
        size = (ckpt_dir / "lexicon.tsv").stat().st_size
        tracemalloc.start()  # no other checkpoint has this LM, so it is parsed too
        try:
            loaded = load_checkpoint(ckpt_dir)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.lexicon == lexicon
        assert peak - kept < 0.25 * size


class TestNbestPrefix:
    """n-best(n) is the first n entries of n-best(N) and the exhaustive n-best
    on random lattices; a rounding near-tie can break it, which is why
    ``methods.Decoder`` keys its memo on n (``TestDecoder``)."""

    def test_random_lattices(self):
        rng = random.Random(4242)
        for i in range(60):
            ckpt, source = gen_random_lattice(rng, max_space=5_000)
            deep_n = rng.randint(2, 40)
            oracle = exhaustive_nbest(ckpt, source, deep_n)
            deep = decode_nbest(ckpt, source, DecodeParams(n_best=deep_n))
            assert deep == oracle, f"instance {i}"
            for n in {1, rng.randint(1, deep_n), deep_n - 1}:
                got = decode_nbest(ckpt, source, DecodeParams(n_best=n))
                assert got == deep[:n] == oracle[:n], f"instance {i}, n={n}"


def test_models_carry_no_other_side_cache():
    """A model is its values: the only fields a caller cannot set are the
    checkpoint's two side caches, for the decoder and training's save,
    neither of which takes part in equality. The digests of the files a
    load read belong to its model's index (``read_index``)."""
    assert [f.name for f in dataclasses.fields(translator.BigramLm) if not f.init] == []
    side = [f for f in dataclasses.fields(Checkpoint) if not f.init]
    assert [f.name for f in side] == ["emissions", "rendered"]
    assert not any(f.compare for f in side)


class TestLoadedModelSharing:
    """A loaded series holds what its checkpoints share once, as a trained one does."""

    def test_series_holds_one_lm(self, tmp_path):
        loaded = trained_series(tmp_path / "s", HAND_CORPUS, 3)
        lm = loaded[0].lm
        assert all(c.lm is lm for c in loaded)
        blocks = translator._blocks(tmp_path / "s" / "ckpt-0003" / "lm.tsv", ())
        assert lm == translator._parse_lm(blocks, lm.alpha)

    def test_interleaved_series_loads_keep_one_lm_each(self, tmp_path):
        """Loading fwd, bwd, fwd used to parse the forward LM a second time."""
        train_toy(HAND_CORPUS, 2, tmp_path / "fwd")
        train_toy([(tgt, src) for src, tgt in HAND_CORPUS], 1, tmp_path / "bwd",
                  direction="bwd")
        load_first, load_second = translator.read_index(tmp_path / "fwd", True)[1]
        (load_bwd,) = translator.read_index(tmp_path / "bwd", True)[1]
        first = load_first()
        bwd = load_bwd()
        second = load_second()
        assert second.lm is first.lm
        assert bwd.lm != first.lm

    def test_distinct_lm_files_load_distinct_lms(self, tmp_path):
        trained = trained_series(tmp_path / "s", HAND_CORPUS, 3)
        lm = trained[0].lm
        other = build_bigram_lm([["y", "x", "x"]])
        shutil.rmtree(tmp_path / "s" / "ckpt-0002")  # a save never replaces a checkpoint
        save_checkpoint(dataclasses.replace(trained[1], lm=other),
                        tmp_path / "s" / "ckpt-0002")
        set_meta(tmp_path / "s" / "ckpt-0003", "alpha", "0.5")  # meta is not checksummed
        lms = [c.lm for c in load_series(tmp_path / "s")]
        assert other != lm
        assert lms == [lm, other, dataclasses.replace(lm, alpha=0.5)]

    def test_corrupt_lm_row_names_its_own_directory_with_an_lm_cached(self, tmp_path):
        train_toy(HAND_CORPUS, 3, tmp_path / "s")
        second = tmp_path / "s" / "ckpt-0002"
        text = (second / "lm.tsv").read_text(encoding="utf-8")
        rewrite_model_file(second, "lm.tsv", text.replace("\t", " ", 1))
        with pytest.raises(CheckpointError, match=r"corrupt lm.tsv row 1: .* \(in .*ckpt-0002\)"):
            load_series(tmp_path / "s")

    def test_loaded_checkpoints_share_word_strings(self, tmp_path):
        # multi-character words: CPython already shares one-character strings
        train_toy(gen_random_parallel(random.Random(11)), 2, tmp_path / "s")
        first, second = load_series(tmp_path / "s")

        def words(ckpt):
            return {w: w for e, row in ckpt.lexicon.items() for w in (e, *row)}

        a, b = words(first), words(second)
        assert a.keys() == b.keys() and all(len(w) > 1 for w in a)
        assert all(a[w] is b[w] for w in a)
        assert all(w is a[w] for w in first.lm.rows[translator.BACKOFF] if w in a)


class TestTrainingMemory:
    def test_peak_does_not_grow_with_iterations(self, tmp_path):
        """Training into a directory lets each checkpoint go once it is
        saved, so 6 iterations peak where 2 do. Measured with tracemalloc on
        this corpus (274 pairs, a 12.6 KB lexicon.tsv): the peaks differ by
        42 bytes, while keeping every checkpoint, as training used to, added
        206 KB (about 16 lexicon.tsv sizes) for the 4 more iterations."""
        rng = random.Random(14)
        pairs = [
            ([f"{w}k{k}" for w in src], [f"{w}k{k}" for w in tgt])
            for k in range(50)
            for src, tgt in gen_random_parallel(rng)
        ]
        train_toy(pairs, 1, tmp_path / "warm-up")  # first-use caches: words seen
        peaks = {}
        for iterations in (2, 6):
            tracemalloc.start()
            try:
                rows = train_toy(pairs, iterations, tmp_path / str(iterations))
                peaks[iterations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = (tmp_path / "6" / "ckpt-0006" / "lexicon.tsv").stat().st_size
        assert peaks[6] - peaks[2] <= 0.5 * size
        assert rows == [(c.iteration, c.corpus_loglik) for c in load_series(tmp_path / "6")]


class TestEmMonotonicityProperty:
    def test_random_corpora(self, tmp_path):
        rng = random.Random(99)
        for i in range(10):
            lls = [ll for _, ll in train_toy(gen_random_parallel(rng), 6, tmp_path / str(i))]
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-9


words = st.sampled_from(["a", "b", "c", "d"])
sentences = st.lists(words, min_size=1, max_size=5)
corpora = st.lists(st.tuples(sentences, sentences), min_size=1, max_size=6)


def order_referee_corpus() -> list[tuple[list[str], list[str]]]:
    """300 pairs over Zipf-skewed vocabularies of 80 source and 120 target
    words, so frequent source words co-occur with most target words and
    summing a long count row in another order changes its last bits."""
    rng = random.Random(16)
    src_vocab = [f"s{i}" for i in range(80)]
    tgt_vocab = [f"t{i}" for i in range(120)]
    src_weights = [1.0 / (rank + 1) for rank in range(len(src_vocab))]
    tgt_weights = [1.0 / (rank + 1) for rank in range(len(tgt_vocab))]
    return [
        (rng.choices(src_vocab, src_weights, k=rng.randint(3, 10)),
         rng.choices(tgt_vocab, tgt_weights, k=rng.randint(3, 10)))
        for _ in range(300)
    ]


class TestTrainingExactness:
    """Training adds up each checkpoint's log-likelihood inside the next
    E-step and formats each lexicon value once for both the model and
    lexicon.tsv; both must agree bit for bit with the standalone forms."""

    def test_series_sums_counts_in_first_co_occurrence_order(self, tmp_path):
        """Every file of a 2-iteration series trained from
        ``order_referee_corpus``, both ways, has the SHA-256 recorded in
        order_series.sha256 (``sha256sum`` format). The M-step sums each
        count row in the order its words first co-occur with the source
        word; the fixture corpus is too small for that order to show in its
        bytes, this one is not, so summing in another (say sorted) order
        fails here."""
        tests_dir = Path(__file__).resolve().parent
        recorded = dict(
            reversed(line.split("  ", 1))
            for line in (tests_dir / "order_series.sha256").read_text(encoding="utf-8").splitlines()
        )
        pairs = order_referee_corpus()
        train_toy(pairs, 2, tmp_path / "fwd")
        train_toy([(tgt, src) for src, tgt in pairs], 2, tmp_path / "bwd", direction="bwd")
        found = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*")) if p.is_file()
        }
        assert found == recorded

    def test_series_does_not_depend_on_how_builtin_sum_adds(self, tmp_path, monkeypatch):
        """Builtin ``sum`` compensates float rounding since Python 3.12, so a
        float total it takes differs between versions; training totals with
        ``corpus.ordered_sum`` alone. Shadowing ``sum`` in the module with
        ``math.fsum``, which rounds once like a compensated sum, must leave
        every file of a 4-iteration series, both ways, unchanged."""
        pairs = order_referee_corpus()

        def train(root):
            train_toy(pairs, 4, root / "fwd")
            train_toy([(tgt, src) for src, tgt in pairs], 4, root / "bwd", direction="bwd")
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        plain = train(tmp_path / "plain")
        monkeypatch.setattr(translator, "sum", math.fsum, raising=False)
        assert train(tmp_path / "fsum") == plain

    def test_fixture_logliks_are_the_standalone_sums(self, toy_fwd_series, toy_bwd_series):
        for series, swap in ((toy_fwd_series, False), (toy_bwd_series, True)):
            pairs = load_toy_pairs(swap)
            for ckpt in series:
                assert ckpt.corpus_loglik == corpus_loglikelihood(ckpt.lexicon, pairs)

    @given(corpora, st.integers(1, 4))
    @example([(["a", "a", "b"], ["c", "c"]), (["b"], ["c", "d", "d"])], 3)
    def test_logliks_are_the_standalone_sums(self, pairs, iterations):
        with tempfile.TemporaryDirectory() as tmp:
            for ckpt in trained_series(Path(tmp) / "s", pairs, iterations):
                assert ckpt.corpus_loglik == corpus_loglikelihood(ckpt.lexicon, pairs)

    @given(corpora, st.integers(1, 3))
    @example([(["a", "a"], ["b"])], 1)  # every value 1.0
    @settings(max_examples=25, deadline=None)
    def test_lexicon_file_is_the_lexicon_rendered_afresh(self, pairs, iterations):
        """Each saved lexicon.tsv is the text of its loaded lexicon, which a
        load recovers bit-exactly."""
        with tempfile.TemporaryDirectory() as tmp:
            for ckpt in trained_series(Path(tmp) / "s", pairs, iterations):
                saved = Path(tmp) / "s" / translator.checkpoint_name(ckpt.iteration)
                text = (saved / "lexicon.tsv").read_text(encoding="utf-8")
                assert text == translator._table_text(ckpt.lexicon)

    def test_fixture_lexicon_files_are_the_lexicons_rendered_afresh(
        self, tmp_path, toy_fwd_series
    ):
        train_toy(load_toy_pairs(), 5, tmp_path / "s")
        for ckpt in toy_fwd_series:
            saved = tmp_path / "s" / translator.checkpoint_name(ckpt.iteration)
            text = (saved / "lexicon.tsv").read_text(encoding="utf-8")
            assert text == translator._table_text(ckpt.lexicon)

    @given(
        st.floats(allow_nan=False)
        | st.floats(min_value=0.0, max_value=1.0)
        | st.floats(min_value=0.0, max_value=1e-300)
        | st.sampled_from([0.0, -0.0, 1.0, 5e-324, sys.float_info.min, 1e12, 1e16])
        | st.builds(
            lambda exp, ulps: math.nextafter(10.0**exp, math.inf if ulps > 0 else -math.inf)
            if ulps else 10.0**exp,
            st.integers(-320, 20),
            st.integers(-1, 1),
        )
        | st.builds(lambda exp, x: x * 10.0**exp, st.integers(-10, 14),
                    st.floats(0.9999999999994, 1.0000000000006))
    )
    def test_value_formatter_is_repr_of_quantize(self, x):
        value, text = translator._format_value(x)
        assert text == repr(translator.quantize(x))
        assert value == translator.quantize(x) or math.isnan(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_value_formatter_takes_repr_for_non_finite_values(self, x):
        assert translator._format_value(x)[1] == repr(x)

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "ção", "d"]), min_size=1, max_size=5),
                 min_size=1, max_size=6),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_lm_file_is_the_repr_rendering(self, corpus, alpha):
        """lm.tsv is every LM value's repr, its rows sorted by their words,
        and each value is quantized, so the text parses back to the same LM."""
        lm = build_bigram_lm(corpus, alpha=alpha)
        values = {(w1, w2): lp for w1, row in lm.rows.items() for w2, lp in row.items()}
        assert all(lp == translator.quantize(lp) for lp in values.values())
        text = translator._table_text(lm.rows)
        assert text == "".join(f"{a}\t{b}\t{values[a, b]!r}\n" for a, b in sorted(values))
        assert translator._parse_lm([text.removesuffix("\n").encode("utf-8")], alpha) == lm

    def test_training_keeps_no_rendered_files_once_saved(self, tmp_path, monkeypatch):
        real_save = translator.save_checkpoint

        def save(ckpt, directory):
            assert set(ckpt.rendered) == {"lexicon.tsv", "lm.tsv"}
            real_save(ckpt, directory)
            assert ckpt.rendered == {}

        monkeypatch.setattr(translator, "save_checkpoint", save)
        train_toy(HAND_CORPUS, 2, tmp_path / "s")


class TestCrashSafeSave:
    def test_save_that_raises_partway_leaves_no_checkpoint_directory(
        self, tmp_path, monkeypatch
    ):
        real_open = Path.open

        def write_until_second_lm(path, *args, **kwargs):
            if path.name == "lm.tsv" and path.parent.name == ".ckpt-0002.partial":
                raise OSError("disk full")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", write_until_second_lm)
        with pytest.raises(OSError, match="disk full"):
            train_toy(HAND_CORPUS, 3, tmp_path / "s")
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["ckpt-0001", "series.tsv"]
        assert [c.iteration for c in load_series(tmp_path / "s")] == [1]

    def test_leftover_partial_directory_does_not_block_a_retrain(self, tmp_path):
        """A crash can leave .ckpt-NNNN.partial behind; the next save clears it."""
        stale = tmp_path / "s" / ".ckpt-0001.partial"
        stale.mkdir(parents=True)
        (stale / "lexicon.tsv").write_text("half a checkpoint", encoding="utf-8")
        loaded = trained_series(tmp_path / "s", HAND_CORPUS, 2)
        assert loaded == trained_series(tmp_path / "clean", HAND_CORPUS, 2)
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["ckpt-0001", "ckpt-0002", "series.tsv"]

    @pytest.mark.parametrize("held", ["nothing", "checkpoint", "other-files"])
    def test_save_onto_an_existing_directory_is_refused_and_writes_nothing(
        self, hand_series, tmp_path, held
    ):
        """A save only creates a directory: it used to replace one holding
        nothing or a checkpoint's files."""
        first, _, last = hand_series
        target = tmp_path / "c"
        if held == "checkpoint":
            save_checkpoint(first, target)
        else:
            target.mkdir()
            if held == "other-files":
                (target / "notes.txt").write_text("mine", encoding="utf-8")

        def files():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        before = files()
        with pytest.raises(ValidationError, match="c already exists"):
            save_checkpoint(last, target)
        assert files() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "series"]
        if held == "checkpoint":
            assert load_checkpoint(target) == first

    def test_save_onto_a_file_is_refused_and_writes_nothing(self, hand_series, tmp_path):
        """The checkpoint used to take the file's place, and the save then
        failed with NotADirectoryError, leaving ``.f.stale`` behind."""
        target = tmp_path / "f"
        target.write_text("mine", encoding="utf-8")
        with pytest.raises(ValidationError, match="f is not a directory"):
            save_checkpoint(hand_series[0], target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "series"]
        assert target.read_text(encoding="utf-8") == "mine"


def index_rows(series_dir):
    return (series_dir / "series.tsv").read_text(encoding="utf-8").splitlines()


def last_loglik_rewritten(rows, rewrite):
    """series.tsv ``rows`` with the last row's log-likelihood replaced by
    ``rewrite`` of it."""
    name, loglik = rows[-1].split("\t")
    return rows[:-1] + [f"{name}\t{rewrite(loglik)}"]


class TestSeriesIndex:
    def test_index_lists_every_checkpoint(self, hand_series, tmp_path):
        rows = index_rows(tmp_path / "series")
        assert rows == ["direction\tfwd"] + [
            f"ckpt-{c.iteration:04d}\t{c.corpus_loglik!r}" for c in hand_series
        ]

    def test_interrupted_run_leaves_an_index_of_complete_checkpoints(
        self, tmp_path, monkeypatch
    ):
        real_save = translator.save_checkpoint

        def save_until_third(ckpt, directory):
            if ckpt.iteration == 3:
                raise OSError("disk full")
            real_save(ckpt, directory)

        monkeypatch.setattr(translator, "save_checkpoint", save_until_third)
        with pytest.raises(OSError):
            train_toy(HAND_CORPUS, 4, tmp_path / "s")
        assert [c.iteration for c in load_series(tmp_path / "s")] == [1, 2]

    def test_missing_index_rejected(self, hand_series, tmp_path):
        (tmp_path / "series" / "series.tsv").unlink()
        with pytest.raises(CheckpointError, match="missing series index"):
            load_series(tmp_path / "series")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: ["direction\tsideways"] + rows[1:],
            lambda rows: rows[1:],
            lambda rows: rows[:1],
            lambda rows: rows[:1] + [rows[1].replace("ckpt-0001", "ckpt-1")] + rows[2:],
            lambda rows: rows[:1] + [rows[1] + "\textra"] + rows[2:],
            lambda rows: rows[:1] + [rows[1].split("\t")[0] + "\tnan"] + rows[2:],
            lambda rows: [rows[0], rows[2], rows[1], rows[3]],
            lambda rows: rows + [rows[-1]],
            # float() reads these log-likelihoods, and splitlines() CRLF rows
            lambda rows: [row + "\r" for row in rows],
            lambda rows: last_loglik_rewritten(rows, lambda v: f" {v} "),
            lambda rows: last_loglik_rewritten(rows, lambda v: re.sub(r"(\d)(\d)", r"\1_\2", v, 1)),
            lambda rows: last_loglik_rewritten(rows, lambda v: v.translate(FULL_WIDTH_DIGITS)),
        ],
        ids=["direction", "no-header", "no-rows", "name", "columns", "loglik",
             "order", "repeat", "crlf", "loglik-space", "loglik-underscore",
             "loglik-full-width"],
    )
    def test_malformed_index_rejected(self, hand_series, tmp_path, edit):
        series_dir = tmp_path / "series"
        rows = edit(index_rows(series_dir))
        (series_dir / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_series(series_dir)

    def test_index_digest_is_of_the_bytes_read(self, hand_series, tmp_path):
        path = tmp_path / "series" / "series.tsv"
        direction, loaders, index, read = translator.read_index(tmp_path / "series", True)
        assert (index, read) == (path, {path: hashlib.sha256(path.read_bytes()).hexdigest()})
        assert [load() for load in loaders] == list(hand_series)
        assert list(read)[0] == path
        assert {p.parent.name for p in read if p != path} == {
            f"ckpt-{c.iteration:04d}" for c in hand_series}

    def test_iteration_zero_row_rejected(self, hand_series, tmp_path):
        """Iterations count from 1."""
        series_dir = tmp_path / "series"
        rows = index_rows(series_dir)
        rows.insert(1, "ckpt-0000\t" + rows[1].split("\t")[1])
        (series_dir / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="row 2: expected 'ckpt-NNNN"):
            load_series(series_dir)

    def test_repeated_iteration_rejected(self, hand_series, tmp_path):
        """ckpt-0001 listed twice, with an equal log-likelihood, passes every
        check but the index's iteration order."""
        series_dir = tmp_path / "series"
        rows = index_rows(series_dir)
        rows.insert(2, rows[1])
        (series_dir / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match="series.tsv row 3: iterations must strictly increase"):
            load_series(series_dir)

    def test_decreasing_index_loglik_rejected(self, hand_series, tmp_path):
        series_dir = tmp_path / "series"
        rows = index_rows(series_dir)
        rows[-1] = f"ckpt-0003\t{hand_series[0].corpus_loglik - 1.0!r}"
        (series_dir / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="decreases"):
            load_series(series_dir)

    @pytest.mark.parametrize("field", ["iteration", "direction", "loglik"])
    def test_index_row_must_match_its_checkpoint(self, hand_series, tmp_path, field):
        series_dir = tmp_path / "series"
        rows = index_rows(series_dir)
        if field == "iteration":
            # a checkpoint of iteration 2 filed under a name claiming iteration 4
            shutil.copytree(series_dir / "ckpt-0002", series_dir / "ckpt-0004")
            rows.append("ckpt-0004\t" + rows[-1].split("\t")[1])
        elif field == "direction":
            rows[0] = "direction\tbwd"
        else:
            rows[-1] = rows[-1].split("\t")[0] + "\t-0.0"
        (series_dir / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="does not match"):
            load_series(series_dir)

    def test_unlisted_checkpoints_are_ignored(self, tmp_path):
        """A stale run's newer checkpoints left beside a shorter series."""
        train_toy(HAND_CORPUS, 3, tmp_path / "short")
        train_toy(gen_random_parallel(random.Random(5)), 5, tmp_path / "long")
        for name in ("ckpt-0004", "ckpt-0005"):
            shutil.copytree(tmp_path / "long" / name, tmp_path / "short" / name)
        loaded = load_series(tmp_path / "short")
        assert [c.iteration for c in loaded] == [1, 2, 3]

    @pytest.mark.parametrize("entry", ["series.tsv", "ckpt-0009"])
    def test_train_refuses_a_directory_holding_a_series(self, tmp_path, entry):
        out = tmp_path / "s"
        (out / entry).mkdir(parents=True)
        with pytest.raises(ValidationError, match="already holds a checkpoint series"):
            train_toy(HAND_CORPUS, 1, out)
        assert [p.name for p in out.iterdir()] == [entry]

    def test_train_and_save_under_a_file_are_refused(self, tmp_path, hand_series):
        """A target whose parent is a file used to raise NotADirectoryError,
        which is not a StapleForgeError."""
        blocker = tmp_path / "g"
        blocker.write_text("mine", encoding="utf-8")
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(ValidationError, match="g is not a directory"):
            train_toy(HAND_CORPUS, 1, blocker / "sub")
        with pytest.raises(ValidationError, match="g is not a directory"):
            save_checkpoint(hand_series[0], blocker / "c")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert blocker.read_text(encoding="utf-8") == "mine"

    def test_train_refuses_a_file(self, tmp_path):
        """It used to raise FileExistsError, which is not a StapleForgeError."""
        out = tmp_path / "g"
        out.write_text("mine", encoding="utf-8")
        with pytest.raises(ValidationError, match="g is not a directory"):
            train_toy(HAND_CORPUS, 1, out)
        assert [p.name for p in tmp_path.iterdir()] == ["g"]
        assert out.read_text(encoding="utf-8") == "mine"

    def test_train_into_an_existing_empty_directory(self, tmp_path):
        (tmp_path / "s").mkdir()
        assert len(train_toy(HAND_CORPUS, 2, tmp_path / "s")) == 2
