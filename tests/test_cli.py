from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import stapleforge.cli as cli
import stapleforge.corpus as corpus
import stapleforge.methods as methods
import stapleforge.textproc as textproc
import stapleforge.translator as translator
from stapleforge import __version__
from oracles import (
    FULL_WIDTH_DIGITS, first_value_rewritten, rewrite_model_file, row_added, rows_dropped,
    word_renamed,
)
from stapleforge.cli import _parse_parallel, main
from stapleforge.corpus import normalize
from stapleforge.textproc import BPE_HEADER
from stapleforge.translator import load_series


TESTS_DIR = Path(__file__).resolve().parent


def run_cli(argv):
    """Run the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def trained_world(tmp_path_factory, fixtures_path):
    """Forward and backward series trained once through the CLI."""
    root = tmp_path_factory.mktemp("world")
    parallel = str(fixtures_path / "toy_parallel.tsv")
    assert run_cli(["train", "--parallel", parallel, "--iterations", "5",
                    "--out", str(root / "fwd")]) == 0
    assert run_cli(["train", "--parallel", parallel, "--iterations", "5",
                    "--out", str(root / "bwd"), "--direction", "bwd"]) == 0
    return root


class TestScore:
    def test_example_fixture_macro_line(self, fixtures_path, capsys):
        rc = run_cli([
            "score",
            "--gold", str(fixtures_path / "example_gold_single.txt"),
            "--pred", str(fixtures_path / "example_pred_top1.txt"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == "macro_f1=0.561449"

    def test_report_file(self, fixtures_path, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        rc = run_cli([
            "score",
            "--gold", str(fixtures_path / "example_gold_single.txt"),
            "--pred", str(fixtures_path / "example_pred_top1.txt"),
            "--out", str(report),
        ])
        assert rc == 0
        capsys.readouterr()
        lines = report.read_text().splitlines()
        assert lines[2].startswith("q1\t1.000000\t0.390288\t0.561449")

    def test_perfect_prediction(self, fixtures_path, tmp_path, capsys):
        gold_text = (fixtures_path / "example_gold.txt").read_text()
        pred_lines = []
        for block in gold_text.strip().split("\n\n"):
            rows = block.splitlines()
            pred_lines.append(rows[0])
            pred_lines.extend(r.rsplit("|", 1)[0] for r in rows[1:])
            pred_lines.append("")
        pred = tmp_path / "pred.txt"
        pred.write_text("\n".join(pred_lines), encoding="utf-8")
        rc = run_cli([
            "score",
            "--gold", str(fixtures_path / "example_gold.txt"),
            "--pred", str(pred),
        ])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "macro_f1=1.000000"

    def test_missing_pred_file_exits_2(self, fixtures_path, capsys):
        rc = run_cli([
            "score",
            "--gold", str(fixtures_path / "example_gold.txt"),
            "--pred", "/nonexistent/pred.txt",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path, fixtures_path, capsys):
        bad = tmp_path / "bad_gold.txt"
        bad.write_text("p|x\nfoo|1.5\n", encoding="utf-8")
        rc = run_cli(["score", "--gold", str(bad),
                      "--pred", str(fixtures_path / "example_pred_top1.txt")])
        assert rc == 2

    @pytest.mark.parametrize(
        "gold, pred, reason",
        [("q1|x\nfoo|1e-1\n", "q1|\nfoo\n", "line 2: bad weight literal"),
         ("q1|x\nfoo|0.5\n", "q1 without separator\nfoo\n", "line 1: malformed header")],
        ids=["malformed-gold", "malformed-predictions"],
    )
    def test_malformed_input_exits_2_and_writes_nothing(self, tmp_path, capsys, gold, pred,
                                                        reason):
        (tmp_path / "gold.txt").write_text(gold, encoding="utf-8")
        (tmp_path / "pred.txt").write_text(pred, encoding="utf-8")
        rc = run_cli(["score", "--gold", str(tmp_path / "gold.txt"),
                      "--pred", str(tmp_path / "pred.txt"), "--out", str(tmp_path / "r.tsv")])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_surface_forms_match_by_canonical_form(self, tmp_path, capsys):
        """The parsers canonicalize gold translations and candidates, so the
        scorer's plain string match is the canonical-form match."""
        (tmp_path / "gold.txt").write_text("q1|Hi, how are you?\nOlá, tudo bem?|1.0\n",
                                           encoding="utf-8")
        (tmp_path / "pred.txt").write_text("q1|\nolá tudo bem\n", encoding="utf-8")
        rc = run_cli(["score", "--gold", str(tmp_path / "gold.txt"),
                      "--pred", str(tmp_path / "pred.txt")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "macro_f1=1.000000"

    def test_tab_in_prompt_id_exits_2_naming_its_line(self, tmp_path, capsys):
        """The id used to reach the report, whose row then had five columns."""
        (tmp_path / "gold.txt").write_text("q1|x\nfoo|0.5\n\na\tb|y\nbar|0.5\n",
                                           encoding="utf-8")
        (tmp_path / "pred.txt").write_text("q1|\nfoo\n\na\tb|\nbar\n", encoding="utf-8")
        rc = run_cli(["score", "--gold", str(tmp_path / "gold.txt"),
                      "--pred", str(tmp_path / "pred.txt"), "--out", str(tmp_path / "r.tsv")])
        assert rc == 2
        assert "line 4: prompt id may not contain" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_repeated_gold_prompt_id_names_its_line(self, tmp_path, fixtures_path, capsys):
        """The repeat used to surface only in scoring, with no line number."""
        gold = tmp_path / "gold.txt"
        gold.write_text(_gold_with_t1_repeated(fixtures_path), encoding="utf-8")
        rc = run_cli(["score", "--gold", str(gold),
                      "--pred", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "r.tsv")])
        assert rc == 2
        assert "duplicate prompt id 't1'" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()


def _gold_with_t1_repeated(fixtures_path) -> str:
    """The toy gold file with its first block, prompt t1, appended again."""
    text = (fixtures_path / "toy_gold.txt").read_text(encoding="utf-8")
    return text.rstrip("\n") + "\n\n" + text.split("\n\n")[0].rstrip("\n") + "\n"


class TestTrain:
    def test_checkpoints_and_series_manifest(self, trained_world):
        fwd = trained_world / "fwd"
        assert sorted(p.name for p in fwd.iterdir() if p.is_dir()) == [
            f"ckpt-{i:04d}" for i in range(1, 6)
        ]
        series = load_series(fwd)
        lls = [c.corpus_loglik for c in series]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        assert (fwd / "series.tsv").is_file()

    def test_single_iteration(self, tmp_path, fixtures_path):
        out = tmp_path / "one"
        rc = run_cli(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                      "--iterations", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "ckpt-0001").is_dir()
        assert not (out / "ckpt-0002").exists()

    def test_direction_flag_swaps_columns(self, trained_world):
        fwd = load_series(trained_world / "fwd")
        bwd = load_series(trained_world / "bwd")
        assert "cat" in fwd[-1].lexicon
        assert "gato" in bwd[-1].lexicon
        assert {c.direction for c in bwd} == {"bwd"}
        assert {c.direction for c in fwd} == {"fwd"}

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_alpha_exits_2_and_writes_nothing(self, tmp_path, fixtures_path, capsys,
                                                  alpha):
        """--alpha 0 and -1 used to crash (exit 1) and nan and inf to train an
        all-nan LM that generate then decoded with."""
        rc = run_cli(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                      "--iterations", "2", "--out", str(tmp_path / "out"), f"--alpha={alpha}"])
        assert rc == 2
        assert "alpha must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alpha", ["1e308", "5e-324"])
    def test_extreme_alpha_exits_2_and_writes_nothing(self, tmp_path, fixtures_path, capsys,
                                                      alpha):
        """A finite alpha that overflows alpha * V, or underflows alpha / denominator,
        used to crash with exit 1 on math.log(0)."""
        rc = run_cli(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                      "--iterations", "2", "--out", str(tmp_path / "out"), f"--alpha={alpha}"])
        assert rc == 2
        assert "makes language-model values non-finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_retrain_into_existing_series_exits_2(self, tmp_path, fixtures_path):
        """Training 8 iterations and then 3 into one directory once left a
        series.tsv listing 3 checkpoints beside ckpt-0004..0008 of the old
        run, and --series decoded with the old run's iteration 8."""
        parallel = str(fixtures_path / "toy_parallel.tsv")
        out = tmp_path / "series"
        assert run_cli(["train", "--parallel", parallel, "--iterations", "8",
                        "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run_cli(["train", "--parallel", parallel, "--iterations", "3",
                        "--out", str(out)]) == 2
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert [c.iteration for c in load_series(out)] == list(range(1, 9))

    def test_malformed_parallel_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        rc = run_cli(["train", "--parallel", str(bad), "--iterations", "1",
                      "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_extra_parallel_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("the cat\to gato\nthe dog\to cão\textra\n", encoding="utf-8")
        rc = run_cli(["train", "--parallel", str(bad), "--iterations", "1",
                      "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0b", "\x0c"])
    def test_parallel_rows_end_at_lf_alone(self, tmp_path, capsys, separator):
        """A line holding a Unicode line separator, NEL, VT or FF used to
        train as two pairs: str.splitlines() splits on each of them."""
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"o gato\tthe cat{separator}o cão\tthe dog\n", encoding="utf-8")
        rc = run_cli(["train", "--parallel", str(bad), "--iterations", "1",
                      "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "got 3 columns" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fixture, argv",
        [("toy_parallel.tsv", ["train", "--parallel", "{bad}", "--iterations", "1",
                               "--out", "{out}"]),
         ("toy_prompts.txt", ["generate", "--method", "nbest", "--series", "{fwd}",
                              "--prompts", "{bad}", "--out", "{out}"]),
         ("example_gold_single.txt", ["score", "--gold", "{bad}", "--pred", "{pred}",
                                      "--out", "{out}"])],
        ids=["train-parallel", "generate-prompts", "score-gold"],
    )
    def test_non_utf8_text_input_exits_2_and_writes_nothing(
        self, trained_world, fixtures_path, tmp_path, capsys, fixture, argv
    ):
        """A text input holding a byte that is not UTF-8 used to exit 1 with
        an internal error from the codec."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes((fixtures_path / fixture).read_bytes().replace(b"a", b"\xff", 1))
        paths = {"bad": bad, "out": tmp_path / "out", "fwd": trained_world / "fwd",
                 "pred": fixtures_path / "example_pred_top1.txt"}
        rc = run_cli([arg.format(**paths) for arg in argv])
        assert rc == 2
        assert f"{bad} is not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("variant", ["crlf", "cr", "bom", "bom-crlf"])
    def test_bom_and_crlf_parallel_train_like_plain(self, tmp_path, fixtures_path, variant):
        """A leading byte-order mark is dropped, as the prompt and gold
        parsers drop it; it used to train the word '\\ufeffthe', which no
        prompt can match. CRLF and lone-CR line endings train as LF ones do."""
        data = (fixtures_path / "toy_parallel.tsv").read_bytes()
        if "crlf" in variant:
            data = data.replace(b"\n", b"\r\n")
        elif variant == "cr":
            data = data.replace(b"\n", b"\r")
        if "bom" in variant:
            data = "\ufeff".encode("utf-8") + data
        parallel = tmp_path / "parallel.tsv"
        parallel.write_bytes(data)
        trees = {}
        for name, path in (("plain", fixtures_path / "toy_parallel.tsv"), (variant, parallel)):
            out = tmp_path / name
            assert run_cli(["train", "--parallel", str(path), "--iterations", "2",
                            "--out", str(out), "--direction", "bwd"]) == 0
            trees[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                           if p.is_file()}
        assert trees[variant] == trees["plain"]

    def test_blank_parallel_lines_are_skipped(self, tmp_path, fixtures_path):
        """An empty line and a whitespace-only one train as if absent."""
        lines = (fixtures_path / "toy_parallel.tsv").read_text(encoding="utf-8").splitlines()
        parallel = tmp_path / "parallel.tsv"
        parallel.write_text("\n".join([lines[0], "", *lines[1:3], " \t ", *lines[3:]]) + "\n",
                            encoding="utf-8")
        trees = []
        for name, path in (("plain", fixtures_path / "toy_parallel.tsv"), ("blank", parallel)):
            out = tmp_path / name
            assert run_cli(["train", "--parallel", str(path), "--iterations", "2",
                            "--out", str(out)]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file()})
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("swap", [False, True])
    def test_parallel_corpus_holds_one_string_per_word(self, swap):
        """Every occurrence of a word, on either side of any pair, is one
        object, so the corpus holds each word once, as the model tables do."""
        text = "o gato come peixe\tthe cat eats fish\npeixe come o peixe\tfish eats fish\n"
        pairs = _parse_parallel(text, swap)
        assert pairs[0] == (
            (["the", "cat", "eats", "fish"], ["o", "gato", "come", "peixe"]) if swap
            else (["o", "gato", "come", "peixe"], ["the", "cat", "eats", "fish"])
        )
        occurrences = [w for pair in pairs for side in pair for w in side]
        first: dict[str, str] = {}
        for w in occurrences:
            first.setdefault(w, w)
        assert "fish" in first and "peixe" in first
        assert all(w is first[w] for w in occurrences)

    def test_reserved_token_exits_2_and_writes_nothing(self, tmp_path, capsys):
        parallel = tmp_path / "p.tsv"
        parallel.write_text("the cat\to gato\nthe dog\to <unk> cão\n", encoding="utf-8")
        rc = run_cli(["train", "--parallel", str(parallel), "--iterations", "1",
                      "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "reserved token '<unk>'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGenerate:
    def test_nbest_n1_single_candidate(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "pred.txt"
        rc = run_cli(["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--n", "1"])
        assert rc == 0
        blocks = out.read_text().strip().split("\n\n")
        assert len(blocks) == 6
        assert all(len(b.splitlines()) == 2 for b in blocks)

    def test_ensemble_m1_byte_identical_to_nbest(self, trained_world, fixtures_path, tmp_path):
        common = ["--series", str(trained_world / "fwd"),
                  "--prompts", str(fixtures_path / "toy_prompts.txt")]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["generate", "--method", "nbest", *common, "--out", str(a)]) == 0
        assert run_cli(["generate", "--method", "ensemble", "--m", "1", *common,
                        "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_echoes_default_parameters(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "pred.txt"
        rc = run_cli(["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out)])
        assert rc == 0
        manifest = (tmp_path / "pred.txt.manifest.tsv").read_text()
        assert "param:n\t10" in manifest
        assert "param:beam" not in manifest  # decoding is exact: there is no beam width
        assert "param:n_prime\t3" in manifest
        assert "param:m\t6" in manifest
        assert "param:top_k\t8" in manifest
        assert "param:policy" not in manifest  # sentences have one canonical form
        assert "tool_version\t" in manifest
        assert "duration" not in manifest  # reruns must be byte-identical
        assert (tmp_path / "pred.txt.warnings.tsv").read_text().startswith("prompt_id\t")

    def test_paraphrase_without_backward_model_is_usage_error(
        self, trained_world, fixtures_path, tmp_path
    ):
        rc = run_cli(["generate", "--method", "paraphrase",
                      "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    @pytest.mark.parametrize(
        "models",
        [["--ckpt", "{fwd}/ckpt-0001", "--series", "{fwd}"],
         ["--series", "{fwd}", "--bwd-ckpt", "{bwd}/ckpt-0005", "--bwd-series", "{bwd}"]],
        ids=["ckpt-and-series", "bwd-ckpt-and-bwd-series"],
    )
    def test_checkpoint_and_series_together_is_usage_error(
        self, trained_world, fixtures_path, tmp_path, capsys, models
    ):
        """--ckpt used to win silently over --series, and --bwd-ckpt over --bwd-series."""
        models = [arg.format(fwd=trained_world / "fwd", bwd=trained_world / "bwd")
                  for arg in models]
        rc = run_cli(["generate", "--method", "paraphrase", *models,
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tab_in_prompt_id_exits_2_and_writes_nothing(
        self, trained_world, fixtures_path, tmp_path, capsys
    ):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("p1|First prompt.\np\t2|Second prompt.\n", encoding="utf-8")
        rc = run_cli(["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                      "--prompts", str(prompts), "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "line 2: prompt id may not contain" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [prompts]

    @pytest.mark.parametrize("method", ["nbest", "paraphrase", "ensemble"])
    def test_degraded_prompt_warns_once(self, trained_world, fixtures_path, tmp_path, method):
        """One row per prompt whose canonical form has no words, in prompt order."""
        prompts = tmp_path / "prompts.txt"
        toy = (fixtures_path / "toy_prompts.txt").read_text()
        prompts.write_text("pa|?!\n" + toy + "px|?!\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        assert run_cli(["generate", "--method", method, "--m", "3",
                        "--series", str(trained_world / "fwd"),
                        "--bwd-series", str(trained_world / "bwd"),
                        "--prompts", str(prompts), "--out", str(out)]) == 0
        text = (tmp_path / "pred.txt.warnings.tsv").read_text()
        assert text == (f"prompt_id\tstage\tmessage\npa\t{method}\tno candidates\n"
                        f"px\t{method}\tno candidates\n")

    def test_paraphrase_runs_with_backward_series(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "para.txt"
        rc = run_cli(["generate", "--method", "paraphrase",
                      "--series", str(trained_world / "fwd"),
                      "--bwd-series", str(trained_world / "bwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("t1|\n")

    @pytest.mark.parametrize(
        "argv, wrong",
        [(["generate", "--method", "paraphrase", "--series", "{bwd}", "--bwd-series", "{fwd}"],
          "{bwd}"),
         (["generate", "--method", "paraphrase", "--series", "{fwd}", "--bwd-series", "{fwd}"],
          "{fwd}"),
         (["generate", "--method", "paraphrase", "--series", "{fwd}",
           "--bwd-ckpt", "{fwd}/ckpt-0005"], "{fwd}/ckpt-0005"),
         (["generate", "--method", "nbest", "--ckpt", "{bwd}/ckpt-0005"], "{bwd}/ckpt-0005"),
         (["generate", "--method", "ensemble", "--m", "2", "--series", "{bwd}"], "{bwd}"),
         (["sweep", "--gold", "{gold}", "--series", "{bwd}", "--bwd-series", "{fwd}"], "{bwd}"),
         (["sweep", "--gold", "{gold}", "--series", "{fwd}", "--bwd-series", "{fwd}"], "{fwd}")],
        ids=["paraphrase-swapped", "paraphrase-fwd-as-bwd", "paraphrase-fwd-bwd-ckpt",
             "nbest-bwd-ckpt", "ensemble-bwd-series", "sweep-swapped", "sweep-fwd-as-bwd"],
    )
    def test_model_of_the_wrong_direction_exits_2_and_writes_nothing(
        self, trained_world, fixtures_path, tmp_path, capsys, argv, wrong
    ):
        """--series and --ckpt take the forward model and --bwd-series and
        --bwd-ckpt the backward one. A swapped paraphrase pair used to exit 0,
        decoding prompts with the backward model and writing source words
        copied through."""
        paths = {"fwd": trained_world / "fwd", "bwd": trained_world / "bwd",
                 "gold": fixtures_path / "toy_gold.txt"}
        out = tmp_path / "out.txt"
        rc = run_cli([*(arg.format(**paths) for arg in argv),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
        assert rc == 2
        expected = "fwd" if "bwd" in wrong else "bwd"
        found = "bwd" if expected == "fwd" else "fwd"
        assert (f"error: {wrong.format(**paths)} is a {found} model, expected a {expected} one"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


class TestBpe:
    def test_learn_fixture_first_merge(self, fixtures_path, tmp_path):
        model = tmp_path / "bpe.model"
        rc = run_cli(["bpe", "learn", "--input", str(fixtures_path / "bpe_words.txt"),
                      "--merges", "2", "--out", str(model)])
        assert rc == 0
        lines = model.read_text().splitlines()
        assert lines[0] == "#bpe v1 eow=</w>"
        assert lines[1] == "e\ts"

    def test_apply_empty_model_is_character_segmentation(self, tmp_path):
        model = tmp_path / "empty.model"
        model.write_text("#bpe v1 eow=</w>\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("ab\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        rc = run_cli(["bpe", "apply", "--model", str(model), "--input", str(inp),
                      "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "a@@ b\n"

    def test_apply_then_decode_round_trip(self, fixtures_path, tmp_path):
        model = tmp_path / "bpe.model"
        assert run_cli(["bpe", "learn", "--input", str(fixtures_path / "bpe_words.txt"),
                        "--merges", "10", "--out", str(model)]) == 0
        inp = tmp_path / "in.txt"
        inp.write_text("newest widest low\nlower lowest\n", encoding="utf-8")
        seg = tmp_path / "seg.txt"
        back = tmp_path / "back.txt"
        assert run_cli(["bpe", "apply", "--model", str(model), "--input", str(inp),
                        "--out", str(seg)]) == 0
        assert run_cli(["bpe", "decode", "--input", str(seg), "--out", str(back)]) == 0
        assert back.read_text() == inp.read_text()

    def test_apply_segments_each_distinct_word_once(self, fixtures_path, tmp_path,
                                                    monkeypatch):
        """Each line used to be applied with a cache of its own, so a word
        was segmented again on every line that held it."""
        model = tmp_path / "bpe.model"
        assert run_cli(["bpe", "learn", "--input", str(fixtures_path / "bpe_words.txt"),
                        "--merges", "10", "--out", str(model)]) == 0
        segmented: Counter[str] = Counter()
        real_segment = textproc._segment_word

        def segment(word, ranks):
            segmented[word] += 1
            return real_segment(word, ranks)

        monkeypatch.setattr(textproc, "_segment_word", segment)
        inp = tmp_path / "in.txt"
        inp.write_text("low lower low\nlowest low\n\nlower newest\n", encoding="utf-8")
        out = tmp_path / "seg.txt"
        assert run_cli(["bpe", "apply", "--model", str(model), "--input", str(inp),
                        "--out", str(out)]) == 0
        assert segmented == {"low": 1, "lower": 1, "lowest": 1, "newest": 1}
        monkeypatch.undo()
        words = [textproc.bpe_apply(textproc.load_bpe(model.read_text(encoding="utf-8")),
                                    line.split())
                 for line in inp.read_text(encoding="utf-8").splitlines()]
        assert out.read_text(encoding="utf-8") == "".join(" ".join(w) + "\n" for w in words)

    def test_bad_model_file_exits_2(self, tmp_path):
        model = tmp_path / "bad.model"
        model.write_text("garbage\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("ab\n", encoding="utf-8")
        assert run_cli(["bpe", "apply", "--model", str(model), "--input", str(inp)]) == 2

    def test_bad_model_header_exits_2_and_writes_nothing(self, tmp_path, capsys):
        model = tmp_path / "bad.model"
        model.write_text("#bpe v2 eow=</w>\na\tb\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("ab\n", encoding="utf-8")
        rc = run_cli(["bpe", "apply", "--model", str(model), "--input", str(inp),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 2
        assert "line 1: bad BPE model header" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c"])
    @pytest.mark.parametrize("command", ["apply", "decode"])
    def test_one_output_line_per_input_line(self, tmp_path, command, separator):
        """str.splitlines() also ends a line at these characters, so a
        segmented side no longer lined up with the other side of its
        parallel corpus."""
        model = tmp_path / "empty.model"
        model.write_text("#bpe v1 eow=</w>\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        text, argv, expected = {
            "apply": ("ab{}c\nd\n", ["--model", str(model)], "a@@ b c\nd\n"),
            "decode": ("o ga@@ to{}come\npeixe\n", [], "o gato come\npeixe\n"),
        }[command]
        inp.write_text(text.format(separator), encoding="utf-8")
        out = tmp_path / "out.txt"
        assert run_cli(["bpe", command, *argv, "--input", str(inp), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected

    def test_byte_order_mark_is_dropped(self, fixtures_path, tmp_path):
        """The mark used to stay on the first word: bpe decode printed
        '\ufeffgato' and bpe learn counted a word no other line holds."""
        words = (fixtures_path / "bpe_words.txt").read_text(encoding="utf-8")
        marked = tmp_path / "marked.txt"
        marked.write_text("\ufeff" + words, encoding="utf-8")
        for name, path in (("plain", fixtures_path / "bpe_words.txt"), ("marked", marked)):
            assert run_cli(["bpe", "learn", "--input", str(path), "--merges", "10",
                            "--out", str(tmp_path / f"{name}.model")]) == 0
        assert (tmp_path / "marked.model").read_bytes() == (tmp_path / "plain.model").read_bytes()
        seg = tmp_path / "seg.txt"
        seg.write_text("\ufeffga@@ to\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert run_cli(["bpe", "decode", "--input", str(seg), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "gato\n"


class TestSweep:
    def test_empty_spec_exits_3(self, trained_world, fixtures_path, tmp_path, caplog, opens):
        """An empty grid exits 3 before any input or index is read, and
        writes nothing: it used to replace the table with a header alone
        and leave the old manifest beside it."""
        out = tmp_path / "table.tsv"
        argv = ["sweep", "--series", str(trained_world / "fwd"),
                "--gold", str(fixtures_path / "toy_gold.txt"),
                "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)]
        assert run_cli([*argv, "--n", "", "--n-prime", "", "--m", ""]) == 3
        assert "empty sweep specification" in caplog.text
        assert list(tmp_path.iterdir()) == []
        assert run_cli([*argv, "--n", "5", "--n-prime", "", "--m", "2"]) == 0
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(p.name for p in before) == ["table.tsv", "table.tsv.manifest.tsv"]
        opens.clear()
        assert run_cli([*argv, "--n", "", "--n-prime", "", "--m", ""]) == 3
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert [path for path in opens
                if path.startswith((str(trained_world), str(fixtures_path)))] == []

    def test_decode_params_are_built_once_per_decode(
        self, trained_world, fixtures_path, tmp_path, monkeypatch
    ):
        """A request the decoder's memo answers builds no ``DecodeParams``."""
        counts = Counter()
        real_params, real_decode = methods.DecodeParams, methods.decode_nbest
        real_sentences = methods.Decoder.sentences

        def params(*args, **kwargs):
            counts["params"] += 1
            return real_params(*args, **kwargs)

        def decode(*args):
            counts["decode"] += 1
            return real_decode(*args)

        def sentences(*args):
            counts["request"] += 1
            return real_sentences(*args)

        monkeypatch.setattr(methods, "DecodeParams", params)
        monkeypatch.setattr(methods, "decode_nbest", decode)
        monkeypatch.setattr(methods.Decoder, "sentences", sentences)
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--bwd-series", str(trained_world / "bwd"),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "table.tsv")])
        assert rc == 0
        assert counts["params"] == counts["decode"] > 0
        assert counts["request"] > counts["decode"]

    def test_paraphrase_cells_na_without_backward_series(
        self, trained_world, fixtures_path, tmp_path
    ):
        out = tmp_path / "table.tsv"
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--n", "5", "--n-prime", "3", "--m", "2"])
        assert rc == 0
        rows = dict(
            (tuple(line.split("\t")[:2]), line.split("\t")[2:])
            for line in out.read_text().splitlines()[1:]
        )
        assert rows[("paraphrase", "n'=3")] == ["NA", "NA", "NA"]
        assert rows[("nbest", "n=5")] != ["NA", "NA", "NA"]

    @pytest.mark.parametrize(
        "sweep_args, generate_args, cell",
        [
            (["--n", "5", "--n-prime", "", "--m", ""], ["--method", "nbest", "--n", "5"],
             "nbest\tn=5"),
            (["--n", "", "--n-prime", "2", "--m", "", "--bwd-series", "{bwd}"],
             ["--method", "paraphrase", "--n-prime", "2", "--bwd-series", "{bwd}"],
             "paraphrase\tn'=2"),
            (["--n", "", "--n-prime", "", "--m", "3"], ["--method", "ensemble", "--m", "3"],
             "ensemble\tm=3"),
        ],
        ids=["nbest", "paraphrase", "ensemble"],
    )
    def test_cells_match_independent_generate_and_score(
        self, trained_world, fixtures_path, tmp_path, capsys, sweep_args, generate_args, cell
    ):
        bwd = str(trained_world / "bwd")
        common = ["--series", str(trained_world / "fwd"),
                  "--prompts", str(fixtures_path / "toy_prompts.txt")]
        table = tmp_path / "table.tsv"
        rc = run_cli(["sweep", *common, "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--out", str(table), "--fixed-n", "5",
                      *(a.format(bwd=bwd) for a in sweep_args)])
        assert rc == 0
        pred = tmp_path / "pred.txt"
        report = tmp_path / "report.tsv"
        assert run_cli(["generate", *common, "--out", str(pred), "--n", "5",
                        *(a.format(bwd=bwd) for a in generate_args)]) == 0
        assert run_cli(["score", "--gold", str(fixtures_path / "toy_gold.txt"),
                        "--pred", str(pred), "--out", str(report)]) == 0
        capsys.readouterr()
        macro_row = report.read_text().splitlines()[-1].split("\t")
        expected = [f"{100 * float(v):.2f}" for v in macro_row[1:]]
        rows = [line.split("\t")[2:] for line in table.read_text().splitlines()
                if line.startswith(cell + "\t")]
        assert rows == [expected]

    def test_manifest_records_parameters(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "table.tsv"
        assert run_cli(["sweep", "--series", str(trained_world / "fwd"),
                        "--gold", str(fixtures_path / "toy_gold.txt"),
                        "--prompts", str(fixtures_path / "toy_prompts.txt"),
                        "--out", str(out), "--n", "5", "--n-prime", "", "--m", "2",
                        "--top-k", "4"]) == 0
        manifest = (tmp_path / "table.tsv.manifest.tsv").read_text().splitlines()
        assert [row for row in manifest if row.startswith("param:")] == [
            "param:fixed_n\t10", "param:m_values\t2", "param:n_prime_values\t",
            "param:n_values\t5", "param:top_k\t4",
        ]

    def test_repeated_gold_prompt_id_exits_2_before_decoding(
        self, trained_world, fixtures_path, tmp_path, capsys
    ):
        """It used to run every cell, then write an all-NA table and exit 2."""
        gold = tmp_path / "gold.txt"
        gold.write_text(_gold_with_t1_repeated(fixtures_path), encoding="utf-8")
        out = tmp_path / "table.tsv"
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"), "--gold", str(gold),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--m", "1,2"])
        assert rc == 2
        assert "duplicate prompt id 't1'" in capsys.readouterr().err
        assert list(tmp_path.glob("table.tsv*")) == []

    def test_ensemble_recall_non_decreasing_in_table(
        self, trained_world, fixtures_path, tmp_path
    ):
        out = tmp_path / "table.tsv"
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--bwd-series", str(trained_world / "bwd"),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--m", "1,2,3,4,5"])
        assert rc == 0
        recalls = [
            float(line.split("\t")[3])
            for line in out.read_text().splitlines()
            if line.startswith("ensemble\t")
        ]
        assert len(recalls) == 5
        assert recalls == sorted(recalls)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "0"],
        ["sweep", "--n-prime", "0"],
        ["sweep", "--m", "0"],
        ["sweep", "--fixed-n", "0"],
        ["sweep", "--top-k", "0"],
        ["generate", "--method", "nbest", "--n", "0"],
        ["generate", "--method", "ensemble", "--m", "0"],
        ["generate", "--method", "nbest", "--top-k", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_positive_method_value_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, argv
):
    extra = ["--gold", str(fixtures_path / "toy_gold.txt")] if argv[0] == "sweep" else []
    out = tmp_path / "out.txt"
    rc = run_cli([*argv, *extra, "--series", str(trained_world / "fwd"),
                  "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
    assert rc == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--parallel", "{parallel}", "--iterations", "1"],
        ["generate", "--method", "nbest", "--series", "{fwd}", "--prompts", "{prompts}"],
        ["bpe", "learn", "--input", "{prompts}"],
        ["score", "--gold", "{gold}", "--pred", "{gold}"],
        ["sweep", "--series", "{fwd}", "--gold", "{gold}", "--prompts", "{prompts}"],
    ],
    ids=["train", "generate", "bpe-learn", "score", "sweep"],
)
def test_policy_is_not_a_model_option(trained_world, fixtures_path, tmp_path, capsys, argv):
    """Sentences have one canonical form, which models read and scoring
    compares by, so --policy is a usage error on every command."""
    paths = {"parallel": str(fixtures_path / "toy_parallel.tsv"),
             "prompts": str(fixtures_path / "toy_prompts.txt"),
             "gold": str(fixtures_path / "toy_gold.txt"),
             "fwd": str(trained_world / "fwd")}
    argv = [arg.format(**paths) for arg in argv]
    rc = run_cli([*argv, "--out", str(tmp_path / "out"), "--policy", "exact"])
    assert rc == 2
    assert "unrecognized arguments: --policy exact" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_models_read_canonical_text(trained_world, fixtures_path, tmp_path):
    """Capitalised, punctuated prompts decode to the candidates of their
    canonical forms, through generate and through sweep, which scores them
    against the bundled surface-form gold."""
    raw = fixtures_path / "toy_prompts.txt"
    canonical = tmp_path / "canonical_prompts.txt"
    canonical.write_text(
        "".join(f"{pid}|{normalize(text)}\n"
                for pid, text in (line.split("|", 1) for line in raw.read_text().splitlines())),
        encoding="utf-8")
    gold = fixtures_path / "toy_gold.txt"
    series = ["--series", str(trained_world / "fwd")]
    outputs = {}
    for name, prompts in (("raw", raw), ("canonical", canonical)):
        pred, table = tmp_path / f"pred_{name}.txt", tmp_path / f"table_{name}.tsv"
        assert run_cli(["generate", "--method", "ensemble", "--m", "3", *series,
                        "--prompts", str(prompts), "--out", str(pred)]) == 0
        assert run_cli(["sweep", *series, "--gold", str(gold), "--prompts", str(prompts),
                        "--n", "5", "--n-prime", "", "--m", "3",
                        "--out", str(table)]) == 0
        outputs[name] = (pred.read_bytes(), table.read_bytes())
    assert outputs["raw"] == outputs["canonical"]
    f1 = [float(row.split("\t")[4]) for row in outputs["raw"][1].decode().splitlines()[1:]]
    assert len(f1) == 2 and min(f1) > 0


@pytest.mark.parametrize(
    "argv",
    [["--method", "nbest"], ["--method", "ensemble", "--m", "5"],
     ["--method", "paraphrase", "--bwd-series", "{bwd}"]],
    ids=["nbest", "ensemble", "paraphrase"],
)
def test_generated_candidates_are_canonical(trained_world, fixtures_path, tmp_path, argv):
    """Candidates are decoded canonical words joined by spaces, so normalize
    leaves each one as it is: the methods and the in-process scoring of
    ``sweep`` compare them as plain strings. The file is read line by line,
    since ``parse_predictions`` would canonicalize what it reads."""
    out = tmp_path / "pred.txt"
    argv = [arg.format(bwd=trained_world / "bwd") for arg in argv]
    assert run_cli(["generate", *argv, "--series", str(trained_world / "fwd"),
                    "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)]) == 0
    candidates = [line for block in out.read_text(encoding="utf-8").split("\n\n")
                  for line in block.splitlines()[1:]]
    assert candidates
    assert all(normalize(cand) == cand for cand in candidates)


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "stapleforge" in capsys.readouterr().out


def test_fixtures_command(capsys):
    assert run_cli(["fixtures"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("fixtures")


class TestReproducibility:
    def test_retrain_byte_identical_whatever_source_date_epoch(
        self, fixtures_path, tmp_path, monkeypatch
    ):
        """Checkpoints record nothing about when they were written, so no
        environment variable is needed for byte-identical retraining."""
        parallel = str(fixtures_path / "toy_parallel.tsv")
        trees = []
        for epoch in (None, "0", "86400", "not-a-number"):
            if epoch is None:
                monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
            else:
                monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
            out = tmp_path / f"epoch-{epoch}"
            assert run_cli(["train", "--parallel", parallel, "--iterations", "2",
                            "--out", str(out)]) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        assert len(trees[0]) == 7  # series.tsv and 3 files per checkpoint
        assert all(tree == trees[0] for tree in trees)

    def test_trained_fixture_series_match_recorded_digests(
        self, fixtures_path, tmp_path, toy_fwd_series, toy_bwd_series
    ):
        """Every file of the fixture's 5-iteration fwd and bwd series has the
        SHA-256 recorded in toy_series.sha256 (``sha256sum`` format), and
        loads as the series the library trains from the same corpus.

        The digests were recorded while every checkpoint was still rendered,
        summed and saved on its own, so a faster training path that changes
        one byte of a series fails here."""
        recorded = {}
        for line in (TESTS_DIR / "toy_series.sha256").read_text(encoding="utf-8").splitlines():
            digest, name = line.split("  ", 1)
            recorded[name] = digest
        for direction in ("fwd", "bwd"):
            assert run_cli(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                            "--iterations", "5", "--out", str(tmp_path / direction),
                            "--direction", direction]) == 0
        found = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*") if p.is_file()
        }
        assert found == recorded
        assert load_series(tmp_path / "fwd") == toy_fwd_series
        assert load_series(tmp_path / "bwd") == toy_bwd_series

    def test_series_with_created_at_rows_still_loads(self, trained_world, fixtures_path,
                                                    tmp_path):
        """meta.tsv files written before checkpoints stopped recording a
        created_at row load as before: the loader ignores keys it does not use."""
        old = tmp_path / "old"
        shutil.copytree(trained_world / "fwd", old)
        for meta in old.glob("ckpt-*/meta.tsv"):
            with meta.open("a", encoding="utf-8", newline="\n") as sink:
                sink.write("created_at\t2020-09-13T12:26:40Z\n")
        prompts = str(fixtures_path / "toy_prompts.txt")
        outputs = {}
        for name, series in (("new", trained_world / "fwd"), ("old", old)):
            out = tmp_path / f"{name}.txt"
            assert run_cli(["generate", "--method", "ensemble", "--m", "5", "--series",
                            str(series), "--prompts", prompts, "--out", str(out)]) == 0
            manifest = Path(f"{out}.manifest.tsv").read_text(encoding="utf-8").splitlines()
            # the model checksum covers meta.tsv, so only that row may differ
            outputs[name] = (out.read_bytes(),
                             [row for row in manifest if not row.startswith("input:model\t")])
        assert outputs["old"] == outputs["new"]

    def test_generate_reruns_byte_identical(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "pred.txt"
        argv = ["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        first_manifest = (tmp_path / "pred.txt.manifest.tsv").read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "pred.txt.manifest.tsv").read_bytes() == first_manifest

    def test_fixture_world_outputs_match_recorded_digests(
        self, trained_world, fixtures_path, tmp_path, capsys
    ):
        """Every file that ``fixture_runs`` writes, sidecars and manifests
        included, has the SHA-256 recorded in fixture_outputs.sha256
        (``sha256sum`` format). Model checksums are taken over paths relative
        to the model, so no digest depends on where the world lies.

        A change meant to keep every output fails here if it moves one byte;
        the file is re-recorded only with a deliberate change of output."""
        recorded = {}
        for line in (TESTS_DIR / "fixture_outputs.sha256").read_text(
                encoding="utf-8").splitlines():
            digest, name = line.split("  ", 1)
            recorded[name] = digest
        for argv in fixture_runs(trained_world, fixtures_path, tmp_path):
            assert run_cli(argv) == 0, argv
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert found == recorded


def fixture_runs(world: Path, fixtures: Path, out: Path) -> list[list[str]]:
    """The commands whose outputs into ``out`` fixture_outputs.sha256 records:
    ``generate`` with each method, paraphrase also through lone checkpoints,
    ``sweep`` on its default grid (its ``m`` rows beyond the 5 checkpoints are
    NA) and ``score``, all on ``world``'s fwd and bwd series of 5 iterations."""
    fwd, bwd = world / "fwd", world / "bwd"
    data = ["--prompts", str(fixtures / "toy_prompts.txt")]
    gold = ["--gold", str(fixtures / "toy_gold.txt")]
    return [
        ["generate", "--method", "nbest", "--series", str(fwd), *data,
         "--out", str(out / "nbest.txt")],
        ["generate", "--method", "ensemble", "--m", "3", "--series", str(fwd), *data,
         "--out", str(out / "ensemble.txt")],
        ["generate", "--method", "paraphrase", "--series", str(fwd), "--bwd-series", str(bwd),
         *data, "--out", str(out / "paraphrase.txt")],
        ["generate", "--method", "paraphrase", "--ckpt", str(fwd / "ckpt-0005"),
         "--bwd-ckpt", str(bwd / "ckpt-0005"), *data, "--out", str(out / "paraphrase-ckpt.txt")],
        ["sweep", "--series", str(fwd), "--bwd-series", str(bwd), *gold, *data,
         "--out", str(out / "sweep.tsv")],
        ["score", *gold, "--pred", str(out / "nbest.txt"), "--out", str(out / "score.tsv")],
    ]


class TestUnwritableOut:
    """An --out that cannot be written exits 2 naming it, before any work and
    with nothing written; it used to exit 1 after all the work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("Run.read", "train_toy", "predict", "score_corpus"):
            monkeypatch.setattr(f"stapleforge.cli.{name}", boom)

    @pytest.mark.parametrize("out, reason", [
        ("file", "it is a file"),
        ("file/series", "file is not a directory"),
    ])
    def test_train(self, fixtures_path, tmp_path, monkeypatch, capsys, out, reason):
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("kept", encoding="utf-8")
        rc = run_cli(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                      "--iterations", "1", "--out", out])
        assert rc == 2
        assert f"cannot write {out}: {reason}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert Path("file").read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("out, made", [
        ("dir", "dir"),
        ("missing/pred.txt", None),
        ("pred.txt", "pred.txt.warnings.tsv"),
        ("pred.txt", "pred.txt.manifest.tsv"),
    ])
    def test_generate(self, trained_world, fixtures_path, tmp_path, monkeypatch, capsys,
                      out, made):
        monkeypatch.chdir(tmp_path)
        if made:
            Path(made).mkdir()
        rc = run_cli(["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", out])
        assert rc == 2
        assert f"cannot write {made or out}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])

    @pytest.mark.parametrize("out, made", [
        ("table.tsv", "table.tsv"),
        ("missing/table.tsv", None),
        ("table.tsv", "table.tsv.manifest.tsv"),
    ])
    def test_sweep(self, trained_world, fixtures_path, tmp_path, monkeypatch, capsys,
                   out, made):
        monkeypatch.chdir(tmp_path)
        if made:
            Path(made).mkdir()
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write {made or out}: " in err
        if made is None:
            assert "missing does not exist" in err
        assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])

    @pytest.mark.parametrize("out", ["report", "missing/report.tsv"])
    def test_score(self, fixtures_path, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        Path("report").mkdir()
        rc = run_cli(["score", "--gold", str(fixtures_path / "example_gold.txt"),
                      "--pred", str(fixtures_path / "example_pred_top1.txt"), "--out", out])
        assert rc == 2
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["report"]
        assert list(Path("report").iterdir()) == []

    @pytest.mark.parametrize("command, out, made, reason", [
        ("learn", "missing/m.bpe", None, "missing does not exist"),
        ("learn", "m.bpe", "dir", "it is a directory"),
        ("learn", "", None, "argument --out: empty path"),  # a usage error
        ("apply", "file/x", "file", "file is not a directory"),
        ("decode", "out.txt", "dir", "it is a directory"),
        ("decode", "missing/out.txt", None, "missing does not exist"),
    ])
    def test_bpe(self, fixtures_path, tmp_path, monkeypatch, capsys, command, out, made, reason):
        monkeypatch.chdir(tmp_path)
        made_name = out.split("/")[0]
        if made == "dir":
            Path(made_name).mkdir()
        elif made == "file":
            Path(made_name).write_text("kept", encoding="utf-8")
        words = str(fixtures_path / "bpe_words.txt")
        model = ["--model", "model.bpe"] if command == "apply" else []
        rc = run_cli(["bpe", command, *model, "--input", words, "--out", out])
        assert rc == 2
        assert (f"cannot write {out}: " if out else "") + reason in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ([made_name] if made else [])
        if made == "dir":
            assert list(Path(made_name).iterdir()) == []


class TestMoreCliEdges:
    def test_generate_from_single_checkpoint_dir(self, trained_world, fixtures_path, tmp_path):
        out = tmp_path / "pred.txt"
        rc = run_cli(["generate", "--method", "nbest",
                      "--ckpt", str(trained_world / "fwd" / "ckpt-0005"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--n", "2"])
        assert rc == 0
        assert out.read_text().startswith("t1|\n")

    def test_sweep_all_cells_failing_exits_2(
        self, trained_world, fixtures_path, tmp_path, caplog
    ):
        """It used to write the table of NA rows and its manifest first."""
        out = tmp_path / "table.tsv"
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(out), "--n", "", "--n-prime", "", "--m", "99"])
        assert rc == 2
        assert "every sweep cell failed" in caplog.text
        assert list(tmp_path.glob("table.tsv*")) == []

    def test_python_dash_m_runs_the_command(self):
        """``python -m stapleforge`` used to fail: the package had no __main__."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TESTS_DIR.parent / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        done = subprocess.run([sys.executable, "-m", "stapleforge", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout == f"stapleforge {__version__}\n"

    def test_bpe_learn_joint_over_multiple_inputs(self, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("banana banana\n", encoding="utf-8")
        tgt.write_text("bandana\n", encoding="utf-8")
        model = tmp_path / "joint.model"
        rc = run_cli(["bpe", "learn", "--input", str(src), "--input", str(tgt),
                      "--merges", "1", "--out", str(model)])
        assert rc == 0
        # "an" occurs 2x per banana (x2) and 2x in bandana: joint count 6
        assert model.read_text().splitlines()[1] == "a\tn"


@pytest.fixture()
def loads(monkeypatch):
    """Counts checkpoint loads per series directory name."""
    counts: Counter[str] = Counter()
    real_load = translator.load_checkpoint

    def counting_load(directory, *args):
        counts[Path(directory).parent.name] += 1
        return real_load(directory, *args)

    monkeypatch.setattr(translator, "load_checkpoint", counting_load)
    return counts


# the paths opened while a test counts them; an audit hook cannot be removed,
# so one hook, added on first use, serves every test
_OPENS: list[Counter[str]] = []


def _count_open(event: str, args: tuple) -> None:
    if event == "open" and _OPENS and isinstance(args[0], str):
        _OPENS[-1][args[0]] += 1


@pytest.fixture()
def opens():
    """Counts the opens of each path while the test runs."""
    if not getattr(_count_open, "added", False):
        sys.addaudithook(_count_open)
        _count_open.added = True
    counts: Counter[str] = Counter()
    _OPENS.append(counts)
    yield counts
    _OPENS.remove(counts)


class TestSeriesLoading:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["generate", "--method", "nbest"], {"fwd": 1}),
            (["generate", "--method", "paraphrase", "--bwd-series", "{bwd}"],
             {"fwd": 1, "bwd": 1}),
            (["generate", "--method", "ensemble", "--m", "3"], {"fwd": 3}),
            (["sweep", "--gold", "{gold}", "--m", "2,4", "--bwd-series", "{bwd}"],
             {"fwd": 4, "bwd": 1}),
            (["sweep", "--gold", "{gold}", "--m", "2,4", "--n-prime", "",
              "--bwd-series", "{bwd}"], {"fwd": 4}),
            (["sweep", "--gold", "{gold}", "--m", "", "--n-prime", ""], {"fwd": 1}),
        ],
        ids=["nbest", "paraphrase", "ensemble", "sweep", "sweep-no-paraphrase",
             "sweep-no-ensemble"],
    )
    def test_commands_load_only_the_checkpoints_they_decode_with(
        self, trained_world, fixtures_path, tmp_path, loads, argv, expected
    ):
        paths = {"bwd": str(trained_world / "bwd"), "gold": str(fixtures_path / "toy_gold.txt")}
        argv = [arg.format(**paths) for arg in argv]
        rc = run_cli([*argv, "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 0
        assert dict(loads) == expected

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["generate", "--method", "nbest", "--series", "{fwd}"], {"fwd": 1}),
            (["generate", "--method", "nbest", "--ckpt", "{fwd}/ckpt-0005"], {"fwd": 1}),
            (["generate", "--method", "nbest", "--ckpt", "{fwd}/ckpt-0005",
              "--bwd-ckpt", "{bwd}/ckpt-0005"], {"fwd": 1}),
            (["generate", "--method", "ensemble", "--m", "3", "--series", "{fwd}"], {"fwd": 3}),
            (["generate", "--method", "ensemble", "--m", "1", "--ckpt", "{fwd}/ckpt-0005"],
             {"fwd": 1}),
            (["generate", "--method", "paraphrase", "--series", "{fwd}",
              "--bwd-series", "{bwd}"], {"fwd": 1, "bwd": 1}),
            (["generate", "--method", "paraphrase", "--ckpt", "{fwd}/ckpt-0005",
              "--bwd-ckpt", "{bwd}/ckpt-0005"], {"fwd": 1, "bwd": 1}),
            # ensemble m=6 and m=8 are NA rows, so nothing reads ckpt-0001 of
            # either series, nor bwd's ckpt-0001 to ckpt-0004
            (["sweep", "--gold", "{gold}", "--series", "{fwd}", "--bwd-series", "{bwd}"],
             {"fwd": 4, "bwd": 1}),
        ],
        ids=["nbest-series", "nbest-ckpt", "nbest-ckpt-unread-bwd-ckpt", "ensemble-series",
             "ensemble-ckpt", "paraphrase-series", "paraphrase-ckpt", "sweep"],
    )
    def test_each_model_file_is_read_once(
        self, trained_world, fixtures_path, tmp_path, monkeypatch, opens, argv, loaded
    ):
        """The loader hashes each file for the manifest as it reads it, and
        so does each index reader: a series' series.tsv, or a lone
        checkpoint's meta.tsv, which its load reuses. The manifest used to
        read and hash every loaded file, and each series.tsv, a second time.
        The first lm.tsv of each model is read twice: hashed, then parsed,
        since no LM of the model is loaded yet."""
        paths = {"fwd": str(trained_world / "fwd"), "bwd": str(trained_world / "bwd"),
                 "gold": str(fixtures_path / "toy_gold.txt")}
        rc = run_cli([*(arg.format(**paths) for arg in argv),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 0
        models = [value for flag, value in zip(argv, argv[1:])
                  if flag in ("--series", "--bwd-series", "--ckpt", "--bwd-ckpt")]
        for model in ("fwd", "bwd"):
            count = loaded.get(model, 0)
            expected = Counter({("lexicon.tsv", 1): count, ("meta.tsv", 1): count,
                                ("lm.tsv", 1): count - 1, ("lm.tsv", 2): 1} if count else {})
            for value in models:
                if value == f"{{{model}}}":
                    expected["series.tsv", 1] += 1
                elif value.startswith(f"{{{model}}}/") and not count:
                    expected["meta.tsv", 1] += 1  # the index of a checkpoint never loaded
            opened = Counter((Path(path).name, times) for path, times in opens.items()
                             if path.startswith(paths[model] + os.sep))
            assert opened == +expected, model

    def test_a_second_run_reads_what_the_first_did(
        self, trained_world, fixtures_path, tmp_path, opens
    ):
        """A command run twice in one process opens each model file as often
        the second time as the first, as a fresh process does. A process-wide
        LM memo used to let the second run skip parsing each model's lm.tsv."""
        argv = ["generate", "--method", "paraphrase", "--series", str(trained_world / "fwd"),
                "--bwd-series", str(trained_world / "bwd"),
                "--prompts", str(fixtures_path / "toy_prompts.txt")]
        runs = []
        for out in ("first.txt", "second.txt"):
            opens.clear()
            assert run_cli([*argv, "--out", str(tmp_path / out)]) == 0
            runs.append({path: times for path, times in opens.items()
                         if path.startswith(str(trained_world) + os.sep)})
        first, second = runs
        assert second == first
        for model in ("fwd", "bwd"):
            assert first[str(trained_world / model / "ckpt-0005" / "lm.tsv")] == 2

    @pytest.mark.parametrize(
        "argv, resident",
        [(["generate", "--method", "ensemble", "--m", "5"], 1),
         (["sweep", "--gold", "{gold}", "--m", "2,4,5", "--bwd-series", "{bwd}"], 2)],
        ids=["ensemble", "sweep"],
    )
    def test_each_checkpoint_loads_once_and_few_stay_resident(
        self, trained_world, fixtures_path, tmp_path, monkeypatch, argv, resident
    ):
        """An ensemble decodes every prompt with one checkpoint before loading
        the next, and later sweep cells read earlier decodes from the memo."""
        loads: Counter[str] = Counter()
        loaded: list[weakref.ref] = []
        most_alive = 0

        def note_alive():
            nonlocal most_alive
            most_alive = max(most_alive, sum(ref() is not None for ref in loaded))

        real_load, real_decode = translator.load_checkpoint, methods.decode_nbest

        def load(directory, *args):
            ckpt = real_load(directory, *args)
            loads[f"{Path(directory).parent.name}/{Path(directory).name}"] += 1
            loaded.append(weakref.ref(ckpt))
            note_alive()
            return ckpt

        def decode(ckpt, source, params):
            note_alive()
            return real_decode(ckpt, source, params)

        monkeypatch.setattr(translator, "load_checkpoint", load)
        monkeypatch.setattr(methods, "decode_nbest", decode)
        paths = {"bwd": str(trained_world / "bwd"), "gold": str(fixtures_path / "toy_gold.txt")}
        rc = run_cli([*(arg.format(**paths) for arg in argv),
                      "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 0
        expected = {f"fwd/ckpt-{i:04d}": 1 for i in range(1, 6)}
        if argv[0] == "sweep":
            expected["bwd/ckpt-0005"] = 1
        assert dict(loads) == expected
        assert most_alive == resident

    def test_unlisted_checkpoint_is_ignored(self, trained_world, fixtures_path, tmp_path):
        """A stray ckpt-0009 that series.tsv does not list changes no output."""
        parallel = str(fixtures_path / "toy_parallel.tsv")
        assert run_cli(["train", "--parallel", parallel, "--iterations", "9",
                        "--out", str(tmp_path / "nine")]) == 0
        stray = tmp_path / "stray"
        shutil.copytree(trained_world / "fwd", stray)
        shutil.copytree(tmp_path / "nine" / "ckpt-0009", stray / "ckpt-0009")
        prompts = str(fixtures_path / "toy_prompts.txt")
        gold = str(fixtures_path / "toy_gold.txt")
        outputs = {}
        for series in ("clean", "stray"):
            path = str(trained_world / "fwd") if series == "clean" else str(stray)
            for method in ("nbest", "ensemble"):
                out = tmp_path / f"{series}_{method}.txt"
                assert run_cli(["generate", "--method", method, "--series", path, "--m", "5",
                                "--prompts", prompts, "--out", str(out)]) == 0
                outputs[series, method] = out.read_bytes()
                outputs[series, method, "manifest"] = Path(f"{out}.manifest.tsv").read_bytes()
            table = tmp_path / f"{series}_table.tsv"
            assert run_cli(["sweep", "--series", path, "--gold", gold, "--prompts", prompts,
                            "--n", "5", "--n-prime", "", "--m", "1,5",
                            "--out", str(table)]) == 0
            outputs[series, "sweep"] = table.read_bytes()
            outputs[series, "sweep", "manifest"] = Path(f"{table}.manifest.tsv").read_bytes()
        for what in ("nbest", "ensemble", "sweep"):
            assert outputs["stray", what] == outputs["clean", what]
            # the manifest checksums only series.tsv and the checkpoints loaded
            assert outputs["stray", what, "manifest"] == outputs["clean", what, "manifest"]

    @pytest.mark.parametrize("model", ["--series", "--ckpt"])
    def test_model_checksum_covers_only_loaded_checkpoints(
        self, trained_world, fixtures_path, tmp_path, model
    ):
        """Editing a checkpoint the command did not load leaves its manifest
        unchanged; editing a loaded checkpoint changes its model's row. A
        --bwd-ckpt that nbest never reads counts by its index, meta.tsv."""
        prompts = str(fixtures_path / "toy_prompts.txt")
        fwd, bwd = tmp_path / "fwd", tmp_path / "bwd"
        shutil.copytree(trained_world / "fwd", fwd)
        shutil.copytree(trained_world / "bwd", bwd)
        if model == "--series":
            argv = ["--method", "ensemble", "--m", "2", "--series", str(fwd)]
            unread, read = fwd / "ckpt-0001", fwd / "ckpt-0004"
        else:
            argv = ["--method", "nbest", "--ckpt", str(fwd / "ckpt-0005"),
                    "--bwd-ckpt", str(bwd / "ckpt-0005")]
            unread, read = bwd / "ckpt-0005", fwd / "ckpt-0005"

        def manifest() -> set[str]:
            out = tmp_path / "pred.txt"
            assert run_cli(["generate", *argv, "--prompts", prompts, "--out", str(out)]) == 0
            rows = Path(f"{out}.manifest.tsv").read_text().splitlines()
            return {row for row in rows if row.startswith(("input:model\t", "input:bwd_model\t"))}

        before = manifest()
        (unread / "note.txt").write_text("not loaded", encoding="utf-8")
        assert manifest() == before
        (read / "note.txt").write_text("loaded", encoding="utf-8")
        assert [row.split("\t")[0] for row in manifest() - before] == ["input:model"]

    def test_loaded_checkpoint_checksum_covers_every_file_under_it(
        self, trained_world, fixtures_path, tmp_path
    ):
        """A loaded --ckpt's row is the digest of the sorted relative path and
        SHA-256 of every file under it, stray and nested files included."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained_world / "fwd" / "ckpt-0005", ckpt)
        (ckpt / "note.txt").write_text("stray", encoding="utf-8")
        (ckpt / "sub").mkdir()
        (ckpt / "sub" / "deeper.txt").write_text("nested", encoding="utf-8")
        out = tmp_path / "pred.txt"
        assert run_cli(["generate", "--method", "nbest", "--ckpt", str(ckpt),
                        "--prompts", str(fixtures_path / "toy_prompts.txt"),
                        "--out", str(out)]) == 0
        expected = hashlib.sha256()
        for path in sorted(p for p in ckpt.rglob("*") if p.is_file()):
            file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
            expected.update(f"{path.relative_to(ckpt)}\0{file_digest}\0".encode("utf-8"))
        rows = Path(f"{out}.manifest.tsv").read_text().splitlines()
        assert f"input:model\t{expected.hexdigest()}" in rows

    @pytest.mark.parametrize(
        "edit",
        [lambda ckpt: (ckpt / "note.txt").write_text("never read", encoding="utf-8"),
         lambda ckpt: (ckpt / "lexicon.tsv").write_text("edited\n", encoding="utf-8")],
        ids=["stray-file", "lexicon-edit"],
    )
    def test_default_sweep_manifest_ignores_a_checkpoint_it_never_reads(
        self, trained_world, fixtures_path, tmp_path, edit
    ):
        """On a 5-checkpoint series the ensemble m=6 and m=8 cells are NA
        rows, so nothing decodes with ckpt-0001; its files used to be hashed
        into the manifest all the same."""
        series = tmp_path / "fwd"
        shutil.copytree(trained_world / "fwd", series)

        def manifest() -> bytes:
            out = tmp_path / "table.tsv"
            assert run_cli(["sweep", "--series", str(series),
                            "--bwd-series", str(trained_world / "bwd"),
                            "--gold", str(fixtures_path / "toy_gold.txt"),
                            "--prompts", str(fixtures_path / "toy_prompts.txt"),
                            "--out", str(out)]) == 0
            return Path(f"{out}.manifest.tsv").read_bytes()

        before = manifest()
        edit(series / "ckpt-0001")
        assert manifest() == before

    @pytest.mark.parametrize("flag", ["--bwd-series", "--bwd-ckpt"])
    @pytest.mark.parametrize("bwd", ["missing", "forward"])
    def test_nbest_checks_a_given_backward_series(
        self, trained_world, fixtures_path, tmp_path, capsys, bwd, flag
    ):
        """A backward model given to a method that does not read it is still
        read, direction-checked and recorded; nbest used to ignore it."""
        if bwd == "missing":
            path = tmp_path / "nowhere"
        else:
            path = trained_world / "fwd" / ("ckpt-0005" if flag == "--bwd-ckpt" else "")
        out = tmp_path / "out.txt"
        rc = run_cli(["generate", "--method", "nbest", "--series", str(trained_world / "fwd"),
                      flag, str(path),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
        assert rc == 2
        missing = ("checkpoint series directory not found" if flag == "--bwd-series"
                   else "checkpoint directory not found")
        reason = missing if bwd == "missing" else "is a fwd model, expected a bwd one"
        assert reason in capsys.readouterr().err
        assert list(tmp_path.glob("out.txt*")) == []

    @pytest.mark.parametrize("flag", ["--bwd-series", "--bwd-ckpt"])
    def test_nbest_records_a_given_backward_series(
        self, trained_world, fixtures_path, tmp_path, flag
    ):
        prompts = str(fixtures_path / "toy_prompts.txt")
        bwd = trained_world / "bwd" / ("ckpt-0005" if flag == "--bwd-ckpt" else "")
        outputs = {}
        for name, extra in (("plain", []), ("bwd", [flag, str(bwd)])):
            out = tmp_path / f"{name}.txt"
            assert run_cli(["generate", "--method", "nbest", "--series",
                            str(trained_world / "fwd"), *extra,
                            "--prompts", prompts, "--out", str(out)]) == 0
            outputs[name] = (out.read_bytes(),
                             Path(f"{out}.manifest.tsv").read_text().splitlines())
        assert outputs["bwd"][0] == outputs["plain"][0]
        added = set(outputs["bwd"][1]) - set(outputs["plain"][1])
        assert [row.split("\t")[0] for row in added] == ["input:bwd_model"]
        assert set(outputs["plain"][1]) - set(outputs["bwd"][1]) == set()

    @pytest.mark.parametrize(
        "argv, missing",
        [(["generate", "--method", "nbest"], "ckpt-0005"),
         (["generate", "--method", "ensemble", "--m", "5"], "ckpt-0003"),
         (["sweep", "--gold", "{gold}", "--bwd-series", "{bwd}"], "ckpt-0003")],
        ids=["nbest", "ensemble", "sweep"],
    )
    def test_missing_listed_checkpoint_exits_2_and_writes_nothing(
        self, trained_world, fixtures_path, tmp_path, capsys, argv, missing
    ):
        """A listed checkpoint is looked for when first decoded with, so the
        ensemble and the sweep find ckpt-0003 missing after other
        checkpoints have decoded every prompt."""
        series = tmp_path / "fwd"
        shutil.copytree(trained_world / "fwd", series)
        shutil.rmtree(series / missing)
        paths = {"bwd": str(trained_world / "bwd"), "gold": str(fixtures_path / "toy_gold.txt")}
        out = tmp_path / "out.txt"
        rc = run_cli([*(arg.format(**paths) for arg in argv), "--series", str(series),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
        assert rc == 2
        assert f"checkpoint directory not found: {series / missing}" in capsys.readouterr().err
        assert list(tmp_path.glob("out.txt*")) == []

    def test_paraphrase_without_backward_model_exits_2(
        self, trained_world, fixtures_path, tmp_path, capsys
    ):
        out = tmp_path / "out.txt"
        rc = run_cli(["generate", "--method", "paraphrase", "--series",
                      str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
        assert rc == 2
        assert "paraphrase needs a backward model" in capsys.readouterr().err
        assert list(tmp_path.glob("out.txt*")) == []

    def test_generate_without_forward_model_is_a_usage_error(
        self, fixtures_path, tmp_path, capsys
    ):
        out = tmp_path / "out.txt"
        rc = run_cli(["generate", "--method", "nbest",
                      "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
        assert rc == 2
        assert "one of the arguments --ckpt --series is required" in capsys.readouterr().err
        assert list(tmp_path.glob("out.txt*")) == []

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_programming_error_exits_1(
        self, trained_world, fixtures_path, tmp_path, monkeypatch, capsys, command
    ):
        """A bug is not bad input: it must not become empty predictions or NA rows."""
        def boom(*args, **kwargs):
            raise TypeError("decoder bug")

        monkeypatch.setattr("stapleforge.methods.decode_nbest", boom)
        argv = {
            "generate": ["generate", "--method", "nbest"],
            "sweep": ["sweep", "--gold", str(fixtures_path / "toy_gold.txt")],
        }[command]
        rc = run_cli([*argv, "--series", str(trained_world / "fwd"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "internal error: decoder bug" in err
        # the traceback goes to stderr too, down to the function that raised
        assert "Traceback (most recent call last)" in err
        assert ", in boom\n" in err

    @pytest.mark.parametrize("field", ["loglik", "direction"])
    def test_index_disagreeing_with_checkpoint_exits_2(
        self, trained_world, fixtures_path, tmp_path, capsys, field
    ):
        """The direction case relabels a backward series as forward, so only
        its checkpoints, not its index, say it is backward."""
        series = tmp_path / "series"
        shutil.copytree(trained_world / ("fwd" if field == "loglik" else "bwd"), series)
        rows = (series / "series.tsv").read_text(encoding="utf-8").splitlines()
        if field == "loglik":
            rows[-1] = rows[-1].split("\t")[0] + "\t-0.5"
        else:
            rows[0] = "direction\tfwd"
        (series / "series.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["generate", "--method", "nbest", "--series", str(series),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "out.txt")])
        assert rc == 2
        assert "does not match its series.tsv row" in capsys.readouterr().err

    def test_unloaded_missing_backward_series_exits_2(
        self, trained_world, fixtures_path, tmp_path, capsys
    ):
        """Without paraphrase cells the backward series is not loaded, but the
        manifest still checksums it, so a missing one is an input error."""
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--bwd-series", str(tmp_path / "nowhere"), "--n-prime", "",
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "table.tsv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_index_exits_2(self, trained_world, fixtures_path, tmp_path, capsys):
        series = tmp_path / "fwd"
        shutil.copytree(trained_world / "fwd", series)
        (series / "series.tsv").unlink()
        rc = run_cli(["sweep", "--series", str(series),
                      "--gold", str(fixtures_path / "toy_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "table.tsv")])
        assert rc == 2
        assert "missing series index" in capsys.readouterr().err


def _edit_first_row(path: Path, edit) -> str:
    rows = path.read_text(encoding="utf-8").splitlines()
    rows[0] = edit(rows[0])
    return "\n".join(rows) + "\n"


def _set_meta_row(path: Path, key: str, value: str) -> str:
    rows = [f"{key}\t{value}" if row.startswith(f"{key}\t") else row
            for row in path.read_text(encoding="utf-8").splitlines()]
    return "\n".join(rows) + "\n"


def _meta_value_rewritten(path: Path, key: str, rewrite) -> str:
    meta = dict(row.split("\t") for row in path.read_text(encoding="utf-8").splitlines())
    return _set_meta_row(path, key, rewrite(meta[key]))


def _insert_meta_row(ckpt: Path, row: str) -> None:
    """Add ``row`` to meta.tsv after its first row."""
    rows = (ckpt / "meta.tsv").read_text(encoding="utf-8").splitlines()
    (ckpt / "meta.tsv").write_text("\n".join([rows[0], row, *rows[1:]]) + "\n",
                                   encoding="utf-8")


def _negative_entry_in_a_row_summing_to_1(path: Path) -> str:
    """lexicon.tsv with its first two probabilities, of one source word, moved
    by +1 and -1: the row still sums to 1 but holds a negative probability."""
    rows = path.read_text(encoding="utf-8").splitlines()
    (key0, p0), (key1, p1) = (row.rsplit("\t", 1) for row in rows[:2])
    assert key0.split("\t")[0] == key1.split("\t")[0]
    rows[0] = f"{key0}\t{float(p0) + 1.0!r}"
    rows[1] = f"{key1}\t{float(p1) - 1.0!r}"
    return "\n".join(rows) + "\n"


DIGIT_PAIR = re.compile(r"(\d)(\d)")

CHECKPOINT_FAULTS = {
    "missing-lm": (lambda ckpt: (ckpt / "lm.tsv").unlink(), "missing checkpoint file"),
    "checksum": (lambda ckpt: (ckpt / "lexicon.tsv").write_text(
        _edit_first_row(ckpt / "lexicon.tsv", lambda row: row + "0"), encoding="utf-8"),
        "checksum mismatch"),
    "meta-value": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _edit_first_row(ckpt / "meta.tsv", lambda row: "iteration\ttwo"), encoding="utf-8"),
        "bad iteration 'two'"),
    # int() takes both: 0 then failed without naming the directory, " 2_0" loaded as 20
    "iteration-0": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _set_meta_row(ckpt / "meta.tsv", "iteration", "0"), encoding="utf-8"),
        "bad iteration '0'"),
    "iteration-underscore": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _set_meta_row(ckpt / "meta.tsv", "iteration", " 2_0"), encoding="utf-8"),
        "bad iteration ' 2_0'"),
    "two-column-row": (lambda ckpt: rewrite_model_file(ckpt, "lexicon.tsv", _edit_first_row(
        ckpt / "lexicon.tsv", lambda row: row.rsplit("\t", 1)[0])),
        "corrupt lexicon.tsv row 1"),
    "non-numeric-prob": (lambda ckpt: rewrite_model_file(ckpt, "lexicon.tsv", _edit_first_row(
        ckpt / "lexicon.tsv", lambda row: row.rsplit("\t", 1)[0] + "\tzero")),
        "non-numeric value in lexicon.tsv row 1"),
    # nan passes the row-sum check: abs(nan - 1.0) > 1e-9 is False
    "nan-prob": (lambda ckpt: rewrite_model_file(ckpt, "lexicon.tsv", _edit_first_row(
        ckpt / "lexicon.tsv", lambda row: row.rsplit("\t", 1)[0] + "\tnan")),
        "non-finite value in lexicon.tsv row 1"),
    "negative-prob": (lambda ckpt: rewrite_model_file(
        ckpt, "lexicon.tsv", _negative_entry_in_a_row_summing_to_1(ckpt / "lexicon.tsv")),
        "holds a negative probability"),
    "inf-lm-value": (lambda ckpt: rewrite_model_file(ckpt, "lm.tsv", _edit_first_row(
        ckpt / "lm.tsv", lambda row: row.rsplit("\t", 1)[0] + "\tinf")),
        "non-finite value in lm.tsv row 1"),
    "nan-alpha": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _set_meta_row(ckpt / "meta.tsv", "alpha", "nan"), encoding="utf-8"),
        "bad alpha 'nan'"),
    # float() reads each of these meta.tsv values as the number it spells
    "space-before-loglik": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _meta_value_rewritten(ckpt / "meta.tsv", "corpus_loglik", lambda v: " " + v),
        encoding="utf-8"),
        "bad corpus_loglik ' -"),
    "full-width-alpha": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _meta_value_rewritten(ckpt / "meta.tsv", "alpha", lambda v: v.translate(FULL_WIDTH_DIGITS)),
        encoding="utf-8"),
        "bad alpha '０.１'"),
    "inf-loglik": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        _set_meta_row(ckpt / "meta.tsv", "corpus_loglik", "-inf"), encoding="utf-8"),
        "bad corpus_loglik '-inf'"),
    # a repeated key used to load quietly, its last row winning
    "repeated-iteration": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        "iteration\t4\n" + (ckpt / "meta.tsv").read_text(encoding="utf-8"), encoding="utf-8"),
        "repeated key 'iteration'"),
    "appended-direction": (lambda ckpt: (ckpt / "meta.tsv").write_text(
        (ckpt / "meta.tsv").read_text(encoding="utf-8") + "direction\tbwd\n",
        encoding="utf-8"),
        "repeated key 'direction'"),
    # the first three used to load: blank rows were skipped, and a lone tab
    # was a row of the empty key
    "meta-blank-row": (lambda ckpt: _insert_meta_row(ckpt, ""), "ckpt-0005: ''"),
    "meta-spaces-row": (lambda ckpt: _insert_meta_row(ckpt, "   "), "ckpt-0005: '   '"),
    "meta-tab-row": (lambda ckpt: _insert_meta_row(ckpt, "\t"), "ckpt-0005: '\\t'"),
    "meta-three-column-row": (lambda ckpt: _insert_meta_row(ckpt, "created_at\tx\ty"),
        "ckpt-0005: 'created_at\\tx\\ty'"),
    "meta-missing-key": (lambda ckpt: (ckpt / "meta.tsv").write_text("".join(
        row for row in (ckpt / "meta.tsv").read_text(encoding="utf-8").splitlines(True)
        if not row.startswith("alpha\t")), encoding="utf-8"),
        "is missing key 'alpha'"),
    "meta-not-utf8": (lambda ckpt: (ckpt / "meta.tsv").write_bytes(
        (ckpt / "meta.tsv").read_bytes() + b"note\t\xff\n"),
        "is not UTF-8"),
    # never equal to a canonical gold translation's word, so it used to score as a miss
    "non-canonical-lexicon-word": (lambda ckpt: rewrite_model_file(
        ckpt, "lexicon.tsv", word_renamed(ckpt / "lexicon.tsv", "gato", "Gato!")),
        "non-canonical word 'Gato!' in lexicon.tsv"),
    "non-canonical-lm-word": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", word_renamed(ckpt / "lm.tsv", "gato", "Gato!")),
        "non-canonical word 'Gato!' in lm.tsv"),
    # it used to load, and decoding wrote <s> as a candidate
    "reserved-lexicon-word": (lambda ckpt: rewrite_model_file(
        ckpt, "lexicon.tsv", word_renamed(ckpt / "lexicon.tsv", "gato", "<s>")),
        "holds the reserved token '<s>'"),
    # a reserved token in a role lm.tsv never gives it used to load as a bigram
    "lm-eos-history": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", row_added(ckpt / "lm.tsv", "</s>\tgato\t-0.5")),
        "reserved token '</s>' is never a history"),
    "lm-other-history": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", row_added(ckpt / "lm.tsv", "<other>\tgato\t-0.5")),
        "reserved token '<other>' is never a history"),
    "lm-bos-successor": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", row_added(ckpt / "lm.tsv", "gato\t<s>\t-0.5")),
        "reserved token '<s>' never follows 'gato'"),
    "lm-unk-successor": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", row_added(ckpt / "lm.tsv", "gato\t<unk>\t-0.5")),
        "reserved token '<unk>' never follows 'gato'"),
    "lm-unk-other": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", row_added(ckpt / "lm.tsv", "<unk>\t<other>\t-0.5")),
        "reserved token '<other>' never follows '<unk>'"),
    # a history with no <other> row, or an lm.tsv with no <unk> rows, used to
    # load, and the LM backed off silently where it needed the missing row
    "lm-no-other-row": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", rows_dropped(ckpt / "lm.tsv", "gato\t<other>\t")),
        "history 'gato' has no '<other>' row"),
    "lm-no-unk-rows": (lambda ckpt: rewrite_model_file(
        ckpt, "lm.tsv", rows_dropped(ckpt / "lm.tsv", "<unk>\t")),
        "lm.tsv has no '<unk>' rows"),
    # float() reads each of these values as the number it spells, so they used to load
    "space-before-value": (lambda ckpt: rewrite_model_file(ckpt, "lexicon.tsv", (
        first_value_rewritten(ckpt / "lexicon.tsv", lambda value: " " + value))),
        "badly written number in lexicon.tsv row 1"),
    "full-width-digits": (lambda ckpt: rewrite_model_file(ckpt, "lexicon.tsv", (
        first_value_rewritten(ckpt / "lexicon.tsv", lambda v: v.translate(FULL_WIDTH_DIGITS)))),
        "non-numeric value in lexicon.tsv row 1"),
    "underscore-in-lm-value": (lambda ckpt: rewrite_model_file(ckpt, "lm.tsv", (
        first_value_rewritten(ckpt / "lm.tsv", lambda v: DIGIT_PAIR.sub(r"\1_\2", v, count=1)))),
        "badly written number in lm.tsv row 1"),
    # the checksum is over the bytes on disk; a universal-newline read made a CRLF copy load
    "crlf-copy": (lambda ckpt: (ckpt / "lexicon.tsv").write_bytes(
        (ckpt / "lexicon.tsv").read_bytes().replace(b"\n", b"\r\n")),
        "checksum mismatch"),
}


@pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
@pytest.mark.parametrize("model", ["--ckpt", "--series"])
def test_checkpoint_fault_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, model, fault
):
    series = tmp_path / "fwd"
    shutil.copytree(trained_world / "fwd", series)
    edit, reason = CHECKPOINT_FAULTS[fault]
    edit(series / "ckpt-0005")
    out = tmp_path / "out.txt"
    rc = run_cli(["generate", "--method", "nbest",
                  model, str(series / "ckpt-0005" if model == "--ckpt" else series),
                  "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ckpt-0005" in err and reason in err
    assert list(tmp_path.glob("out.txt*")) == []


def _last_loglik_rewritten(path: Path, rewrite) -> bytes:
    """series.tsv's bytes with its last row's log-likelihood replaced by
    ``rewrite`` of it."""
    rows = path.read_text(encoding="utf-8").splitlines()
    name, loglik = rows[-1].split("\t")
    rows[-1] = f"{name}\t{rewrite(loglik)}"
    return ("\n".join(rows) + "\n").encode("utf-8")


# the CRLF and log-likelihood faults used to load: float() reads these
# log-likelihoods as the numbers they spell and splitlines() splits CRLF rows;
# a series.tsv that is not UTF-8 exited 1 as an internal error; and only the
# index's iteration order catches a repeated row, whose checkpoint loads
SERIES_FAULTS = {
    "crlf-copy": (lambda path: path.read_bytes().replace(b"\n", b"\r\n"),
                  "first row must be"),
    "space-around-loglik": (lambda path: _last_loglik_rewritten(path, lambda v: f" {v} "),
                            "row 6: bad log-likelihood"),
    "underscore-in-loglik": (lambda path: _last_loglik_rewritten(
        path, lambda v: DIGIT_PAIR.sub(r"\1_\2", v, count=1)), "row 6: bad log-likelihood"),
    "full-width-loglik": (lambda path: _last_loglik_rewritten(
        path, lambda v: v.translate(FULL_WIDTH_DIGITS)), "row 6: bad log-likelihood"),
    "not-utf8": (lambda path: path.read_bytes() + b"\xff\n", "is not UTF-8"),
    "repeated-iteration": (lambda path: re.sub(rb"\n(ckpt-0001\t[^\n]*\n)", rb"\n\1\1",
                                               path.read_bytes()),
                           "row 3: iterations must strictly increase"),
}


@pytest.mark.parametrize("fault", list(SERIES_FAULTS))
@pytest.mark.parametrize("method", [["nbest"], ["ensemble", "--m", "2"]],
                         ids=["nbest", "ensemble"])
def test_series_index_fault_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, method, fault
):
    series = tmp_path / "fwd"
    shutil.copytree(trained_world / "fwd", series)
    edit, reason = SERIES_FAULTS[fault]
    (series / "series.tsv").write_bytes(edit(series / "series.tsv"))
    out = tmp_path / "out.txt"
    rc = run_cli(["generate", "--method", *method, "--series", str(series),
                  "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(series / "series.tsv") in err and reason in err
    assert list(tmp_path.glob("out.txt*")) == []


def test_sweep_rejects_a_non_canonical_model_word(trained_world, fixtures_path, tmp_path, capsys):
    """With `gato` renamed `Gato!` in the newest checkpoint, `score` of the
    generated predictions canonicalized the word back, but the sweep compared
    it as written: its nbest n=10 cell read 14.08 where the model scores 30.61."""
    series = tmp_path / "fwd"
    shutil.copytree(trained_world / "fwd", series)
    newest = series / "ckpt-0005"
    for name in ("lexicon.tsv", "lm.tsv"):
        rewrite_model_file(newest, name, word_renamed(newest / name, "gato", "Gato!"))
    rc = run_cli(["sweep", "--series", str(series), "--n", "10", "--n-prime", "", "--m", "",
                  "--gold", str(fixtures_path / "toy_gold.txt"),
                  "--prompts", str(fixtures_path / "toy_prompts.txt"),
                  "--out", str(tmp_path / "table.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-canonical word 'Gato!' in lexicon.tsv row" in err
    assert "ckpt-0005" in err
    assert list(tmp_path.glob("table.tsv*")) == []


@pytest.mark.parametrize(
    "argv",
    [["generate", "--method", "nbest"],
     ["generate", "--method", "ensemble", "--m", "3"],
     ["generate", "--method", "paraphrase", "--bwd-series", "{bwd}"],
     ["sweep", "--gold", "{gold}", "--bwd-series", "{bwd}"]],
    ids=["generate-nbest", "generate-ensemble", "generate-paraphrase", "sweep"],
)
def test_prompt_holding_a_reserved_token_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, argv
):
    """The copied ``</s>``, which is ``<s>`` in canonical form, used to be
    decoded as the sentence start: nbest wrote ``o <s> gato <unk>``."""
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("x1|o </s> gato <unk>\n", encoding="utf-8")
    fills = {"gold": str(fixtures_path / "toy_gold.txt"), "bwd": str(trained_world / "bwd")}
    rc = run_cli([*(arg.format(**fills) for arg in argv),
                  "--series", str(trained_world / "fwd"), "--prompts", str(prompts),
                  "--out", str(tmp_path / "out.txt")])
    assert rc == 2
    assert "line 1: prompt x1: holds the reserved token '<s>'" in capsys.readouterr().err
    assert list(tmp_path.glob("out.txt*")) == []


@pytest.mark.parametrize(
    "argv",
    [["generate", "--method", "paraphrase", "--bwd-series", "{bwd}"],
     ["generate", "--method", "ensemble", "--m", "3"],
     ["sweep", "--gold", "{gold}", "--bwd-series", "{bwd}"]],
    ids=["generate-paraphrase", "generate-ensemble", "sweep"],
)
def test_methods_never_canonicalize(trained_world, fixtures_path, tmp_path, monkeypatch, argv):
    """The prompts parser canonicalizes each prompt, so a method decodes
    canonical sentences only: with ``normalize`` raising inside
    ``methods.predict``, except while a checkpoint loads (its model words
    are checked), surface-form prompts still generate and sweep."""
    real = corpus.normalize
    forbidden = []  # whether normalize must not run, one entry per wrapped call, innermost last

    def guarded_normalize(text):
        if forbidden and forbidden[-1]:
            raise AssertionError(f"normalize({text!r}) inside methods.predict")
        return real(text)

    def within(forbid, fn):
        def call(*args, **kwargs):
            forbidden.append(forbid)
            try:
                return fn(*args, **kwargs)
            finally:
                forbidden.pop()
        return call

    monkeypatch.setattr(corpus, "normalize", guarded_normalize)
    monkeypatch.setattr(textproc, "normalize", guarded_normalize)
    monkeypatch.setattr(cli, "predict", within(True, methods.predict))
    monkeypatch.setattr(translator, "load_checkpoint", within(False, translator.load_checkpoint))
    prompts = tmp_path / "prompts.txt"
    prompts.write_text((fixtures_path / "toy_prompts.txt").read_text(encoding="utf-8")
                       + "px|?!\n", encoding="utf-8")
    fills = {"gold": str(fixtures_path / "toy_gold.txt"), "bwd": str(trained_world / "bwd")}
    rc = run_cli([*(arg.format(**fills) for arg in argv),
                  "--series", str(trained_world / "fwd"), "--prompts", str(prompts),
                  "--out", str(tmp_path / "out.txt")])
    assert rc == 0


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_gold_header_holding_a_reserved_token_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, command
):
    gold = tmp_path / "gold.txt"
    gold.write_text("t1|the <unk> cat\no gato|0.5\n", encoding="utf-8")
    inputs = (["--pred", str(fixtures_path / "example_pred_top1.txt")] if command == "score"
              else ["--series", str(trained_world / "fwd"),
                    "--prompts", str(fixtures_path / "toy_prompts.txt")])
    rc = run_cli([command, "--gold", str(gold), *inputs, "--out", str(tmp_path / "out.tsv")])
    assert rc == 2
    assert "line 1: prompt t1: holds the reserved token '<unk>'" in capsys.readouterr().err
    assert list(tmp_path.glob("out.tsv*")) == []


@pytest.mark.parametrize(
    "argv",
    [["generate", "--method", "ensemble", "--m", "5"],
     ["sweep", "--gold", "{gold}", "--bwd-series", "{bwd}", "--m", "2,5"]],
    ids=["generate-ensemble", "sweep"],
)
def test_bad_oldest_checkpoint_found_late_exits_2_and_writes_nothing(
    trained_world, fixtures_path, tmp_path, capsys, argv
):
    """The oldest checkpoint an ensemble reads loads last, after the others
    have decoded every prompt: its error fails the command, never degrading
    prompts or becoming an NA row."""
    series = tmp_path / "fwd"
    shutil.copytree(trained_world / "fwd", series)
    CHECKPOINT_FAULTS["checksum"][0](series / "ckpt-0001")
    paths = {"bwd": str(trained_world / "bwd"), "gold": str(fixtures_path / "toy_gold.txt")}
    out = tmp_path / "out.txt"
    rc = run_cli([*(arg.format(**paths) for arg in argv), "--series", str(series),
                  "--prompts", str(fixtures_path / "toy_prompts.txt"), "--out", str(out)])
    assert rc == 2
    assert "checksum mismatch for checkpoint" in capsys.readouterr().err
    assert list(tmp_path.glob("out.txt*")) == []


# every path argument of every command, in valid command lines whose
# "{name}" values are the paths of the path_args fixture
_PATH_ARGVS = {
    "score": ["score", "--gold", "{sgold}", "--pred", "{pred}", "--out", "{out}"],
    "train": ["train", "--parallel", "{parallel}", "--iterations", "2", "--out", "{out}"],
    "generate": ["generate", "--method", "paraphrase", "--series", "{fwd}",
                 "--bwd-series", "{bwd}", "--prompts", "{prompts}", "--out", "{out}"],
    "generate-ckpt": ["generate", "--method", "paraphrase", "--ckpt", "{fwd}/ckpt-0005",
                      "--bwd-ckpt", "{bwd}/ckpt-0005", "--prompts", "{prompts}",
                      "--out", "{out}"],
    "sweep": ["sweep", "--series", "{fwd}", "--bwd-series", "{bwd}", "--gold", "{gold}",
              "--prompts", "{prompts}", "--out", "{out}", "--m", "2"],
    "bpe-learn": ["bpe", "learn", "--input", "{words}", "--out", "{out}"],
    "bpe-apply": ["bpe", "apply", "--model", "{model}", "--input", "{words}", "--out", "{out}"],
    "bpe-decode": ["bpe", "decode", "--input", "{words}", "--out", "{out}"],
}


def _empty_path_cases() -> dict[str, tuple[list[str], int]]:
    """One (command line, index of the path to blank) per command and path
    flag, by "<command> <flag>"."""
    cases: dict[str, tuple[list[str], int]] = {}
    for argv in _PATH_ARGVS.values():
        command = " ".join(argv[:2] if argv[0] == "bpe" else argv[:1])
        for i, value in enumerate(argv):
            if value.startswith("{"):
                cases.setdefault(f"{command} {argv[i - 1]}", (argv, i))
    return cases


@pytest.fixture()
def path_args(trained_world, fixtures_path, tmp_path, monkeypatch):
    """The paths of _PATH_ARGVS, with a BPE model in tmp_path, "{out}" in an
    empty tmp_path/run and the current directory that one."""
    (tmp_path / "m.bpe").write_text(BPE_HEADER + "\n" + "a\tn\n", encoding="utf-8")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    return {"sgold": fixtures_path / "example_gold_single.txt",
            "pred": fixtures_path / "example_pred_top1.txt",
            "gold": fixtures_path / "toy_gold.txt",
            "prompts": fixtures_path / "toy_prompts.txt",
            "parallel": fixtures_path / "toy_parallel.tsv",
            "words": fixtures_path / "bpe_words.txt",
            "model": tmp_path / "m.bpe",
            "fwd": trained_world / "fwd", "bwd": trained_world / "bwd",
            "out": tmp_path / "run" / "out"}


@pytest.mark.parametrize("argv, blank", list(_empty_path_cases().values()),
                         ids=list(_empty_path_cases()))
def test_empty_path_is_a_usage_error(path_args, tmp_path, capsys, argv, blank):
    """An empty path used to mean something different in each command: train
    trained into the current directory, score wrote to stdout, bpe --input
    read stdin, and the others could not write '.'."""
    argv = [arg.format(**path_args) for arg in argv]
    argv[blank] = ""
    assert run_cli(argv) == 2
    assert f"argument {argv[blank - 1]}: empty path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bpe", "run"]
    assert list((tmp_path / "run").iterdir()) == []


# the files each command writes: for train, 3 per checkpoint
_WRITTEN = {"score": 1, "train": 3 * 2, "generate": 3, "sweep": 2, "bpe-learn": 1, "bpe-apply": 1}


@pytest.mark.parametrize("name", list(_WRITTEN))
def test_no_command_opens_a_file_twice(path_args, tmp_path, opens, name):
    """Each text input is read once and hashed from the bytes parsed, and each
    output written once and hashed from the bytes written: generate and sweep
    used to read --prompts, --gold and --out again to hash them."""
    argv = _PATH_ARGVS[name]
    opens.clear()
    assert run_cli([arg.format(**path_args) for arg in argv]) == 0
    inputs = [str(path_args[value[1:-1]]) for value in argv
              if value.startswith("{") and value not in ("{out}", "{fwd}", "{bwd}")]
    assert {path: opens[path] for path in inputs} == {path: 1 for path in inputs}
    outputs = Counter({path: count for path, count in opens.items()
                       if path.startswith(str(tmp_path / "run"))})
    if argv[0] == "train":
        # the index is rewritten whole after each checkpoint, so a reader
        # never sees a partial one
        assert outputs.pop(str(tmp_path / "run" / "out" / "series.tsv.partial")) == 2
    assert len(outputs) == _WRITTEN[name]
    assert set(outputs.values()) == {1}


# (command, text input flag, suffix of the output it is given as)
_INPUT_AS_OUTPUT = [
    ("score", "--gold", ""),
    ("score", "--pred", ""),
    ("generate", "--prompts", ""),
    ("generate", "--prompts", ".warnings.tsv"),
    ("generate", "--prompts", ".manifest.tsv"),
    ("sweep", "--gold", ""),
    ("sweep", "--prompts", ".manifest.tsv"),
    ("bpe-learn", "--input", ""),
    ("bpe-apply", "--model", ""),
    ("bpe-apply", "--input", ""),
    ("bpe-decode", "--input", ""),
]


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
@pytest.mark.parametrize("name, flag, suffix", _INPUT_AS_OUTPUT,
                         ids=[f"{n} {f} out{s}" for n, f, s in _INPUT_AS_OUTPUT])
def test_output_that_is_an_input_exits_2_and_writes_nothing(
    path_args, tmp_path, capsys, name, flag, suffix, link
):
    """An output or sidecar that is the same file as a text input, by the
    same path or through a link, used to exit 0 having replaced the input."""
    argv = [arg.format(**path_args) for arg in _PATH_ARGVS[name]]
    i = argv.index(flag) + 1
    text = Path(argv[i]).read_bytes()
    target = tmp_path / "run" / f"out{suffix}"
    if link:
        argv[i] = str(tmp_path / "input")
        Path(argv[i]).write_bytes(text)
        target.symlink_to(argv[i])
    else:
        argv[i] = str(target)
        target.write_bytes(text)
    assert run_cli(argv) == 2
    assert f"cannot write {target}: it is the input {argv[i]}" in capsys.readouterr().err
    assert list((tmp_path / "run").iterdir()) == [target]
    assert Path(argv[i]).read_bytes() == text


@pytest.mark.parametrize("name, flag, inside", [
    ("generate", "--series", "series.tsv"),
    ("generate", "--bwd-series", "ckpt-0005/lm.tsv"),
    ("generate-ckpt", "--ckpt", "lexicon.tsv"),
    ("generate-ckpt", "--bwd-ckpt", "new.txt"),
    ("sweep", "--series", "series.tsv"),
    ("sweep", "--bwd-series", "new.txt"),
])
def test_output_inside_a_model_exits_2_and_writes_nothing(
    path_args, tmp_path, capsys, name, flag, inside
):
    """generate and sweep used to exit 0 having written their output over a
    model file they had read, such as series.tsv, or into a model directory,
    whose checksum it then changed."""
    argv = [arg.format(**path_args) for arg in _PATH_ARGVS[name]]
    i = argv.index(flag) + 1
    model = tmp_path / "model"
    shutil.copytree(argv[i], model)
    argv[i] = str(model)
    out = argv[argv.index("--out") + 1] = str(model / inside)
    before = {p: p.read_bytes() for p in model.rglob("*") if p.is_file()}
    assert run_cli(argv) == 2
    assert f"cannot write {out}: it is inside the model {model}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in model.rglob("*") if p.is_file()} == before
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("name, flag, member, suffix, link", [
    ("generate", "--series", "ckpt-0005/lexicon.tsv", "", "hard"),
    ("generate", "--bwd-series", "series.tsv", ".warnings.tsv", "hard"),
    ("sweep", "--series", "ckpt-0001/meta.tsv", "", "hard"),
    ("sweep", "--bwd-series", "series.tsv", ".manifest.tsv", "symbolic"),
])
def test_output_that_is_a_model_file_exits_2_and_writes_nothing(
    path_args, tmp_path, capsys, name, flag, member, suffix, link
):
    """An output or sidecar that is the same file as a model file, by a hard
    link outside the model or a link of the model's to it, used to pass as
    not inside the model: generate and sweep exited 0 having written over
    it, and the next load of the model failed its checksum."""
    argv = [arg.format(**path_args) for arg in _PATH_ARGVS[name]]
    i = argv.index(flag) + 1
    model = tmp_path / "model"
    shutil.copytree(argv[i], model)
    argv[i] = str(model)
    target = tmp_path / "run" / f"out{suffix}"
    if link == "hard":
        os.link(model / member, target)
    else:
        (model / member).replace(target)
        (model / member).symlink_to(target)
    before = {p: p.read_bytes() for p in model.rglob("*") if p.is_file()}
    assert run_cli(argv) == 2
    assert (f"cannot write {target}: it is the model file {model / member}"
            in capsys.readouterr().err)
    assert {p: p.read_bytes() for p in model.rglob("*") if p.is_file()} == before
    assert list((tmp_path / "run").iterdir()) == [target]


class TestDisjointIds:
    """Inputs that share no prompt id exit 3, the empty-work code, with
    nothing written; they used to exit 0 with a score of zero."""

    def test_score(self, fixtures_path, tmp_path, capsys, caplog):
        pred = tmp_path / "pred.txt"
        pred.write_text("z1|\nminha explicação está clara?\n\nz2|\nisto é minha culpa.\n",
                        encoding="utf-8")
        for out in ([], ["--out", str(tmp_path / "report.tsv")]):
            rc = run_cli(["score", "--gold", str(fixtures_path / "example_gold.txt"),
                          "--pred", str(pred), *out])
            assert rc == 3
            assert "no gold prompt has a prediction set" in caplog.text
            assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["pred.txt"]

    def test_sweep_before_any_model_file_is_read(self, trained_world, fixtures_path, tmp_path,
                                                 caplog, opens):
        rc = run_cli(["sweep", "--series", str(trained_world / "fwd"),
                      "--bwd-series", str(trained_world / "bwd"),
                      "--gold", str(fixtures_path / "example_gold.txt"),
                      "--prompts", str(fixtures_path / "toy_prompts.txt"),
                      "--out", str(tmp_path / "table.tsv")])
        assert rc == 3
        assert "no prompt is in the gold file" in caplog.text
        assert list(tmp_path.iterdir()) == []
        assert [path for path in opens if path.startswith(str(trained_world))] == []

    def test_partial_overlap_scores_a_missing_set_as_zero(self, fixtures_path, tmp_path,
                                                          capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("q1|\nminha explicação está clara?\n\nz9|\nfoo\n", encoding="utf-8")
        rc = run_cli(["score", "--gold", str(fixtures_path / "example_gold.txt"),
                      "--pred", str(pred)])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].startswith("q1\t1.000000\t")
        assert rows[3] == "q2\t0.000000\t0.000000\t0.000000"


# trains, generates with every method and sweeps on the fixture world, into
# the directory given; exits 1 if a command fails
_SEEDED_RUN = """
import sys
from stapleforge.cli import fixtures_dir, main
out, fx = sys.argv[1], fixtures_dir()
prompts, gold = str(fx / "toy_prompts.txt"), str(fx / "toy_gold.txt")
models = ["--series", f"{out}/fwd", "--bwd-series", f"{out}/bwd"]
runs = [["train", "--parallel", str(fx / "toy_parallel.tsv"), "--iterations", "5",
         "--out", f"{out}/{d}", "--direction", d] for d in ("fwd", "bwd")]
runs += [["generate", "--method", m, *models, "--prompts", prompts, "--out", f"{out}/{m}.txt",
          "--m", "3"] for m in ("nbest", "paraphrase", "ensemble")]
runs += [["sweep", *models, "--gold", gold, "--prompts", prompts, "--out", f"{out}/table.tsv"]]
sys.exit(any(main(argv) for argv in runs))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashing, and so set order, changes with PYTHONHASHSEED; no
    series, prediction, warnings, table or manifest file may."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS_DIR.parent / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    children = {
        seed: subprocess.Popen([sys.executable, "-c", _SEEDED_RUN, str(tmp_path / seed)],
                               env={**env, "PYTHONHASHSEED": seed},
                               stderr=subprocess.PIPE, text=True)
        for seed in ("0", "12345")
    }
    trees = []
    for seed, child in children.items():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        root = tmp_path / seed
        trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                      if p.is_file()})
    # two series of 5 checkpoints and an index; 3 predictions with their
    # warnings and manifests; a table and its manifest
    assert len(trees[0]) == 2 * (5 * 3 + 1) + 3 * 3 + 2
    assert trees[0] == trees[1]


# prints the real path and the version of the interpreter running it
_PROBE = "import os, sys; print(os.path.realpath(sys.executable), *sys.version_info[:2])"


def other_interpreters() -> list[str]:
    """Every Python 3.10-3.13 found other than the running one: the
    ``python3.1N`` names on PATH, and pyenv's installed versions, that start.
    A pyenv shim of a version not selected is on PATH but does not start."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    candidates += sorted(map(str, (Path.home() / ".pyenv" / "versions").glob("*/bin/python3")))
    probes = {exe: subprocess.Popen([exe, "-I", "-c", _PROBE], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
              for exe in dict.fromkeys(filter(None, candidates))}
    seen = {os.path.realpath(sys.executable)}
    found = []
    for exe, probe in probes.items():
        out = probe.communicate(timeout=60)[0].split()
        if probe.returncode or len(out) != 3 or not 10 <= int(out[2]) <= 13 or out[0] in seen:
            continue
        seen.add(out[0])
        found.append(exe)
    return found


def test_training_does_not_depend_on_the_python_version(tmp_path):
    """Builtin ``sum`` of floats adds differently since Python 3.12; a
    series trained under any other Python 3.10-3.13 found on this host must
    hold the bytes the running interpreter writes."""
    from test_translator import order_referee_corpus

    others = other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10-3.13 found")
    parallel = tmp_path / "parallel.tsv"
    parallel.write_text("".join(f"{' '.join(src)}\t{' '.join(tgt)}\n"
                                for src, tgt in order_referee_corpus()), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(TESTS_DIR.parent / "src")}
    children = {
        exe: subprocess.Popen([exe, "-m", "stapleforge.cli", "train", "--parallel", str(parallel),
                               "--iterations", "4", "--out", str(tmp_path / str(i))],
                              env=env, stderr=subprocess.PIPE, text=True)
        for i, exe in enumerate(others)
    }
    assert run_cli(["train", "--parallel", str(parallel), "--iterations", "4",
                    "--out", str(tmp_path / "here")]) == 0
    expected = {p.relative_to(tmp_path / "here"): p.read_bytes()
                for p in (tmp_path / "here").rglob("*") if p.is_file()}
    assert len(expected) == 4 * 3 + 1
    errors = {exe: child.communicate(timeout=120)[1] for exe, child in children.items()}
    for i, (exe, child) in enumerate(children.items()):
        assert child.returncode == 0, (exe, errors[exe])
        root = tmp_path / str(i)
        assert {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()} == expected, exe
