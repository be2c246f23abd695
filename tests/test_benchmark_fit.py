"""The traced benchmark still fits the package.

``perfbench/tracer.py`` replaces package functions by name and relies on how
the package calls some of them. A rename or a changed call shape passes every
other test yet crashes each traced benchmark command, so this module imports
the tracer, without installing it, and checks both against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from stapleforge.cli import main
from stapleforge.translator import Checkpoint

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _import_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _import_tracer()


@pytest.mark.parametrize("name", [*tracer_module.SPANS, *tracer_module.LEAVES])
def test_traced_name_resolves(name):
    mod, attr = name.split(".")
    assert mod in tracer_module.MODULES
    assert callable(getattr(importlib.import_module(f"stapleforge.{mod}"), attr, None))


def observe(monkeypatch, tracer, name: str) -> None:
    """Replace ``name``, one of the tracer's spans, by its timing and
    bookkeeping wrappers at every import site, as ``Tracer.install`` does,
    until the test ends."""
    modules = [importlib.import_module(f"stapleforge.{m}") for m in tracer_module.MODULES]
    mod, attr = name.split(".")
    original = getattr(importlib.import_module(f"stapleforge.{mod}"), attr)
    wrapper = tracer.span(name, tracer._observe(name, original))
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)


def test_call_shapes_the_tracer_observes(monkeypatch, tmp_path, fixtures_path):
    """decode_nbest(ckpt, source, params) with params.top_k_lexicon,
    save_checkpoint(ckpt, directory), and load_checkpoint returning a
    Checkpoint, each as the commands the benchmark runs call them."""
    tracer = tracer_module.Tracer()
    for name in ("translator.decode_nbest", "translator.save_checkpoint",
                 "translator.load_checkpoint"):
        observe(monkeypatch, tracer, name)
    parallel = str(fixtures_path / "toy_parallel.tsv")
    prompts = str(fixtures_path / "toy_prompts.txt")
    fwd, bwd = str(tmp_path / "fwd"), str(tmp_path / "bwd")

    assert main(["train", "--parallel", parallel, "--iterations", "2", "--out", fwd]) == 0
    assert main(["train", "--parallel", parallel, "--iterations", "1", "--out", bwd,
                 "--direction", "bwd"]) == 0
    assert tracer.saved_bytes > 0

    for argv in (["--method", "paraphrase", "--bwd-series", bwd],
                 ["--method", "ensemble", "--m", "2"]):
        assert main(["generate", *argv, "--series", fwd, "--prompts", prompts, "--top-k", "5",
                     "--out", str(tmp_path / "pred.txt")]) == 0
    assert len(tracer.loaded_ckpts) == 4  # paraphrase 1 + 1, ensemble 2
    assert all(isinstance(ckpt, Checkpoint) for ckpt in tracer.alive)
    assert tracer.decoded_ckpts == tracer.loaded_ckpts
    assert {top_k for _, _, top_k in tracer.decode_keys} == {5}


@pytest.mark.parametrize("iterations", [1, 3])
def test_traced_train_saves_each_checkpoint_once(monkeypatch, tmp_path, fixtures_path,
                                                 iterations):
    """The benchmark's save time and bytes are those of one save_checkpoint
    call per iteration, each leaving its final directory in place, so a
    training path that writes checkpoints some other way fails here."""
    tracer = tracer_module.Tracer()
    observe(monkeypatch, tracer, "translator.save_checkpoint")
    out = tmp_path / "series"
    assert main(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                 "--iterations", str(iterations), "--out", str(out)]) == 0
    names = [span[2] for span in tracer.spans]
    assert names == ["translator.save_checkpoint"] * iterations
    assert tracer.saved_bytes == sum(p.stat().st_size for p in out.glob("ckpt-*/*"))


def test_traced_train_times_em_in_one_train_toy_span(monkeypatch, tmp_path, fixtures_path):
    """The benchmark charges EM to the translator.train_toy span, so a
    traced train makes exactly one, and every save_checkpoint span lies
    inside it, whatever train_toy returns."""
    tracer = tracer_module.Tracer()
    for name in ("translator.train_toy", "translator.save_checkpoint"):
        observe(monkeypatch, tracer, name)
    assert main(["train", "--parallel", str(fixtures_path / "toy_parallel.tsv"),
                 "--iterations", "3", "--out", str(tmp_path / "series")]) == 0
    (train,) = [span for span in tracer.spans if span[2] == "translator.train_toy"]
    saves = [span for span in tracer.spans if span[2] == "translator.save_checkpoint"]
    assert len(saves) == 3
    for save in saves:
        assert save[1] == train[0] and train[3] <= save[3] <= save[4] <= train[4]
    assert train[5] == sum(save[4] - save[3] for save in saves)
