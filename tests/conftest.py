from __future__ import annotations

import pytest

from stapleforge.cli import fixtures_dir
from stapleforge.corpus import parse_gold, parse_prompts
from stapleforge.methods import Decoder
from stapleforge.textproc import sentence_tokens
from stapleforge.translator import Checkpoint, load_series, train_toy


def load_toy_pairs(swap: bool = False) -> list[tuple[list[str], list[str]]]:
    pairs = []
    text = (fixtures_dir() / "toy_parallel.tsv").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.strip():
            continue
        src, tgt = line.split("\t")
        if swap:
            src, tgt = tgt, src
        pairs.append((sentence_tokens(src), sentence_tokens(tgt)))
    return pairs


def decoder_of(ckpt: Checkpoint) -> Decoder:
    """A decoder over a checkpoint already in memory."""
    return Decoder(lambda: ckpt, ckpt.direction)


def trained_series(directory, pairs, iterations, **kwargs) -> tuple[Checkpoint, ...]:
    """Train ``pairs`` into ``directory`` and load the series back; the rows
    ``train_toy`` returns must be the loaded checkpoints'."""
    rows = train_toy(pairs, iterations, directory, **kwargs)
    series = load_series(directory)
    assert rows == [(c.iteration, c.corpus_loglik) for c in series]
    return series


@pytest.fixture(scope="session")
def fixtures_path():
    return fixtures_dir()


@pytest.fixture(scope="session")
def toy_fwd_series(tmp_path_factory):
    return trained_series(tmp_path_factory.mktemp("toy") / "fwd", load_toy_pairs(), 5)


@pytest.fixture(scope="session")
def toy_bwd_series(tmp_path_factory):
    return trained_series(
        tmp_path_factory.mktemp("toy") / "bwd", load_toy_pairs(swap=True), 5, direction="bwd"
    )


@pytest.fixture(scope="session")
def toy_prompts(fixtures_path):
    return parse_prompts((fixtures_path / "toy_prompts.txt").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def toy_golds(fixtures_path):
    return parse_gold((fixtures_path / "toy_gold.txt").read_text(encoding="utf-8"))
