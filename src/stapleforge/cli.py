"""Command-line front end.

Subcommands wire corpora, models, methods, and metrics into reproducible
runs:

    score     score a prediction file against a gold file
    train     EM-train a toy translator, persisting per-iteration checkpoints
    generate  produce a prediction file with one method (nbest | paraphrase | ensemble)
    sweep     run the full method/parameter grid and tabulate scores
    bpe       learn / apply / decode byte-pair encodings (decode needs no model)
    fixtures  print the path of the bundled fixture corpora

Sentences have one canonical form (``corpus.normalize``): models read it
(``textproc.sentence_tokens``), and the gold and prediction parsers hold
sentences in it, so ``score`` and ``sweep`` compare plain strings.

``generate`` and every ``sweep`` cell run a method through the one entry
point ``methods.predict``; a sweep cell whose method cannot run on the models
given (paraphrase without ``--bwd-series``, ``m`` beyond the series) is an NA
row. Both commands read and validate each ``series.tsv`` and refuse a forward
model that is not ``fwd`` or a backward one that is not ``bwd`` up front,
whatever the method, then hand ``predict`` one decoder (``methods.Decoder``)
per listed checkpoint, which loads its checkpoint when it is first decoded
with, once per command: ``predict`` alone decides which ones a method reads,
and a checkpoint nothing reads is never opened. An ensemble decodes every
prompt with one checkpoint before loading the next, so ``generate`` holds one
checkpoint at a time, or one per side for paraphrase; a sweep's cells share
one decoder per checkpoint, whose memo of n-best lists, keyed on the source
and n, lets later cells reuse earlier decodes of the same request, so it
holds at most two: one forward checkpoint and the newest backward one. A
checkpoint that is missing or fails to load exits 2 with nothing written,
whenever it is found: it never degrades a prompt or makes an NA row.

Both commands write a ``<out>.manifest.tsv`` recording the command, resolved
parameters (``top_k`` included), input checksums, tool version and output
checksums; identical inputs reproduce identical outputs and manifests. The
model checksums, of each ``series.tsv`` and the checkpoints loaded, are
taken once decoding is done and before any output is written: each file read
counts with the digest taken as it was read, so no model file is read twice
and the manifest describes the bytes parsed and decoded with; every other
file is hashed then. ``train`` keeps no checkpoint in memory once it is
saved, and logs how many rows ``series.tsv`` lists.
``generate`` also writes ``<out>.warnings.tsv``, one
``prompt_id<TAB>method<TAB>no candidates`` row per empty set, in prompt
order: a prompt degrades only when its canonical form has no words.
Wall-clock duration is reported on stderr only, so manifests stay
byte-reproducible. ``train`` is byte-reproducible too, with no environment
variable: a checkpoint records nothing about when it was written.

Every command checks its output paths, sidecars included, before it reads
any input: one it cannot write exits 2 with nothing written.

Exit codes: 0 success, 2 input/validation error, 3 empty-work error,
1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .corpus import (
    PredictionSet,
    parse_gold,
    parse_predictions,
    parse_prompts,
    split_lines,
    write_predictions,
)
from .errors import StapleForgeError, ValidationError
from .metrics import score_corpus, summary_line, write_report
from .methods import METHODS, Decoder, MethodParams, predict
from .textproc import bpe_apply, bpe_decode, bpe_learn, load_bpe, save_bpe, sentence_tokens
from .translator import (
    SERIES_INDEX,
    Checkpoint,
    load_checkpoint,
    load_indexed_checkpoint,
    read_series_index,
    train_toy,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3

DEFAULT_SWEEP_N = (5, 10, 15, 20)
DEFAULT_SWEEP_N_PRIME = (1, 3, 5)
DEFAULT_SWEEP_M = (2, 4, 6, 8)


def sha256_path(
    path: Path, members: Sequence[str] | None = None, known: Mapping[Path, str] | None = None
) -> str:
    """Checksum a file, or a directory as the digest of its sorted file digests.

    ``members`` restricts a directory's digest to those entries under it, each
    a file or a subdirectory. ``known`` holds digests already taken of files
    under it, by path, which are used instead of reading those files again.
    """
    if not path.exists():
        raise ValidationError(f"not found: {path}")
    digest = hashlib.sha256()
    if path.is_dir():
        roots = [path] if members is None else [path / m for m in members]
        for root in roots:
            if not root.exists():
                raise ValidationError(f"not found: {root}")
        for sub in sorted(p for root in roots for p in (root, *root.rglob("*")) if p.is_file()):
            hexdigest = known.get(sub) if known else None
            if hexdigest is None:
                hexdigest = hashlib.sha256(sub.read_bytes()).hexdigest()
            digest.update(str(sub.relative_to(path)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(hexdigest.encode("ascii"))
            digest.update(b"\x00")
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8: invalid byte at offset {exc.start}") from None


def _check_writable(path: str, *sidecars: str, directory: bool = False) -> None:
    """Raise ValidationError naming the first of ``path`` and its
    ``<path><sidecar>`` files that cannot be written, before any work is done.

    A file must be a new entry of, or a file in, a writable directory. The
    ``directory`` that ``train`` fills must be a writable directory or a new
    one under the nearest existing, writable directory.
    """
    for target in (Path(path), *(Path(path + sidecar) for sidecar in sidecars)):
        if target.exists():
            if target.is_dir() != directory:
                what = "a file" if directory else "a directory"
                raise ValidationError(f"cannot write {target}: it is {what}")
            existing = target
        else:
            existing = target.parent
            while directory and not existing.exists():
                existing = existing.parent
            if not existing.is_dir():
                reason = "is not a directory" if existing.exists() else "does not exist"
                raise ValidationError(f"cannot write {target}: {existing} {reason}")
        if not os.access(existing, os.W_OK):
            raise ValidationError(f"cannot write {target}: permission denied")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_manifest(
    out_path: str,
    command: str,
    parameters: dict[str, str],
    inputs: dict[str, str],
    outputs: dict[str, str],
    started: float,
) -> None:
    """Write ``<out>.manifest.tsv``: the command, the tool version, then the
    ``param:``, ``input:`` and ``output:`` rows, each group sorted by key.

    The duration since ``started`` is only logged: manifests must be
    byte-identical across reruns with identical inputs.
    """
    lines = [f"command\t{command}\n", f"tool_version\t{__version__}\n"]
    for group, rows in (("param", parameters), ("input", inputs), ("output", outputs)):
        for key in sorted(rows):
            lines.append(f"{group}:{key}\t{rows[key]}\n")
    _write_text(out_path + ".manifest.tsv", "".join(lines))
    log.info("%s finished in %.3f s", command, time.monotonic() - started)


def _write_warnings(sets: Sequence[PredictionSet], method: str, out_path: str) -> None:
    """Write ``<out>.warnings.tsv``: one row per empty set, in prompt order."""
    lines = ["prompt_id\tstage\tmessage\n"]
    lines.extend(f"{s.prompt_id}\t{method}\tno candidates\n" for s in sets if not s.candidates)
    _write_text(out_path + ".warnings.tsv", "".join(lines))


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------- commands


def cmd_score(args: argparse.Namespace) -> int:
    if args.out:
        _check_writable(args.out)
    golds = parse_gold(_read_text(args.gold))
    preds = parse_predictions(_read_text(args.pred))
    score = score_corpus(golds, preds)
    buf = io.StringIO()
    write_report(score, buf)
    if args.out:
        _write_text(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    print(summary_line(score))
    return EXIT_OK


def _parse_parallel(text: str, swap: bool) -> list[tuple[list[str], list[str]]]:
    """One pair per line of ``text`` (``corpus.split_lines``); one string per
    distinct word."""
    pairs: list[tuple[list[str], list[str]]] = []
    words: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValidationError(f"expected 'source<TAB>target', got {len(cols)} columns", lineno)
        src, tgt = [[words.setdefault(w, w) for w in sentence_tokens(col)] for col in cols]
        pairs.append((tgt, src) if swap else (src, tgt))
    return pairs


def cmd_train(args: argparse.Namespace) -> int:
    _check_writable(args.out, directory=True)
    pairs = _parse_parallel(_read_text(args.parallel), args.direction == "bwd")
    rows = train_toy(
        pairs, args.iterations, args.out, direction=args.direction, alpha=args.alpha
    )
    log.info("trained %d checkpoints into %s", len(rows), args.out)
    return EXIT_OK


def _load_model(
    ckpt_arg: str | None, series_arg: str | None, direction: str
) -> tuple[list[Decoder], Callable[[], str]]:
    """The decoders of a model, one per checkpoint, oldest first, and a
    function giving the checksum of its files, to be called once decoding is
    done.

    A model is one checkpoint directory, loaded here, or a series, whose
    index is read here and whose listed checkpoints each load when first
    decoded with, so a missing or corrupt one is found then. Its direction
    must be ``direction`` (the checkpoint's or ``series.tsv``'s), so a
    swapped pair of models is refused before any decode. The checksum covers
    every file under the checkpoint directory, or ``series.tsv`` and every
    file under the checkpoints loaded. Each file read counts with the digest
    taken as it was read (``SeriesIndex.digest``, ``Checkpoint.digests``), so
    the checksum describes the bytes parsed and decoded with; every other
    file is hashed when it is called.
    """
    read: dict[Path, str] = {}  # digests of the files read: series.tsv and those loaded
    if ckpt_arg is not None:
        path = Path(ckpt_arg)
        ckpt = load_checkpoint(path)
        _check_direction(path, ckpt.direction, direction)
        read.update(ckpt.digests)
        return [Decoder.of(ckpt)], lambda: sha256_path(path, None, read)
    path = Path(series_arg)
    found, rows, digest = read_series_index(path)
    _check_direction(path, found, direction)
    read[path / SERIES_INDEX] = digest  # of the bytes parsed, not re-read

    def load(iteration: int, loglik: float) -> Checkpoint:
        ckpt = load_indexed_checkpoint(path, direction, iteration, loglik)
        read.update(ckpt.digests)
        return ckpt

    def checksum() -> str:
        # series.tsv and the directory of each checkpoint loaded
        return sha256_path(path, sorted({p.relative_to(path).parts[0] for p in read}), read)

    return [Decoder(functools.partial(load, *row), direction) for row in rows], checksum


def _check_direction(path: Path, found: str, expected: str) -> None:
    if found != expected:
        raise ValidationError(f"{path} is a {found} model, expected a {expected} one")


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_writable(args.out, ".warnings.tsv", ".manifest.tsv")
    prompts = parse_prompts(_read_text(args.prompts))
    params = MethodParams(n=args.n, n_prime=args.n_prime, m=args.m, top_k_lexicon=args.top_k)
    inputs: dict[str, str] = {"prompts": sha256_path(Path(args.prompts))}
    models: dict[str, Callable[[], str]] = {}
    fwd, models["model"] = _load_model(args.ckpt, args.series, "fwd")
    bwd: list[Decoder] = []
    if args.bwd_ckpt is not None or args.bwd_series is not None:
        bwd, models["bwd_model"] = _load_model(args.bwd_ckpt, args.bwd_series, "bwd")
    sets = predict(args.method, fwd, bwd, prompts, params)
    inputs.update((key, digest()) for key, digest in models.items())

    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        write_predictions(sets, sink)
    _write_warnings(sets, args.method, args.out)
    parameters = {
        "method": args.method,
        "n": str(args.n),
        "n_prime": str(args.n_prime),
        "m": str(args.m),
        "top_k": str(args.top_k),
    }
    outputs = {"predictions": sha256_path(Path(args.out))}
    _write_manifest(args.out, "generate", parameters, inputs, outputs, started)
    return EXIT_OK


def _percent(x: float) -> str:
    return f"{100.0 * x:.2f}"


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_writable(args.out, ".manifest.tsv")
    # nbest cells vary n; paraphrase cells vary n' and ensemble cells m at
    # n = fixed_n. Building the params validates every value before any work.
    base = MethodParams(n=args.fixed_n, top_k_lexicon=args.top_k)
    cells = [
        *(("nbest", f"n={v}", replace(base, n=v)) for v in args.n_values),
        *(("paraphrase", f"n'={v}", replace(base, n_prime=v)) for v in args.n_prime_values),
        *(("ensemble", f"m={v}", replace(base, m=v)) for v in args.m_values),
    ]
    golds = parse_gold(_read_text(args.gold))
    prompts = parse_prompts(_read_text(args.prompts))
    inputs = {
        "gold": sha256_path(Path(args.gold)),
        "prompts": sha256_path(Path(args.prompts)),
    }
    # one decoder per checkpoint, shared by every cell; a cell needing more
    # checkpoints than the series holds becomes an NA row
    models: dict[str, Callable[[], str]] = {}
    fwd, models["series"] = _load_model(None, args.series, "fwd")
    bwd: list[Decoder] = []
    if args.bwd_series is not None:
        bwd, models["bwd_series"] = _load_model(None, args.bwd_series, "bwd")

    header = "method\tparam\tprecision\tweighted_recall\tweighted_f1\n"
    if not cells:
        _write_text(args.out, header)
        log.warning("empty sweep specification: nothing to run")
        return EXIT_EMPTY
    rows: list[str] = []
    for method, label, params in cells:
        try:
            sets = predict(method, fwd, bwd, prompts, params)
            score = score_corpus(golds, sets)
            rows.append(
                f"{method}\t{label}\t{_percent(score.mean_precision)}"
                f"\t{_percent(score.mean_weighted_recall)}\t{_percent(score.macro_f1)}\n"
            )
        except ValidationError as exc:  # a CheckpointError fails the command
            log.warning("sweep cell %s %s failed: %s", method, label, exc)
            rows.append(f"{method}\t{label}\tNA\tNA\tNA\n")
    inputs.update((key, digest()) for key, digest in models.items())
    _write_text(args.out, header + "".join(rows))

    parameters = {
        "n_values": ",".join(map(str, args.n_values)),
        "n_prime_values": ",".join(map(str, args.n_prime_values)),
        "m_values": ",".join(map(str, args.m_values)),
        "fixed_n": str(args.fixed_n),
        "top_k": str(args.top_k),
    }
    outputs = {"table": sha256_path(Path(args.out))}
    _write_manifest(args.out, "sweep", parameters, inputs, outputs, started)
    if all(row.endswith("\tNA\n") for row in rows):
        log.error("every sweep cell failed")
        return EXIT_INPUT
    return EXIT_OK


def cmd_bpe(args: argparse.Namespace) -> int:
    if args.out is not None:
        _check_writable(args.out)
    if args.bpe_command == "learn":
        corpus = []
        for path in args.inputs:
            corpus.extend(sentence_tokens(line) for line in split_lines(_read_text(path)))
        model = bpe_learn(corpus, args.merges)
        with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
            save_bpe(model, sink)
        return EXIT_OK

    model = load_bpe(_read_text(args.model)) if args.bpe_command == "apply" else None
    source = _read_text(args.input) if args.input else sys.stdin.read()
    out_lines = []
    for line in split_lines(source):
        toks = line.split()
        result = bpe_decode(toks) if model is None else bpe_apply(model, toks)
        out_lines.append(" ".join(result) + "\n")
    text = "".join(out_lines)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    print(fixtures_dir())
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _int_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(v) for v in raw.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stapleforge",
        description="Weighted macro-F1 translation-set toolkit: score, train, "
        "generate, sweep, bpe.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score predictions against a gold corpus")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="write the TSV report here instead of stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", help="EM-train the toy translator with checkpoints")
    p.add_argument("--parallel", required=True, help="TSV file: source<TAB>target per line")
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--out", required=True, help="series directory for ckpt-NNNN/")
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--alpha", type=float, default=0.1, help="LM smoothing constant")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="produce a prediction file with one method")
    p.add_argument("--method", choices=METHODS, required=True)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--ckpt", help="checkpoint directory (a one-checkpoint forward model)")
    model.add_argument("--series", help="series directory (its last checkpoint, or the ensemble)")
    bwd_model = p.add_mutually_exclusive_group()
    bwd_model.add_argument("--bwd-ckpt", dest="bwd_ckpt", help="backward checkpoint (paraphrase)")
    bwd_model.add_argument("--bwd-series", dest="bwd_series", help="backward series (paraphrase)")
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--n-prime", dest="n_prime", type=int, default=3)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--top-k", dest="top_k", type=int, default=8)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run the method/parameter grid and tabulate scores")
    p.add_argument("--series", required=True)
    p.add_argument("--bwd-series", dest="bwd_series", help="backward series for paraphrase rows")
    p.add_argument("--gold", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", dest="n_values", type=_int_list, default=list(DEFAULT_SWEEP_N))
    p.add_argument(
        "--n-prime", dest="n_prime_values", type=_int_list, default=list(DEFAULT_SWEEP_N_PRIME)
    )
    p.add_argument("--m", dest="m_values", type=_int_list, default=list(DEFAULT_SWEEP_M))
    p.add_argument("--fixed-n", dest="fixed_n", type=int, default=10)
    p.add_argument("--top-k", dest="top_k", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bpe", help="learn or apply byte-pair encodings")
    bpe_sub = p.add_subparsers(dest="bpe_command", required=True)
    b = bpe_sub.add_parser("learn")
    b.add_argument("--input", dest="inputs", action="append", required=True)
    b.add_argument("--merges", type=int, default=500)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bpe)
    for name in ("apply", "decode"):
        b = bpe_sub.add_parser(name)
        if name == "apply":
            b.add_argument("--model", required=True)
        b.add_argument("--input")
        b.add_argument("--out")
        b.set_defaults(func=cmd_bpe)

    p = sub.add_parser("fixtures", help="print the bundled fixture directory")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="stapleforge: %(message)s", stream=sys.stderr
        )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StapleForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
