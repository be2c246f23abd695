"""Command-line front end.

Subcommands wire corpora, models, methods, and metrics into reproducible
runs:

    score     score a prediction file against a gold file
    train     EM-train a toy translator, persisting per-iteration checkpoints
    generate  produce a prediction file with one method (nbest | paraphrase | ensemble)
    sweep     run the full method/parameter grid and tabulate scores
    bpe       learn / apply / decode byte-pair encodings (decode needs no model)
    fixtures  print the path of the bundled fixture corpora

Sentences have one canonical form (``corpus.normalize``): models read it,
and the prompts, gold and prediction parsers hold sentences in it, so the
methods decode, and ``score`` and ``sweep`` compare, plain strings.

``generate`` and every ``sweep`` cell run a method through the one entry
point ``methods.predict``; a sweep cell whose method cannot run on the models
given (paraphrase without ``--bwd-series``, ``m`` beyond the series) is an NA
row, and a sweep of NA rows alone exits 2 with nothing written. Every model
is opened by ``Run.model``, through its index: a series' ``series.tsv`` or a
``--ckpt``'s own ``meta.tsv``. Both commands read each
index and refuse a forward model that is not ``fwd`` or a backward one that
is not ``bwd`` up front, whatever the method, then hand ``predict`` one decoder
(``methods.Decoder``) per listed checkpoint, which loads its checkpoint when
it is first decoded with, once per command: ``predict`` alone decides which
ones a method reads, and a checkpoint nothing reads is never loaded, so of a
lone one only its index is read. An ensemble decodes every
prompt with one checkpoint before loading the next, so ``generate`` holds one
checkpoint at a time, or one per side for paraphrase; a sweep's cells share
one decoder per checkpoint, whose memo of n-best lists, keyed on the sentence
and n, lets later cells reuse earlier decodes of the same request, so it
holds at most two: one forward checkpoint and the newest backward one. A
checkpoint that is missing or fails to load exits 2 with nothing written,
whenever it is found: it never degrades a prompt or makes an NA row.

Both commands write a ``<out>.manifest.tsv``: the command, the tool version,
the resolved parameters (``top_k`` included) and the checksums of inputs and
outputs, so identical inputs reproduce identical outputs and manifests; the
duration goes to stderr only. ``generate`` also writes ``<out>.warnings.tsv``,
one ``prompt_id<TAB>method<TAB>no candidates`` row per empty set, in prompt
order: a prompt degrades only when its canonical form has no words. ``train``
is byte-reproducible with no environment variable: a checkpoint records
nothing about when it was written.

Every command handles its files one way, through a ``Run``. An empty path
argument is a usage error. The output paths, sidecars included, are checked
before any input is read: one that cannot be written, that is the same file
as a text input the command reads or as a file under a model directory it
reads, or that lies inside such a directory, exits 2 with nothing written.
Each text input is read once and hashed from the bytes parsed, each output is
written once and hashed from the bytes written. A model's checksum covers its
index and every file under each checkpoint loaded, and is taken after
decoding, before the first write (``Run.write``).
``score`` with no gold prompt in the predictions, ``sweep`` with no prompt in
the gold, and ``sweep`` with an empty grid, before any input is read, exit 3
with nothing written.

Exit codes: 0 success, 2 input/validation error, 3 empty-work error,
1 internal error (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import logging
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .corpus import parse_gold, parse_predictions, parse_prompts, split_lines, write_predictions
from .errors import StapleForgeError, ValidationError
from .metrics import score_corpus, summary_line, write_report
from .methods import METHODS, Decoder, MethodParams, predict
from .textproc import bpe_apply, bpe_decode, bpe_learn, load_bpe, save_bpe, sentence_tokens
from .translator import read_index, train_toy

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3

DEFAULT_SWEEP_N = (5, 10, 15, 20)
DEFAULT_SWEEP_N_PRIME = (1, 3, 5)
DEFAULT_SWEEP_M = (2, 4, 6, 8)


def sha256_path(path: Path, members: Sequence[str], known: Mapping[Path, str]) -> str:
    """Checksum the ``members`` of a directory, each a file or a
    subdirectory (``.`` for the whole), as the digest of the sorted digests of
    the files under them, each file once. ``known`` holds digests already
    taken of files, by path, which are used instead of reading them again.
    """
    digest = hashlib.sha256()
    roots = [path / m for m in members]
    for root in roots:
        if not root.exists():
            raise ValidationError(f"not found: {root}")
    for sub in sorted({p for root in roots for p in (root, *root.rglob("*")) if p.is_file()}):
        hexdigest = known.get(sub)
        if hexdigest is None:
            hexdigest = hashlib.sha256(sub.read_bytes()).hexdigest()
        digest.update(str(sub.relative_to(path)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hexdigest.encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


class Run:
    """The files of one command, each handled one way.

    It is made before any input is read, and checks ``out`` and each
    ``<out><sidecar>`` then: a file must be a new entry of, or a file in, a
    writable directory; the ``directory`` that ``train`` fills must be a
    writable directory or a new one under the nearest existing, writable
    directory. Each input read is refused if it is the same file as one of
    them, and each model if one of them lies inside its directory or is the
    same file as one under it, so an output never replaces what its command
    read. With no ``out``, the output goes to stdout. A ``key`` names the
    manifest row of an input, output or model, which is hashed only when
    given; ``models`` holds what ``model`` read of each model, by key.
    """

    def __init__(self, out: str | None, *sidecars: str, directory: bool = False) -> None:
        self.started = time.monotonic()
        self.out = out
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.models: dict[str, tuple[Path, Path, dict[Path, str]]] = {}
        self.targets = [] if out is None else [Path(out + s) for s in ("", *sidecars)]
        for target in self.targets:
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

    def read(self, path: str, key: str | None = None) -> str:
        """The text of a UTF-8 file, read once; ``key`` records the digest of
        the bytes decoded."""
        if not Path(path).is_file():
            raise ValidationError(f"file not found: {path}")
        for target in self.targets:
            if target.exists() and os.path.samefile(path, target):
                raise ValidationError(f"cannot write {target}: it is the input {path}")
        data = Path(path).read_bytes()
        if key:
            self.inputs[key] = hashlib.sha256(data).hexdigest()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path} is not UTF-8: invalid byte at offset {exc.start}"
            ) from None

    def model(self, key: str, root: str | None, series: bool, direction: str) -> list[Decoder]:
        """The decoders of the model at ``root``, a series or with ``series``
        false a lone checkpoint, one per checkpoint its index lists, oldest
        first, once no output lies inside its directory or is the same file
        as one under it, such as a hard link; none, and nothing recorded,
        with no ``root``. Only the index (``translator.read_index``) is read
        here, and its direction must be ``direction``, so a swapped pair of
        models is refused before any decode; each checkpoint loads when first
        decoded with, so a missing or corrupt one is found then. What the
        first write needs for the model's checksum is kept under ``key``."""
        if root is None:
            return []
        path = Path(root)
        for target in self.targets:
            if target.resolve().is_relative_to(path.resolve()):
                raise ValidationError(f"cannot write {target}: it is inside the model {root}")
            for file in path.rglob("*") if target.exists() else ():
                if file.is_file() and os.path.samefile(file, target):
                    raise ValidationError(f"cannot write {target}: it is the model file {file}")
        found, loaders, index, read = read_index(path, series)
        if found != direction:
            raise ValidationError(f"{path} is a {found} model, expected a {direction} one")
        self.models[key] = (path, index, read)
        return [Decoder(load, direction) for load in loaders]

    def write(self, text: str, suffix: str = "", key: str | None = None) -> None:
        """Write ``text`` to ``<out><suffix>``, or to stdout with no ``out``;
        ``key`` records the digest of the bytes written. The first write takes
        the model checksums, once decoding is done: each covers the index and
        every file under each checkpoint loaded, a file a loader read by the
        digest it took, so the checksum describes the bytes decoded with."""
        for name, (path, index, read) in self.models.items():
            loaded = {str(p.parent.relative_to(path)) for p in read if p != index}
            self.inputs[name] = sha256_path(path, sorted({index.name, *loaded}), read)
        self.models.clear()
        if self.out is None:
            sys.stdout.write(text)
            return
        data = text.encode("utf-8")
        Path(self.out + suffix).write_bytes(data)
        if key:
            self.outputs[key] = hashlib.sha256(data).hexdigest()

    def finish(self, args: argparse.Namespace, *parameters: str) -> None:
        """Write ``<out>.manifest.tsv``: the command, the tool version, then
        the ``param:`` rows of the ``parameters`` named, ``input:`` and
        ``output:`` rows, each group sorted by key. The duration is only
        logged, so that manifests are byte-identical across reruns with
        identical inputs."""
        params = {}
        for name in parameters:
            value = getattr(args, name)
            params[name] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        lines = [f"command\t{args.command}\n", f"tool_version\t{__version__}\n"]
        for group, rows in (("param", params), ("input", self.inputs), ("output", self.outputs)):
            lines.extend(f"{group}:{key}\t{rows[key]}\n" for key in sorted(rows))
        self.write("".join(lines), ".manifest.tsv")
        log.info("%s finished in %.3f s", args.command, time.monotonic() - self.started)


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------- commands


def cmd_score(args: argparse.Namespace) -> int:
    run = Run(args.out)
    golds = parse_gold(run.read(args.gold))
    preds = parse_predictions(run.read(args.pred))
    if not {g.prompt.id for g in golds} & {p.prompt_id for p in preds}:
        log.error("no gold prompt has a prediction set")
        return EXIT_EMPTY
    score = score_corpus(golds, preds)
    buf = io.StringIO()
    write_report(score, buf)
    run.write(buf.getvalue())
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
    run = Run(args.out, directory=True)
    pairs = _parse_parallel(run.read(args.parallel), args.direction == "bwd")
    rows = train_toy(
        pairs, args.iterations, args.out, direction=args.direction, alpha=args.alpha
    )
    log.info("trained %d checkpoints into %s", len(rows), args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    run = Run(args.out, ".warnings.tsv", ".manifest.tsv")
    prompts = parse_prompts(run.read(args.prompts, "prompts"))
    params = MethodParams(n=args.n, n_prime=args.n_prime, m=args.m, top_k_lexicon=args.top_k)
    fwd = run.model("model", args.ckpt or args.series, args.ckpt is None, "fwd")
    bwd = run.model("bwd_model", args.bwd_ckpt or args.bwd_series, args.bwd_ckpt is None, "bwd")
    sets = predict(args.method, fwd, bwd, prompts, params)

    buf = io.StringIO()
    write_predictions(sets, buf)
    run.write(buf.getvalue(), key="predictions")
    empty = [f"{s.prompt_id}\t{args.method}\tno candidates\n" for s in sets if not s.candidates]
    run.write("".join(["prompt_id\tstage\tmessage\n", *empty]), ".warnings.tsv")
    run.finish(args, "method", "n", "n_prime", "m", "top_k")
    return EXIT_OK


def _percent(x: float) -> str:
    return f"{100.0 * x:.2f}"


def cmd_sweep(args: argparse.Namespace) -> int:
    run = Run(args.out, ".manifest.tsv")
    # nbest cells vary n; paraphrase cells vary n' and ensemble cells m at
    # n = fixed_n. Building the params validates every value before any work.
    base = MethodParams(n=args.fixed_n, top_k_lexicon=args.top_k)
    cells = [
        *(("nbest", f"n={v}", replace(base, n=v)) for v in args.n_values),
        *(("paraphrase", f"n'={v}", replace(base, n_prime=v)) for v in args.n_prime_values),
        *(("ensemble", f"m={v}", replace(base, m=v)) for v in args.m_values),
    ]
    if not cells:
        log.error("empty sweep specification: nothing to run")
        return EXIT_EMPTY
    golds = parse_gold(run.read(args.gold, "gold"))
    prompts = parse_prompts(run.read(args.prompts, "prompts"))
    if not {g.prompt.id for g in golds} & {p.id for p in prompts}:
        log.error("no prompt is in the gold file")
        return EXIT_EMPTY
    # one decoder per checkpoint, shared by every cell; a cell needing more
    # checkpoints than the series holds becomes an NA row
    fwd = run.model("series", args.series, True, "fwd")
    bwd = run.model("bwd_series", args.bwd_series, True, "bwd")

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
    if all(row.endswith("\tNA\n") for row in rows):
        log.error("every sweep cell failed")
        return EXIT_INPUT
    header = "method\tparam\tprecision\tweighted_recall\tweighted_f1\n"
    run.write(header + "".join(rows), key="table")
    run.finish(args, "n_values", "n_prime_values", "m_values", "fixed_n", "top_k")
    return EXIT_OK


def cmd_bpe(args: argparse.Namespace) -> int:
    run = Run(args.out)
    buf = io.StringIO()
    if args.bpe_command == "learn":
        corpus = [sentence_tokens(line) for path in args.inputs
                  for line in split_lines(run.read(path))]
        save_bpe(bpe_learn(corpus, args.merges), buf)
    else:
        model = load_bpe(run.read(args.model)) if args.bpe_command == "apply" else None
        source = run.read(args.input) if args.input is not None else sys.stdin.read()
        segmented: dict[str, list[str]] = {}  # each distinct word is segmented once
        for line in split_lines(source):
            toks = line.split()
            result = bpe_decode(toks) if model is None else bpe_apply(model, toks, segmented)
            buf.write(" ".join(result) + "\n")
    run.write(buf.getvalue())
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    print(fixtures_dir())
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _path(raw: str) -> str:
    """The argparse type of every path argument: an empty one is a usage error."""
    if not raw:
        raise argparse.ArgumentTypeError("empty path")
    return raw


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
    p.add_argument("--gold", type=_path, required=True)
    p.add_argument("--pred", type=_path, required=True)
    p.add_argument("--out", type=_path, help="write the TSV report here instead of stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", help="EM-train the toy translator with checkpoints")
    p.add_argument(
        "--parallel", type=_path, required=True, help="TSV file: source<TAB>target per line"
    )
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--out", type=_path, required=True, help="series directory for ckpt-NNNN/")
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--alpha", type=float, default=0.1, help="LM smoothing constant")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="produce a prediction file with one method")
    p.add_argument("--method", choices=METHODS, required=True)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument(
        "--ckpt", type=_path, help="checkpoint directory (a one-checkpoint forward model)"
    )
    model.add_argument(
        "--series", type=_path, help="series directory (its last checkpoint, or the ensemble)"
    )
    bwd_model = p.add_mutually_exclusive_group()
    bwd_model.add_argument(
        "--bwd-ckpt", type=_path, dest="bwd_ckpt", help="backward checkpoint (paraphrase)"
    )
    bwd_model.add_argument(
        "--bwd-series", type=_path, dest="bwd_series", help="backward series (paraphrase)"
    )
    p.add_argument("--prompts", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--n-prime", dest="n_prime", type=int, default=3)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--top-k", dest="top_k", type=int, default=8)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="run the method/parameter grid and tabulate scores")
    p.add_argument("--series", type=_path, required=True)
    p.add_argument(
        "--bwd-series", type=_path, dest="bwd_series", help="backward series for paraphrase rows"
    )
    p.add_argument("--gold", type=_path, required=True)
    p.add_argument("--prompts", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
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
    b.add_argument("--input", type=_path, dest="inputs", action="append", required=True)
    b.add_argument("--merges", type=int, default=500)
    b.add_argument("--out", type=_path, required=True)
    b.set_defaults(func=cmd_bpe)
    for name in ("apply", "decode"):
        b = bpe_sub.add_parser(name)
        if name == "apply":
            b.add_argument("--model", type=_path, required=True)
        b.add_argument("--input", type=_path)
        b.add_argument("--out", type=_path)
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
    except Exception as exc:  # a bug: keep its traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
