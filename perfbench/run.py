"""End-to-end benchmark for the stapleforge command line.

    python3 perfbench/run.py --workload {train,generate,sweep,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each workload builds a seeded
synthetic world (perfbench/world.py), prepares what its commands read, and
then runs its ``stapleforge`` commands one at a time, each in its own child
interpreter with ``PYTHONPATH=src``, so no in-process state carries from one
command to the next. Passes repeat until ``--seconds`` have elapsed; every
throughput is work done over the fastest run of each command it times, and
``peak_rss_mb`` is the largest resident set of any timed command.

Set-up is timed each time it is made and ``setup_s`` is the median: once for
the reference world (``REFERENCE_SEED``), once for the ``--seed`` world, and,
where it is cheap, again before every further pass. ``f1_pct`` comes from one
untimed pass over the reference world, so it is the same for every ``--seed``
and moves only when what the program outputs changes.

Workloads (why each is here):

    train     bpe learn in set-up, then bpe apply over both sides and train
              fwd and bwd (TIMED_ITERATIONS each): the write side of
              checkpoints; EM, quantize and save run nowhere else in a timed
              pass
    generate  nbest and ensemble over the first GENERATE_PROMPTS prompts,
              paraphrase over the first PARA_PROMPTS: checkpoint loading and
              decoding with no work shared between commands
    sweep     the CLI's default grid over SWEEP_PROMPTS prompts: the same
              layers as generate, but most decodes repeat earlier work

Every output is checked (exit codes, warnings.tsv rows, prompt order,
duplicate candidates, paraphrase and ensemble supersets, sweep recall
monotonicity, each score report's MACRO row, byte-identical outputs across
passes and across set-ups of one world). An operation is one prompt of a
generate command, one sweep cell, or one train, bpe or score command;
``failed`` counts the operations a failure touched.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
``end_to_end`` metrics of BENCHMARK.json. The throughput ``items_per_s`` counts
pair-iterations (train), prompts (generate) or prompt-cells (sweep).
Lines before it print the per-command figures by name with their units.
With ``--trace 1`` the set-up and one pass run with every command started
through perfbench/tracer.py, after an untraced pass whose outputs the traced
one must repeat byte for byte; the metrics are the ``per_layer`` metrics:
per-function time and counts, per-module self time and the waste ratios.
``trace.overhead_ratio`` is the time the wrappers add (their calls times the
cost of one wrapper call, measured on a function that does nothing) over the
rest of the traced commands' time: the tracer costs far less than the
run-to-run noise, so comparing traced with untraced runs cannot show it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

from tracer import LEAVES, MODULES, SPANS, Tracer  # noqa: E402
from world import World  # noqa: E402

ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"

# the ROADMAP's world seed; F1 is measured on this world whatever --seed is
REFERENCE_SEED = 7
ITERATIONS = 8  # the series generate and sweep read; m=8 needs all of them
# EM iterations of a timed train command: every iteration does the same work,
# and short commands let a run time each one many times
TIMED_ITERATIONS = 2
GENERATE_PROMPTS = 50
PARA_PROMPTS = 10
SWEEP_PROMPTS = 5
SOURCE_DATE_EPOCH = "1600000000"
COMMAND_TIMEOUT_S = 150


# ------------------------------------------------------------ child commands


@dataclass
class Result:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs one stapleforge command at a time in a fresh interpreter."""

    def __init__(self, trace_dir: Path | None = None):
        self.trace_dir = trace_dir
        self.trace_files: list[Path] = []
        self.env = dict(os.environ)
        self.env.pop("STAPLE_FORGE_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
        self.count = 0
        self.wall_s = 0.0

    def __call__(self, cwd: Path, *args: str) -> Result:
        self.count += 1
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "stapleforge.cli", *args]
        else:
            trace = self.trace_dir / f"cmd{self.count:04d}.json"
            self.trace_files.append(trace)
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace), "--", *args]
        out_path = WORK / "child.stdout"
        err_path = WORK / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        self.wall_s += wall
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            code=proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


# ------------------------------------------------------------ checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, count: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += count
        self.fail(failed, problem)

    def fail(self, count: int, problem: str) -> None:
        """Marks already attempted operations failed."""
        if count:
            self.failed = min(self.attempted, self.failed + count)
            self.problems.append(f"{count} failed: {problem}")

    def command(self, result: Result, count: int, what: str) -> bool:
        """Count a command's operations; all of them fail on a non-zero exit."""
        if result.code != 0:
            tail = result.stderr.strip().splitlines()[-3:]
            self.ops(count, count, f"{what} exited {result.code}: {' | '.join(tail)}")
            return False
        return True


def normalize(text: str) -> str:
    """The default matching policy, written independently of the package."""
    text = unicodedata.normalize("NFC", text).lower()
    text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    return unicodedata.normalize("NFC", " ".join(text.split()))


def read_blocks(path: Path) -> list[tuple[str, list[str]]]:
    """(prompt id, lines) for each blank-line separated block of a corpus file."""
    blocks = []
    for chunk in path.read_text(encoding="utf-8").split("\n\n"):
        lines = [line for line in chunk.split("\n") if line]
        if lines:
            blocks.append((lines[0].split("|", 1)[0], lines[1:]))
    return blocks


def prompt_ids(path: Path) -> list[str]:
    return [line.split("|", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()]


def digest(path: Path) -> str:
    """Checksum of a file, or of a directory's relative paths and file bytes."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(str(p.relative_to(path) if path.is_dir() else p.name).encode())
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def check_predictions(
    tally: Tally, out: Path, ids: list[str], what: str, subset_of: dict | None = None
) -> dict[str, set[str]]:
    """Prompt order, duplicate candidates, warnings.tsv rows and an optional
    per-prompt superset; returns each prompt's normalized candidate set."""
    blocks = read_blocks(out)
    warned = {
        line.split("\t", 1)[0]
        for line in Path(f"{out}.warnings.tsv").read_text(encoding="utf-8").splitlines()[1:]
    }
    if [pid for pid, _ in blocks] != ids:
        tally.ops(len(ids), len(ids), f"{what}: prompts missing or out of input order")
        return {}
    keys: dict[str, set[str]] = {}
    bad = 0
    for pid, cands in blocks:
        keys[pid] = {normalize(c) for c in cands}
        duplicate = len(keys[pid]) != len(cands)
        missing = subset_of is not None and not subset_of.get(pid, set()) <= keys[pid]
        bad += pid in warned or duplicate or missing
    tally.ops(len(ids), bad, f"{what}: warned, duplicate or superset-violating prompts")
    return keys


class Repeats:
    """Flags outputs whose bytes differ from the first time they were made."""

    def __init__(self) -> None:
        self.seen: dict[str, str] = {}

    def check(self, tally: Tally, name: str, path: Path, ops: int) -> None:
        value = digest(path)
        if value != self.seen.setdefault(name, value):
            tally.fail(ops, f"{name} differs from an earlier identical run")


# ------------------------------------------------------------ workloads


@dataclass
class Pass:
    """Wall time of each timed command in one pass, and their largest RSS."""

    walls: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0

    def time(self, command: str, result: Result) -> None:
        self.walls[command] = result.wall_s
        self.rss_mb = max(self.rss_mb, result.rss_mb)


class Workload:
    name = ""
    # a cheap set-up is repeated before every pass, spreading its samples
    # over the run; a costly one is made once for each world
    cheap_setup = False

    def setup(self, run: Runner, tally: Tally, d: Path, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, run: Runner, tally: Tally, repeats: Repeats, d: Path) -> Pass:
        """Runs and checks the timed commands once."""
        raise NotImplementedError

    def figures(self, d: Path) -> dict[str, tuple[float, tuple[str, ...]]]:
        """Each throughput as (work done, commands timed); the first one is
        the workload's ``items_per_s``."""
        raise NotImplementedError

    def quality(self, run: Runner, tally: Tally, ref: Path) -> dict[str, float]:
        """Weighted macro F1 (percent) of one untimed pass over the reference
        world set up in ``ref``."""
        # its outputs are compared with nothing: the timed passes used another world
        self.run_pass(run, tally, Repeats(), ref)
        return self.f1(run, tally, ref)

    def f1(self, run: Runner, tally: Tally, d: Path) -> dict[str, float]:
        """Weighted macro F1 (percent) of the outputs of the last pass in d."""
        raise NotImplementedError


def train_series(
    run: Runner, tally: Tally, d: Path, direction: str, iterations: int = ITERATIONS
) -> Result:
    out = d / direction
    shutil.rmtree(out, ignore_errors=True)
    result = run(
        d, "train", "--parallel", "parallel.tsv", "--iterations", str(iterations),
        "--out", direction, "--direction", direction,
    )
    if tally.command(result, 1, f"train {direction}"):
        rows = (out / "series.tsv").read_text().splitlines()[1:]
        logliks = [float(row.split("\t")[1]) for row in rows]
        ckpts = sorted(p.name for p in out.iterdir() if p.name.startswith("ckpt-"))
        good = (
            len(rows) == iterations
            and ckpts == [f"ckpt-{i:04d}" for i in range(1, iterations + 1)]
            and all(b >= a for a, b in zip(logliks, logliks[1:]))
        )
        tally.ops(1, 0 if good else 1, f"train {direction}: series.tsv or checkpoints wrong")
    return result


def score_f1(run: Runner, tally: Tally, d: Path, gold: str, pred: str) -> float:
    """Weighted macro F1 (percent) from ``score``, whose report must list the
    gold prompts in order with a MACRO row that is the mean of their rows."""
    report = d / f"{pred}.report.tsv"
    result = run(d, "score", "--gold", gold, "--pred", pred, "--out", report.name)
    if not tally.command(result, 1, f"score {pred}"):
        return 0.0
    rows = [line.split("\t") for line in report.read_text(encoding="utf-8").splitlines()[2:]]
    per_prompt, macro = rows[:-1], rows[-1]
    ids = [pid for pid, _ in read_blocks(d / gold)]
    good = macro[0] == "MACRO" and [row[0] for row in per_prompt] == ids
    # per-prompt rows are rounded to 6 decimals, so their mean may differ by that much
    for col in (1, 2, 3):
        mean = statistics.fmean(float(row[col]) for row in per_prompt)
        good = good and abs(mean - float(macro[col])) <= 1.5e-6
    summary = float(result.stdout.strip().splitlines()[-1].split("=", 1)[1])
    good = good and abs(summary - float(macro[3])) <= 1e-6
    tally.ops(1, 0 if good else 1, f"score {pred}: prompts out of order or MACRO row wrong")
    return 100.0 * summary


class Train(Workload):
    name = "train"
    cheap_setup = True

    def setup(self, run, tally, d, seed):
        World(seed).write_corpus(d)
        # the model bpe apply reads; program work, so set-up time moves with it
        result = run(
            d, "bpe", "learn", "--input", "src.txt", "--input", "tgt.txt", "--out", "bpe.model"
        )
        if tally.command(result, 1, "bpe learn"):
            tally.ops(1)

    def run_pass(self, run, tally, repeats, d):
        timed = Pass()
        for side in ("src", "tgt"):
            result = run(d, "bpe", "apply", "--model", "bpe.model", "--input", f"{side}.txt",
                         "--out", f"{side}.bpe")
            timed.time(f"bpe apply {side}", result)
            if tally.command(result, 1, f"bpe apply {side}"):
                source = (d / f"{side}.txt").read_text(encoding="utf-8").splitlines()
                applied = (d / f"{side}.bpe").read_text(encoding="utf-8").splitlines()
                joined = [line.replace("@@ ", "").split() for line in applied]
                good = joined == [line.split() for line in source]
                tally.ops(1, 0 if good else 1, f"bpe apply {side}: does not join back")
                repeats.check(tally, f"{side}.bpe", d / f"{side}.bpe", 1)
        for direction in ("fwd", "bwd"):
            result = train_series(run, tally, d, direction, TIMED_ITERATIONS)
            timed.time(f"train {direction}", result)
            if result.code == 0:
                repeats.check(tally, direction, d / direction, 1)
        return timed

    def figures(self, d):
        pairs = sum(1 for line in (d / "parallel.tsv").open(encoding="utf-8") if line.strip())
        words = sum(
            len(line.split())
            for side in ("src.txt", "tgt.txt")
            for line in (d / side).open(encoding="utf-8")
        )
        return {
            "train_pairs_per_s": (pairs * TIMED_ITERATIONS * 2, ("train fwd", "train bwd")),
            "bpe_apply_words_per_s": (words, ("bpe apply src", "bpe apply tgt")),
        }

    def quality(self, run, tally, ref):
        # F1 here guards the model EM makes; bpe apply and bwd add nothing to it
        train_series(run, tally, ref, "fwd")
        return self.f1(run, tally, ref)

    def f1(self, run, tally, d):
        # n-best from the last trained checkpoint
        ckpt = f"fwd/ckpt-{ITERATIONS:04d}"
        result = run(d, "generate", "--method", "nbest", "--ckpt", ckpt,
                     "--prompts", "prompts.txt", "--out", "check_nbest.txt")
        f1 = 0.0
        if tally.command(result, 1, "generate nbest (F1 check)"):
            tally.ops(1)
            f1 = score_f1(run, tally, d, "gold.txt", "check_nbest.txt")
        return {"trained_nbest_f1": f1}


class Generate(Workload):
    name = "generate"
    commands = (
        ("nbest", f"prompts_{GENERATE_PROMPTS}.txt",
         ("--method", "nbest", "--series", "fwd", "--n", "10")),
        ("ensemble", f"prompts_{GENERATE_PROMPTS}.txt",
         ("--method", "ensemble", "--series", "fwd", "--n", "10", "--m", "5")),
        ("paraphrase", f"prompts_{PARA_PROMPTS}.txt",
         ("--method", "paraphrase", "--series", "fwd", "--bwd-series", "bwd",
          "--n", "10", "--n-prime", "3")),
    )

    def setup(self, run, tally, d, seed):
        World(seed).write_corpus(d, heads={GENERATE_PROMPTS, PARA_PROMPTS, SWEEP_PROMPTS})
        for direction in ("fwd", "bwd"):
            train_series(run, tally, d, direction)

    def run_pass(self, run, tally, repeats, d):
        timed = Pass()
        nbest_keys: dict = {}
        for method, prompts, args in self.commands:
            out = f"{method}.txt"
            result = run(d, "generate", *args, "--prompts", prompts, "--out", out)
            timed.time(method, result)
            ids = prompt_ids(d / prompts)
            if not tally.command(result, len(ids), f"generate {method}"):
                continue
            # paraphrase extends the n-best list; the ensemble's latest
            # checkpoint is the one n-best decodes with
            keys = check_predictions(tally, d / out, ids, method, nbest_keys or None)
            if method == "nbest":
                nbest_keys = keys
            repeats.check(tally, out, d / out, len(ids))
            repeats.check(tally, out + ".manifest", d / (out + ".manifest.tsv"), len(ids))
        return timed

    def figures(self, d):
        sizes = {method: len(prompt_ids(d / prompts)) for method, prompts, _ in self.commands}
        return {
            "generate_prompts_per_s": (sum(sizes.values()), tuple(sizes)),
            **{f"{method}_prompts_per_s": (n, (method,)) for method, n in sizes.items()},
        }

    def f1(self, run, tally, d):
        return {
            f"{method}_f1": score_f1(
                run, tally, d, prompts.replace("prompts", "gold"), f"{method}.txt"
            )
            for method, prompts, _ in self.commands
        }


class Sweep(Workload):
    name = "sweep"
    cells = 11  # the CLI's default grid: n 5,10,15,20; n' 1,3,5; m 2,4,6,8

    def setup(self, run, tally, d, seed):
        Generate().setup(run, tally, d, seed)

    def run_pass(self, run, tally, repeats, d):
        timed = Pass()
        result = run(
            d, "sweep", "--series", "fwd", "--bwd-series", "bwd",
            "--gold", f"gold_{SWEEP_PROMPTS}.txt", "--prompts", f"prompts_{SWEEP_PROMPTS}.txt",
            "--out", "table.tsv",
        )
        timed.time("sweep", result)
        if tally.command(result, self.cells, "sweep"):
            rows = [line.split("\t") for line in (d / "table.tsv").read_text().splitlines()[1:]]
            bad = sum(row[2] == "NA" for row in rows) + abs(self.cells - len(rows))
            for method in ("nbest", "ensemble"):
                # weighted recall may not fall as n or m grows
                recall = [float(row[3]) for row in rows if row[0] == method and row[3] != "NA"]
                bad += sum(b < a for a, b in zip(recall, recall[1:]))
            tally.ops(self.cells, min(bad, self.cells), "sweep: NA cells or recall decreasing")
            repeats.check(tally, "table.tsv", d / "table.tsv", self.cells)
        return timed

    def figures(self, d):
        return {"sweep_prompt_cells_per_s": (SWEEP_PROMPTS * self.cells, ("sweep",))}

    def f1(self, run, tally, d):
        rows = [line.split("\t") for line in (d / "table.tsv").read_text().splitlines()[1:]]
        scores = [float(row[4]) for row in rows if row[4] != "NA"]  # NA cells already failed
        return {"sweep_mean_f1": statistics.fmean(scores) if scores else 0.0}


WORKLOADS = {w.name: w for w in (Train(), Generate(), Sweep())}


# ------------------------------------------------------------ measurement


def timed_setup(workload: Workload, run: Runner, tally: Tally, d: Path, seed: int) -> float:
    shutil.rmtree(d, ignore_errors=True)
    start = time.perf_counter()
    workload.setup(run, tally, d, seed)
    return time.perf_counter() - start


def measure(workload: Workload, seed: int, seconds: float) -> tuple[Tally, dict[str, float], dict]:
    run = Runner()
    tally = Tally()
    repeats = Repeats()
    setups: list[float] = []

    def set_up(world_seed: int, d: Path) -> Path:
        setups.append(timed_setup(workload, run, tally, d, world_seed))
        # world files, BPE models and checkpoints must come out byte-identical
        repeats.check(tally, f"setup {world_seed}", d, 1)
        return d

    ref = set_up(REFERENCE_SEED, WORK / "reference")
    passes: list[Pass] = []
    measured = 0.0
    # stop where the measured time comes closest to the requested seconds
    while not passes or measured + sum(passes[-1].walls.values()) / 2 < seconds:
        if not passes or workload.cheap_setup:
            d = set_up(seed, WORK / "world")
        passes.append(workload.run_pass(run, tally, repeats, d))
        measured += sum(passes[-1].walls.values())

    # Each command's fastest run: on a shared virtual machine the host slows
    # a vCPU by up to ~1.9x in phases that last from under a second to tens
    # of seconds, so interference only ever adds time; the median of a few
    # runs follows those phases while the fastest stays near the uncontended
    # speed.
    fastest = {cmd: min(p.walls[cmd] for p in passes) for cmd in passes[0].walls}
    detail: dict[str, float] = {
        name: work / sum(fastest[cmd] for cmd in cmds)
        for name, (work, cmds) in workload.figures(d).items()
    }
    quality = workload.quality(run, tally, ref)
    metrics = {
        "items_per_s": next(iter(detail.values())),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "f1_pct": statistics.fmean(quality.values()),
    }
    detail.update(quality)
    detail["passes"] = len(passes)
    return tally, metrics, detail


def span_metrics(trace_files: list[Path]) -> dict[str, float]:
    """Per-function and per-module figures from the traced commands."""
    total = dict.fromkeys(SPANS, 0.0)
    own = dict.fromkeys(SPANS, 0.0)
    calls = dict.fromkeys(SPANS, 0)
    module_self = dict.fromkeys(MODULES, 0.0)
    decode_ms: list[float] = []
    leaves = {name: [0, 0.0, 0] for name in LEAVES}
    extra: dict[str, int] = {}
    for path in trace_files:
        if not path.is_file():  # the command failed before tracing began
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        for _, _, name, start, end, child in record["spans"]:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            module_self[name.split(".")[0]] += end - start - child
            if name == "translator.decode_nbest":
                decode_ms.append(1000.0 * (end - start))
        for name, (n, seconds, distinct) in record["leaves"].items():
            leaves[name][0] += n
            leaves[name][1] += seconds
            leaves[name][2] += distinct or 0
            module_self[name.split(".")[0]] += seconds
        for key, value in record["extra"].items():
            extra[key] = extra.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{m}.self_s": module_self[m] for m in MODULES}
    for name in SPANS:
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.calls"] = calls[name]
    for name, (n, seconds, distinct) in leaves.items():
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = seconds
        if LEAVES[name]:
            out[f"{name}.distinct_ratio"] = ratio(distinct, n)
    decode_ms.sort()
    n = len(decode_ms)
    out["translator.decode_nbest.p50_ms"] = decode_ms[(n - 1) // 2] if n else 0.0
    out["translator.decode_nbest.p99_ms"] = decode_ms[-(-99 * n // 100) - 1] if n else 0.0
    out["translator.decode_nbest.distinct_ratio"] = ratio(extra.get("decode_distinct", 0), n)
    out["translator.load_checkpoint.used_ratio"] = ratio(
        extra.get("checkpoints_used", 0), extra.get("checkpoints_loaded", 0)
    )
    out["translator.save_checkpoint.bytes"] = extra.get("saved_bytes", 0)
    return out


def wrapper_cost_s() -> tuple[float, float]:
    """Seconds a span wrapper and a keyed leaf wrapper add to one call,
    measured on a function that does nothing (fastest of 5 rounds)."""
    tracer = Tracer()

    def noop(*args, **kwargs):
        return None

    span = tracer.span("cli.main", noop)
    leaf = tracer.leaf("corpus.normalize", noop, LEAVES["corpus.normalize"])
    calls = 20_000

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn("text", None)
            best = min(best, time.perf_counter() - start)
        return best / calls

    bare = per_call(noop)
    return per_call(span) - bare, per_call(leaf) - bare


def measure_traced(workload: Workload, seed: int) -> tuple[Tally, dict[str, float], dict]:
    """Per-layer figures of a traced set-up and pass, after an untraced pass
    whose outputs the traced one must repeat byte for byte."""
    tally = Tally()
    repeats = Repeats()
    traced = Runner(trace_dir=WORK / "traces")
    (WORK / "traces").mkdir(parents=True)
    d = WORK / "world"
    timed_setup(workload, traced, tally, d, seed)
    workload.run_pass(Runner(), tally, repeats, d)
    workload.run_pass(traced, tally, repeats, d)
    metrics = span_metrics(traced.trace_files)
    span_s, leaf_s = wrapper_cost_s()
    wrapper_s = span_s * sum(metrics[f"{name}.calls"] for name in SPANS)
    wrapper_s += leaf_s * sum(metrics[f"{name}.calls"] for name in LEAVES)
    metrics["trace.overhead_ratio"] = wrapper_s / (traced.wall_s - wrapper_s)
    return tally, metrics, {"traced_program_s": traced.wall_s, "wrapper_s": wrapper_s}


# ------------------------------------------------------------ reporting

UNITS = {
    "train_pairs_per_s": "pair-iterations/s",
    "generate_prompts_per_s": "prompts/s",
    "bpe_apply_words_per_s": "words/s",
    "nbest_prompts_per_s": "prompts/s",
    "ensemble_prompts_per_s": "prompts/s",
    "paraphrase_prompts_per_s": "prompts/s",
    "sweep_prompt_cells_per_s": "prompt-cells/s",
    "error_rate": "ratio",
    "passes": "count",
    "traced_program_s": "s",
    "wrapper_s": "s",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if trace:
            tally, values, detail = measure_traced(WORKLOADS[name], seed)
        else:
            tally, values, detail = measure(WORKLOADS[name], seed, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    detail["error_rate"] = tally.failed / max(1, tally.attempted)
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {name} (seed {seed}, trace {int(trace)})")
    for key, value in sorted(detail.items()):
        unit = UNITS.get(key, "%" if key.endswith("_f1") else "MB" if key.endswith("_mb") else "")
        print(f"  {key} {value:.6g} {unit}")
    for key, metric in metrics.items():
        print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="stapleforge end-to-end benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stapleforge" / "cli.py").is_file():
        print(f"error: no stapleforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{key}": metric
                for n, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
