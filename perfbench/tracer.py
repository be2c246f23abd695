"""Run one ``stapleforge`` command with its public functions traced.

    python3 perfbench/tracer.py TRACE_OUT -- <stapleforge arguments>

The package is imported unchanged; every function named in SPANS and LEAVES
is replaced by a timing wrapper at each of its import sites (the defining
module and every ``stapleforge`` module that imported the name), so calls
between modules are seen wherever they happen. Spans stay in memory and are
written to TRACE_OUT as JSON when the command returns, one trace per command
named by the file's stem:

    {"trace": stem,
     "spans": [[id, parent, name, start, end, child_time], ...],
     "leaves": {name: [calls, seconds, distinct_inputs or null]},
     "extra": {...}}

``child_time`` is the part of the span covered by traced callees, so a
span's self time is ``end - start - child_time``. Hot leaf functions keep
aggregate counts and time instead of one span per call; their time is still
charged to the enclosing span's ``child_time``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

MODULES = ("cli", "corpus", "textproc", "translator", "methods", "metrics")

# one span per call
SPANS = (
    "cli.main",
    "cli.sha256_path",
    "corpus.parse_gold",
    "corpus.parse_prompts",
    "corpus.write_predictions",
    "textproc.bpe_learn",
    "textproc.bpe_apply",
    "translator.train_toy",
    "translator.build_bigram_lm",
    "translator.corpus_loglikelihood",
    "translator.save_checkpoint",
    "translator.load_series",
    "translator.load_checkpoint",
    "translator.decode_nbest",
    "methods.nbest_predict",
    "methods.paraphrase_predict",
    "methods.multi_checkpoint_predict",
    "methods.dedup",
    "metrics.score_corpus",
)

# aggregate counts and time; where given, the key function names what makes
# two calls do the same work, for the distinct-input ratio
LEAVES = {
    # policies are module constants, so their identity stands for their value
    "corpus.normalize": lambda args, kwargs: (
        args[0],
        id(args[1] if len(args) > 1 else kwargs.get("policy")),
    ),
    "textproc.tokenize": None,
    "translator.emission_candidates": None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaves: dict[str, list] = {}
        self.leaf_keys: dict[str, set] = {}
        self.decode_keys: set = set()
        self.decoded_ckpts: set[int] = set()
        self.loaded_ckpts: set[int] = set()
        self.alive: list = []  # keeps loaded checkpoints alive so their ids stay unique
        self.saved_bytes = 0
        self.next_id = 1

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.next_id, stack[-1][0] if stack else 0, name, clock(), 0.0, 0.0]
            self.next_id += 1
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
                spans.append(rec)

        return wrapper

    def leaf(self, name: str, fn, key):
        clock = time.perf_counter
        stack = self.stack
        agg = self.leaves.setdefault(name, [0, 0.0])
        keys = self.leaf_keys.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                agg[0] += 1
                agg[1] += took
                if stack:
                    stack[-1][5] += took
                if key is not None:
                    keys.add(key(args, kwargs))

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"stapleforge.{m}") for m in MODULES}
        replacements = {}
        for name in SPANS:
            mod, attr = name.split(".")
            original = getattr(modules[mod], attr)
            replacements[id(original)] = self.span(name, self._observe(name, original))
        for name, key in LEAVES.items():
            mod, attr = name.split(".")
            original = getattr(modules[mod], attr)
            replacements[id(original)] = self.leaf(name, original, key)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _observe(self, name: str, fn):
        """Extra bookkeeping for the checkpoint and decode ratios."""
        if name == "translator.load_checkpoint":

            def load(*args, **kwargs):
                ckpt = fn(*args, **kwargs)
                self.loaded_ckpts.add(id(ckpt))
                self.alive.append(ckpt)
                return ckpt

            return load
        if name == "translator.decode_nbest":

            def decode(ckpt, source, params):
                self.decoded_ckpts.add(id(ckpt))
                # n-best lists of one source are prefixes of each other, so
                # the work is identified without n
                self.decode_keys.add((id(ckpt), tuple(source), params.top_k_lexicon))
                return fn(ckpt, source, params)

            return decode
        if name == "translator.save_checkpoint":

            def save(ckpt, directory):
                fn(ckpt, directory)
                self.saved_bytes += sum(p.stat().st_size for p in Path(directory).iterdir())

            return save
        return fn

    def dump(self, path: str) -> None:
        record = {
            "trace": Path(path).stem,
            "spans": self.spans,
            "leaves": {
                name: [calls, seconds, len(self.leaf_keys[name]) if LEAVES[name] else None]
                for name, (calls, seconds) in self.leaves.items()
            },
            "extra": {
                "decode_distinct": len(self.decode_keys),
                "checkpoints_loaded": len(self.loaded_ckpts),
                "checkpoints_used": len(self.loaded_ckpts & self.decoded_ckpts),
                "saved_bytes": self.saved_bytes,
            },
        }
        Path(path).write_text(json.dumps(record), encoding="utf-8")


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py TRACE_OUT -- <stapleforge arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["stapleforge.cli"]
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
