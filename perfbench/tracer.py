"""In-memory span tracer that wraps teamopt's public functions from outside.

`install(out_dir)` replaces each traced function in every teamopt module
namespace where callers look it up (for example `teamopt.cli.load_csv` as
well as `teamopt.data.load_csv`), so nothing under `src/` changes. Each
call records one span: name, start, end, parent span and an optional size
(rows, nodes or jobs). `tape.Node` constructions are counted, not spanned.

Spans stay in memory. The launching process calls `Tracer.dump` when the
command ends; forked pool workers dump theirs from a multiprocessing
finalizer when the pool shuts them down. Each process writes
`spans-<pid>.json` under `out_dir`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util

# (module, attribute) pairs that get a span. Tape primitives are left out
# on purpose: a training step builds tens of them, and their cost is
# reported through the node count and the enclosing `loss_and_grad` span.
SPANNED = (
    ("cli", "build_dataset"), ("cli", "cmd_sweep"), ("cli", "cmd_analyze"),
    ("data", "generate_synthetic"), ("data", "load_csv"), ("data", "split"),
    ("tape", "backward"),
    ("numerics", "loss_and_grad"), ("numerics", "sgd_step"),
    ("numerics", "sample_dropout_masks"), ("numerics", "forward_batch"),
    ("numerics", "logits_batch"), ("numerics", "init_mlp"),
    ("calibration", "calibrate_batch"),
    ("discriminative", "train_solo_model"),
    ("discriminative", "train_query_policy"),
    ("discriminative", "train_fixed"),
    ("discriminative", "train_joint"),
    ("voi", "train_fixed_voi"), ("voi", "train_joint_voi"),
    ("voi", "voi_decision_parts"),
    ("evaluation", "cost_sweep"), ("evaluation", "per_class_analysis"),
    ("evaluation", "human_error_tree"), ("evaluation", "emit_report"),
    # The unit of work a sweep hands to its pool; it gives pool busy time.
    ("evaluation", "_run_cell"),
)

# Span sizes: rows parsed, rows scored, pool width.
SIZES = {
    "data.load_csv": lambda args, kwargs, out: len(out),
    "voi.voi_decision_parts": lambda args, kwargs, out: len(args[1]),
    "evaluation.cost_sweep": lambda args, kwargs, out: kwargs.get("jobs", 1),
    "calibration.PlattCalibrator.fit": lambda args, kwargs, out: len(args[1]),
}

class Tracer:
    """Span store for one process; a forked child starts an empty one."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self.stack: list[int] = []
        self.nodes = 0  # tape.Node constructions so far
        self.pid = os.getpid()
        mp_util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        # Runs in a multiprocessing child after its finalizers were reset.
        self.spans, self.stack, self.nodes = [], [], 0
        self.pid = os.getpid()
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def add(self, name: str, start: float, end: float, size=None) -> None:
        """Record a span measured elsewhere, as a root span."""
        self.spans.append([name, start, end, -1, size])

    def wrap(self, name: str, fn, count_nodes: bool = False):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            nodes0 = self.nodes
            rec[1] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                stack.pop()
            if count_nodes:
                rec[4] = self.nodes - nodes0
            elif size_of is not None:
                rec[4] = size_of(args, kwargs, out)
            return out

        return traced

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)


def _replace_everywhere(original, replacement) -> int:
    """Point every teamopt namespace that holds `original` at `replacement`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("teamopt"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(out_dir: str) -> Tracer:
    """Wrap the traced teamopt functions in this process; returns the store."""
    import importlib

    tracer = Tracer(out_dir)
    mods = {m: importlib.import_module(f"teamopt.{m}") for m, _ in SPANNED}
    for mod_name, attr in SPANNED:
        fn = getattr(mods[mod_name], attr)
        name = f"{mod_name}.{attr.lstrip('_')}"
        wrapped = tracer.wrap(name, fn,
                              count_nodes=(name == "numerics.loss_and_grad"))
        if not _replace_everywhere(fn, wrapped):
            raise RuntimeError(f"teamopt.{mod_name}.{attr} not found to trace")

    platt = mods["calibration"].PlattCalibrator
    platt.fit = classmethod(tracer.wrap("calibration.PlattCalibrator.fit",
                                        platt.fit.__func__))

    node_cls = mods["tape"].Node
    node_init = node_cls.__init__

    def counted_init(self, *args, **kwargs):
        tracer.nodes += 1
        node_init(self, *args, **kwargs)

    node_cls.__init__ = counted_init
    return tracer


def load_spans(trace_dir: str, main_pid: int) -> tuple[list, list]:
    """(main-process spans, list of per-worker span lists) from a trace dir."""
    main, workers = [], []
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.startswith("spans-"):
            continue
        with open(os.path.join(trace_dir, fname), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["pid"] == main_pid:
            main = doc["spans"]
        else:
            workers.append(doc["spans"])
    return main, workers


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
