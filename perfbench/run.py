"""teamopt benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload sweep-voi --seed 3 --seconds 40 \
        --trace 0

Each workload drives the `teamopt` CLI in fresh processes (see
`launch.py`) on inputs generated from `--seed`, checks the outputs, and
prints one JSON object as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced
and paced against a reference unit (see "machine speed" below).
With `--trace 1` the command runs once untraced and once traced, and the
metrics are the per-layer ones. The line before the result describes
the machine. Scratch files live in `.perfbench/` at the repository root.
See README.md in this directory for the workloads and metrics, and for
why analyze-csv runs here but is not listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402

COSTS = (0.0, 0.05, 0.1, 0.15, 0.2)
HEADLINE_COST = 0.05
NUM_CLASSES = 5
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
CSV_CACHE_KEEP = 3
PAUSE_EVERY_S = 0.5  # untraced commands stop this often for a reference
REF_NOMINAL_S = 0.015  # reference unit time that counts as one second


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the self-test."""

    label: str
    n: int
    csv_rows: int
    sweep_iterations: int
    analyze_iterations: int
    lambda_grid: tuple


FULL = Scale("full", 14000, 400_000, 1000, 200, (0.25, 0.5, 1.0, 2.0, 4.0))
TINY = Scale("tiny", 2000, 4000, 200, 200, (0.5, 2.0))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "analyze"
    approaches: tuple
    train_seeds: tuple
    headline: str
    jobs: int = 1
    setup_probes: int = 6  # extra set-up-only processes per untraced run


WORKLOADS = {w.name: w for w in (
    Workload("sweep-voi", "sweep", ("human-only", "fixed-voi", "joint-voi"),
             (0, 1), "joint-voi"),
    Workload("sweep-disc", "sweep",
             ("human-only", "fixed-disc", "joint-disc"), (0, 1, 2, 3),
             "joint-disc", jobs=2),
    Workload("analyze-csv", "analyze",
             ("fixed-disc", "joint-disc", "fixed-voi", "joint-voi"), (0,),
             "joint-voi", setup_probes=2),
)}


@dataclass
class Measurement:
    """One CLI process: timings from the launcher plus the output checks."""

    tag: str
    exit_code: int
    setup_s: float | None
    run_s: float | None
    peak_rss_mb: float | None
    timing: dict
    out_dir: Path
    problems: list = field(default_factory=list)
    team_loss: float | None = None
    digest: str | None = None
    wall_setup_s: float | None = None
    wall_run_s: float | None = None
    pacing: dict | None = None


# --- inputs -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "teamopt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_csv(rows: int, seed: int, work: Path) -> Path:
    """Write the seed's synthetic CSV with teamopt's own generator, once."""
    cache = work / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"data-{rows}-{seed}-{source_digest()}.csv"
    if path.exists():
        path.touch()
        return path
    tmp = path.with_suffix(".tmp")
    code = ("import sys\n"
            "from teamopt.data import (SynthConfig, generate_synthetic,"
            " save_csv)\n"
            "save_csv(generate_synthetic(SynthConfig(n=int(sys.argv[1]),"
            " seed=int(sys.argv[2]))), sys.argv[3])\n")
    proc = subprocess.run([sys.executable, "-c", code, str(rows), str(seed),
                           str(tmp)], env=child_env(), cwd=work,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"writing the CSV failed: {proc.stderr[-2000:]}")
    os.replace(tmp, path)
    old = sorted(cache.glob("data-*.csv"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-CSV_CACHE_KEEP]:
        stale.unlink()
    return path


def write_config(w: Workload, seed: int, scale: Scale, out_dir: Path,
                 csv_path: Path | None) -> Path:
    config = {"approaches": list(w.approaches), "costs": list(COSTS),
              "lambda_grid": list(scale.lambda_grid),
              "seeds": list(w.train_seeds), "out": str(out_dir)}
    if w.command == "sweep":
        config["dataset"] = {"synthetic": {"n": scale.n, "seed": seed}}
        config["train"] = {"iterations": scale.sweep_iterations}
    else:
        config["dataset"] = {"csv": str(csv_path), "num_classes": NUM_CLASSES}
        config["train"] = {"iterations": scale.analyze_iterations}
        config["team"] = {"query_cost": HEADLINE_COST}
    path = out_dir.parent / f"{out_dir.name}.config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


# --- machine speed ------------------------------------------------------------
#
# The host is shared: the same command on the same input runs up to 1.5x
# slower in phases that last from seconds to minutes, and each CPU has
# its own phases. An untraced command is therefore stopped (SIGSTOP to
# its whole process group, pool workers included) every PAUSE_EVERY_S
# seconds, and resumed (SIGCONT) after this process has timed a fixed
# reference unit, of interpreter and small-array work like teamopt's own
# mix, on each CPU the command ran on since the last stop. The paused
# time is not counted. Each stretch of the command is converted to
# reference seconds, wall time x REF_NOMINAL_S / (reference time measured
# around it), so `setup_s` and `run_s` are seconds at a fixed machine
# speed; their wall times are kept in the result details. A reference
# timed on another CPU than the command's, or only before and after a
# whole command, does not follow the command's speed.

_REF_X = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
_REF_W = np.linspace(-0.5, 0.5, 40).reshape(8, 5)


def reference_unit() -> float:
    """Seconds one fixed unit of reference work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    for _ in range(800):
        h = _REF_X @ _REF_W
        np.maximum(h, 0.0, out=h)
        h.sum(axis=0)
    return time.perf_counter() - t0


def group_cpu_times(pgid: int) -> dict:
    """{pid: (last CPU, seconds on CPU)} for each process of group `pgid`."""
    found = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[2]) != pgid:  # field 5, the process group
                continue
            with open(f"/proc/{entry.name}/schedstat",
                      encoding="ascii") as fh:
                on_cpu_ns = int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the process has just exited
        found[int(entry.name)] = (int(fields[36]), on_cpu_ns / 1e9)  # 39
    return found


def reference_on(cpu_seconds: dict) -> float:
    """Reference time, averaged over CPUs weighted by `cpu_seconds`."""
    own = os.sched_getaffinity(0)
    total = sum(cpu_seconds.values())
    if total <= 0:
        return reference_unit()
    try:
        weighted = 0.0
        for cpu, busy in cpu_seconds.items():
            if busy > 0:
                os.sched_setaffinity(0, {cpu})
                weighted += busy * reference_unit()
    finally:
        os.sched_setaffinity(0, own)
    return weighted / total


def paced_seconds(pacing: dict, start: float, end: float) -> float:
    """Reference seconds spent running between monotonic `start`/`end`.

    Stretch i of `pacing["runs"]` ends at stop i, where reference i was
    timed; it counts at the median of the references of the two stops
    before it and the two after it.
    """
    refs = pacing["refs"]
    total = 0.0
    for i, (a, b) in enumerate(pacing["runs"]):
        overlap = min(b, end) - max(a, start)
        if overlap > 0:
            near = refs[max(0, i - 2):i + 2]
            total += overlap * REF_NOMINAL_S / statistics.median(near)
    return total


# --- one CLI process ---------------------------------------------------------

def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _wait_paced(proc: subprocess.Popen, started: float, timeout: float,
                pacing: dict | None) -> int:
    """Wait for `proc`, started at `started`; with `pacing`, stop it for
    references every PAUSE_EVERY_S seconds and log the stretches.

    Raises subprocess.TimeoutExpired after `timeout` seconds of wall time.
    """
    end = time.monotonic() + timeout
    if pacing is None:
        return proc.wait(timeout=timeout)
    seen = {}  # pid -> seconds on CPU at the last stop
    while True:
        try:
            code = proc.wait(timeout=max(0.0, min(PAUSE_EVERY_S,
                                                  end - time.monotonic())))
        except subprocess.TimeoutExpired:
            if time.monotonic() >= end:
                raise
        else:
            pacing["runs"].append((started, time.monotonic()))
            if not pacing["refs"]:  # ended before the first stop
                pacing["refs"].append(reference_unit())
            return code
        _signal_group(proc.pid, signal.SIGSTOP)
        pacing["runs"].append((started, time.monotonic()))
        try:
            busy = {}
            for pid, (cpu, on_cpu) in group_cpu_times(proc.pid).items():
                busy[cpu] = busy.get(cpu, 0.0) + on_cpu - seen.get(pid, 0.0)
                seen[pid] = on_cpu
            pacing["refs"].append(reference_on(busy))
        finally:
            started = time.monotonic()
            _signal_group(proc.pid, signal.SIGCONT)


def run_cli(w: Workload, config: Path, out_dir: Path, deadline: float,
            trace_dir: Path | None = None, setup_only: bool = False,
            paced: bool = False) -> Measurement:
    """Run one command; `paced` converts its times to reference seconds."""
    tag = out_dir.name
    timing_path = out_dir.parent / f"{tag}.timing.json"
    log_path = out_dir.parent / f"{tag}.log"
    argv = [sys.executable, str(BENCH_DIR / "launch.py"),
            "--timing", str(timing_path)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--", w.command, "--config", str(config)]
    if w.command == "sweep" and w.jobs > 1:
        argv += ["--jobs", str(w.jobs)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a command")
    pacing = {"runs": [], "refs": []} if paced else None
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=out_dir.parent,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = _wait_paced(proc, t0, timeout, pacing)
        except BaseException as e:
            _signal_group(proc.pid, signal.SIGKILL)  # the pool workers too
            _signal_group(proc.pid, signal.SIGCONT)
            proc.wait()
            if isinstance(e, subprocess.TimeoutExpired):
                raise BenchError(f"{tag} did not finish in time") from None
            raise
        t1 = time.monotonic()
    try:
        timing = json.loads(timing_path.read_text())
    except (OSError, ValueError):
        timing = {}
    m = Measurement(tag, code, None, None, None, timing, out_dir)
    m.pacing = pacing
    if code != 0:
        tail = log_path.read_text(errors="replace")[-1500:]
        m.problems.append(f"{tag}: exit code {code}: {tail}")
    if timing.get("threads_at_setup", 1) != 1:
        m.problems.append(f"{tag}: {timing['threads_at_setup']} threads at"
                          " set-up; BLAS and OpenMP should be pinned to 1")
    where = timing.get("teamopt_file", "")
    if where and not Path(where).resolve().is_relative_to(SRC):
        m.problems.append(f"{tag}: imported teamopt from {where}, not {SRC}")
    if "setup_done" in timing:
        done = timing["setup_done"]
        if pacing is None:
            m.setup_s, m.run_s = done - t0, t1 - done
        else:
            m.setup_s = paced_seconds(pacing, t0, done)
            m.run_s = paced_seconds(pacing, done, t1)
            m.wall_setup_s = sum(min(b, done) - a
                                 for a, b in pacing["runs"] if a < done)
            m.wall_run_s = sum(b - max(a, done)
                               for a, b in pacing["runs"] if b > done)
    if "maxrss_self_kb" in timing:
        m.peak_rss_mb = max(timing["maxrss_self_kb"],
                            timing["maxrss_children_kb"]) / 1024.0
    return m


# --- output checks -----------------------------------------------------------

def _finite_in(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and lo - 1e-12 <= value <= hi + 1e-12


def check_sweep(w: Workload, out_dir: Path) -> tuple[float | None, list]:
    """(headline team loss, problems) for a sweep's output files."""
    problems = []
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    if lines[0] != ("approach,cost,total_loss,classification_error,"
                    "query_rate,selected_lambda,seed"):
        return None, [f"sweep.csv: unexpected header {lines[0]!r}"]
    seen = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            key = (parts[0], float(parts[1]), int(parts[6]))
            total, err, qrate = (float(v) for v in parts[2:5])
        except (ValueError, IndexError):
            problems.append(f"sweep.csv:{lineno}: unparsable row {line!r}")
            continue
        if key in seen:
            problems.append(f"sweep.csv:{lineno}: duplicate row {key}")
        seen[key] = (total, err, qrate)
        if not (_finite_in(err, 0.0, 1.0) and _finite_in(qrate, 0.0, 1.0)
                and abs(total - (err + key[1] * qrate)) <= 1e-9):
            problems.append(f"sweep.csv:{lineno}: loss or rate out of range"
                            f" or inconsistent: {line!r}")
        if key[0] == "human-only" and qrate != 1.0:
            problems.append(f"sweep.csv:{lineno}: human-only must always"
                            " query")
    expected = [(a, s) for a in w.approaches for s in w.train_seeds]
    for a, s in expected:
        if any((a, c, s) not in seen for c in COSTS):
            problems.append(f"sweep.csv: cell approach={a} seed={s} missing")
    extra = {k for k in seen if (k[0], k[2]) not in expected or
             k[1] not in COSTS}
    if extra:
        problems.append(f"sweep.csv: unexpected rows {sorted(extra)[:3]}")

    records = {r["approach"]: {rec["c"]: rec for rec in r["records"]}
               for r in json.loads((out_dir / "sweep.json").read_text())}
    losses = {}
    for approach in (w.headline, "human-only"):
        rec = records.get(approach, {}).get(HEADLINE_COST)
        if rec is None:
            problems.append(f"sweep.json: no {approach} record at"
                            f" c={HEADLINE_COST}")
            continue
        losses[approach] = rec["total_loss"]
        rows = [seen[(approach, HEADLINE_COST, s)] for s in w.train_seeds
                if (approach, HEADLINE_COST, s) in seen]
        if rows and abs(statistics.fmean(r[0] for r in rows)
                        - rec["total_loss"]) > 1e-9:
            problems.append(f"sweep.json: {approach} mean disagrees with"
                            " sweep.csv")
    team_loss = losses.get(w.headline)
    if len(losses) == 2 and not team_loss < losses["human-only"]:
        problems.append(f"{w.headline} loss {team_loss} is not below"
                        f" human-only {losses['human-only']}")
    return team_loss, problems


def check_analyze(w: Workload, out_dir: Path) -> tuple[float | None, list]:
    """(headline team loss, problems) for analyze's output files."""
    problems = []
    table = json.loads((out_dir / "per_class.json").read_text())
    tree = json.loads((out_dir / "error_tree.json").read_text())
    if [row["class"] for row in table] != list(range(NUM_CLASSES)):
        problems.append("per_class.json: classes are not 0..K-1")
    n = sum(row["count"] for row in table)
    totals = {a: [0.0, 0.0] for a in w.approaches}  # team errors, queries
    missing = set()
    for row in table:
        for a in w.approaches:
            entry = row["systems"].get(a)
            if entry is None:
                missing.add(a)
                continue
            if row["count"] == 0:
                continue
            values = (entry["machine_error"], entry["team_error"],
                      entry["query_fraction"])
            if not all(_finite_in(v, 0.0, 1.0) for v in values):
                problems.append(f"per_class.json: class {row['class']} {a}:"
                                f" value out of range {values}")
            totals[a][0] += row["count"] * entry["team_error"]
            totals[a][1] += row["count"] * entry["query_fraction"]
    for a in sorted(missing):
        problems.append(f"per_class.json: system {a} missing")

    def leaves(node):
        if node["leaf_stats"] is not None:
            yield node["leaf_stats"]
        else:
            yield from leaves(node["left"])
            yield from leaves(node["right"])

    human_err, fraction = 0.0, 0.0
    for leaf in leaves(tree):
        rates = [leaf["human_error_rate"], *leaf["machine_error"].values()]
        if sorted(leaf["machine_error"]) != sorted(w.approaches) or \
                not all(_finite_in(v, 0.0, 1.0) for v in rates):
            problems.append(f"error_tree.json: bad leaf {leaf}")
        human_err += leaf["fraction"] * leaf["human_error_rate"]
        fraction += leaf["fraction"]
    if n == 0 or abs(fraction - 1.0) > 1e-9:
        problems.append("error_tree.json: leaf fractions do not sum to 1")
        return None, problems
    team_loss = None
    if w.headline not in missing:
        err, queries = totals[w.headline]
        team_loss = (err + HEADLINE_COST * queries) / n
        human_loss = human_err + HEADLINE_COST
        if not team_loss < human_loss:
            problems.append(f"{w.headline} loss {team_loss} is not below"
                            f" human-only {human_loss}")
    return team_loss, problems


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(w: Workload, m: Measurement) -> None:
    """Fill in m's team loss, output digest and problems."""
    if m.exit_code != 0:
        return
    check = check_sweep if w.command == "sweep" else check_analyze
    try:
        m.team_loss, problems = check(w, m.out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        m.problems.append(f"{m.tag}: unreadable outputs: {e!r}")
        return
    m.problems += [f"{m.tag}: {p}" for p in problems]
    m.digest = output_digest(m.out_dir)


def check_repeatable(w: Workload, seed: int, scale: Scale, work: Path,
                     digest: str) -> list:
    """Compare outputs with earlier runs of this seed and source tree."""
    scale_id = hashlib.sha256(repr(scale).encode()).hexdigest()[:8]
    store = work / "digests" / f"{w.name}-{scale_id}-{seed}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(store.read_text()) if store.exists() else {}
    src = source_digest()
    if src in known and known[src] != digest:
        return [f"outputs differ from an earlier run of seed {seed}"]
    known[src] = digest
    store.write_text(json.dumps(known))
    return []


# --- per-layer metrics from spans --------------------------------------------

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "data.load_csv_s": "s", "data.load_csv_rows_per_s": "rows/s",
    "data.generate_synthetic_s": "s",
    "tape.backward_calls": "count", "tape.backward_us": "us",
    "tape.nodes_per_step": "count",
    "numerics.steps": "count", "numerics.step_self_us": "us",
    "numerics.dropout_us": "us", "numerics.sgd_step_us": "us",
    "numerics.forward_batch_s": "s", "numerics.logits_batch_s": "s",
    "calibration.fit_calls": "count", "calibration.fit_ms": "ms",
    "calibration.fit_rows_mean": "count", "calibration.calibrate_batch_s": "s",
    "discriminative.train_solo_model_s": "s",
    "discriminative.train_query_policy_s": "s",
    "discriminative.train_joint_s": "s",
    "voi.train_fixed_voi_s": "s", "voi.train_joint_voi_s": "s",
    "voi.decision_parts_us_per_1k": "us",
    "evaluation.cost_sweep_s": "s", "evaluation.per_class_analysis_s": "s",
    "evaluation.human_error_tree_s": "s", "evaluation.emit_report_s": "s",
    "evaluation.pool_busy_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.run_in_spans_frac": "ratio",
}


def layer_metrics(main: list, workers: list, timing: dict,
                  traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer numbers over the spans of every process of one command.

    Totals are summed over processes, so with a pool they are busy time,
    not wall time. A layer the workload never calls reports 0.
    """
    spans = main + [s for ws in workers for s in ws]
    selfs = tracing.self_times(main)
    for ws in workers:
        selfs += tracing.self_times(ws)
    by_name: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[0], []).append((span[2] - span[1], own,
                                                span[4]))

    def total(name, col=0):
        return sum(r[col] for r in by_name.get(name, ()))

    def mean(name, col=0, scale=1.0):
        rows = by_name.get(name, ())
        return scale * total(name, col) / len(rows) if rows else 0.0

    def sizes(name):
        return sum(r[2] for r in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def size_per_call(name):
        return sizes(name) / count(name) if count(name) else 0.0

    load_s = total("data.load_csv")
    parts_rows = sizes("voi.voi_decision_parts")
    sweeps = by_name.get("evaluation.cost_sweep", ())
    pool_capacity = sum(dur * jobs for dur, _, jobs in sweeps)
    main_span = next(s for s in main if s[0] == "cli.main")
    values = {
        "cli.import_s": total("cli.import"),
        "data.load_csv_s": load_s,
        "data.load_csv_rows_per_s":
            sizes("data.load_csv") / load_s if load_s else 0.0,
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "tape.backward_calls": count("tape.backward"),
        "tape.backward_us": mean("tape.backward", scale=1e6),
        "tape.nodes_per_step": size_per_call("numerics.loss_and_grad"),
        "numerics.steps": count("numerics.loss_and_grad"),
        "numerics.step_self_us": mean("numerics.loss_and_grad", 1, 1e6),
        "numerics.dropout_us": mean("numerics.sample_dropout_masks",
                                    scale=1e6),
        "numerics.sgd_step_us": mean("numerics.sgd_step", scale=1e6),
        "numerics.forward_batch_s": total("numerics.forward_batch"),
        "numerics.logits_batch_s": total("numerics.logits_batch"),
        "calibration.fit_calls": count("calibration.PlattCalibrator.fit"),
        "calibration.fit_ms": mean("calibration.PlattCalibrator.fit",
                                   scale=1e3),
        "calibration.fit_rows_mean":
            size_per_call("calibration.PlattCalibrator.fit"),
        "calibration.calibrate_batch_s": total("calibration.calibrate_batch"),
        "discriminative.train_solo_model_s":
            total("discriminative.train_solo_model"),
        "discriminative.train_query_policy_s":
            total("discriminative.train_query_policy"),
        "discriminative.train_joint_s": total("discriminative.train_joint"),
        "voi.train_fixed_voi_s": total("voi.train_fixed_voi"),
        "voi.train_joint_voi_s": total("voi.train_joint_voi"),
        "voi.decision_parts_us_per_1k":
            (total("voi.voi_decision_parts") * 1e9 / parts_rows
             if parts_rows else 0.0),
        "evaluation.cost_sweep_s": total("evaluation.cost_sweep"),
        "evaluation.per_class_analysis_s":
            total("evaluation.per_class_analysis"),
        "evaluation.human_error_tree_s": total("evaluation.human_error_tree"),
        "evaluation.emit_report_s": total("evaluation.emit_report"),
        "evaluation.pool_busy_frac":
            total("evaluation.run_cell") / pool_capacity
            if pool_capacity else 0.0,
        "trace.overhead_frac": traced_run_s / untraced_run_s - 1.0,
        "trace.run_in_spans_frac":
            (main_span[2] - timing["setup_done"]) / traced_run_s,
    }
    return {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]}
            for k, v in values.items()}


def self_time_table(main: list, workers: list) -> list[str]:
    """Human-readable self time per span name, main process then workers."""
    lines = []
    for label, groups in (("main process", [main]), ("pool workers", workers)):
        agg: dict[str, list] = {}
        for spans in groups:
            for span, own in zip(spans, tracing.self_times(spans)):
                row = agg.setdefault(span[0], [0, 0.0])
                row[0] += 1
                row[1] += own
        if not agg:
            continue
        busy = sum(own for _, own in agg.values())
        lines.append(f"self time, {label}: {busy:.3f} s")
        for name, (calls, own) in sorted(agg.items(),
                                         key=lambda kv: -kv[1][1]):
            lines.append(f"  {name:40s} {calls:9d} calls {own:10.3f} s")
    return lines


# --- one benchmark run -------------------------------------------------------

def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads_env": THREAD_ENV}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: Scale = FULL, work: Path = WORK) -> dict:
    """Run one workload for one seed; returns the result and its details."""
    if not (SRC / "teamopt" / "cli.py").is_file():
        raise BenchError(f"no teamopt sources under {SRC}")
    w = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    csv_path = (ensure_csv(scale.csv_rows, seed, work)
                if w.command == "analyze" else None)
    run_dir = _fresh_dir(work / "runs" / f"{w.name}-{scale.label}")

    def command(tag, **kwargs):
        out_dir = _fresh_dir(run_dir / tag)
        config = write_config(w, seed, scale, out_dir, csv_path)
        return run_cli(w, config, out_dir, deadline, **kwargs)

    mains, probes = [], []
    start = time.monotonic()
    if trace:
        mains.append(command("untraced"))
        trace_dir = _fresh_dir(run_dir / "spans")
        mains.append(command("traced", trace_dir=trace_dir))
    else:
        # Repeat the command while one more fits in `seconds`, leaving
        # room for the set-up probes.
        while True:
            began = time.monotonic()
            mains.append(command(f"run{len(mains)}", paced=True))
            now = time.monotonic()
            took = now - began
            if mains[-1].setup_s is None:
                break
            probes_s = 2 * w.setup_probes * (mains[-1].wall_setup_s + 0.1)
            if now - start + took > seconds or \
                    now + took + probes_s >= deadline:
                break
        for i in range(w.setup_probes):
            probes.append(command(f"setup{i}", setup_only=True,
                                  paced=True))

    for m in mains:
        check_outputs(w, m)
    digests = {m.digest for m in mains}
    if len(digests) > 1:
        mains[-1].problems.append(
            "outputs differ between commands of this run"
            + (" (traced vs untraced)" if trace else ""))
    elif None not in digests:
        mains[0].problems += check_repeatable(w, seed, scale, work,
                                              digests.pop())
    problems = [p for m in mains + probes for p in m.problems]
    failed = sum(1 for m in mains + probes if m.problems)

    timed = [m for m in mains if m.run_s is not None]
    if not timed:
        raise BenchError("no command got past set-up: "
                         + "; ".join(problems)[:3000])
    details = {"workload": w.name, "seed": seed, "scale": scale.label,
               "problems": problems,
               "commands": [{"tag": m.tag, "exit_code": m.exit_code,
                             "setup_s": m.setup_s, "run_s": m.run_s,
                             "wall_setup_s": m.wall_setup_s,
                             "wall_run_s": m.wall_run_s,
                             "references": (len(m.pacing["refs"])
                                            if m.pacing else 0),
                             "peak_rss_mb": m.peak_rss_mb,
                             "team_loss": m.team_loss,
                             "threads_at_setup":
                                 m.timing.get("threads_at_setup")}
                            for m in mains + probes],
               "pacing": [m.pacing for m in mains + probes]}
    if trace:
        untraced, traced = mains
        if untraced.run_s is None or traced.run_s is None:
            raise BenchError("traced run did not complete: "
                             + "; ".join(problems)[:3000])
        main_spans, workers = tracing.load_spans(str(trace_dir),
                                                 traced.timing["pid"])
        metrics = layer_metrics(main_spans, workers, traced.timing,
                                traced.run_s, untraced.run_s)
        details["self_time"] = self_time_table(main_spans, workers)
        details["worker_processes"] = len(workers)
    else:
        team_losses = [m.team_loss for m in mains if m.team_loss is not None]
        if not team_losses:
            raise BenchError("no team loss to report: "
                             + "; ".join(problems)[:3000])
        metrics = {
            "setup_s": statistics.median(
                m.setup_s for m in mains + probes if m.setup_s is not None),
            "run_s": statistics.median(m.run_s for m in timed),
            "peak_rss_mb": statistics.median(m.peak_rss_mb for m in timed),
            "team_loss": team_losses[0],
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                 "team_loss": "loss"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}
    result = {"correct": not problems, "attempted": len(mains) + len(probes),
              "failed": failed, "metrics": metrics}
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="teamopt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # On SIGTERM, unwind so that run_cli kills (and resumes, if stopped)
    # the command's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    details = out["details"]
    for line in details.pop("self_time", []):
        print(line)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    facts = machine_facts()
    record = {"machine": facts, **details, **out["result"]}
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"machine": facts, "commands": details["commands"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
