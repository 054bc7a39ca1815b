"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, through `run.run_benchmark` at
the TINY scale, in a scratch directory of its own. It fails (exit 1)
unless every run is correct and emits exactly the metrics BENCHMARK.json
names, with their units, and unless corrupted copies of each workload's
outputs fail the output checks.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import run

SELFTEST_WORK = run.WORK / "selftest"


def _corruptions(command: str):
    """(label, edit) pairs; each edit damages an output directory."""
    if command == "sweep":
        def drop_row(out):
            path = out / "sweep.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:-1]))

        def nan_loss(out):
            path = out / "sweep.csv"
            lines = path.read_text().splitlines(keepends=True)
            parts = lines[1].split(",")
            parts[2] = "nan"
            lines[1] = ",".join(parts)
            path.write_text("".join(lines))

        return [("missing cell row", drop_row), ("NaN loss", nan_loss)]

    def bad_rate(out):
        path = out / "per_class.json"
        table = json.loads(path.read_text())
        entry = next(iter(table[0]["systems"].values()))
        entry["query_fraction"] = 1.5
        path.write_text(json.dumps(table))

    def drop_system(out):
        path = out / "error_tree.json"
        text = path.read_text().replace('"joint-voi"', '"joint-voi-gone"')
        path.write_text(text)

    return [("rate above 1", bad_rate), ("system missing", drop_system)]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(SELFTEST_WORK, ignore_errors=True)
    failures = []
    for name, w in run.WORKLOADS.items():
        for trace in (0, 1):
            out = run.run_benchmark(name, 7, 0, bool(trace), scale=run.TINY,
                                    work=SELFTEST_WORK)
            result = out["result"]
            label = f"{name} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: not correct:"
                                f" {out['details']['problems']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{label}: metrics {got} != {wanted[trace]}")
            if not all(math.isfinite(v["value"])
                       for v in result["metrics"].values()):
                failures.append(f"{label}: non-finite metric value")
            json.loads(json.dumps(result, allow_nan=False))
            print(f"ok  {label}: {json.dumps(result)[:160]}")

        run_dir = SELFTEST_WORK / "runs" / f"{name}-{run.TINY.label}"
        for what, damage in _corruptions(w.command):
            copy = run_dir / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(run_dir / "untraced", copy)
            damage(copy)
            m = run.Measurement("corrupt", 0, None, None, None, {}, copy)
            run.check_outputs(w, m)
            if not m.problems:
                failures.append(f"{name}: {what} was not detected")
            else:
                print(f"ok  {name}: {what} detected: {m.problems[0][:100]}")
        # A changed byte anywhere must fail the repeatability check.
        copy = run_dir / "corrupt"
        shutil.rmtree(copy)
        shutil.copytree(run_dir / "untraced", copy)
        target = sorted(copy.iterdir())[0]
        target.write_bytes(target.read_bytes() + b" ")
        if not run.check_repeatable(w, 7, run.TINY, SELFTEST_WORK,
                                    run.output_digest(copy)):
            failures.append(f"{name}: changed output bytes not detected")
        else:
            print(f"ok  {name}: changed output bytes detected")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
