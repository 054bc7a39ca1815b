"""Team evaluation: metrics, cost sweeps, analyses, and report files.

The headline metric is total loss: utility-weighted classification error
plus query cost times query rate. `cost_sweep` trains the four approaches
over seeds, selects the joint variants' cost weight per cost point on the
validation split, and reports test metrics. Analyses mirror the usual
diagnostics for a human-machine team: per-class error and query tables
and a shallow Gini tree over the human-error event. Reports are written
deterministically so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import Dataset, split
from .discriminative import TeamConfig, decide, train_fixed, train_joint
from .errors import ConfigError, InputError, TeamoptError
from .numerics import TrainConfig
from .voi import train_fixed_voi, train_joint_voi

logger = logging.getLogger(__name__)

SPLIT_FRACTIONS = (0.7, 0.15, 0.15)


# --- metrics -------------------------------------------------------------

def weighted_error(pred_labels: np.ndarray, labels: np.ndarray,
                   utility: np.ndarray) -> float:
    """Mean utility shortfall U[y][y] - U[pred][y]; plain error for identity."""
    U = np.asarray(utility, dtype=np.float64)
    return float((U[labels, labels] - U[pred_labels, labels]).mean())


def team_metrics_arrays(pred_labels: np.ndarray, queried: np.ndarray,
                        labels: np.ndarray, team: TeamConfig) -> dict:
    pred_labels = np.asarray(pred_labels)
    labels = np.asarray(labels)
    queried = np.asarray(queried, dtype=bool)
    if not (len(pred_labels) == len(labels) == len(queried)):
        raise InputError("predictions, labels and query flags must align")
    if len(labels) == 0:
        raise InputError("no predictions to score")
    U, c = team.utility, team.query_cost
    err = weighted_error(pred_labels, labels, U)
    query_rate = float(queried.mean())
    mean_utility = float((U[pred_labels, labels] - c * queried).mean())
    return {"total_loss": err + c * query_rate,
            "classification_error": err,
            "mean_utility": mean_utility,
            "query_rate": query_rate}


def human_only_baseline(dataset: Dataset, team: TeamConfig) -> dict:
    """Always query, output the human response."""
    return team_metrics_arrays(dataset.h, np.ones(len(dataset), dtype=bool),
                               dataset.y, team)


# --- cost sweep ----------------------------------------------------------

@dataclass
class SweepCell:
    """One (approach, seed) unit of work; rows are per-cost test metrics.

    A failed cell has no rows, `error` reads "ErrorType: message", and
    `iteration` is the failing training step when the error names one.
    """

    approach: str
    seed: int
    rows: list  # (cost, total_loss, classification_error, query_rate, lam)
    error: str | None = None
    iteration: int | None = None

    @classmethod
    def failed(cls, approach: str, seed: int, e: Exception) -> "SweepCell":
        return cls(approach, seed, [], f"{type(e).__name__}: {e}",
                   getattr(e, "iteration", None))

    def failure(self) -> dict:
        """The failed cell's `sweep.json` entry."""
        error_type, _, message = self.error.partition(": ")
        entry = {"approach": self.approach, "seed": self.seed,
                 "error": error_type, "message": message}
        if self.iteration is not None:
            entry["iteration"] = self.iteration
        return entry


@dataclass
class SweepResult:
    """One approach's seed-averaged records. `failures` holds one entry
    per failed cell (`SweepCell.failure`), derived from `cells` unless
    given, and `sweep.json` carries it only when something failed."""

    approach: str
    records: list  # per-cost dicts, seed-averaged
    seeds: list  # the seeds of the cells `records` averages
    dataset: str
    cells: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def __post_init__(self):
        if not self.failures:
            self.failures = [c.failure() for c in self.cells
                             if c.error is not None]

    def as_json_dict(self) -> dict:
        out = {"approach": self.approach, "records": self.records,
               "seeds": list(self.seeds), "dataset": self.dataset}
        if self.failures:
            out["failures"] = self.failures
        return out


def _row(c: float, metrics: dict, lam: float | None) -> tuple:
    return (c, metrics["total_loss"], metrics["classification_error"],
            metrics["query_rate"], lam)


def _score(parts, ds: Dataset, team: TeamConfig, c: float) -> dict:
    """Team metrics on `ds` of the decisions behind `parts` at cost c."""
    labels, queried = decide(parts, ds.h, c)
    return team_metrics_arrays(labels, queried, ds.y, team.with_cost(c))


@dataclass
class _Run:
    """One seed of a work unit: its seeded config and its splits, row
    indices into the work unit's dataset until the seed is scored."""

    cfg: TrainConfig
    tr: Dataset
    va: Dataset
    te: Dataset


def _trained(train, runs) -> list:
    """`train(runs)` with the runs trained as one stack: per run, its
    result, or the exception that training it alone raises. An exception
    in `runs` is a run that failed earlier and stays as it is.

    A divergence names its run (`TrainingError.run`): that run fails with
    it, and the others train again without it. Any other failure of a
    stack of several runs trains each of them alone.
    """
    live = [i for i, r in enumerate(runs) if not isinstance(r, Exception)]
    out = list(runs)
    if not live:
        return out
    try:
        results = train([runs[i] for i in live])
    except Exception as e:  # failures recorded per run, the rest go on
        failed = getattr(e, "run", None)
        if len(live) == 1:
            out[live[0]] = e
        elif failed is None:
            for i in live:
                out[i] = _trained(train, [runs[i]])[0]
        else:
            out[live[failed]] = e
            out = _trained(train, out)
        return out
    for i, result in zip(live, results):
        out[i] = result
    return out


def _reference_team(team: TeamConfig, costs) -> TeamConfig:
    """`team` at the median of `costs`, the cost a joint approach trains
    at: the middle value, or (a + b) / 2 of the middle two, which are
    np.median's bits. np.median itself loads numpy.ma, and
    statistics.median decimal and fractions, for the rest of the process.
    """
    grid = sorted(costs)
    mid = len(grid) // 2
    c = grid[mid] if len(grid) % 2 else (grid[mid - 1] + grid[mid]) / 2
    return team.with_cost(float(c))


# The approaches a sweep runs. human-only trains nothing: it always
# queries and outputs the human response.
TRAINED = ("fixed-disc", "joint-disc", "fixed-voi", "joint-voi")
APPROACHES = TRAINED + ("human-only",)


def check_grid(approaches, costs, lambda_grid, seeds) -> None:
    """ConfigError unless every approach is known and `approaches`,
    `costs`, `lambda_grid` and `seeds` are all nonempty."""
    unknown = [a for a in approaches if a not in APPROACHES]
    if unknown:
        raise ConfigError(f"unknown approaches {unknown};"
                          f" known: {list(APPROACHES)}")
    if not all(map(len, (approaches, costs, lambda_grid, seeds))):
        raise ConfigError("approaches, costs, lambda_grid and seeds must be"
                          " nonempty")


def check_sweep(approaches, costs, lambda_grid, seeds, jobs: int) -> tuple:
    """The grid a sweep runs: (approach names, costs, λ grid, seeds), the
    first three deduplicated and sorted, the seeds as ints in config
    order. What `check_grid` rejects, negative or non-finite costs or λ
    values, a seed that is not a non-negative integer, a repeated seed,
    and `jobs` < 1 raise ConfigError."""
    check_grid(approaches, costs, lambda_grid, seeds)
    costs = [float(c) for c in costs]
    lam_grid = [float(v) for v in lambda_grid]
    values = np.array(costs + lam_grid)
    if not (np.isfinite(values) & (values >= 0)).all():
        raise ConfigError("costs and lambda grid must be finite and"
                          " non-negative")
    if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in seeds):
        raise ConfigError(f"seeds must be non-negative integers: {seeds}")
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must not repeat: {seeds}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return (sorted(set(approaches)), sorted(set(costs)),
            sorted(set(lam_grid)), seeds)


def _runs(dataset: Dataset, seeds, cfg: TrainConfig) -> list:
    """Per seed, its `_Run` with `cfg` seeded to it, or the exception
    that seeding or splitting raised."""
    runs = []
    for seed in seeds:
        try:
            # replace rejects a bad seed before the split
            runs.append(_Run(replace(cfg, seed=seed),
                             *split(dataset, SPLIT_FRACTIONS, seed)))
        except Exception as e:  # the seed's cell fails, the rest go on
            runs.append(e)
    return runs


def _systems(approach: str, runs, costs, lam_grid, team: TeamConfig,
             shared: dict) -> list:
    """The trained `approach` on each of `runs` (`_Run`s, or exceptions),
    all runs as one stack: per run, its list of systems, or its failure
    (see `_trained`). fixed-disc gives one system per cost, a joint
    approach one per λ in `lam_grid`, trained at the median cost, and
    fixed-voi one.

    fixed-voi scores the fixed-VOI systems and joint-voi warm-starts from
    them, so they are trained once per `shared` dict. A dict lives for
    one work unit: one group of seeds, their splits, one team and config.
    Trainers are looked up when called, so wrappers put on the
    module-level functions (e.g. tracing spans) see them.
    """
    fits = [r if isinstance(r, Exception) else (r.tr, r.cfg) for r in runs]
    if approach == "fixed-disc":
        return _trained(lambda fits: train_fixed(fits, team, costs), fits)
    c_ref = _reference_team(team, costs)
    if approach == "joint-disc":
        return _trained(lambda fits: train_joint(fits, c_ref, lam_grid), fits)
    if "fixed-voi" not in shared:
        shared["fixed-voi"] = _trained(
            lambda fits: train_fixed_voi(fits, team), fits)
    starts = shared["fixed-voi"]
    if approach == "fixed-voi":
        return [s if isinstance(s, Exception) else [s] for s in starts]
    # a run whose fixed-VOI training failed fails here the same way
    fits = [s if isinstance(s, Exception) else (*fit, s)
            for fit, s in zip(fits, starts)]
    return _trained(lambda fits: train_joint_voi(fits, c_ref, lam_grid), fits)


def _decisions(approach: str, costs, team: TeamConfig, run: _Run,
               systems) -> list:
    """Per cost, the `DecisionParts` on `run`'s test split of the system
    that decides at that cost, and the λ it reports: fixed-disc's policy
    for the cost, the only system when there is one, or else the variant
    with the lowest validation total loss (ties: smaller λ). Each chosen
    system's test parts are computed once; fixed-voi reports λ None."""
    if approach == "fixed-disc":
        chosen = range(len(costs))
    elif len(systems) == 1:
        chosen = [0] * len(costs)
    else:
        va_parts = [s.parts(run.va.X) for s in systems]
        chosen = [min(range(len(systems)), key=lambda i: _score(
            va_parts[i], run.va, team, c)["total_loss"]) for c in costs]
    te_parts = {i: systems[i].parts(run.te.X) for i in dict.fromkeys(chosen)}
    return [(te_parts[i], None if approach == "fixed-voi"
             else systems[i].train_cfg.cost_weight) for i in chosen]


# Approaches that run as one work unit when both are requested, so that
# one fixed-VOI training serves both cells of each seed.
_SHARED_UNIT = ("fixed-voi", "joint-voi")


def _work_units(names) -> list[tuple[str, ...]]:
    """The sweep's work units for sorted approach names:
    `_SHARED_UNIT` when all of its approaches are requested, and every
    other approach on its own; the shared unit, the heaviest, first, and
    the untrained one last."""
    units = [(a,) for a in names]
    if set(_SHARED_UNIT) <= set(names):
        units = [_SHARED_UNIT] + [u for u in units if u[0] not in _SHARED_UNIT]
    return sorted(units, key=lambda unit: unit[0] not in TRAINED)


def _seed_groups(seeds: list, k: int) -> list[list]:
    """`seeds` in config order, cut into min(k, len(seeds)) contiguous
    groups of near-equal size: the seeds of one work unit each."""
    k = min(k, len(seeds))
    q, r = divmod(len(seeds), k)
    return [seeds[i * q + min(i, r):(i + 1) * q + min(i + 1, r)]
            for i in range(k)]


# The most seeds one work unit trains as a stack. Past a few seeds a
# stack saves little more time per seed, while its memory keeps growing.
MAX_STACK_SEEDS = 4


def _work_plan(names, seeds: list, jobs: int) -> list[tuple]:
    """The sweep's work units as (approaches, seeds) pairs, in
    `_work_units` order, so that the units that train are submitted
    before those that do not.

    Every unit's seeds are cut into the same k contiguous groups
    (`_seed_groups`): as few as keep each group within MAX_STACK_SEEDS,
    and, when fewer units train than the pool has `jobs` workers, enough
    that each worker can get one. A unit that trains nothing does not
    count.
    """
    units = _work_units(names)
    trained = sum(unit[0] in TRAINED for unit in units) or 1
    S = len(seeds)
    k = min(S, max(-(-S // MAX_STACK_SEEDS), -(-jobs // trained)))
    return [(unit, group) for unit in units
            for group in _seed_groups(seeds, k)]


def _approach_cells(approach, dataset, seeds, costs, lam_grid, team, cfg,
                    shared) -> list[SweepCell]:
    """`approach` on `dataset` at each of `seeds`, the seeds trained as
    one stack and scored one at a time: one cell per seed."""
    runs = _runs(dataset, seeds, cfg)
    trains = approach in TRAINED
    trained = _systems(approach, runs, costs, lam_grid, team, shared) \
        if trains else runs
    cells = []
    for seed, run, systems in zip(seeds, runs, trained):
        try:
            for outcome in (run, systems):
                if isinstance(outcome, Exception):
                    raise outcome
            # the seed's validation and test rows, gathered while it is
            # scored and freed before the next seed is
            run = replace(run, va=run.va.gathered(), te=run.te.gathered())
            if trains:
                rows = [_row(c, _score(parts, run.te, team, c), lam)
                        for c, (parts, lam) in zip(costs, _decisions(
                            approach, costs, team, run, systems))]
            else:
                rows = [_row(c, human_only_baseline(
                    run.te, team.with_cost(c)), None) for c in costs]
            cells.append(SweepCell(approach, seed, rows))
        except Exception as e:  # failures recorded per cell, sweep continues
            cells.append(SweepCell.failed(approach, seed, e))
    return cells


def analysis_parts(approaches, dataset: Dataset, seed: int,
                   team: TeamConfig, cfg: TrainConfig
                   ) -> tuple[Dataset, dict]:
    """`dataset`'s test split at `seed`, and each trained approach of
    `approaches` by name to its `DecisionParts` on it: trained once,
    however often it is named, at `seed` alone, at `team`'s query cost
    and `cfg`'s cost weight, as a sweep trains it. What the seed's split
    or training raised is raised."""
    [run] = _runs(dataset, (seed,), cfg)
    if isinstance(run, Exception):
        raise run
    te, parts, shared = run.te.gathered(), {}, {}
    for approach in (a for a in dict.fromkeys(approaches) if a in TRAINED):
        logger.info("training %s for analysis at seed %d", approach, seed)
        [systems] = _systems(approach, [run], (team.query_cost,),
                             (cfg.cost_weight,), team, shared)
        if isinstance(systems, Exception):
            raise systems
        [system] = systems
        parts[approach] = system.parts(te.X)
    return te, parts


# The sweep whose work units this process runs: (dataset, costs, λ grid,
# team, train config). It is set once per process, in this one for a
# serial sweep and in each pool worker by the pool's initializer, so a
# work unit carries only its approaches and seeds and a forked worker
# shares the dataset it inherits instead of unpickling one per unit.
_sweep: tuple | None = None


def _enter_sweep(sweep: tuple | None) -> None:
    """Make `sweep` the one `_run_cell` runs units of; None clears it."""
    global _sweep
    _sweep = sweep


def _run_cell(item) -> tuple[list[SweepCell], float]:
    """Run one work unit, (approaches, seeds), of the entered sweep:
    each of its approaches over its group of seeds, the seeds trained as
    one replica stack and scored one at a time; one cell per approach
    and seed, and the unit's wall seconds.

    A failing approach or seed fails only its own cell, also within a
    unit, with the error its one-seed run gives; the unit's other cells
    keep the results they get alone.
    """
    start = time.perf_counter()
    approaches, seeds = item
    dataset, costs, lam_grid, team, cfg = _sweep
    shared = {}
    cells = [cell for approach in approaches
             for cell in _approach_cells(approach, dataset, seeds, costs,
                                         lam_grid, team, cfg, shared)]
    return cells, time.perf_counter() - start


def _finished(item, cells: list[SweepCell], seconds: float | None
              ) -> list[SweepCell]:
    """Log work unit `item`'s line and return its cells; `seconds` is
    None when its worker died."""
    approaches, seeds = item
    logger.info("work unit finished: approaches=%s seeds=%s seconds=%s"
                " failed=%d", ",".join(approaches),
                ",".join(map(str, seeds)),
                "-" if seconds is None else f"{seconds:.3f}",
                sum(c.error is not None for c in cells))
    return cells


def _run_pool(work: list, workers: int, sweep: tuple
              ) -> list[list[SweepCell]]:
    """`_run_cell` over `work` in a pool of `workers` processes, each of
    which enters `sweep` once as it starts, each unit logged as it is
    collected (`_finished`).

    A unit whose worker died fails one cell per approach and seed of the
    unit; units that completed keep their rows.
    """
    # Imported here: the pool's modules cost a serial run ~20 ms start-up.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    units = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_enter_sweep,
                             initargs=(sweep,)) as pool:
        futures = [pool.submit(_run_cell, item) for item in work]
        for item, future in zip(work, futures):
            try:
                units.append(_finished(item, *future.result()))
            except BrokenProcessPool as e:
                approaches, seeds = item
                units.append(_finished(item, [
                    SweepCell.failed(a, seed, e)
                    for a in approaches for seed in seeds], None))
    return units


def _lambda_mode(values) -> float | None:
    counts = Counter(v for v in values if v is not None)
    return max(counts, key=lambda v: (counts[v], -v), default=None)


def cost_sweep(dataset: Dataset, approaches, costs, lambda_grid, seeds,
               team: TeamConfig | None = None,
               train_cfg: TrainConfig | None = None,
               jobs: int = 1) -> list[SweepResult]:
    """Train and score every approach across seeds and query costs: one
    SweepResult per approach, in name order.

    Fixed approaches rebuild their query mechanism per cost; joint
    approaches train one variant per λ in `lambda_grid` at the median
    cost, and each cost keeps the variant with the lowest validation
    total loss. A failed cell (one approach at one seed) fails alone: it
    is logged, left out of its result's averages and `seeds`, and listed
    in its `failures`. With `jobs` > 1 the work units (`_work_plan`) run
    in a pool of at most `jobs` processes; the reports do not depend on
    it. README.md ("Command line") describes the work units, the seed
    stacks, the pool and the failures. What `check_sweep` rejects raises
    ConfigError before any cell starts.
    """
    names, costs, lam_grid, seeds = check_sweep(approaches, costs,
                                                lambda_grid, seeds, jobs)
    team = team or TeamConfig.accuracy(dataset.num_classes)
    cfg = train_cfg or TrainConfig()
    sweep = (dataset, costs, lam_grid, team, cfg)
    work = _work_plan(names, seeds, jobs)
    try:
        if jobs > 1:
            units = _run_pool(work, min(jobs, len(work)), sweep)
        else:
            _enter_sweep(sweep)
            units = [_finished(item, *_run_cell(item)) for item in work]
    finally:
        _enter_sweep(None)
    cells = [cell for unit in units for cell in unit]

    results = []
    by_approach = {a: [c for c in cells if c.approach == a] for a in names}
    for approach in names:
        good = [c for c in by_approach[approach] if c.error is None]
        for cell in by_approach[approach]:
            if cell.error is not None:
                logger.error("sweep cell failed: approach=%s seed=%d: %s",
                             cell.approach, cell.seed, cell.error)
        records = []
        if good:
            for i, c in enumerate(costs):
                rows = [cell.rows[i] for cell in good]
                records.append({
                    "c": c,
                    "total_loss": float(np.mean([r[1] for r in rows])),
                    "classification_error":
                        float(np.mean([r[2] for r in rows])),
                    "query_rate": float(np.mean([r[3] for r in rows])),
                    "selected_lambda": _lambda_mode([r[4] for r in rows])})
        results.append(SweepResult(approach, records,
                                   [cell.seed for cell in good],
                                   dataset.name, by_approach[approach]))
    return results


# --- analyses ------------------------------------------------------------

def per_class_analysis(parts: dict, dataset: Dataset, cost: float) -> list:
    """Per-class machine error, team error and query fraction per system.

    `parts` maps each system's name to its `DecisionParts` on
    `dataset.X`; the team decides at query cost `cost`.
    """
    outputs = {}
    for name, p in sorted(parts.items()):
        outputs[name] = (p.machine, *decide(p, dataset.h, cost))
    rows = []
    for k in range(dataset.num_classes):
        mask = dataset.y == k
        count = int(mask.sum())
        entry = {"class": k, "count": count, "systems": {}}
        for name, (machine, team_lbl, queried) in outputs.items():
            if count == 0:  # class absent: flagged empty row, not an error
                entry["systems"][name] = {"machine_error": None,
                                          "team_error": None,
                                          "query_fraction": None}
            else:
                entry["systems"][name] = {
                    "machine_error": float((machine[mask] != k).mean()),
                    "team_error": float((team_lbl[mask] != k).mean()),
                    "query_fraction": float(queried[mask].mean())}
        rows.append(entry)
    return rows


@dataclass
class ErrorRegionTree:
    """Axis-aligned threshold tree over the human-error event h != y.

    Interior nodes route x[feature_index] <= threshold to `left`; leaves
    carry `leaf_stats`: instance fraction, human error rate, and each
    named system's machine error rate on the leaf. The fields are in the
    key order of `error_tree.json`, which holds `dataclasses.asdict` of
    the tree.
    """

    feature_index: int | None = None
    threshold: float | None = None
    left: "ErrorRegionTree | None" = None
    right: "ErrorRegionTree | None" = None
    leaf_stats: dict | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_stats is not None

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def leaf_of(self, x: np.ndarray) -> "ErrorRegionTree":
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature_index] <= node.threshold \
                else node.right
        return node


def _best_split(X: np.ndarray, target: np.ndarray, idx: np.ndarray,
                min_count: int) -> tuple[int, float] | None:
    """Gini-impurity split search; ties favor low feature, low threshold."""
    t = target[idx].astype(np.float64)
    m = len(idx)
    total_pos = t.sum()
    parent = m * 2.0 * (total_pos / m) * (1.0 - total_pos / m)
    best = (parent - 1e-12, None, None)
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        pos_l = np.cumsum(t[order])[:-1]
        n_l = np.arange(1, m, dtype=np.float64)
        n_r = m - n_l
        pos_r = total_pos - pos_l
        score = (n_l * 2.0 * (pos_l / n_l) * (1.0 - pos_l / n_l)
                 + n_r * 2.0 * (pos_r / n_r) * (1.0 - pos_r / n_r))
        valid = ((xs_sorted[1:] > xs_sorted[:-1]) & (n_l >= min_count)
                 & (n_r >= min_count))
        if not valid.any():
            continue
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))
        if score[i] < best[0]:
            best = (score[i], j, (xs_sorted[i] + xs_sorted[i + 1]) / 2.0)
    if best[1] is None:
        return None
    return best[1], float(best[2])


def human_error_tree(dataset: Dataset, parts: dict | None = None,
                     max_depth: int = 2, min_leaf_fraction: float = 0.05
                     ) -> ErrorRegionTree:
    """Greedy CART-style tree predicting where the human errs.

    Leaves carry the machine error of each system in `parts`, which maps
    a name to that system's `DecisionParts` on `dataset.X`.
    """
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if not 0.0 <= min_leaf_fraction < 1.0:
        raise ConfigError("min_leaf_fraction must be in [0, 1)")
    n = len(dataset)
    target = dataset.h != dataset.y
    machine = {name: p.machine for name, p in sorted((parts or {}).items())}
    min_count = max(1, int(np.floor(min_leaf_fraction * n)))

    def leaf(idx: np.ndarray) -> ErrorRegionTree:
        stats_d = {"fraction": len(idx) / n,
                   "count": int(len(idx)),
                   "human_error_rate": float(target[idx].mean()),
                   "machine_error": {
                       name: float((lbl[idx] != dataset.y[idx]).mean())
                       for name, lbl in machine.items()}}
        return ErrorRegionTree(leaf_stats=stats_d)

    def grow(idx: np.ndarray, depth: int) -> ErrorRegionTree:
        if depth == max_depth or len(idx) < 2 * min_count \
                or target[idx].all() or not target[idx].any():
            return leaf(idx)
        found = _best_split(dataset.X, target, idx, min_count)
        if found is None:
            return leaf(idx)
        j, theta = found
        goes_left = dataset.X[idx, j] <= theta
        return ErrorRegionTree(j, theta,
                               grow(idx[goes_left], depth + 1),
                               grow(idx[~goes_left], depth + 1))

    return grow(np.arange(n), 0)


# --- report emission -------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    """XML character data: `&`, `<` and `>` escaped, as in
    `xml.sax.saxutils.escape`, whose import chain costs ~35 ms start-up."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_loss_svg(results: list[SweepResult]) -> str:
    """Hand-rolled 640 x 420 line plot of mean total loss vs query cost."""
    width, height = 640, 420
    ml, mr, mt, mb = 62, 20, 34, 48
    series = [(r.approach, [(rec["c"], rec["total_loss"])
                            for rec in r.records])
              for r in results]
    series = [(name, pts) for name, pts in series if pts]
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    y0 = min(0.0, min(ys)) if ys else 0.0
    y1 = max(ys) * 1.08 if ys and max(ys) > 0 else 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
             f' height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             '<g font-family="sans-serif" font-size="11" fill="#333">']
    ax = ('stroke="#333" stroke-width="1"')
    parts.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}"'
                 f' y2="{height - mb}" {ax}/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}"'
                 f' {ax}/>')
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        xp, yp = _fmt(px(xv)), _fmt(py(yv))
        parts.append(f'<line x1="{xp}" y1="{height - mb}" x2="{xp}"'
                     f' y2="{height - mb + 4}" {ax}/>')
        parts.append(f'<text x="{xp}" y="{height - mb + 16}"'
                     f' text-anchor="middle">{_fmt(xv)}</text>')
        parts.append(f'<line x1="{ml - 4}" y1="{yp}" x2="{ml}" y2="{yp}"'
                     f' {ax}/>')
        parts.append(f'<text x="{ml - 7}" y="{yp}" text-anchor="end"'
                     f' dominant-baseline="middle">{_fmt(yv)}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2}" y="{height - 10}"'
                 f' text-anchor="middle">query cost</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2}"'
                 f' text-anchor="middle" transform="rotate(-90 14'
                 f' {(mt + height - mb) / 2})">total loss</text>')
    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' \
            if name.startswith(("fixed", "human")) else ""
        coords = " ".join(f"{_fmt(px(c))},{_fmt(py(v))}" for c, v in pts)
        parts.append(f'<polyline points="{coords}" fill="none"'
                     f' stroke="{color}" stroke-width="1.8"{dash}/>')
        for c, v in pts:
            parts.append(f'<circle cx="{_fmt(px(c))}" cy="{_fmt(py(v))}"'
                         f' r="2.6" fill="{color}"/>')
        ly = mt + 8 + 15 * k
        lx = width - mr - 150
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}"'
                     f' stroke="{color}" stroke-width="1.8"{dash}/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}">'
                     f'{_escape(name)}</text>')
    parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_file(path: Path, text: str) -> str:
    """Replace `path` with `text` atomically: the text goes to a temporary
    file in the same directory, which `os.replace` then moves over the
    target. A failed write leaves the previous file intact and removes
    the temporary one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as e:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise TeamoptError(f"failed writing {path}: {e}") from e
    return str(path)


def sweep_csv_text(results: list[SweepResult]) -> str:
    header = ("approach,cost,total_loss,classification_error,query_rate,"
              "selected_lambda,seed")
    lines = [header]
    for r in results:
        for cell in r.cells:
            if cell.error is not None:
                continue
            for cost, total, err, qrate, lam in cell.rows:
                lam_s = "" if lam is None else repr(float(lam))
                lines.append(f"{r.approach},{cost!r},{total!r},{err!r},"
                             f"{qrate!r},{lam_s},{cell.seed}")
    return "\n".join(lines) + "\n"


def emit_report(results: list[SweepResult], out_dir,
                formats=("json", "csv", "svg")) -> list[str]:
    """Write sweep.json / sweep.csv / loss_vs_cost.svg; returns paths.

    JSON holds the seed-averaged records and, for an approach with failed
    cells, their `failures`: results rebuilt from it with
    `SweepResult(**d)` re-emit it byte-identically. The CSV carries the
    per-seed rows of `cells`, which the JSON leaves out.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise TeamoptError(f"cannot create output dir {out}: {e}") from e
    written = []
    if "json" in formats:
        payload = [r.as_json_dict() for r in results]
        written.append(write_file(out / "sweep.json", dump_json(payload)))
    if "csv" in formats:
        written.append(write_file(out / "sweep.csv", sweep_csv_text(results)))
    if "svg" in formats:
        written.append(write_file(out / "loss_vs_cost.svg",
                                  render_loss_svg(results)))
    return written
