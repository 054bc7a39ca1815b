"""Metrics, cost sweeps, analyses, and deterministic report files."""

import concurrent.futures
import json
import logging
import pickle
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import teamopt.voi as voi_mod
from conftest import traced_memory
from teamopt import evaluation
from teamopt.data import Dataset, generate_synthetic, split, SynthConfig
from teamopt.discriminative import (DecisionParts, DiscriminativeSystem,
                                    TeamConfig, decide, train_fixed,
                                    train_joint)
from teamopt.errors import ConfigError, InputError, QueryError, TeamoptError
from teamopt.evaluation import (MAX_STACK_SEEDS, SPLIT_FRACTIONS, SweepCell,
                                SweepResult, _best_split, _decisions,
                                _lambda_mode, _reference_team, _score,
                                _seed_groups, _work_plan,
                                cost_sweep, emit_report, human_error_tree,
                                human_only_baseline, per_class_analysis,
                                render_loss_svg, sweep_csv_text,
                                team_metrics_arrays, weighted_error)
from teamopt.numerics import TrainConfig, forward_batch
from teamopt.voi import VoiSystem, train_fixed_voi, train_joint_voi


def toy_dataset(n=120, seed=5, k=3, name="toy"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0)
    h = y.copy()
    flip = rng.random(n) < 0.2
    h[flip] = rng.integers(0, k, flip.sum())
    return Dataset(X, y, h, k, name)


def small_cfg(**kw):
    base = dict(iterations=25, hidden_dims=(4,), calibration_interval=10)
    base.update(kw)
    return TrainConfig(**base)


# --- metrics -------------------------------------------------------------

def test_weighted_error_identity_is_error_rate():
    err = weighted_error(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0]),
                         np.eye(2))
    assert err == 0.25


def test_weighted_error_asymmetric_shortfalls():
    U = np.array([[1.0, -1.0], [0.0, 1.0]])
    # miss (pred 0, truth 1) forfeits 2; false alarm (pred 1, truth 0) forfeits 1
    err = weighted_error(np.array([0, 1]), np.array([1, 0]), U)
    assert err == 1.5
    assert weighted_error(np.array([1, 0]), np.array([1, 0]), U) == 0.0


def test_team_metrics_hand_example():
    labels = np.zeros(10, dtype=int)
    preds = np.zeros(10, dtype=int)
    preds[:2] = 1  # two mistakes
    queried = np.zeros(10, dtype=bool)
    queried[:3] = True
    m = team_metrics_arrays(preds, queried, labels,
                            TeamConfig.accuracy(2, query_cost=0.2))
    assert abs(m["total_loss"] - 0.26) < 1e-15
    assert m["classification_error"] == 0.2
    assert m["query_rate"] == 0.3
    assert abs(m["mean_utility"] - 0.74) < 1e-15
    with pytest.raises(InputError):
        team_metrics_arrays(preds, queried, labels[:9], TeamConfig.accuracy(2))
    with pytest.raises(InputError):
        team_metrics_arrays(np.zeros(0, int), np.zeros(0, bool),
                            np.zeros(0, int), TeamConfig.accuracy(2))


def test_human_only_baseline_always_queries():
    ds = toy_dataset()
    m = human_only_baseline(ds, TeamConfig.accuracy(3, 0.05))
    assert m["query_rate"] == 1.0
    err = (ds.h != ds.y).mean()
    assert abs(m["classification_error"] - err) < 1e-12
    assert abs(m["total_loss"] - (err + 0.05)) < 1e-12


def test_system_decisions_both_kinds_and_rejection():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    [[disc]] = train_joint([(ds, small_cfg())], team, (1.0,))
    [voi] = train_fixed_voi([(ds, small_cfg())], team)
    for system in (disc, voi):
        parts = system.parts(ds.X)
        labels, queried = decide(parts, ds.h, team.query_cost)
        assert labels.shape == queried.shape == parts.machine.shape
        post = parts.by_response[np.arange(len(ds)), ds.h]
        assert np.array_equal(labels, np.where(queried, post, parts.machine))
        with pytest.raises(QueryError):
            decide(parts, np.full(len(ds), 3), team.query_cost)
        with pytest.raises(InputError):
            decide(parts, ds.h[1:], team.query_cost)
    # the discriminative team outputs the response itself when it queries
    parts = disc.parts(ds.X)
    assert np.array_equal(parts.by_response[np.arange(len(ds)), ds.h], ds.h)
    assert np.array_equal(parts.machine,
                          forward_batch(disc.m, ds.X).argmax(axis=1))


# --- cost sweep ----------------------------------------------------------

def test_cost_sweep_sorts_and_aggregates():
    ds = toy_dataset()
    results = cost_sweep(ds, ("human-only", "fixed-voi"), (0.1, 0.0), (1.0,),
                         (0, 1), train_cfg=small_cfg())
    assert [r.approach for r in results] == ["fixed-voi", "human-only"]
    human = results[1]
    assert [rec["c"] for rec in human.records] == [0.0, 0.1]
    assert human.seeds == [0, 1] and human.dataset == "toy"
    err = {}
    for seed in (0, 1):
        cell = [c for c in human.cells if c.seed == seed][0]
        assert [row[0] for row in cell.rows] == [0.0, 0.1]
        err[seed] = cell.rows[0][2]
    rec0, rec1 = human.records
    assert abs(rec0["total_loss"] - np.mean([err[0], err[1]])) < 1e-12
    assert abs(rec1["total_loss"] - rec1["classification_error"] - 0.1) < 1e-12
    assert rec0["query_rate"] == 1.0 and rec0["selected_lambda"] is None
    assert "cells" not in human.as_json_dict()


def test_cost_sweep_is_deterministic_and_parallel_safe():
    ds = toy_dataset()
    args = (ds, ("human-only", "fixed-voi"), (0.0, 0.1), (1.0,), (0, 1))
    r1 = cost_sweep(*args, train_cfg=small_cfg())
    r2 = cost_sweep(*args, train_cfg=small_cfg())
    r3 = cost_sweep(*args, train_cfg=small_cfg(), jobs=2)
    assert [r.records for r in r1] == [r.records for r in r2]
    assert [r.records for r in r1] == [r.records for r in r3]
    assert sweep_csv_text(r1) == sweep_csv_text(r3)


def test_cost_sweep_selects_lambda_per_cost():
    ds = toy_dataset()
    results = cost_sweep(ds, ("joint-disc",), (0.0, 0.2), (0.5, 2.0), (0,),
                         train_cfg=small_cfg())
    for rec in results[0].records:
        assert rec["selected_lambda"] in (0.5, 2.0)


class CountingSystem:
    """A stub two-class system that decides one way on every row: always
    query (a perfect human then answers), or never query with the
    machine wrong on a `wrong` fraction of the rows, trained at cost
    weight `lam`. Counts the rows of each batch it is asked for parts of."""

    def __init__(self, query: bool, wrong: float = 0.0, lam: float = 1.0):
        self.query, self.wrong, self.scored = query, wrong, []
        self.train_cfg = TrainConfig(cost_weight=lam)

    def parts(self, X):
        self.scored.append(len(X))
        n = len(X)
        machine = (np.arange(n) < self.wrong * n).astype(np.int64)
        score = np.full(n, 1.0 if self.query else 0.0)
        return DecisionParts(machine, np.tile(np.arange(2), (n, 1)), score,
                             1.0 - score, True, np.full((n, 2), 0.5))


def test_select_lambda_scores_the_test_split_once_per_selected_variant():
    # every label and response is 0
    va, te = (Dataset(np.zeros((n, 1)), np.zeros(n, int), np.zeros(n, int),
                      2, name) for n, name in ((20, "va"), (30, "te")))
    run = evaluation._Run(small_cfg(), None, va, te)
    # the querying variant costs c, the others their error, 0.2 and 0.25
    systems = [CountingSystem(True, lam=0.25), CountingSystem(False, 0.2, 0.5),
               CountingSystem(False, 0.25, 1.0)]
    costs = (0.0, 0.05, 0.1, 0.3, 0.4)
    pairs = _decisions("joint-disc", costs, TeamConfig.accuracy(2), run,
                       systems)
    assert [lam for _, lam in pairs] == [0.25, 0.25, 0.25, 0.5, 0.5]
    # every variant scores the validation split; only the two selected
    # ones score the test split, each once, its parts shared by its costs
    assert [s.scored for s in systems] == [[20, 30], [20, 30], [20]]
    assert pairs[0][0] is pairs[2][0] and pairs[3][0] is pairs[4][0]
    assert [_score(parts, te, TeamConfig.accuracy(2), c)["total_loss"]
            for c, (parts, _) in zip(costs, pairs)] == [0.0, 0.05, 0.1, 0.2,
                                                        0.2]


def test_fixed_voi_cell_scores_decide_on_the_test_split():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3)
    costs = (0.0, 0.05, 0.2)
    cfg = small_cfg()
    cell = cost_sweep(ds, ("fixed-voi",), costs, (1.0,), (4,), team=team,
                      train_cfg=cfg)[0].cells[0]
    tr, _, te = split(ds, SPLIT_FRACTIONS, 4)
    [system] = train_fixed_voi([(tr, replace(cfg, seed=4))], team)
    expected = []
    for c in costs:
        labels, queried = decide(system.parts(te.X), te.h, c)
        m = team_metrics_arrays(labels, queried, te.y, team.with_cost(c))
        expected.append((c, m["total_loss"], m["classification_error"],
                         m["query_rate"], None))
    assert cell.error is None and cell.rows == expected


def test_fixed_disc_cell_scores_each_cost_s_policy_on_the_test_split(
        monkeypatch):
    ds = toy_dataset()
    team = TeamConfig.accuracy(3)
    costs = (0.0, 0.05, 0.2)
    cfg = small_cfg(cost_weight=0.7)
    tr, _, te = split(ds, SPLIT_FRACTIONS, 4)
    [systems] = train_fixed([(tr, replace(cfg, seed=4))], team, costs)
    real = DiscriminativeSystem.parts
    scored = []

    def parts(system, X):
        scored.append((system.team.query_cost, X))
        return real(system, X)

    monkeypatch.setattr(DiscriminativeSystem, "parts", parts)
    cell = cost_sweep(ds, ("fixed-disc",), costs, (0.5, 2.0), (4,),
                      team=team, train_cfg=cfg)[0].cells[0]
    expected = []
    for c, system in zip(costs, systems):
        labels, queried = decide(real(system, te.X), te.h, c)
        m = team_metrics_arrays(labels, queried, te.y, team.with_cost(c))
        expected.append((c, m["total_loss"], m["classification_error"],
                         m["query_rate"], 0.7))
    assert cell.error is None and cell.rows == expected
    # each cost's policy scores the test split once, the validation
    # split never
    assert [c for c, _ in scored] == list(costs)
    assert all(np.array_equal(X, te.X) for _, X in scored)


def count_fixed_voi_trainings(monkeypatch, log_path):
    """Log the seed of every run an `evaluation.train_fixed_voi` call
    trains to a file, so that calls made in forked pool workers are
    counted too."""
    real = evaluation.train_fixed_voi

    def counted(runs, team):
        with open(log_path, "a") as fh:
            fh.writelines(f"{cfg.seed}\n" for _, cfg in runs)
        return real(runs, team)

    monkeypatch.setattr(evaluation, "train_fixed_voi", counted)
    return lambda: sorted(int(s) for s in log_path.read_text().split())


@pytest.mark.parametrize("jobs", [1, 2])
def test_voi_approaches_train_fixed_voi_once_per_seed(monkeypatch, tmp_path,
                                                      jobs):
    ds = toy_dataset()
    args = ((0.0, 0.1), (0.5, 2.0), (0, 1))
    cfg = small_cfg()
    alone = {a: cost_sweep(ds, (a,), *args, train_cfg=cfg)[0]
             for a in ("fixed-voi", "joint-voi")}
    calls = count_fixed_voi_trainings(monkeypatch, tmp_path / "calls")
    results = cost_sweep(ds, ("joint-voi", "human-only", "fixed-voi"), *args,
                         train_cfg=cfg, jobs=jobs)
    assert calls() == [0, 1]
    shared = {r.approach: r for r in results}
    for approach, ref in alone.items():
        assert shared[approach].cells == ref.cells
        assert shared[approach].records == ref.records
        assert all(cell.error is None for cell in ref.cells)


def test_joint_voi_failure_fails_only_its_cell():
    ds = toy_dataset()
    args = ((10.0,), (1.0, 1e308), (0,))  # λ·c overflows in joint-voi
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        fixed, joint = cost_sweep(ds, ("fixed-voi", "joint-voi"), *args,
                                  train_cfg=small_cfg())
    assert joint.records == [] and "1e+308" in joint.cells[0].error
    assert "TrainingError" in joint.cells[0].error
    alone = cost_sweep(ds, ("fixed-voi",), *args, train_cfg=small_cfg())[0]
    assert fixed.cells == alone.cells and fixed.cells[0].error is None
    assert fixed.records == alone.records and len(fixed.records) == 1


def test_cost_sweep_records_cell_failures(caplog):
    ds = toy_dataset()
    diverging = TrainConfig(iterations=5, hidden_dims=(4,),
                            learning_rate=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            with caplog.at_level(logging.ERROR, logger="teamopt.evaluation"):
                results = cost_sweep(ds, ("fixed-disc", "human-only"), (0.0,),
                                     (1.0,), (0,), train_cfg=diverging)
    failed = [r for r in results if r.approach == "fixed-disc"][0]
    human = [r for r in results if r.approach == "human-only"][0]
    assert failed.records == []
    assert "TrainingError" in failed.cells[0].error
    assert len(human.records) == 1  # unaffected approach still reported
    assert any("sweep cell failed" in rec.message for rec in caplog.records)


def test_each_finished_work_unit_logs_one_line(monkeypatch, caplog):
    ds = toy_dataset()
    args = (ds, ("fixed-disc", "human-only"), (0.0, 0.1), (1.0,), (0, 1, 2))
    diverge_seeds(monkeypatch, {2})  # forked workers inherit the patch
    line = re.compile(r"work unit finished: approaches=(\S+) seeds=(\S+)"
                      r" seconds=(\d+\.\d{3}) failed=(\d+)$")
    logged = {}
    for jobs in (1, 2):
        caplog.clear()
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with caplog.at_level(logging.INFO, logger="teamopt.evaluation"):
                cost_sweep(*args, train_cfg=small_cfg(), jobs=jobs)
        found = [line.match(r.message) for r in caplog.records
                 if r.message.startswith("work unit")]
        assert all(found) and all(r.levelno == logging.INFO
                                  for r in caplog.records
                                  if r.message.startswith("work unit"))
        logged[jobs] = [(m[1], m[2], int(m[4])) for m in found]
    assert logged[1] == [("fixed-disc", "0,1,2", 1),
                         ("human-only", "0,1,2", 0)]
    # one unit trains, so the pool of 2 splits the seeds
    assert logged[2] == [("fixed-disc", "0,1", 0), ("fixed-disc", "2", 1),
                         ("human-only", "0,1", 0), ("human-only", "2", 0)]


def test_sweep_json_lists_only_the_seeds_it_averaged(monkeypatch, tmp_path):
    real = evaluation.split

    def split(dataset, fractions, seed):
        if seed == 1:
            raise RuntimeError("cell failed")
        return real(dataset, fractions, seed)

    monkeypatch.setattr(evaluation, "split", split)
    [result] = cost_sweep(toy_dataset(), ("human-only",), (0.0,), (1.0,),
                          (3, 1, 0, 2))
    good = [c for c in result.cells if c.error is None]
    assert result.seeds == [3, 0, 2] == [c.seed for c in good]
    assert result.records[0]["total_loss"] == \
        np.mean([c.rows[0][1] for c in good])
    emit_report([result], tmp_path, ("json",))
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload[0]["seeds"] == [3, 0, 2]


def test_sweep_json_lists_each_failed_cell(monkeypatch, tmp_path):
    real = evaluation.split

    def split(dataset, fractions, seed):
        if seed == 1:
            raise RuntimeError("cell failed")
        return real(dataset, fractions, seed)

    monkeypatch.setattr(evaluation, "split", split)
    args = ((10.0,), (1.0, 1e308), (0, 1))  # λ·c overflows in joint-voi
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        results = cost_sweep(toy_dataset(), ("fixed-voi", "joint-voi"),
                             *args, train_cfg=small_cfg())
    emit_report(results, tmp_path, ("json",))
    text = (tmp_path / "sweep.json").read_text()
    fixed, joint = json.loads(text)
    broken = {"error": "RuntimeError", "message": "cell failed"}
    assert fixed["failures"] == [{"approach": "fixed-voi", "seed": 1,
                                  **broken}]
    diverged, second = joint["failures"]
    assert second == {"approach": "joint-voi", "seed": 1, **broken}
    cell = results[1].cells[0]
    assert cell.iteration is not None
    assert diverged == {"approach": "joint-voi", "seed": 0,
                        "error": "TrainingError",
                        "message": cell.error.split(": ", 1)[1],
                        "iteration": cell.iteration}
    assert "1e+308" in diverged["message"]
    # rebuilt results re-emit the same bytes, failures included
    emit_report([SweepResult(**d) for d in json.loads(text)], tmp_path,
                ("json",))
    assert (tmp_path / "sweep.json").read_text() == text
    # a sweep without failures writes no key
    monkeypatch.setattr(evaluation, "split", real)
    [clean] = cost_sweep(toy_dataset(), ("human-only",), (0.0,), (1.0,),
                         (0,))
    assert "failures" not in clean.as_json_dict()


def test_cost_sweep_input_validation():
    ds = toy_dataset()
    with pytest.raises(ConfigError):
        cost_sweep(ds, ("nonsense",), (0.0,), (1.0,), (0,))
    with pytest.raises(ConfigError):
        cost_sweep(ds, ("human-only",), (), (1.0,), (0,))
    with pytest.raises(ConfigError):
        cost_sweep(ds, ("human-only",), (0.0,), (1.0,), ())
    for bad in (np.nan, np.inf, -np.inf, -0.1, -1.0):
        with pytest.raises(ConfigError):
            cost_sweep(ds, ("human-only",), (0.0, bad), (1.0,), (0,))
        with pytest.raises(ConfigError):
            cost_sweep(ds, ("human-only",), (0.0,), (1.0, bad), (0,))
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs"):
            cost_sweep(ds, ("human-only",), (0.0,), (1.0,), (0,), jobs=jobs)
    with pytest.raises(ConfigError, match="repeat"):
        # seed 0 would run twice and count double in every average
        cost_sweep(ds, ("human-only",), (0.1,), (1.0,), (0, 0, 1))


@pytest.mark.parametrize("seeds", [(-1,), (1.5,), (0, -2), ("1",)])
def test_cost_sweep_rejects_bad_seeds_before_any_cell(monkeypatch, seeds):
    split_seeds = []
    real = evaluation.split

    def split(dataset, fractions, seed):
        split_seeds.append(seed)
        return real(dataset, fractions, seed)

    monkeypatch.setattr(evaluation, "split", split)
    with pytest.raises(ConfigError, match="seeds"):
        cost_sweep(toy_dataset(), ("human-only",), (0.0,), (1.0,), seeds)
    assert split_seeds == []  # no cell started


@pytest.mark.parametrize("approach", ["joint-disc", "joint-voi"])
def test_one_value_lambda_grid_scores_only_the_test_split(monkeypatch,
                                                          approach):
    ds = toy_dataset()
    team = TeamConfig.accuracy(3)
    costs, seed, cfg = (0.0, 0.05, 0.2), 4, small_cfg()
    tr, _, te = split(ds, SPLIT_FRACTIONS, seed)
    cfg_s = replace(cfg, seed=seed)
    c_ref = team.with_cost(0.05)  # the median cost
    if approach == "joint-disc":
        [[system]] = train_joint([(tr, cfg_s)], c_ref, (1.0,))
    else:
        [start] = train_fixed_voi([(tr, cfg_s)], team)
        [[system]] = train_joint_voi([(tr, cfg_s, start)], c_ref, (1.0,))
    expected = []
    for c in costs:
        labels, queried = decide(system.parts(te.X), te.h, c)
        m = team_metrics_arrays(labels, queried, te.y, team.with_cost(c))
        expected.append((c, m["total_loss"], m["classification_error"],
                         m["query_rate"], 1.0))
    scored = []  # rows of every batch a system is scored on
    for cls in (DiscriminativeSystem, VoiSystem):
        def parts(self, X, real=cls.parts):
            scored.append(len(X))
            return real(self, X)
        monkeypatch.setattr(cls, "parts", parts)
    [result] = cost_sweep(ds, (approach,), costs, (1.0,), (seed,),
                          team=team, train_cfg=cfg)
    assert scored == [len(te)]  # the lone variant, on the test split only
    assert result.cells[0].error is None
    assert result.cells[0].rows == expected


def inline_pool(monkeypatch) -> tuple[list, list]:
    """Swap the process pool for one that runs its initializer and then
    each unit in this process; returns the list of `max_workers` it is
    opened with and the list of (approaches, seeds) of the units
    submitted. No worker starts."""
    widths, units = [], []

    class InlinePool:
        def __init__(self, max_workers=None, initializer=None, initargs=(),
                     **kwargs):
            widths.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            units.append(args[0])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool,
                        raising=False)
    return widths, units


@pytest.mark.parametrize("jobs,workers", [(3, 3), (64, 4)])
def test_pool_opens_at_most_one_worker_per_work_unit(monkeypatch, jobs,
                                                     workers):
    # a fork pool starts all of its workers at the first submit
    ds = toy_dataset()
    args = (ds, ("fixed-disc", "human-only"), (0.0, 0.1), (1.0,), (0, 1))
    serial = cost_sweep(*args, train_cfg=small_cfg())
    widths, units = inline_pool(monkeypatch)
    pooled = cost_sweep(*args, train_cfg=small_cfg(), jobs=jobs)
    # one approach trains, so its 2 seeds split to fill the pool: 2
    # approaches x 2 groups of seeds = 4 work units
    assert units == [(("fixed-disc",), [0]), (("fixed-disc",), [1]),
                     (("human-only",), [0]), (("human-only",), [1])]
    assert widths == [workers]
    assert [r.cells for r in pooled] == [r.cells for r in serial]


def test_pool_work_items_carry_no_dataset(monkeypatch):
    # each worker gets the dataset once, from the pool's initializer; a
    # submitted unit pickles to its approaches and seeds only
    ds = toy_dataset(n=2000)
    args = (ds, ("fixed-disc", "human-only"), (0.0, 0.1), (1.0,), (0, 1))
    serial = cost_sweep(*args, train_cfg=small_cfg())
    assert evaluation._sweep is None  # a finished sweep holds no dataset
    real = concurrent.futures.ProcessPoolExecutor.submit
    sizes = []

    def submit(self, fn, /, *items):
        sizes.append(len(pickle.dumps((fn, items))))
        return real(self, fn, *items)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit",
                        submit)
    pooled = cost_sweep(*args, train_cfg=small_cfg(), jobs=2)
    assert len(sizes) == 4
    assert max(sizes) * 50 < len(pickle.dumps(ds))
    assert [r.cells for r in pooled] == [r.cells for r in serial]


def test_voi_work_unit_holds_no_per_seed_copy_of_its_rows(monkeypatch):
    # a work unit's splits and calibration slices are row indices into
    # the dataset: at every joint-VOI step, what the two-seed fixed-voi +
    # joint-voi unit holds stays below one seed's copy of its rows
    ds = generate_synthetic(SynthConfig(n=20_000, seed=2))  # 80 B a row
    live = []

    def joint_voi_batch(*args):
        live.append(trace.live())
        return real(*args)

    real = voi_mod.joint_voi_batch
    monkeypatch.setattr(voi_mod, "joint_voi_batch", joint_voi_batch)
    with traced_memory() as trace:
        [fixed, joint] = cost_sweep(
            ds, ("fixed-voi", "joint-voi"), (0.0, 0.1), (1.0,), (0, 1),
            train_cfg=TrainConfig(iterations=4, batch_size=16,
                                  hidden_dims=(2,), calibration_interval=2))
    assert fixed.seeds == joint.seeds == [0, 1] and len(live) == 4
    assert max(live) < ds.X.nbytes + ds.y.nbytes + ds.h.nbytes


def test_dead_worker_fails_its_cells_and_the_rest_complete(
        kill_worker_on_seed):
    ds = toy_dataset()
    args = (ds, ("human-only",), (0.0, 0.1), (1.0,), (0, 1, 2, 3))
    serial = {c.seed: c for c in cost_sweep(*args)[0].cells}
    kill_worker_on_seed(1)
    result = cost_sweep(*args, jobs=2)[0]
    cells = {c.seed: c for c in result.cells}
    assert sorted(cells) == [0, 1, 2, 3]
    # seeds 0 and 1 are one work unit, so the worker took both down
    for seed in (0, 1):
        assert cells[seed].rows == []
        assert cells[seed].error.startswith("BrokenProcessPool: ")
    for seed, cell in cells.items():
        assert cell == serial[seed] or (
            cell.rows == [] and cell.error.startswith("BrokenProcessPool"))
    good = [serial[c.seed] for c in result.cells if c.error is None]
    if good:  # the averages cover exactly the seeds that completed
        expected = np.mean([c.rows[0][1] for c in good])
        assert result.records[0]["total_loss"] == expected
    else:
        assert result.records == []


@given(st.sampled_from([1, 2, 3, 64]),
       st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
def test_seed_groups_are_contiguous_and_keep_config_order(jobs, seeds):
    groups = _seed_groups(seeds, jobs)
    assert 1 <= len(groups) <= jobs
    assert len(groups) == min(jobs, len(seeds))
    assert all(groups)
    assert [s for g in groups for s in g] == seeds  # contiguous, in order
    assert max(map(len, groups)) - min(map(len, groups)) <= 1


ALL_APPROACHES = ("human-only", "fixed-disc", "joint-disc", "fixed-voi",
                  "joint-voi")


@given(st.lists(st.sampled_from(ALL_APPROACHES), min_size=1, unique=True),
       st.integers(1, 13), st.integers(1, 9))
def test_work_plan_caps_stacks_and_fills_the_pool(names, S, jobs):
    names, seeds = sorted(names), list(range(100, 100 + S))
    plan = _work_plan(names, seeds, jobs)
    units = evaluation._work_units(names)
    trained = sum(unit != ("human-only",) for unit in units) or 1
    groups = [group for unit, group in plan if unit == units[0]]
    # every unit gets the same contiguous groups, in _work_units order
    assert plan == [(unit, group) for unit in units for group in groups]
    assert ("human-only",) not in units[:-1]  # the units that train first
    assert [s for g in groups for s in g] == seeds
    assert max(map(len, groups)) <= MAX_STACK_SEEDS
    assert len(groups) >= min(S, -(-jobs // trained))


@given(st.lists(st.sampled_from(ALL_APPROACHES), min_size=1, unique=True),
       st.integers(1, 13))
def test_serial_plan_does_not_depend_on_jobs(names, S):
    # the pool takes whole approaches first: up to one worker per unit
    # that trains, the plan is the serial one
    names, seeds = sorted(names), list(range(S))
    serial = _work_plan(names, seeds, 1)
    assert len({len(g) for _, g in serial}) <= 2
    assert len(serial) == len(evaluation._work_units(names)) * -(
        -S // MAX_STACK_SEEDS)
    trained = sum(unit != ("human-only",)
                  for unit in evaluation._work_units(names))
    for jobs in range(1, trained + 1):
        assert _work_plan(names, seeds, jobs) == serial


def test_two_workers_get_whole_approaches():
    # two units train, so two workers need no seed split; human-only,
    # which trains nothing, is submitted last
    plan = _work_plan(["fixed-disc", "human-only", "joint-disc"],
                      [0, 1, 2, 3], 2)
    assert plan == [(("fixed-disc",), [0, 1, 2, 3]),
                    (("joint-disc",), [0, 1, 2, 3]),
                    (("human-only",), [0, 1, 2, 3])]


def cells_by_seed(results) -> dict:
    return {(c.approach, c.seed): c for r in results for c in r.cells}


@pytest.mark.parametrize("seeds", [(0, 1, 2), (3, 1, 0, 2), (4, 0, 3, 1, 2)],
                         ids=["sorted", "shuffled", "past-the-cap"])
def test_stacked_seeds_give_each_seed_its_own_cells(seeds):
    ds = toy_dataset()
    args = (ds, ALL_APPROACHES, (0.0, 0.1), (0.5, 2.0))
    alone = {}
    for seed in seeds:
        alone.update(cells_by_seed(cost_sweep(*args, (seed,),
                                              train_cfg=small_cfg())))
    serial = cost_sweep(*args, seeds, train_cfg=small_cfg())
    pooled = cost_sweep(*args, seeds, train_cfg=small_cfg(), jobs=2)
    for results in (serial, pooled):
        assert cells_by_seed(results) == alone
        for r in results:  # cells and averages keep the config order
            assert r.seeds == list(seeds)
            assert [c.seed for c in r.cells] == list(seeds)
    assert [r.records for r in serial] == [r.records for r in pooled]
    assert all(c.error is None for c in alone.values())


def diverge_seeds(monkeypatch, seeds):
    """Make the training split of each of `seeds` overflow every network's
    forward pass, so that its trainings diverge at their first step."""
    real = evaluation.split

    def split(dataset, fractions, seed):
        tr, va, te = real(dataset, fractions, seed)
        if seed in seeds:
            tr = replace(tr, X=np.sign(tr.X) * 1e308)
        return tr, va, te

    monkeypatch.setattr(evaluation, "split", split)


@pytest.mark.parametrize("seeds,diverging", [
    ((0, 1, 2), {0}), ((0, 1, 2), {2}), ((3, 1, 0, 2), {1, 0}),
], ids=["first-in-stack", "last-in-stack", "two-at-one-iteration"])
def test_a_diverging_seed_fails_only_its_own_cells(monkeypatch, seeds,
                                                   diverging):
    ds = toy_dataset()
    args = (ds, ALL_APPROACHES, (0.0, 0.1), (0.5, 2.0))
    clean = {}
    for seed in seeds:
        if seed not in diverging:
            clean.update(cells_by_seed(cost_sweep(*args, (seed,),
                                                  train_cfg=small_cfg())))
    diverge_seeds(monkeypatch, diverging)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        failed = {}
        for seed in diverging:
            failed.update(cells_by_seed(cost_sweep(*args, (seed,),
                                                   train_cfg=small_cfg())))
        stacked = cells_by_seed(cost_sweep(*args, seeds,
                                           train_cfg=small_cfg()))
    for (approach, seed), cell in stacked.items():
        if seed not in diverging:
            assert cell == clean[approach, seed]
        elif approach == "human-only":  # uses no features
            assert cell.error is None
        else:
            assert cell == failed[approach, seed]
            assert cell.error.startswith("TrainingError: ")
            assert cell.iteration == 0


def test_a_failure_naming_no_run_trains_each_seed_alone(monkeypatch):
    ds = toy_dataset()
    args = (ds, ("joint-disc",), (0.0, 0.1), (0.5, 2.0))
    alone = {}
    for seed in (0, 2):
        alone.update(cells_by_seed(cost_sweep(*args, (seed,),
                                              train_cfg=small_cfg())))
    real, stacks = evaluation.train_joint, []

    def train_joint(runs, team, cost_weights):
        stacks.append([cfg.seed for _, cfg in runs])
        if any(cfg.seed == 1 for _, cfg in runs):
            raise RuntimeError("seed 1 cannot train")
        return real(runs, team, cost_weights)

    monkeypatch.setattr(evaluation, "train_joint", train_joint)
    cells = cells_by_seed(cost_sweep(*args, (0, 1, 2),
                                     train_cfg=small_cfg()))
    assert stacks == [[0, 1, 2], [0], [1], [2]]
    assert cells["joint-disc", 1].error == "RuntimeError: seed 1 cannot train"
    assert cells["joint-disc", 0] == alone["joint-disc", 0]
    assert cells["joint-disc", 2] == alone["joint-disc", 2]


def test_lambda_mode_prefers_count_then_smallest():
    assert _lambda_mode([1.0, 2.0, 2.0]) == 2.0
    assert _lambda_mode([1.0, 1.0, 2.0, 2.0]) == 1.0
    assert _lambda_mode([None, None]) is None
    assert _lambda_mode([None, 4.0]) == 4.0


# --- analyses ------------------------------------------------------------

def test_per_class_analysis_counts_and_absent_class():
    ds = toy_dataset(k=4)  # labels only ever reach 2: class 3 stays empty
    team = TeamConfig.accuracy(4, 0.05)
    [[disc]] = train_joint([(ds, small_cfg())], team, (1.0,))
    parts = disc.parts(ds.X)
    rows = per_class_analysis({"disc": parts}, ds, team.query_cost)
    assert [row["class"] for row in rows] == [0, 1, 2, 3]
    assert sum(row["count"] for row in rows) == len(ds)
    assert rows[3]["count"] == 0
    assert rows[3]["systems"]["disc"]["machine_error"] is None
    machine = parts.machine
    team_lbl, queried = decide(parts, ds.h, team.query_cost)
    mask = ds.y == 1
    got = rows[1]["systems"]["disc"]
    assert got["machine_error"] == (machine[mask] != 1).mean()
    assert got["team_error"] == (team_lbl[mask] != 1).mean()
    assert got["query_fraction"] == queried[mask].mean()


def planted_error_dataset(n=400, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 3))
    y = rng.integers(0, 2, n)
    h = y.copy()
    region = X[:, 1] > 0.25
    h[region] = 1 - y[region]  # human wrong exactly in the region
    return Dataset(X, y, h, 2, "planted"), region


def test_error_tree_recovers_planted_region():
    ds, region = planted_error_dataset()
    tree = human_error_tree(ds, max_depth=1)
    assert tree.feature_index == 1
    assert abs(tree.threshold - 0.25) < 0.05
    assert tree.left.is_leaf and tree.right.is_leaf
    assert tree.left.leaf_stats["human_error_rate"] == 0.0
    assert tree.right.leaf_stats["human_error_rate"] == 1.0
    counts = [leaf.leaf_stats["count"] for leaf in tree.leaves()]
    assert sum(counts) == len(ds)
    assert abs(sum(l.leaf_stats["fraction"] for l in tree.leaves()) - 1) < 1e-12


def test_error_tree_routing_matches_leaf_stats():
    ds, _ = planted_error_dataset(seed=8)
    tree = human_error_tree(ds, max_depth=2)
    tallies = {id(leaf): 0 for leaf in tree.leaves()}
    for x in ds.X:
        tallies[id(tree.leaf_of(x))] += 1
    for leaf in tree.leaves():
        assert tallies[id(leaf)] == leaf.leaf_stats["count"]


def test_error_tree_attaches_system_error_rates():
    ds, _ = planted_error_dataset()
    team = TeamConfig.accuracy(2, 0.05)
    [[disc]] = train_joint([(ds, small_cfg())], team, (1.0,))
    parts = disc.parts(ds.X)
    tree = human_error_tree(ds, {"disc": parts}, max_depth=1)
    machine = parts.machine
    for leaf in tree.leaves():
        assert set(leaf.leaf_stats["machine_error"]) == {"disc"}
        assert 0.0 <= leaf.leaf_stats["machine_error"]["disc"] <= 1.0
    overall = (machine != ds.y).mean()
    pooled = sum(l.leaf_stats["machine_error"]["disc"] * l.leaf_stats["count"]
                 for l in tree.leaves()) / len(ds)
    assert abs(pooled - overall) < 1e-12


def test_error_tree_pure_target_stays_leaf():
    ds = toy_dataset()
    pure = Dataset(ds.X, ds.y, ds.y.copy(), 3, "agree")
    tree = human_error_tree(pure, max_depth=3)
    assert tree.is_leaf
    assert tree.leaf_stats["human_error_rate"] == 0.0


def test_error_tree_config_validation():
    ds = toy_dataset()
    with pytest.raises(ConfigError):
        human_error_tree(ds, max_depth=0)
    with pytest.raises(ConfigError):
        human_error_tree(ds, min_leaf_fraction=1.0)


def ref_split_score(X, target, idx, j, thr):
    t = target[idx].astype(float)
    xs = X[idx, j]

    def gini(v):
        if len(v) == 0:
            return 0.0
        p = v.mean()
        return len(v) * 2.0 * p * (1.0 - p)

    return gini(t[xs <= thr]) + gini(t[xs > thr])


def test_best_split_matches_exhaustive_reference():
    for trial in range(60):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(8, 40))
        X = np.round(rng.standard_normal((n, 3)), 2)
        target = rng.random(n) < 0.4
        min_count = int(rng.integers(1, 4))
        idx = np.arange(n)
        got = _best_split(X, target, idx, min_count)

        t = target.astype(float)
        parent = n * 2.0 * t.mean() * (1.0 - t.mean())
        best_score = None
        for j in range(3):
            vals = np.unique(X[:, j])
            for a, b in zip(vals[:-1], vals[1:]):
                thr = (a + b) / 2.0
                n_l = int((X[:, j] <= thr).sum())
                if n_l < min_count or n - n_l < min_count:
                    continue
                s = ref_split_score(X, target, idx, j, thr)
                if best_score is None or s < best_score:
                    best_score = s
        if got is None:
            # nothing beat the parent impurity by a real margin
            assert best_score is None or best_score > parent - 1e-9
        else:
            assert best_score is not None
            got_score = ref_split_score(X, target, idx, *got)
            assert abs(got_score - best_score) < 1e-9  # ties may differ


# --- report emission --------------------------------------------------------

def fake_results():
    cells = [SweepCell("human-only", 0, [(0.0, 0.3, 0.3, 1.0, None),
                                         (0.1, 0.4, 0.3, 1.0, None)]),
             SweepCell("human-only", 1, [], error="TrainingError: boom")]
    records = [{"c": 0.0, "total_loss": 0.3, "classification_error": 0.3,
                "query_rate": 1.0, "selected_lambda": None},
               {"c": 0.1, "total_loss": 0.4, "classification_error": 0.3,
                "query_rate": 1.0, "selected_lambda": None}]
    other = [{"c": 0.0, "total_loss": 0.25, "classification_error": 0.2,
              "query_rate": 0.5, "selected_lambda": 2.0},
             {"c": 0.1, "total_loss": 0.3, "classification_error": 0.2,
              "query_rate": 0.5, "selected_lambda": 0.5}]
    return [SweepResult("human-only", records, [0, 1], "toy", cells),
            SweepResult("joint-disc", other, [0, 1], "toy",
                        [SweepCell("joint-disc", 0,
                                   [(0.0, 0.25, 0.2, 0.5, 2.0),
                                    (0.1, 0.3, 0.2, 0.5, 0.5)])])]


def test_csv_text_exact_layout():
    text = sweep_csv_text(fake_results())
    lines = text.splitlines()
    assert lines[0] == ("approach,cost,total_loss,classification_error,"
                        "query_rate,selected_lambda,seed")
    assert lines[1] == "human-only,0.0,0.3,0.3,1.0,,0"
    assert lines[2] == "human-only,0.1,0.4,0.3,1.0,,0"
    # the failed seed-1 cell contributes no rows
    assert lines[3] == "joint-disc,0.0,0.25,0.2,0.5,2.0,0"
    assert lines[4] == "joint-disc,0.1,0.3,0.2,0.5,0.5,0"
    assert len(lines) == 5 and text.endswith("\n")


def test_emit_report_files_and_json_round_trip(tmp_path):
    results = fake_results()
    paths = emit_report(results, tmp_path)
    assert sorted(p.rsplit("/", 1)[1] for p in paths) == [
        "loss_vs_cost.svg", "sweep.csv", "sweep.json"]
    first = (tmp_path / "sweep.json").read_bytes()
    reloaded = json.loads(first.decode())
    assert reloaded[0]["approach"] == "human-only"
    assert "cells" not in reloaded[0]
    emit_report([SweepResult(**d) for d in reloaded], tmp_path,
                formats=("json",))
    assert (tmp_path / "sweep.json").read_bytes() == first


def test_failed_report_write_keeps_previous_file(tmp_path, monkeypatch):
    results = fake_results()
    emit_report(results, tmp_path, formats=("json",))
    before = (tmp_path / "sweep.json").read_bytes()
    real_write_text = Path.write_text

    def half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    results[0].records[0]["total_loss"] = 0.123  # new content to write
    with pytest.raises(TeamoptError, match="disk full"):
        emit_report(results, tmp_path, formats=("json",))
    monkeypatch.undo()
    assert (tmp_path / "sweep.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]
    emit_report(results, tmp_path, formats=("json",))  # and it recovers
    assert b"0.123" in (tmp_path / "sweep.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def test_emit_report_respects_format_selection(tmp_path):
    emit_report(fake_results(), tmp_path, formats=("csv",))
    assert (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "sweep.json").exists()
    assert not (tmp_path / "loss_vs_cost.svg").exists()


def test_loss_svg_is_valid_xml_with_dashed_baselines():
    svg = render_loss_svg(fake_results())
    root = ET.fromstring(svg)
    polylines = [el for el in root.iter()
                 if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    dashed = [p for p in polylines if p.get("stroke-dasharray")]
    assert len(dashed) == 1  # human-only dashed, joint-disc solid
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "human-only" in texts and "joint-disc" in texts


def test_loss_svg_handles_degenerate_inputs():
    empty = [SweepResult("human-only", [], [0], "toy", [])]
    root = ET.fromstring(render_loss_svg(empty))
    assert not [el for el in root.iter() if el.tag.endswith("polyline")]
    single = [SweepResult("a<b", [{"c": 0.1, "total_loss": 0.2,
                                   "classification_error": 0.2,
                                   "query_rate": 0.0,
                                   "selected_lambda": None}], [0], "toy", [])]
    svg = render_loss_svg(single)
    assert "a&lt;b" in svg
    ET.fromstring(svg)


@given(st.text())
def test_svg_escape_matches_saxutils(text):
    # the legend's escape stands in for xml.sax.saxutils.escape, byte for
    # byte, without its import chain on every command's start-up
    assert evaluation._escape(text) == sax_escape(text)


def test_reference_cost_is_the_median_bit_for_bit():
    # the joint approaches train at np.median of the cost grid
    rng = np.random.default_rng(23)
    team = TeamConfig(np.eye(3), 0.1)
    grids = [[0.0], [0.1, 0.2], [0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2],
             [0.1, 0.7], [5e-324, 1e-300], [5e307, 1e308]]
    grids += [sorted(rng.random(n) * 10.0 ** rng.integers(-5, 5))
              for n in range(1, 41) for _ in range(5)]
    grids += [sorted(rng.integers(0, 4, n) / 8) for n in range(1, 41)]
    for grid in grids:
        ref = _reference_team(team, [float(c) for c in grid])
        want = float(np.median(grid))
        assert np.float64(ref.query_cost).tobytes() == \
            np.float64(want).tobytes(), grid
        assert ref.utility is team.utility
