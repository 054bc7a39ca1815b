"""Acceptance gate: twelve headline checks, one test per criterion.

Each test emits a single `criterion NN: PASS/FAIL (...)` line; the
conftest hook replays the lines after the run so they survive output
capture. The benchmark sweep shared by criteria 7 and 8 is
module-scoped; every randomized check runs from a fixed seed, so the
whole gate is deterministic.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import record_verdict

from oracles import runtime_query_decision, soft_team_quantities
from teamopt.cli import (dist_system, gradcheck_losses, platt_ece,
                         voi_rule_deviation)
from teamopt.data import SynthConfig, generate_synthetic, split
from teamopt.discriminative import (DiscriminativeSystem, TeamConfig, decide,
                                    train_solo_model)
from teamopt.evaluation import (SPLIT_FRACTIONS, cost_sweep,
                                human_error_tree, weighted_error)
from teamopt.numerics import (SIGMOID_HEAD, SOFTMAX_HEAD, MlpModel,
                              TrainConfig, forward_batch)
from teamopt.voi import train_fixed_voi, voi_decision_parts

BENCH_COSTS = (0.0, 0.05, 0.1, 0.15, 0.2)
LAMBDA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
BENCH_SEEDS = tuple(range(10))
BENCH_CFG = TrainConfig(iterations=1000, hidden_dims=(16,))
APPROACHES = ("human-only", "fixed-disc", "joint-disc",
              "fixed-voi", "joint-voi")


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_verdict(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def _totals(result):
    """Seeds x costs matrix of total losses; a failed cell fails the gate."""
    bad = [c.error for c in result.cells if c.error]
    assert not bad, f"{result.approach} cells failed: {bad}"
    return np.array([[row[1] for row in c.rows] for c in result.cells])


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_synthetic(SynthConfig())


@pytest.fixture(scope="module")
def bench(bench_dataset):
    team = TeamConfig.accuracy(5)
    t0 = time.monotonic()
    results = cost_sweep(bench_dataset, APPROACHES, BENCH_COSTS, LAMBDA_GRID,
                         BENCH_SEEDS, team=team, train_cfg=BENCH_CFG,
                         jobs=2)
    elapsed = time.monotonic() - t0
    return {"by": {r.approach: r for r in results},
            "elapsed": elapsed, "team": team}


def test_criterion_01_training_gradients_match_finite_differences():
    # the check `teamopt verify` runs, here at 10 points with varying
    # utility, cost weight lambda and temperature tau
    rng = np.random.default_rng(20260818)
    K = 3
    t0 = time.monotonic()
    worst = 0.0
    for point in range(10):
        team = TeamConfig(np.eye(K) + 0.2 * rng.random((K, K)), 0.07)
        worst = max(worst, gradcheck_losses(
            rng, team, cost_weight=0.5 + point / 10.0,
            tau=0.6 + 0.1 * point, batch_size=8))
    elapsed = time.monotonic() - t0
    _verdict(1, worst < 1e-4 and elapsed < 30.0,
             f"max rel err {worst:.3e} over 10 points x 3 losses, "
             f"{elapsed:.1f}s")


def test_criterion_02_voi_rule_matches_enumeration():
    # the check `teamopt verify` runs, here over 1000 random systems
    t0 = time.monotonic()
    worst = voi_rule_deviation(np.random.default_rng(20260819), 1000)
    elapsed = time.monotonic() - t0
    _verdict(2, worst < 1e-12 and elapsed < 30.0,
             f"max dev {worst:.3e} over 1000 systems, every best action, "
             f"query flag and post-query label exact, {elapsed:.1f}s")


def test_criterion_03_soft_quantities_match_exact_at_small_tau():
    rng = np.random.default_rng(20260820)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 6))
        # keep action utilities separated so the soft max has a limit to hit
        while True:
            U = rng.normal(0.0, 1.0, (K, K)) + 2.0 * np.eye(K)
            pa = rng.dirichlet(np.ones(K))
            pb = rng.dirichlet(np.ones(K))
            pg = rng.dirichlet(np.ones(K), size=K)
            gaps = [np.diff(np.sort(U @ pa)).min()]
            gaps += [np.diff(np.sort(r)).min() for r in pg @ U.T]
            if min(gaps) > 0.02:
                break
        system = dist_system(pa, pb, pg, TeamConfig(U, 0.0))
        x = rng.standard_normal(2)
        u_nq_s, u_q_s, _ = soft_team_quantities(system, x, tau=1e-3)
        parts = voi_decision_parts(system, x[None, :])
        worst = max(worst,
                    abs(u_nq_s - float(parts.alone_score[0])),
                    abs(u_q_s - float(parts.query_score[0])))
    _verdict(3, worst < 1e-6,
             f"max |soft - exact| {worst:.3e} over 100 systems at tau=1e-3")


def identity_disc_system(K):
    """A discriminative system on features [log m, logit q] whose networks
    output m and q: one-layer identity read-outs of those columns."""
    eye = np.eye(K + 1)
    m = MlpModel((K + 1, K), [eye[:, :K]], [np.zeros(K)], SOFTMAX_HEAD, 0.0)
    q = MlpModel((K + 1, 1), [eye[:, K:]], [np.zeros(1)], SIGMOID_HEAD, 0.0)
    return DiscriminativeSystem(m, q, TeamConfig.accuracy(K), TrainConfig())


def test_criterion_04_query_rule_fires_only_when_response_wins():
    rng = np.random.default_rng(20260821)
    aligned = True
    total = 0
    fired_total = 0
    # the scalar rule on hand examples; an exact tie never queries
    for q_val, m_row, want in ((0.5, [0.6, 0.4], True),
                               (0.2, [0.6, 0.4], False),
                               (0.5, [1.0, 0.0], False),
                               (0.0, [0.5, 0.5], False),
                               (1.0, [1.0, 0.0], True)):
        assert runtime_query_decision(q_val, np.array(m_row)) == want
    for K in (2, 3, 4, 6):
        n = 25000
        q = rng.random(n)
        m = rng.dirichlet(np.ones(K), size=n)
        h = rng.integers(0, K, n)
        # the production rule, scored on what the networks output
        parts = identity_disc_system(K).parts(
            np.column_stack([np.log(m), np.log(q) - np.log1p(-q)]))
        labels, fired = decide(parts, h, 0.0)
        q_s, m_s = parts.q_soft, parts.machine_dist
        aligned &= bool(np.allclose(q_s, q, atol=1e-9)
                        and np.allclose(m_s, m, atol=1e-9))
        combined = (1.0 - q_s)[:, None] * m_s
        combined[np.arange(n), h] += q_s
        aligned &= bool((combined[fired].argmax(axis=1) == h[fired]).all())
        aligned &= bool((labels == np.where(fired, h, m_s.argmax(axis=1)))
                        .all())
        aligned &= all(runtime_query_decision(float(q_s[i]), m_s[i])
                       == bool(fired[i]) for i in range(n))
        total += n
        fired_total += int(fired.sum())
    _verdict(4, aligned and total == 100000,
             f"{fired_total} of {total} triples fired through "
             f"DiscriminativeSystem.parts and decide; every decision agrees "
             f"with the scalar rule and every firing picks the response "
             f"class: {aligned}")


def test_criterion_05_query_rate_never_rises_with_cost():
    ds = generate_synthetic(SynthConfig(num_classes=3, feature_dim=6, n=1800,
                                        class_priors=(0.5, 0.3, 0.2), seed=11))
    tr, _, te = split(ds, SPLIT_FRACTIONS, 0)
    [system] = train_fixed_voi(
        [(tr, TrainConfig(iterations=300, hidden_dims=(8,), seed=0))],
        TeamConfig.accuracy(3))
    parts = system.parts(te.X)
    rates = []
    for c in np.linspace(0.0, 0.5, 26):
        _, queried = decide(parts, te.h, float(c))
        rates.append(float(queried.mean()))
    mono = all(b <= a for a, b in zip(rates, rates[1:]))
    _verdict(5, mono, f"rates {rates[0]:.2f} -> {rates[-1]:.2f} "
                      f"non-increasing over 26 sorted costs")


def test_criterion_06_platt_fit_calibrates_logistic_scores():
    # the check `teamopt verify` runs
    ece = platt_ece(np.random.default_rng(20260822))
    _verdict(6, ece < 0.05, f"ece {ece:.4f} on 2000 held-in samples, 10 bins")


def test_criterion_07_joint_training_beats_fixed_on_benchmark(bench):
    fd = _totals(bench["by"]["fixed-disc"])
    jd = _totals(bench["by"]["joint-disc"])
    fv = _totals(bench["by"]["fixed-voi"])
    jv = _totals(bench["by"]["joint-voi"])
    disc_everywhere = bool((jd.mean(axis=0) <= fd.mean(axis=0)).all())
    # two-sided paired t-test; zero-variance differences give a NaN p,
    # which fails p < 0.05
    p = stats.ttest_rel(fd.ravel(), jd.ravel()).pvalue
    disc_gain = float((fd - jd).mean())
    voi_everywhere = bool((jv.mean(axis=0) <= fv.mean(axis=0) + 0.005).all())
    voi_gain = float((fv - jv).mean())
    ok = (disc_everywhere and disc_gain > 0.0 and p < 0.05
          and voi_everywhere and voi_gain > 0.0
          and bench["elapsed"] < 600.0)
    _verdict(7, ok,
             f"disc gain {disc_gain:.4f} at every cost (p {p:.1e}), "
             f"voi gain {voi_gain:.4f}, sweep {bench['elapsed']:.0f}s")


def test_criterion_08_team_beats_machine_alone_and_human_only(bench,
                                                              bench_dataset):
    team = bench["team"]
    ci = BENCH_COSTS.index(0.05)
    jv = float(_totals(bench["by"]["joint-voi"])[:, ci].mean())
    human = float(_totals(bench["by"]["human-only"])[:, ci].mean())
    solo_errs = []
    for seed in BENCH_SEEDS:
        tr, _, te = split(bench_dataset, SPLIT_FRACTIONS, seed)
        [[solo]] = train_solo_model([(tr, replace(BENCH_CFG, seed=seed))],
                                    team)
        pred = forward_batch(solo, te.X).argmax(axis=1)
        solo_errs.append(weighted_error(pred, te.y, team.utility))
    machine = float(np.mean(solo_errs))
    _verdict(8, jv < machine and jv < human,
             f"joint voi {jv:.4f} < machine alone {machine:.4f} and "
             f"human only {human:.4f} at c=0.05")


def test_criterion_09_joint_gain_grows_as_capacity_shrinks(bench_dataset):
    team = TeamConfig.accuracy(5)

    def pooled_gain(hidden):
        cfg = replace(BENCH_CFG, hidden_dims=hidden)
        res = cost_sweep(bench_dataset, ("fixed-disc", "joint-disc"),
                         BENCH_COSTS, LAMBDA_GRID, BENCH_SEEDS,
                         team=team, train_cfg=cfg, jobs=2)
        by = {r.approach: r for r in res}
        return float((_totals(by["fixed-disc"])
                      - _totals(by["joint-disc"])).mean())

    small = pooled_gain((4,))
    large = pooled_gain((64,))
    _verdict(9, small >= large,
             f"gain {small:.4f} with 4 hidden units >= {large:.4f} with 64")


def test_criterion_10_asymmetric_utility_widens_joint_gain():
    ds = generate_synthetic(SynthConfig(num_classes=2,
                                        class_priors=(0.7, 0.3)))
    # missing a class-0 instance forfeits 2 utility points, class-1 just 1
    asym = np.array([[1.0, 0.0], [-1.0, 1.0]])

    def pooled_gain(team):
        res = cost_sweep(ds, ("fixed-voi", "joint-voi"), BENCH_COSTS,
                         LAMBDA_GRID, BENCH_SEEDS, team=team,
                         train_cfg=BENCH_CFG, jobs=2)
        by = {r.approach: r for r in res}
        return float((_totals(by["fixed-voi"])
                      - _totals(by["joint-voi"])).mean())

    g_sym = pooled_gain(TeamConfig.accuracy(2))
    g_asym = pooled_gain(TeamConfig(asym))
    _verdict(10, g_asym >= g_sym,
             f"gain {g_asym:.4f} with skewed utility >= {g_sym:.4f} "
             f"with accuracy utility")


def test_criterion_11_error_tree_recovers_planted_hard_region(bench_dataset):
    hard_hi, _ = bench_dataset.planted
    tree = human_error_tree(bench_dataset, max_depth=1)
    split_ok = tree.feature_index == 0
    purity = 0.0
    if split_ok:
        routed = bench_dataset.X[:, 0] > tree.threshold
        purity = float((bench_dataset.X[routed, 0] > hard_hi).mean())
    _verdict(11, split_ok and purity >= 0.9,
             f"top split x[{tree.feature_index}] @ {tree.threshold:.3f} "
             f"(planted {hard_hi:.3f}), hard-leaf purity {purity:.3f}")


def test_criterion_12_sweep_output_is_byte_reproducible(tmp_path):
    cfg = {
        "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 4,
                                  "n": 400, "class_priors": [0.5, 0.3, 0.2],
                                  "seed": 1}},
        "train": {"iterations": 25, "hidden_dims": [4],
                  "calibration_interval": 10},
        "approaches": ["human-only", "fixed-disc", "joint-voi"],
        "costs": [0.0, 0.1],
        "lambda_grid": [0.5, 1.0],
        "seeds": [0, 1],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "teamopt.cli", "sweep",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-500:]
        blobs.append((out / "sweep.json").read_bytes())
    _verdict(12, blobs[0] == blobs[1],
             f"two fresh-process runs, sweep.json {len(blobs[0])} bytes each, "
             f"byte-identical {blobs[0] == blobs[1]}")
