"""Platt calibration tests, with a scipy optimizer as the reference fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from teamopt import calibration
from teamopt.calibration import (PlattCalibrator, calibrate_batch,
                                 expected_calibration_error, fit_platt)
from teamopt.errors import ConfigError, InputError, ShapeError
from teamopt.numerics import Workspace, stable_sigmoid

# frozen: sigmoid(2) / (sigmoid(2) + sigmoid(0)) and its complement
CAL_20_HI = 0.6378903113466692
CAL_20_LO = 0.36210968865333093


def calibrate(raw_logits, cal):
    """Calibrated class distribution for one instance's logit vector."""
    return calibrate_batch(np.asarray(raw_logits, dtype=np.float64)[None, :],
                           cal)[0]


def smoothed_nll(scores, labels):
    """Independent objective: NLL against Platt-smoothed targets."""
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    t = np.where(labels == 1, (n_pos + 1.0) / (n_pos + 2.0),
                 1.0 / (n_neg + 2.0))

    def nll(ab):
        p = np.clip(1.0 / (1.0 + np.exp(-(ab[0] * scores + ab[1]))),
                    1e-12, 1.0 - 1e-12)
        return float(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).sum())

    return nll


# --- fit_platt -------------------------------------------------------------

def test_zero_scores_half_positive_fits_base_rate():
    scores = np.zeros(100)
    labels = np.array([1, 0] * 50)
    fit = fit_platt(scores, labels)
    p_at_zero = 1.0 / (1.0 + np.exp(-fit.b))
    assert abs(p_at_zero - 0.5) < 0.02
    assert not fit.degenerate


def test_separated_scores_fit_steep_sigmoid():
    scores = np.concatenate([np.full(500, -1.0), np.full(500, 1.0)])
    labels = np.concatenate([np.zeros(500), np.ones(500)]).astype(int)
    fit = fit_platt(scores, labels)
    p = lambda s: 1.0 / (1.0 + np.exp(-(fit.a * s + fit.b)))
    assert p(1.0) > 0.95
    assert p(-1.0) < 0.05


def test_single_class_labels_give_flagged_fallback():
    fit = fit_platt(np.linspace(-1, 1, 10), np.ones(10, dtype=int))
    assert fit.degenerate
    assert fit.a == 0.0
    base = 11.0 / 12.0  # smoothed base rate (N+1)/(N+2)
    assert abs(1.0 / (1.0 + np.exp(-fit.b)) - base) < 1e-12
    neg = fit_platt(np.linspace(-1, 1, 10), np.zeros(10, dtype=int))
    assert neg.degenerate and abs(1.0 / (1.0 + np.exp(-neg.b)) - 1 / 12) < 1e-12


def test_fit_matches_scipy_reference_optimizer():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(500) * 1.5
    p_true = 1.0 / (1.0 + np.exp(-(2.0 * scores + 0.5)))
    labels = (rng.random(500) < p_true).astype(int)
    fit = fit_platt(scores, labels)
    ref = optimize.minimize(smoothed_nll(scores, labels), [0.0, 0.0],
                            method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12,
                                     "maxiter": 5000})
    assert abs(fit.a - ref.x[0]) < 1e-4
    assert abs(fit.b - ref.x[1]) < 1e-4


def test_fit_never_exceeds_initial_objective():
    # damped Newton only accepts improving steps
    rng = np.random.default_rng(4)
    for trial in range(5):
        scores = rng.standard_normal(80) * rng.uniform(0.2, 3.0)
        labels = (rng.random(80) < 0.4).astype(int)
        if labels.min() == labels.max():
            continue
        fit = fit_platt(scores, labels)
        nll = smoothed_nll(scores, labels)
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        init = [0.0, np.log((n_pos + 1.0) / (n_neg + 1.0))]
        assert nll([fit.a, fit.b]) <= nll(init) + 1e-9


def capped_newton_fit(scores, binary_labels, objective):
    """Reference: the damped Newton loop run to its 200-iteration cap (or
    the gradient tolerance), with no early stop. `objective(s, t, a, b)`
    is the smoothed NLL; it is passed in so tests can count calls."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(binary_labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    targets = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0),
                       1.0 / (n_neg + 2.0))
    a, b = 0.0, float(np.log((n_pos + 1.0) / (n_neg + 1.0)))
    obj = objective(s, targets, a, b)
    damping = 1e-6
    for _ in range(200):
        p = stable_sigmoid(a * s + b, Workspace())
        diff = p - targets
        grad = np.array([float(diff @ s), float(diff.sum())])
        if np.hypot(*grad) < 1e-8:
            break
        w = p * (1.0 - p)
        hess = np.array([[float(w @ (s * s)), float(w @ s)],
                         [float(w @ s), float(w.sum())]])
        accepted = False
        while damping < 1e12:
            try:
                step = np.linalg.solve(hess + damping * np.eye(2), grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            new_obj = objective(s, targets, a - step[0], b - step[1])
            if new_obj <= obj:
                a, b = a - float(step[0]), b - float(step[1])
                obj = new_obj
                damping = max(damping * 0.1, 1e-12)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break
    return a, b


def platt_objective(s, targets, a, b):
    p = np.clip(stable_sigmoid(a * s + b, Workspace()), 1e-12, 1.0 - 1e-12)
    nll = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    return float(nll.sum())


def counting(fn):
    def counted(*args):
        counted.calls += 1
        return fn(*args)
    counted.calls = 0
    return counted


def stall_problem():
    """Scores and labels on which accepted steps leave (a, b)
    bit-unchanged from about iteration 15 while the damping cycles."""
    rng = np.random.default_rng(0)
    s = 2.0 * rng.standard_normal(2000)
    labels = (rng.random(2000) < stable_sigmoid(1.5 * s - 0.3, Workspace()))
    return s, labels.astype(np.int64)


def test_fit_stops_at_a_stall_with_the_capped_loop_result(monkeypatch):
    # the capped loop spends 200 iterations on the stall
    s, labels = stall_problem()
    oracle_objective = counting(platt_objective)
    want = capped_newton_fit(s, labels, oracle_objective)
    assert oracle_objective.calls > 400  # the reference does run to its cap
    nll = counting(calibration._nll)
    monkeypatch.setattr(calibration, "_nll", nll)
    fit = fit_platt(s, labels)
    assert (fit.a, fit.b) == want and not fit.degenerate
    assert nll.calls <= 50


def test_fit_evaluates_each_point_once(monkeypatch):
    # the objective depends on (a, b) alone, and on the stall the steps
    # keep landing on the current point or on the candidate just rejected
    points = []

    def recording(*args):
        points.append(args[3:5])
        return real(*args)

    real = calibration._nll
    monkeypatch.setattr(calibration, "_nll", recording)
    s, labels = stall_problem()
    fit = fit_platt(s, labels)
    assert len(points) == len(set(points))
    assert (fit.a, fit.b) == capped_newton_fit(s, labels, platt_objective)


def test_fit_equals_capped_loop_on_random_problems(monkeypatch):
    nll = counting(calibration._nll)
    monkeypatch.setattr(calibration, "_nll", nll)
    rng = np.random.default_rng(20261018)
    stopped_early = 0
    for trial in range(240):
        n = int(rng.choice([2, 10, 60, 500, 1000, 2000]))
        scores = rng.standard_normal(n) * rng.uniform(0.01, 4.0)
        if trial % 5 == 0:
            scores = np.round(scores)  # ties and exact zeros
        logits = rng.uniform(0.2, 3.0) * scores + rng.normal()
        labels = (rng.random(n) < stable_sigmoid(logits, Workspace())
                  ).astype(int)
        nll.calls = 0
        fit = fit_platt(scores, labels)
        if labels.min() == labels.max():
            assert fit.degenerate
            continue
        reference = counting(platt_objective)
        assert (fit.a, fit.b) == capped_newton_fit(scores, labels,
                                                   reference), trial
        stopped_early += nll.calls < reference.calls
    assert stopped_early >= 3  # the early stop runs, not only the cap


def test_warm_start_at_the_optimum_stays_there_with_fewer_evaluations(
        monkeypatch):
    nll = counting(calibration._nll)
    monkeypatch.setattr(calibration, "_nll", nll)
    rng = np.random.default_rng(44)
    for n in (60, 500, 2000):
        s = 1.5 * rng.standard_normal(n)
        labels = (rng.random(n) < stable_sigmoid(1.2 * s + 0.4, Workspace())
                  ).astype(int)
        nll.calls = 0
        cold = fit_platt(s, labels)
        cold_calls = nll.calls
        nll.calls = 0
        warm = fit_platt(s, labels, (cold.a, cold.b))
        assert abs(warm.a - cold.a) < 1e-10 and abs(warm.b - cold.b) < 1e-10
        assert not warm.degenerate and nll.calls < cold_calls
        for start in ((-3.0, 4.0), (8.0, -2.0), (0.0, 0.0)):
            far = fit_platt(s, labels, start)
            assert abs(far.a - cold.a) < 1e-6 and abs(far.b - cold.b) < 1e-6
        # a -0.0 start runs as +0.0 does: a and b never hold -0.0
        assert fit_platt(s, labels, (-0.0, -0.0)) == \
            fit_platt(s, labels, (0.0, 0.0))


def test_single_class_labels_ignore_the_start():
    s = np.linspace(-1, 1, 10)
    for labels in (np.ones(10, dtype=int), np.zeros(10, dtype=int)):
        assert fit_platt(s, labels, (2.5, -7.0)) == fit_platt(s, labels)
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(40, 3))
    labels = rng.integers(0, 2, 40)  # class 2 never appears
    start = PlattCalibrator(np.array([1.5, 0.5, 3.0]),
                            np.array([0.2, -0.1, 9.0]), np.zeros(3, bool))
    cold = PlattCalibrator.fit(logits, labels, 3)
    warm = PlattCalibrator.fit(logits, labels, 3, start)
    assert warm.degenerate.tolist() == [False, False, True]
    assert (warm.a[2], warm.b[2]) == (cold.a[2], cold.b[2])
    assert np.abs(warm.a - cold.a).max() < 1e-6
    assert np.abs(warm.b - cold.b).max() < 1e-6


def test_calibrator_fit_skips_the_start_of_a_degenerate_class(monkeypatch):
    starts = []
    real = calibration.fit_platt

    def recording(scores, labels, start=None):
        starts.append(start)
        return real(scores, labels, start)

    monkeypatch.setattr(calibration, "fit_platt", recording)
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(50, 3))
    labels = rng.integers(0, 3, 50)
    start = PlattCalibrator(np.array([1.5, 0.0, 2.0]),
                            np.array([0.2, -1.0, 0.5]),
                            np.array([False, True, False]))
    PlattCalibrator.fit(logits, labels, 3, start)
    assert starts == [(1.5, 0.2), None, (2.0, 0.5)]
    starts.clear()
    PlattCalibrator.fit(logits, labels, 3)
    assert starts == [None] * 3


def test_fit_input_validation():
    with pytest.raises(ShapeError):
        fit_platt(np.zeros(3), np.zeros(4))
    with pytest.raises(InputError):
        fit_platt(np.zeros(0), np.zeros(0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="non-finite"):
            fit_platt(np.array([bad, 1.0, 2.0, -1.0]), np.array([1, 0, 1, 0]))
        with pytest.raises(InputError, match="non-finite"):
            PlattCalibrator.fit(np.array([[0.0, bad], [1.0, 0.0]]),
                                np.array([0, 1]), 2)
    # labels that are not 0/1, or not a class index, name no class
    scores = np.array([0.5, -1.0, 2.0, 0.0])
    for labels in ([0, 1, 2, 1], [0.5, 1, 0, 1], [-1, 0, 1, 0],
                   ["0", "1", "0", "1"]):
        with pytest.raises(InputError, match="0 or 1"):
            fit_platt(scores, np.array(labels))
    logits = np.zeros((4, 3))
    for labels in (np.array([0, 1, 7, 2]), np.full(4, -1), np.zeros(4),
                   np.array(["0", "1", "2", "0"]), np.zeros(4, dtype=bool),
                   np.zeros(3, dtype=np.int64), np.zeros((4, 1), np.int64)):
        with pytest.raises(InputError, match="labels"):
            PlattCalibrator.fit(logits, labels, 3)


# --- calibrate -------------------------------------------------------------

def test_identity_calibrator_keeps_uniform_uniform():
    cal = PlattCalibrator.identity(4)
    assert np.allclose(calibrate(np.zeros(4), cal), 0.25, atol=1e-12)


def test_calibrate_hand_example():
    cal = PlattCalibrator(np.ones(2), np.zeros(2), np.zeros(2, dtype=bool))
    out = calibrate(np.array([2.0, 0.0]), cal)
    assert abs(out[0] - CAL_20_HI) < 1e-12
    assert abs(out[1] - CAL_20_LO) < 1e-12


def test_calibrate_outputs_are_distributions():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        cal = PlattCalibrator(rng.uniform(0.2, 3.0, k),
                              rng.normal(size=k), np.zeros(k, dtype=bool))
        out = calibrate(rng.normal(scale=4.0, size=k), cal)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-9


def test_calibrate_underflowed_sigmoids_give_a_distribution():
    # every sigmoid underflows to 0, so the plain ratio would be 0/0
    out = calibrate_batch(np.array([[-800.0, -900.0, -1000.0]]),
                          PlattCalibrator.identity(3))
    want = np.exp([0.0, -100.0, -200.0])
    assert np.allclose(out[0], want / want.sum(), rtol=1e-12, atol=0.0)
    # a row beside it keeps the bits it has alone
    normal = np.array([[0.3, -2.0, 1.5]])
    mixed = calibrate_batch(np.array([[-800.0, -900.0, -1000.0], normal[0]]),
                            PlattCalibrator.identity(3))
    assert np.array_equal(mixed[1:],
                          calibrate_batch(normal, PlattCalibrator.identity(3)))


# bounded so that a * logit + b stays a finite float64
_FINITE = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda k: st.tuples(*(st.lists(_FINITE, min_size=k, max_size=k),) * 3)))
def test_calibrated_outputs_are_distributions_for_any_finite_inputs(abz):
    a, b, logits = (np.array(v) for v in abz)
    cal = PlattCalibrator(a, b, np.zeros(len(a), dtype=bool))
    out = calibrate_batch(logits[None, :], cal)[0]
    assert np.isfinite(out).all() and (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-9


def test_calibrate_monotone_in_own_score():
    rng = np.random.default_rng(2)
    cal = PlattCalibrator(rng.uniform(0.5, 2.0, 3), rng.normal(size=3),
                          np.zeros(3, dtype=bool))
    logits = np.array([0.3, -0.2, 0.8])
    base = calibrate(logits, cal)
    for k in range(3):
        bumped = logits.copy()
        bumped[k] += 0.5
        assert calibrate(bumped, cal)[k] > base[k]


def test_calibrate_batch_shape_check():
    with pytest.raises(ShapeError):
        calibrate_batch(np.zeros((2, 3)), PlattCalibrator.identity(4))


def test_multiclass_fit_flags_absent_class():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(40, 3))
    labels = rng.integers(0, 2, 40)  # class 2 never appears
    cal = PlattCalibrator.fit(logits, labels, 3)
    assert cal.degenerate.tolist() == [False, False, True]
    assert cal.a[2] == 0.0


def test_refit_on_calibrated_scores_is_near_identity():
    # a correct fit already sits at the optimum of the affine family, so a
    # second calibration pass moves the per-class parameters by almost nothing
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=2.0, size=(600, 3))
    labels = np.argmax(logits + rng.normal(scale=1.5, size=(600, 3)), axis=1)
    cal1 = PlattCalibrator.fit(logits, labels, 3)
    cal2 = PlattCalibrator.fit(logits * cal1.a + cal1.b, labels, 3)
    assert np.abs(cal2.a - 1.0).max() < 0.05
    assert np.abs(cal2.b).max() < 0.05


# --- expected_calibration_error ---------------------------------------------

def test_ece_low_for_sampled_oracle():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.0, 1.0, 10000)
    preds = np.column_stack([1.0 - p, p])
    labels = (rng.random(10000) < p).astype(int)
    assert expected_calibration_error(preds, labels, bins=10) < 0.02


def test_ece_overconfident_constant_predictor():
    n = 1000
    preds = np.tile([0.0, 1.0], (n, 1))
    labels = np.array([0, 1] * (n // 2))
    assert abs(expected_calibration_error(preds, labels, bins=10) - 0.5) < 1e-12


def test_ece_single_bin_exact_match():
    preds = np.tile([0.3, 0.7], (10, 1))
    labels = np.array([1] * 7 + [0] * 3)
    assert expected_calibration_error(preds, labels, bins=1) == 0.0


def test_ece_bounds_and_validation():
    with pytest.raises(InputError):
        expected_calibration_error(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ConfigError):
        expected_calibration_error(np.ones((2, 2)) / 2, np.zeros(2), bins=0)
    with pytest.raises(InputError):
        expected_calibration_error(np.ones((2, 2)) / 2, np.zeros(3, int))
    preds = np.array([[0.9, 0.1], [0.2, 0.8]])
    for labels in (np.array([[0, 1], [1, 0]]),  # one label per row only
                   np.array([0.5, 1.0])):  # class indices, not weights
        with pytest.raises(InputError, match="labels"):
            expected_calibration_error(preds, labels)
    for bad in (np.nan, np.inf):  # no bin may silently drop a row
        with pytest.raises(InputError, match="non-finite"):
            expected_calibration_error(np.array([[bad, bad], [0.9, 0.1]]),
                                       np.array([0, 0]))
    rng = np.random.default_rng(7)
    preds = rng.dirichlet(np.ones(3), size=50)
    val = expected_calibration_error(preds, rng.integers(0, 3, 50), bins=5)
    assert 0.0 <= val <= 1.0
