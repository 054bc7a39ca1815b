"""Value-of-information decision rule, soft relaxation, and joint training."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import teamopt.voi as voi_mod
from conftest import BLOCK_SIZES, traced_memory
from oracles import soft_expected_utilities, soft_team_quantities
from teamopt import calibration, numerics
from teamopt.calibration import (PlattCalibrator, calibrate_batch,
                                 calibrated_head)
from teamopt.cli import dist_system, voi_rule_deviation
from teamopt.data import Dataset, SynthConfig, generate_synthetic, split
from teamopt.discriminative import (DiscriminativeSystem, TeamConfig, decide,
                                    team_predict, utility_loss_weights)
from teamopt.errors import (InputError, NumericError, QueryError,
                            ShapeError, StateError, TrainingError)
from teamopt.evaluation import SPLIT_FRACTIONS
from teamopt.numerics import (BLOCK_STEPS, SCORE_BLOCK, SIGMOID_HEAD,
                              MlpModel, TrainConfig, Workspace,
                              finite_diff_check, init_mlp, loss_and_grad,
                              loss_value, mlp_forward, sample_dropout_masks,
                              stack_models)
from teamopt.voi import (_calibration_split, gamma_all_input,
                         gamma_input, joint_calibrator, joint_voi_batch,
                         joint_voi_loss_fn, train_fixed_voi, train_joint_voi,
                         voi_decision_parts)

# frozen: 0.9*sigmoid(0.8) + 0.1*(1 - sigmoid(0.8))
SOFT_U_NQ_EXAMPLE = 0.6519795849020901


def parts_of(pa, pb, pg, U):
    """Decision parts of the system whose calibrated outputs are pa, pb and
    pg[h], on one instance."""
    return dist_system(pa, pb, pg, TeamConfig(U)).parts(np.zeros((1, 2)))


def toy_dataset(n=150, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0)
    h = y.copy()
    flip = rng.random(n) < 0.2
    h[flip] = rng.integers(0, 3, flip.sum())
    return Dataset(X, y, h, 3, "toy")


def models_equal(a, b):
    return (all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))
            and all(np.array_equal(b1, b2)
                    for b1, b2 in zip(a.biases, b.biases)))


# --- feature assembly ---------------------------------------------------------

def test_gamma_input_appends_onehot_response():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gamma_input(X, np.array([2, 0]), 3)
    assert out.shape == (2, 5)
    assert np.array_equal(out[0], [1.0, 2.0, 0.0, 0.0, 1.0])
    assert np.array_equal(out[1], [3.0, 4.0, 1.0, 0.0, 0.0])


def test_gamma_all_input_is_response_major():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gamma_all_input(X, 3)
    assert out.shape == (6, 5)
    eye = np.eye(3)
    for i in range(2):
        for h in range(3):
            assert np.array_equal(out[i * 3 + h], np.concatenate([X[i], eye[h]]))


# --- exact expected utilities --------------------------------------------------

def test_no_query_utility_examples():
    uniform = [[0.5, 0.5], [0.5, 0.5]]
    U = np.array([[1.0, -1.0], [0.0, 1.0]])
    for pa, util, best, u_nq in (([0.5, 0.5], np.eye(2), 0, 0.5),
                                 ([0.9, 0.1], np.eye(2), 0, 0.9),
                                 ([0.6, 0.4], U, 1, 0.4)):
        parts = parts_of(pa, [0.5, 0.5], uniform, util)
        assert parts.machine[0] == best
        assert abs(parts.alone_score[0] - u_nq) < 1e-15


def test_query_utility_example():
    parts = parts_of([0.5, 0.5], [0.7, 0.3], [[0.8, 0.2], [0.4, 0.6]],
                     np.eye(2))
    assert abs(parts.query_score[0] - 0.1 - 0.64) < 1e-15  # u_q at c=0.1


def test_query_utility_perfect_human_is_one_minus_cost():
    # dist_system needs positive probabilities: the human errs with 2e-12
    eye = np.eye(3) * (1.0 - 3e-12) + 1e-12
    parts = parts_of([0.2, 0.5, 0.3], [0.2, 0.5, 0.3], eye, np.eye(3))
    assert abs(parts.query_score[0] - 0.25 - 0.75) < 1e-11
    assert parts.by_response[0].tolist() == [0, 1, 2]


def test_query_utility_uninformative_human_ties_exactly():
    # p_gamma(.|x,h) == p_alpha for every h and c=0: querying adds nothing,
    # and the strict rule therefore declines the tie
    pa = [0.5, 0.5]
    parts = parts_of(pa, [0.5, 0.5], [pa, pa], np.eye(2))
    assert parts.query_score[0] == parts.alone_score[0]
    assert not parts.queried(0.0)[0]


# --- system-level decisions -----------------------------------------------------

def test_voi_decide_hand_system():
    system = dist_system([0.6, 0.4], [0.7, 0.3], [[0.8, 0.2], [0.4, 0.6]],
                         TeamConfig.accuracy(2, 0.1))
    x = np.array([[0.3, -0.8]])
    parts = system.parts(x)
    assert abs(parts.alone_score[0] - 0.6) < 1e-12  # u_nq
    assert abs(parts.query_score[0] - 0.1 - 0.64) < 1e-12  # u_q = 0.74 - c
    labels, queried = decide(parts, np.array([1]), 0.1)
    assert queried[0] and parts.machine[0] == 0 and labels[0] == 1
    costly = dist_system([0.6, 0.4], [0.7, 0.3], [[0.8, 0.2], [0.4, 0.6]],
                         TeamConfig.accuracy(2, 0.2))
    labels, queried = decide(costly.parts(x), np.array([1]), 0.2)
    assert not queried[0] and labels[0] == 0


def test_decide_batch_matches_single_rule_and_cost_override():
    system = dist_system([0.6, 0.4], [0.7, 0.3], [[0.8, 0.2], [0.4, 0.6]],
                         TeamConfig.accuracy(2, 0.1))
    X = np.random.default_rng(0).standard_normal((8, 2))
    h = np.arange(8) % 2
    parts = system.parts(X)
    labels, query = decide(parts, h, 0.1)
    assert labels.shape == (8,) and parts.by_response.shape == (8, 2)
    assert query.all()  # 0.74 - 0.1 > 0.6
    assert np.array_equal(labels, parts.by_response[np.arange(8), h])
    labels_hi, query_hi = decide(parts, h, 0.2)
    assert not query_hi.any()
    assert np.array_equal(labels_hi, parts.machine)
    for i in (0, 1):
        pred = team_predict(system, X[i], lambda x, i=i: h[i])
        assert pred.queried and pred.predicted_label == labels[i]


def distributions(k, rows=None):
    """A strategy for one distribution over k classes (or `rows` of them),
    every class weighted in [0.05, 1] before normalizing."""
    weights = st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
    if rows is not None:
        weights = st.lists(weights, min_size=rows, max_size=rows)
    return weights.map(lambda w: np.array(w) / np.sum(w, axis=-1,
                                                      keepdims=True))


# Utilities and costs are multiples of 1/64 and 1/256: exact in binary,
# and never so small that a product with a probability is subnormal.
_UTILITY = st.integers(-256, 256).map(lambda v: v / 64.0)
_COST = st.integers(0, 128).map(lambda v: v / 256.0)


@st.composite
def voi_cases(draw):
    """(K, U, pa, pb, pg) with K in {2, 3, 5} and a random utility."""
    K = draw(st.sampled_from((2, 3, 5)))
    U = np.array(draw(st.lists(_UTILITY, min_size=K * K, max_size=K * K))
                 ).reshape(K, K)
    return (K, U, draw(distributions(K)), draw(distributions(K)),
            draw(distributions(K, rows=K)))


def decide_every_response(case, utility_scale, cost):
    """(labels, query flags) of the case's system on one instance per
    human response, with the utility scaled by `utility_scale`."""
    K, U, pa, pb, pg = case
    system = dist_system(pa, pb, pg, TeamConfig(U * utility_scale))
    return decide(system.parts(np.zeros((K, 2))), np.arange(K), cost)


@settings(max_examples=200, deadline=None)
@given(voi_cases(), st.lists(_COST, min_size=2, max_size=6))
def test_query_set_shrinks_as_cost_grows(case, costs):
    prev = None
    for c in sorted(costs):
        _, query = decide_every_response(case, 1.0, c)
        if prev is not None:
            assert not (query & ~prev).any()  # nested downward
        prev = query


@settings(max_examples=200, deadline=None)
@given(voi_cases(), _COST, st.integers(-4, 4))
def test_decisions_ignore_a_common_scale_of_utility_and_cost(case, cost, k):
    # a power of two scales every product and sum exactly
    labels, query = decide_every_response(case, 1.0, cost)
    labels_s, query_s = decide_every_response(case, 2.0 ** k, cost * 2.0 ** k)
    assert np.array_equal(labels, labels_s)
    assert np.array_equal(query, query_s)


def test_random_systems_match_brute_force():
    assert voi_rule_deviation(np.random.default_rng(20), 100) < 1e-12


def test_uncalibrated_system_is_rejected():
    system = dist_system([0.5, 0.5], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         TeamConfig.accuracy(2))
    system.p_beta.calibrator = None
    assert not system.p_beta.calibrated
    with pytest.raises(StateError, match="p_beta"):
        system.parts(np.zeros((1, 2)))
    with pytest.raises(StateError):
        system.p_beta.predict_batch(np.zeros((1, 2)))


# --- team prediction ------------------------------------------------------------

def test_team_predict_no_query_path_skips_provider():
    system = dist_system([0.9, 0.1], [0.5, 0.5], [[0.9, 0.1], [0.9, 0.1]],
                         TeamConfig.accuracy(2, 0.3))
    calls = []
    pred = team_predict(system, np.zeros(2), lambda x: calls.append(1))
    assert not pred.queried and pred.q_soft == 0.0 and calls == []
    assert pred.predicted_label == 0
    assert abs(pred.machine_dist[0] - 0.9) < 1e-12


def test_team_predict_query_path_uses_post_query_utility():
    # after h=0 the label model leans 0, but the asymmetric utility still
    # prefers action 1
    U = np.array([[1.0, -1.0], [0.0, 1.0]])
    system = dist_system([0.5, 0.5], [0.6, 0.4], [[0.6, 0.4], [0.05, 0.95]],
                         TeamConfig(U, 0.0))
    pred = team_predict(system, np.zeros(2), lambda x: 0)
    assert pred.queried and pred.q_soft == 1.0
    assert pred.predicted_label == 1


def test_team_predict_provider_errors():
    system = dist_system([0.5, 0.5], [0.5, 0.5], [[0.99, 0.01], [0.01, 0.99]],
                         TeamConfig.accuracy(2, 0.0))
    assert system.parts(np.zeros((1, 2))).queried(0.0)[0]

    def broken(x):
        raise RuntimeError("offline")

    with pytest.raises(QueryError):
        team_predict(system, np.zeros(2), broken)
    with pytest.raises(QueryError, match="range"):
        team_predict(system, np.zeros(2), lambda x: 5)


def always_querying_disc_system(K=2, d=2):
    """Uniform machine, q = sigmoid(20): the run-time rule always fires."""
    m = MlpModel((d, K), [np.zeros((d, K))], [np.zeros(K)])
    q = MlpModel((d, 1), [np.zeros((d, 1))], [np.array([20.0])],
                 SIGMOID_HEAD)
    return DiscriminativeSystem(m, q, TeamConfig.accuracy(K), TrainConfig())


@pytest.mark.parametrize("family", ["disc", "voi"])
@pytest.mark.parametrize("response", [-1, 2, 7])
def test_team_predict_rejects_response_outside_class_range(family, response):
    if family == "disc":
        system = always_querying_disc_system()
    else:
        system = dist_system([0.5, 0.5], [0.5, 0.5],
                             [[0.99, 0.01], [0.01, 0.99]],
                             TeamConfig.accuracy(2, 0.0))
    assert team_predict(system, np.zeros(2), lambda x: 1).queried
    with pytest.raises(QueryError, match="range"):
        team_predict(system, np.zeros(2), lambda x: response)


def nonfinite_system(family, score):
    """A system of either family whose query_score or alone_score is NaN
    on every instance."""
    if family == "disc":
        system = always_querying_disc_system()
        if score == "query_score":  # q = sigmoid(nan)
            system.q.biases[0][0] = np.nan
        else:  # m = softmax(inf, inf) is NaN, and so is (1 - q) * max(m)
            system.m.biases[0][:] = np.inf
        return system
    system = dist_system([0.5, 0.5], [0.5, 0.5], [[0.99, 0.01], [0.01, 0.99]],
                         TeamConfig.accuracy(2, 0.0))
    # a NaN logit gives a NaN calibrated distribution
    part = system.p_beta if score == "query_score" else system.p_alpha
    part.model.biases[0][:] = np.nan
    return system


@pytest.mark.parametrize("family", ["disc", "voi"])
@pytest.mark.parametrize("score", ["query_score", "alone_score"])
def test_nonfinite_scores_raise_instead_of_deciding(family, score):
    system = nonfinite_system(family, score)
    with np.errstate(invalid="ignore"):
        parts = system.parts(np.zeros((3, 2)))
    assert np.isnan(getattr(parts, score)).all()
    with pytest.raises(NumericError, match=score) as info:
        decide(parts, np.zeros(3, dtype=int), 0.0)
    assert info.value.index == 0
    calls = []
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=score):
            team_predict(system, np.zeros(2), lambda x: calls.append(1))
    assert calls == []
    setattr(parts, score, np.array([0.5, np.inf, 0.5]))
    with pytest.raises(NumericError, match="instance 1"):
        parts.queried(0.0)


# --- soft quantities -------------------------------------------------------------

def test_soft_u_nq_hand_example():
    u_nq, _, _ = soft_expected_utilities(
        np.array([0.9, 0.1]), np.array([0.5, 0.5]),
        np.array([[0.9, 0.1], [0.9, 0.1]]), np.eye(2), tau=1.0)
    assert abs(u_nq - SOFT_U_NQ_EXAMPLE) < 1e-15


def test_soft_query_probability_is_half_on_tie():
    pa = np.array([0.7, 0.3])
    _, _, q = soft_expected_utilities(pa, np.array([0.5, 0.5]),
                                      np.tile(pa, (2, 1)), np.eye(2), tau=1.0)
    assert q == 0.5


def test_soft_u_nq_never_exceeds_exact_maximum():
    rng = np.random.default_rng(21)
    for _ in range(50):
        K = int(rng.choice([2, 3, 5]))
        pa = rng.dirichlet(np.ones(K))
        U = rng.uniform(-1, 1, (K, K))
        u_soft, _, _ = soft_expected_utilities(
            pa, rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K), size=K),
            U, tau=rng.uniform(0.05, 2.0))
        assert u_soft <= (U @ pa).max() + 1e-12


def test_soft_quantities_approach_exact_at_low_temperature():
    rng = np.random.default_rng(22)
    for _ in range(50):
        K = int(rng.choice([2, 3, 5]))
        while True:  # keep action utilities separated so the max is stable
            pa = rng.dirichlet(np.ones(K))
            pb = rng.dirichlet(np.ones(K))
            pg = rng.dirichlet(np.ones(K), size=K)
            U = rng.uniform(-1, 1, (K, K))
            gaps = [np.diff(np.sort(U @ pa)).min()]
            gaps += [np.diff(np.sort(r)).min() for r in pg @ U.T]
            if min(gaps) > 0.02:
                break
        system = dist_system(pa, pb, pg, TeamConfig(U, 0.0))
        x = rng.standard_normal(2)
        u_nq_s, u_q_s, _ = soft_team_quantities(system, x, tau=1e-3)
        parts = voi_decision_parts(system, x[None, :])
        assert abs(u_nq_s - parts.alone_score[0]) < 1e-6
        assert abs(u_q_s - parts.query_score[0]) < 1e-6
    # by default the oracle reads the system's three networks, utility and
    # temperature
    pa = system.p_alpha.predict_batch(x[None, :])[0]
    pb = system.p_beta.predict_batch(x[None, :])[0]
    pg = system.p_gamma.predict_batch(gamma_all_input(x[None, :], K))
    want = soft_expected_utilities(pa, pb, pg, U,
                                   system.train_cfg.softmax_temperature)
    assert np.allclose(soft_team_quantities(system, x), want, atol=1e-12)


# --- joint training ---------------------------------------------------------------

def test_joint_loss_matches_numpy_reference():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=30, hidden_dims=(6,), seed=9)
    [system] = train_fixed_voi([(ds, cfg)], team)
    x, y, h = ds.X[7], int(ds.y[7]), int(ds.h[7])
    cals = (system.p_alpha.calibrator, system.p_beta.calibrator,
            system.p_gamma.calibrator)
    batch = joint_voi_batch(x[None, :], np.array([h]), np.array([y]),
                            utility_loss_weights(team),
                            joint_calibrator([[cals]], 1))
    models = {"alpha": stack_models([[system.p_alpha.model]]),
              "beta": stack_models([[system.p_beta.model]]),
              "gamma": stack_models([[system.p_gamma.model]])}
    loss = loss_value(models, batch,
                      joint_voi_loss_fn(team, cfg, (cfg.cost_weight,)),
                      Workspace())
    _, _, q = soft_team_quantities(system, x)
    pa = system.p_alpha.predict_batch(x[None, :])[0]
    pg_h = system.p_gamma.predict_batch(
        gamma_input(x[None, :], np.array([h]), 3))[0]
    mix = q * pg_h + (1.0 - q) * pa
    ref = -np.log(mix[y]) + cfg.cost_weight * team.query_cost * q
    assert abs(loss - ref) < 1e-9


def test_calibrated_head_is_finite_where_every_sigmoid_underflows():
    cal = PlattCalibrator(np.array([1.0, 0.5, 2.0]), np.zeros(3),
                          np.zeros(3, dtype=bool))
    normal = np.array([0.3, -0.2, 0.1])
    logits = np.array([[-800.0, -1500.0, -420.0], normal])
    dp = np.random.default_rng(4).normal(size=logits.shape)
    # the head computes in the logits it is handed, which are reused below
    p, backward = voi_mod._calibrated(logits.copy(), cal, Workspace())
    grad = backward(dp)
    assert np.isfinite(p).all() and np.isfinite(grad).all()
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    # the ordinary row keeps the bits it has alone
    p1, back1 = voi_mod._calibrated(normal[None, :], cal, Workspace())
    assert np.array_equal(p[1:], p1)
    assert np.array_equal(grad[1:], back1(dp[1:]))
    eps = 1e-5
    for k in range(3):
        hi, lo = logits.copy(), logits.copy()
        hi[0, k] += eps
        lo[0, k] -= eps
        fd = ((dp * voi_mod._calibrated(hi, cal, Workspace())[0]).sum()
              - (dp * voi_mod._calibrated(lo, cal, Workspace())[0]).sum()
              ) / (2 * eps)
        assert abs(grad[0, k] - fd) < 1e-8


def test_joint_pipeline_gradients_match_finite_differences():
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=1, hidden_dims=(4,), softmax_temperature=0.7)
    models = {
        "alpha": init_mlp((4, 4, 3), "softmax", np.random.default_rng(1), 0.0),
        "beta": init_mlp((4, 4, 3), "softmax", np.random.default_rng(2), 0.0),
        "gamma": init_mlp((7, 4, 3), "softmax", np.random.default_rng(3), 0.0),
    }
    ds = toy_dataset(n=3)
    batch = joint_voi_batch(ds.X, ds.h, ds.y, utility_loss_weights(team),
                            joint_calibrator(
                                [[(PlattCalibrator.identity(3),) * 3]],
                                len(ds)))
    stacks = {name: stack_models([[m]]) for name, m in models.items()}
    assert finite_diff_check(stacks, batch, joint_voi_loss_fn(
        team, cfg, (cfg.cost_weight,))) < 1e-4


def joint_bit_case(R, masked, stacked, underflow):
    """A joint-VOI case of one run of R variants: networks with dropout
    masks or none, calibrators shared by the variants or one triple per
    variant (`stacked`), and, with `underflow`, instance 0's alpha logits
    so negative that every calibrated sigmoid of its row underflows in
    the replicas where one of its hidden units is active."""
    rng = np.random.default_rng(17 + R)
    K, d, hid, B = 3, 4, 8, 7
    team = TeamConfig(np.eye(K) + 0.3 * rng.random((K, K)), 0.2)
    cfg = TrainConfig(softmax_temperature=0.6)
    X = rng.standard_normal((B, d))
    y, h = rng.integers(0, K, B), rng.integers(0, K, B)
    rate = 0.3 if masked else 0.0
    models = {name: stack_models([[init_mlp(dims, "softmax", rng, rate)
                                   for _ in range(R)]])
              for name, dims in (("alpha", (d, hid, K)), ("beta", (d, hid, K)),
                                 ("gamma", (d + K, hid, K)))}
    if underflow:
        # alpha's logits fall with every hidden activation; row 0's are huge
        models["alpha"].weights[-1] *= -np.sign(models["alpha"].weights[-1])
        X[0] *= 1e4

    def calibrator():
        return PlattCalibrator(rng.uniform(0.5, 1.5, K), rng.normal(0, 0.3, K),
                               np.zeros(K, dtype=bool))

    if stacked:  # drawn head by head
        cals = [list(zip(*([calibrator() for _ in range(R)]
                           for _ in range(3))))]
    else:
        cals = [[tuple(calibrator() for _ in range(3))] * R]
    masks = (None,) * 3
    if masked:
        masks = tuple(sample_dropout_masks(models[name], n, rng,
                                           ws=Workspace(), steps=1)[0]
                      for name, n in (("alpha", B), ("beta", B),
                                      ("gamma", B * K)))
    batch = joint_voi_batch(X, h, y, utility_loss_weights(team),
                            joint_calibrator(cals, B), masks)
    lams = tuple(rng.uniform(0.5, 4.0, R))
    g = rng.uniform(0.0, 1.0, (1, R, B))
    return team, cfg, lams, cals, models, batch, g


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("underflow", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("R", [1, 5])
def test_one_pass_joint_loss_equals_three_passes_bit_for_bit(R, masked,
                                                             stacked,
                                                             underflow):
    team, cfg, lams, cals, models, batch, g = joint_bit_case(
        R, masked, stacked, underflow)
    low = calibrated_head(mlp_forward(models["alpha"], batch.X,
                                      batch.masks_a, Workspace())[0],
                          oracles.stacked_calibrators(cals)[0],
                          Workspace())[3]
    if underflow:
        assert low is not None and low[..., 0].any() and \
            not low[..., 1:].any()
    else:
        assert low is None
    per, backward = joint_voi_loss_fn(team, cfg, lams)(models, batch,
                                                       Workspace())
    per_ref, backward_ref = oracles.joint_voi_three_pass(
        team, cfg, lams, cals)(models, batch)
    assert np.isfinite(per).all()
    assert np.array_equal(bits(per), bits(per_ref))
    grads, grads_ref = backward(g), backward_ref(g)
    for name in ("alpha", "beta", "gamma"):
        got = grads[name].weights + grads[name].biases
        want = grads_ref[name].weights + grads_ref[name].biases
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(bits(a), bits(b))


def test_joint_voi_gradients_outlive_the_next_evaluation():
    # the workspace holds a step's arrays, never the gradients the loss
    # returns, which finite_diff_check reads after later evaluations
    team, cfg, lams, cals, models, batch, g = joint_bit_case(5, True, True,
                                                             False)
    loss_fn = joint_voi_loss_fn(team, cfg, lams)
    ws = Workspace()
    _, first = loss_and_grad(models, batch, loss_fn, ws)
    kept = {name: [a.copy() for a in gs.weights + gs.biases]
            for name, gs in first.items()}
    moved = {name: replace(m, weights=[w + 0.1 for w in m.weights])
             for name, m in models.items()}
    _, second = loss_and_grad(moved, batch, loss_fn, ws)
    for name, gs in first.items():
        for a, b, c in zip(gs.weights + gs.biases, kept[name],
                           second[name].weights + second[name].biases):
            assert np.array_equal(bits(a), bits(b))
            assert not np.shares_memory(a, c)
    assert not np.array_equal(first["gamma"].weights[0],
                              second["gamma"].weights[0])


def test_joint_voi_step_allocates_less_than_one_gamma_activation(
        monkeypatch):
    # sweep-voi's shapes: 2 seeds x 5 cost weights, minibatches of 64,
    # K=5, one hidden layer of 16. After the first block of steps, a step
    # allocates less than one (R, B*K, hidden) array above what it keeps:
    # its activations, gates and heads live in the fit's workspace
    ds = generate_synthetic(SynthConfig(n=1000, seed=3))
    cfg = TrainConfig(iterations=3 * BLOCK_STEPS, calibration_interval=1000)
    runs = [(ds, replace(cfg, seed=seed)) for seed in (0, 1)]
    team = TeamConfig.accuracy(5, 0.1)
    starts = train_fixed_voi(runs, team)
    above = []
    real = voi_mod.fit_stack

    def fit_stack(*args, on_step, **kwargs):
        def step(it, models):
            on_step(it, models)
            above.append(trace.peak_above())

        return real(*args, on_step=step, **kwargs)

    monkeypatch.setattr(voi_mod, "fit_stack", fit_stack)
    with traced_memory() as trace:
        train_joint_voi([(d, c, s) for (d, c), s in zip(runs, starts)], team,
                        (0.25, 0.5, 1.0, 2.0, 4.0))
    R, B, K, hidden = 10, 64, 5, 16
    assert len(above) == cfg.iterations
    assert max(above[BLOCK_STEPS:]) < R * B * K * hidden * 8


def test_joint_voi_step_keeps_less_than_four_mib(monkeypatch):
    # sweep-voi's shapes and splits: 2 seeds x 5 cost weights, minibatches
    # of 64, K=5, one hidden layer of 16. After the first block of steps,
    # what the fit keeps from step to step stays below 4 MiB. Its dropout
    # masks are bool keep flags, drawn through one float64 row of
    # uniforms: no mask scope holds a float64 array any larger
    ds = generate_synthetic(SynthConfig(n=14000, seed=3))
    cfg = TrainConfig(iterations=2 * BLOCK_STEPS, calibration_interval=1000)
    runs = [(split(ds, SPLIT_FRACTIONS, seed)[0], replace(cfg, seed=seed))
            for seed in (0, 1)]
    team = TeamConfig.accuracy(5, 0.1)
    starts = train_fixed_voi(runs, team)
    live, scopes = [], []
    real_fit, real_masks = voi_mod.fit_stack, numerics.sample_dropout_masks

    def fit_stack(*args, on_step, **kwargs):
        def step(it, models):
            on_step(it, models)
            if it >= BLOCK_STEPS:
                live.append(trace.live())

        return real_fit(*args, on_step=step, **kwargs)

    def sample_dropout_masks(model, n, *rngs, ws, **kwargs):
        scopes.append((n * sum(model.layer_dims[1:-1]), ws))
        return real_masks(model, n, *rngs, ws=ws, **kwargs)

    monkeypatch.setattr(voi_mod, "fit_stack", fit_stack)
    monkeypatch.setattr(numerics, "sample_dropout_masks",
                        sample_dropout_masks)
    with traced_memory() as trace:
        train_joint_voi([(d, c, s) for (d, c), s in zip(runs, starts)], team,
                        (0.25, 0.5, 1.0, 2.0, 4.0))
    assert len(live) == BLOCK_STEPS
    assert max(live) < 4.0 * 2**20
    assert len(scopes) == 2 * 3  # two blocks of alpha, beta and gamma
    for row, ws in scopes:
        for a in ws._arrays.values():
            assert a.dtype == bool or (a.dtype == np.float64
                                       and a.size <= row)


def test_joint_loss_calibrates_and_softens_once_per_evaluation(monkeypatch):
    team, cfg, lams, cals, models, batch, g = joint_bit_case(5, True, True,
                                                             False)
    counts = {"_calibrated": 0, "_soft_max": 0}
    for name in counts:
        def counting(*args, _real=getattr(voi_mod, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(voi_mod, name, counting)
    _, backward = joint_voi_loss_fn(team, cfg, lams)(models, batch,
                                                     Workspace())
    backward(g)
    assert counts == {"_calibrated": 1, "_soft_max": 1}


@pytest.fixture(scope="module")
def scored_split():
    """A fixed-VOI system trained on sweep-sized data, and its 2,100-row
    validation split."""
    ds = generate_synthetic(SynthConfig(n=14000, seed=3))
    train, val, _ = split(ds, (0.7, 0.15, 0.15), 0)
    [system] = train_fixed_voi(
        [(train, TrainConfig(iterations=100, calibration_interval=50))],
        TeamConfig.accuracy(5, 0.1))
    return system, val


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_scoring_equals_the_whole_batch_bit_for_bit(scored_split,
                                                             monkeypatch, n):
    system, val = scored_split
    X = val.X
    assert len(X) == 2100
    want = oracles.voi_decision_parts_whole(system, X[:n])
    blocks = []

    def gamma_all_input(Xb, K):
        blocks.append(len(Xb))
        return real(Xb, K)

    real = voi_mod.gamma_all_input
    monkeypatch.setattr(voi_mod, "gamma_all_input", gamma_all_input)
    got = voi_decision_parts(system, X[:n])
    assert sum(blocks) == n and max(blocks) <= SCORE_BLOCK
    assert len(blocks) == max(1, -(-n // SCORE_BLOCK))
    if n > 1:
        assert min(blocks) > 1  # a one-row matmul rounds differently
    for field in ("machine", "by_response", "query_score", "alone_score",
                  "machine_dist"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert (got.cost_applies, got.q_soft) == (want.cost_applies, want.q_soft)


def test_voi_scoring_stacks_each_network_once(scored_split, monkeypatch):
    # p_alpha and p_beta score the whole split, and p_gamma's blocks run
    # one stack; no whole (n*K, d+K) array of gamma rows is built
    system, val = scored_split
    stacks, gamma_rows = [], []

    def stack_models(models):
        stacks.append(models)
        return real_stack(models)

    def gamma_all_input(Xb, K):
        gamma_rows.append(len(Xb) * K)
        return real_gamma(Xb, K)

    real_stack, real_gamma = numerics.stack_models, voi_mod.gamma_all_input
    monkeypatch.setattr(numerics, "stack_models", stack_models)
    monkeypatch.setattr(voi_mod, "gamma_all_input", gamma_all_input)
    voi_decision_parts(system, val.X)
    assert len(val.X) == 2100 and len(stacks) == 3
    assert max(gamma_rows) <= SCORE_BLOCK * system.num_classes


def test_voi_scoring_takes_no_rows_and_refuses_misshapen_batches(
        scored_split):
    system, _ = scored_split
    parts = system.parts(np.zeros((0, 8)))
    assert parts.machine.shape == parts.query_score.shape == (0,)
    assert parts.by_response.shape == parts.machine_dist.shape == (0, 5)
    for X in (np.zeros(8), np.zeros((3, 7))):
        with pytest.raises(ShapeError):
            system.parts(X)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("n", BLOCK_SIZES[1:])
def test_blocked_refit_equals_the_whole_slice_bit_for_bit(scored_split, n,
                                                          warm):
    # the first n rows of the split as a held-out slice, its rows held as
    # indices into the dataset, as `_calibration_split` holds them
    system, val = scored_split
    calib = val.subset(np.arange(n))
    models = [p.model for p in (system.p_alpha, system.p_beta,
                                system.p_gamma)]
    start = tuple(p.calibrator if warm else None
                  for p in (system.p_alpha, system.p_beta, system.p_gamma))
    got = voi_mod._refit_calibrators(*models, calib, start)
    want = oracles.refit_calibrators_whole(*models, calib, start)
    for g, w in zip(got, want):
        for field in ("a", "b", "degenerate"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


def test_refit_keeps_under_half_a_mib_above_what_it_holds():
    # sweep-voi's shapes: the 1,960-row held-out slice of a 9,800-row
    # training split, d=8, K=5, one hidden layer of 16. Each head's
    # logits are held whole, 77 KiB, and its rows a block at a time; the
    # whole-slice refit read 777 KiB here
    ds = generate_synthetic(SynthConfig(n=14000, seed=3))
    _, calib = _calibration_split(split(ds, SPLIT_FRACTIONS, 0)[0], 0)
    assert (len(calib), calib.feature_dim) == (1960, 8)
    rng = np.random.default_rng(0)
    models = [init_mlp((d, 16, 5), "softmax", rng) for d in (8, 8, 13)]
    with traced_memory() as trace:
        voi_mod._refit_calibrators(*models, calib)
        above = trace.peak_above()
    assert above < 512 * 2**10


def test_fixed_voi_trains_calibrated_system():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=30, hidden_dims=(6,), seed=9)
    [system] = train_fixed_voi([(ds, cfg)], team)
    system.require_calibrated()
    assert system.num_classes == 3
    parts = system.parts(ds.X)
    labels, query = decide(parts, ds.h, team.query_cost)
    assert labels.shape == (len(ds),)
    assert parts.by_response.shape == (len(ds), 3)
    # identity utility bounds: u_q <= 1 - c < 1/K <= u_nq at c=1
    _, query_expensive = decide(parts, ds.h, 1.0)
    assert not query_expensive.any()


def test_fixed_voi_gamma_beats_alpha_given_informative_response():
    ds = toy_dataset(n=400)
    cfg = TrainConfig(iterations=400, hidden_dims=(8,), seed=3)
    [system] = train_fixed_voi([(ds, cfg)], TeamConfig.accuracy(3, 0.0))
    pa = system.p_alpha.predict_batch(ds.X)
    pg = system.p_gamma.predict_batch(gamma_input(ds.X, ds.h, 3))
    acc_alpha = (pa.argmax(axis=1) == ds.y).mean()
    acc_gamma = (pg.argmax(axis=1) == ds.y).mean()
    assert acc_gamma > acc_alpha


def test_joint_voi_warm_start_is_equivalent_and_fresh():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=30, hidden_dims=(6,), seed=9,
                      calibration_interval=10)
    [fixed] = train_fixed_voi([(ds, cfg)], team)
    cal_before = fixed.p_alpha.calibrator.a.copy()
    # a used start gives what a freshly trained one does
    [[j1]] = train_joint_voi([(ds, cfg, fixed)], team, (cfg.cost_weight,))
    [fresh] = train_fixed_voi([(ds, cfg)], team)
    [[j2]] = train_joint_voi([(ds, cfg, fresh)], team, (cfg.cost_weight,))
    for part in ("p_alpha", "p_beta", "p_gamma"):
        assert models_equal(getattr(j1, part).model, getattr(j2, part).model)
        assert np.array_equal(getattr(j1, part).calibrator.a,
                              getattr(j2, part).calibrator.a)
    # the warm start is consumed without mutation and the tuning moved m
    assert np.array_equal(fixed.p_alpha.calibrator.a, cal_before)
    assert not models_equal(j1.p_alpha.model, fixed.p_alpha.model)


def test_recalibration_schedule(monkeypatch):
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    counts = []
    real = voi_mod._refit_calibrators

    def counting(*args, **kw):
        counts.append(1)
        return real(*args, **kw)

    def run(iterations, interval):
        counts.clear()
        cfg = TrainConfig(iterations=iterations, hidden_dims=(6,), seed=9,
                          calibration_interval=interval)
        [warm] = train_fixed_voi([(ds, cfg)], team)
        monkeypatch.setattr(voi_mod, "_refit_calibrators", counting)
        train_joint_voi([(ds, cfg, warm)], team, (cfg.cost_weight,))
        monkeypatch.setattr(voi_mod, "_refit_calibrators", real)
        return len(counts)

    assert run(4, 2) == 2   # one mid-run refresh, one final
    assert run(2, 5) == 1   # interval past the horizon: final only
    assert run(6, 2) == 3   # refreshes at 2 and 4; iteration 6 is the final


def test_each_joint_refit_starts_from_the_previous_calibrators(monkeypatch):
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=6, hidden_dims=(6,), seed=9,
                      calibration_interval=2)
    calls = []  # (start, fitted) per PlattCalibrator.fit
    real = PlattCalibrator.fit.__func__

    def recording(cls, logits, labels, num_classes, start=None):
        fitted = real(cls, logits, labels, num_classes, start)
        calls.append((start, fitted))
        return fitted

    monkeypatch.setattr(calibration.PlattCalibrator, "fit",
                        classmethod(recording))
    [fixed] = train_fixed_voi([(ds, cfg)], team)
    assert [start for start, _ in calls] == [None] * 3  # a cold fit
    calls.clear()
    lams = (0.5, 2.0)
    [systems] = train_joint_voi([(ds, cfg, fixed)], team, lams)
    # refits at iterations 2 and 4 and the final one; per refit, each
    # replica fits (alpha, beta, gamma)
    per_round = 3 * len(lams)
    assert len(calls) == 3 * per_round
    previous = [p.calibrator for p in
                (fixed.p_alpha, fixed.p_beta, fixed.p_gamma)] * len(lams)
    for i in range(0, len(calls), per_round):
        refit = calls[i:i + per_round]
        assert all(start is prev
                   for (start, _), prev in zip(refit, previous))
        previous = [fitted for _, fitted in refit]
    final = [getattr(s, p).calibrator for s in systems
             for p in ("p_alpha", "p_beta", "p_gamma")]
    assert all(a is b for a, b in zip(final, previous))


def test_stacked_calibrator_reports_k_and_calibrates_each_replica():
    # the joint calibrator of an (S, G) = (2, 1) stack calibrates each
    # replica's head rows as that replica's own calibrator does
    rng = np.random.default_rng(12)
    B, K = 4, 3
    cals = [[(PlattCalibrator(rng.uniform(0.5, 2.0, K), rng.normal(size=K),
                              np.zeros(K, dtype=bool)),) * 3],
            [(PlattCalibrator.identity(K),) * 3]]
    stacked = joint_calibrator(cals, B)
    assert stacked.num_classes == K
    logits = rng.normal(size=(2, 1, B + B * K + B, K))
    got = calibrate_batch(logits, stacked)
    for s, [(cal, _, _)] in enumerate(cals):
        assert np.array_equal(got[s, 0], calibrate_batch(logits[s, 0], cal))


def test_joint_calibrator_tiles_each_head_per_row():
    rng = np.random.default_rng(13)
    K, B, S, G = 3, 4, 2, 3

    def calibrator():
        return PlattCalibrator(rng.uniform(0.5, 2.0, K), rng.normal(size=K),
                               rng.random(K) < 0.5)

    cals = [[tuple(calibrator() for _ in range(3))  # alpha, beta, gamma
             for _ in range(G)] for _ in range(S)]
    spans = (slice(0, B), slice(B + B * K, None), slice(B, B + B * K))
    joint = joint_calibrator(cals, B)
    for field in ("a", "b", "degenerate"):
        arr = getattr(joint, field)
        assert arr.shape == (S, G, B + B * K + B, K)
        assert arr.flags.c_contiguous  # elementwise results inherit it
        for s, g in np.ndindex(S, G):
            for cal, rows in zip(cals[s][g], spans):
                head = arr[s, g, rows]
                assert np.array_equal(
                    head, np.broadcast_to(getattr(cal, field), head.shape))


def test_calibration_split_shapes_and_determinism():
    ds = toy_dataset(n=10)
    fit_ds, calib_ds = _calibration_split(ds, seed=4)
    assert len(calib_ds) == 2 and len(fit_ds) == 8
    assert fit_ds.name.endswith("/fit") and calib_ds.name.endswith("/calib")
    fit2, calib2 = _calibration_split(ds, seed=4)
    assert np.array_equal(fit_ds.X, fit2.X)
    assert np.array_equal(calib_ds.X, calib2.X)
    merged = np.concatenate([fit_ds.X, calib_ds.X])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.X, axis=0))
    with pytest.raises(InputError):
        _calibration_split(toy_dataset(n=1), seed=0)


def test_joint_voi_divergence_reports_iteration():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 0.05)
    cfg = TrainConfig(iterations=6, hidden_dims=(6,), seed=0,
                      calibration_interval=100)
    [start] = train_fixed_voi([(ds, cfg)], team)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError) as exc:
                train_joint_voi(
                    [(ds, replace(cfg, learning_rate=1e200), start)], team,
                    (cfg.cost_weight,))
    assert "joint training" in str(exc.value)
    assert exc.value.iteration is not None
