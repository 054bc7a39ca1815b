"""Discriminative team training: loss geometry, decisions, and trainers."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_memory
from teamopt import discriminative
from teamopt.data import Dataset, SynthConfig, generate_synthetic
from teamopt.discriminative import (SOLO_STREAMS, TeamConfig, decide,
                                    derive_rng, joint_disc_loss_fn,
                                    team_predict, train_fixed, train_joint,
                                    train_query_policy, train_solo_model,
                                    utility_loss_weights)
from teamopt.errors import InputError, QueryError, TrainingError
from teamopt.numerics import (BLOCK_STEPS, PROB_CLAMP, SIGMOID_HEAD,
                              SOFTMAX_HEAD, MlpModel, TrainConfig, Workspace,
                              forward_batch, loss_value, stack_models)

# frozen: -ln(0.75) + 1.0 * 0.1 * 0.5
JOINT_LOSS_MIX = 0.3376820724517809
# frozen: (2/3) * -ln(0.1)
JOINT_LOSS_WRONG = 1.5350567286626973


def joint_loss(m_dist, q_val, h, y, team, cost_weight):
    """One instance's mixture loss under the joint trainer's loss, for
    networks that output m_dist and q_val: one-layer stacks with zero
    weights whose biases are log(m_dist) and logit(q_val)."""
    K = len(m_dist)
    with np.errstate(divide="ignore"):  # log 0 and logit 0/1 are exact
        m_bias = np.log(np.asarray(m_dist, dtype=np.float64))
        q_bias = np.log(q_val) - np.log1p(-q_val)
    m = MlpModel((1, K), [np.zeros((1, K))], [m_bias], SOFTMAX_HEAD, 0.0)
    q = MlpModel((1, 1), [np.zeros((1, 1))], [np.array([q_bias])],
                 SIGMOID_HEAD, 0.0)
    w = utility_loss_weights(team)
    batch = (np.ones((1, 1)), np.array([y]), np.array([float(h == y)]),
             w[[y]], None, None)
    return loss_value({"m": stack_models([[m]]), "q": stack_models([[q]])},
                      batch, joint_disc_loss_fn(team, (cost_weight,)),
                      Workspace())


def noise_dataset(n=300, k=3, d=4, seed=11):
    """Unlearnable features with a perfect human: querying is the only win."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, n)
    return Dataset(X, y, y.copy(), k, "noise")


def separable_dataset(n=300, seed=11):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    X = np.concatenate([np.eye(3)[y], rng.standard_normal((n, 1))], axis=1)
    return Dataset(X, y, (y + 1) % 3, 3, "sep")


def models_equal(a, b):
    return (all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))
            and all(np.array_equal(b1, b2)
                    for b1, b2 in zip(a.biases, b.biases)))


# --- config and weights ------------------------------------------------------

def test_team_config_validation():
    for utility in (np.zeros((2, 3)), 5.0, np.ones(3)):
        with pytest.raises(InputError, match="square"):
            TeamConfig(utility)
    for utility in (np.zeros((0, 0)), np.ones((1, 1))):  # no team of one
        with pytest.raises(InputError, match="2x2"):
            TeamConfig(utility)
    with pytest.raises(InputError):
        TeamConfig(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(InputError):
        TeamConfig(np.eye(2), query_cost=-0.1)
    for cost in (np.nan, np.inf, -np.inf):  # NaN would mean "never query"
        with pytest.raises(InputError):
            TeamConfig(np.eye(2), query_cost=cost)
        with pytest.raises(InputError):
            TeamConfig.accuracy(2).with_cost(cost)
    team = TeamConfig.accuracy(4, 0.3)
    assert team.num_classes == 4
    assert np.array_equal(team.utility, np.eye(4))
    swapped = team.with_cost(0.7)
    assert swapped.query_cost == 0.7 and team.query_cost == 0.3


def test_loss_weights_identity_is_uniform():
    w = utility_loss_weights(TeamConfig.accuracy(5))
    assert np.array_equal(w, np.ones(5))


def test_loss_weights_asymmetric_example():
    # spread per column: (2, 1); mean-normalized to (4/3, 2/3)
    team = TeamConfig(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    w = utility_loss_weights(team)
    assert np.allclose(w, [4.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    assert abs(w.mean() - 1.0) < 1e-15


def test_loss_weights_scale_invariant():
    U = np.array([[2.0, -1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 0.0, 2.5]])
    w1 = utility_loss_weights(TeamConfig(U))
    w2 = utility_loss_weights(TeamConfig(10.0 * U))
    assert np.allclose(w1, w2, atol=1e-12)


def test_loss_weights_zero_spread_warns():
    with pytest.warns(UserWarning):
        w = utility_loss_weights(TeamConfig(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert np.array_equal(w, np.zeros(2))
    with pytest.warns(UserWarning):
        w = utility_loss_weights(TeamConfig(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert np.array_equal(w, np.array([2.0, 0.0]))


# --- the mixture loss on hand-set outputs ----------------------------------

def test_joint_loss_hand_example():
    team = TeamConfig.accuracy(2, query_cost=0.1)
    val = joint_loss(np.array([0.5, 0.5]), 0.5, h=0, y=0, team=team,
                     cost_weight=1.0)
    assert abs(val - JOINT_LOSS_MIX) < 1e-15


def test_joint_loss_weighted_wrong_prediction():
    team = TeamConfig(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    val = joint_loss(np.array([0.9, 0.1]), 0.0, h=1, y=1, team=team,
                     cost_weight=1.0)
    assert abs(val - JOINT_LOSS_WRONG) < 1e-12


def test_joint_loss_clamps_zero_probability():
    team = TeamConfig.accuracy(2)
    val = joint_loss(np.array([1.0, 0.0]), 0.0, h=0, y=1, team=team,
                     cost_weight=1.0)
    assert val == -np.log(PROB_CLAMP)


def test_joint_loss_query_cost_scales_with_q():
    team = TeamConfig.accuracy(2, query_cost=0.4)
    base = joint_loss(np.array([0.5, 0.5]), 0.0, 0, 0, team, cost_weight=2.0)
    full = joint_loss(np.array([0.5, 0.5]), 1.0, 0, 0, team, cost_weight=2.0)
    # q=1 routes to the (correct) human: CE term vanishes, cost term is lam*c
    assert abs(full - 0.8) < 1e-12
    assert abs(base - -np.log(0.5)) < 1e-15


# --- prediction paths ---------------------------------------------------------

def build_system(ds, team=None, iterations=50, **kw):
    team = team or TeamConfig.accuracy(ds.num_classes)
    cfg = TrainConfig(iterations=iterations, hidden_dims=(8,), seed=7, **kw)
    return train_joint([(ds, cfg)], team, (cfg.cost_weight,))[0][0]


def test_decide_batch_matches_single_predictions():
    ds = noise_dataset()
    system = build_system(ds)
    parts = system.parts(ds.X)
    labels, queried = decide(parts, ds.h, system.team.query_cost)
    assert labels.dtype == np.int64 and queried.dtype == np.bool_
    assert np.array_equal(labels, np.where(queried, ds.h, parts.machine))
    # the run-time rule ignores the query cost
    assert np.array_equal(decide(parts, ds.h, 10.0)[1], queried)
    for i in range(0, len(ds.X), 37):
        pred = team_predict(system, ds.X[i], lambda x, i=i: ds.h[i])
        assert pred.queried == queried[i]
        assert pred.predicted_label == labels[i]
        assert abs(pred.q_soft - parts.q_soft[i]) < 1e-12


def test_team_predict_skips_provider_when_not_querying():
    ds = noise_dataset()
    system = build_system(ds, team=TeamConfig.accuracy(3, 2.0),
                          iterations=400, cost_weight=4.0)
    calls = []

    def provider(x):
        calls.append(1)
        return 0

    pred = team_predict(system, ds.X[0], provider)
    assert not pred.queried
    assert calls == []
    assert pred.predicted_label == int(np.argmax(pred.machine_dist))


def test_team_predict_wraps_provider_failure():
    ds = noise_dataset()
    system = build_system(ds, iterations=400)  # cost-free: always queries

    def broken(x):
        raise ValueError("offline")

    with pytest.raises(QueryError):
        team_predict(system, ds.X[0], broken)
    pred = team_predict(system, ds.X[0], lambda x: np.float64(2.0))
    assert pred.queried and pred.predicted_label == 2


# --- training -----------------------------------------------------------------

def test_joint_query_rate_responds_to_cost():
    ds = noise_dataset()
    cfg = TrainConfig(iterations=400, hidden_dims=(8,), seed=3)
    [[free]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.0), (1.0,))
    [[costly]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 2.0),
                             (4.0,))
    _, q_free = decide(free.parts(ds.X), ds.h, 0.0)
    _, q_costly = decide(costly.parts(ds.X), ds.h, 2.0)
    assert q_free.mean() > 0.9
    assert q_costly.mean() < 0.1


def test_cost_weight_and_query_cost_enter_as_product():
    ds = noise_dataset()
    cfg = TrainConfig(iterations=60, hidden_dims=(8,), seed=7)
    [[a]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.1), (2.0,))
    [[b]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.2), (1.0,))
    assert models_equal(a.m, b.m) and models_equal(a.q, b.q)


def test_training_is_seed_deterministic():
    ds = noise_dataset()
    cfg = TrainConfig(iterations=40, hidden_dims=(8,), seed=5)
    [[a]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.1), (1.0,))
    [[b]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.1), (1.0,))
    assert models_equal(a.m, b.m) and models_equal(a.q, b.q)
    [[c]] = train_joint(
        [(ds, TrainConfig(iterations=40, hidden_dims=(8,), seed=6))],
        TeamConfig.accuracy(3, 0.1), (1.0,))
    assert not models_equal(a.m, c.m)


def test_retargeted_solo_training_learns_the_targets():
    ds = separable_dataset()  # h = (y + 1) % 3, features encode y
    cfg = TrainConfig(iterations=300, hidden_dims=(8,), seed=1)
    [[model]] = train_solo_model([(ds, cfg)], TeamConfig.accuracy(3),
                                 [("h", SOLO_STREAMS)])
    pred = forward_batch(model, ds.X).argmax(axis=1)
    assert (pred == ds.h).mean() > 0.95
    assert (pred == ds.y).mean() < 0.05


def test_fixed_policy_learns_to_query_hard_region():
    # machine can learn y except where the encoding is destroyed
    rng = np.random.default_rng(9)
    y = rng.integers(0, 3, 600)
    X = np.eye(3)[y] + rng.standard_normal((600, 3)) * 0.05
    hard = rng.random(600) < 0.4
    X[hard] = rng.standard_normal((hard.sum(), 3))
    X = np.concatenate([X, hard[:, None].astype(float)], axis=1)
    ds = Dataset(X, y, y.copy(), 3, "regional")
    cfg = TrainConfig(iterations=1500, learning_rate=0.3, hidden_dims=(8,),
                      seed=2)
    [[system]] = train_fixed([(ds, cfg)], TeamConfig.accuracy(3), (0.2,))
    _, queried = decide(system.parts(ds.X), ds.h, 0.2)
    assert queried[hard].mean() > 0.9
    assert queried[~hard].mean() < 0.1


def test_networks_without_hidden_layers_train():
    # hidden_dims=() gives linear heads: with dropout on, there is no unit
    # to drop, and each trainer steps them like any other network
    ds = separable_dataset()
    cfg = TrainConfig(iterations=300, hidden_dims=(), dropout_rate=0.2,
                      seed=1)
    [[model]] = train_solo_model([(ds, cfg)], TeamConfig.accuracy(3))
    assert model.layer_dims == (4, 3)
    assert (forward_batch(model, ds.X).argmax(axis=1) == ds.y).mean() > 0.95
    [[system]] = train_joint([(ds, cfg)], TeamConfig.accuracy(3, 0.1),
                             (1.0,))
    assert system.q.layer_dims == (4, 1)


def test_divergence_raises_training_error_with_iteration():
    ds = noise_dataset(n=100)
    cfg = TrainConfig(iterations=20, hidden_dims=(8,), learning_rate=1e200,
                      seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError) as exc:
                train_solo_model([(ds, cfg)], TeamConfig.accuracy(3))
    assert exc.value.iteration is not None
    assert 0 <= exc.value.iteration < 20


@pytest.mark.parametrize("trainer", ["solo", "query-policy", "joint-disc"])
def test_disc_steps_allocate_less_than_one_hidden_activation(monkeypatch,
                                                              trainer):
    # sweep-disc's shapes: 2 seeds, m alone (R=2) or 5 query costs or cost
    # weights each (R=10), minibatches of 64, K=5, one hidden layer of 16.
    # After the first block of steps, a step allocates less than one
    # (R, B, hidden) array above what it keeps: its activations, gates,
    # loss terms and step inputs live in the fit's workspace
    ds = generate_synthetic(SynthConfig(n=1000, seed=3))
    cfg = TrainConfig(iterations=3 * BLOCK_STEPS)
    runs = [(ds, replace(cfg, seed=seed)) for seed in (0, 1)]
    team = TeamConfig.accuracy(5, 0.1)
    ms = [m for [m] in train_solo_model(runs, team)]
    train, R = {
        "solo": (lambda: train_solo_model(runs, team), 2),
        "query-policy": (lambda: train_query_policy(
            [(*run, m) for run, m in zip(runs, ms)], team,
            (0.0, 0.05, 0.1, 0.15, 0.2)), 10),
        "joint-disc": (lambda: train_joint(runs, team,
                                           (0.25, 0.5, 1.0, 2.0, 4.0)), 10),
    }[trainer]
    above = []
    real = discriminative.fit_stack

    def fit_stack(*args, on_step=None, **kwargs):
        def step(it, models):
            if on_step is not None:
                on_step(it, models)
            above.append(trace.peak_above())

        return real(*args, on_step=step, **kwargs)

    monkeypatch.setattr(discriminative, "fit_stack", fit_stack)
    with traced_memory() as trace:
        train()
    B, hidden = 64, 16
    assert len(above) == cfg.iterations
    assert max(above[BLOCK_STEPS:]) < R * B * hidden * 8


def test_rng_streams_are_independent():
    a = derive_rng(3, 0).random(4)
    b = derive_rng(3, 1).random(4)
    c = derive_rng(3, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
    assert not np.array_equal(derive_rng(4, 0).random(4), a)
