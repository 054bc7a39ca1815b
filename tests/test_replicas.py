"""Replica stacks: several trainings of one shape stepped together by
`fit_stack`.

A stack must reproduce one-at-a-time training bit for bit, keep the
finite-difference contract per replica, and report divergence as the
failing replica would alone.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from teamopt import voi
from teamopt.calibration import PlattCalibrator
from teamopt.data import Dataset, split
from teamopt.discriminative import (SOLO_STREAMS, TeamConfig,
                                    joint_disc_loss_fn,
                                    query_policy_loss_fn, solo_ce_loss,
                                    train_fixed, train_joint,
                                    train_query_policy, train_solo_model,
                                    utility_loss_weights)
from teamopt.errors import (ConfigError, NumericError, ShapeError,
                            TrainingError)
from teamopt.evaluation import SPLIT_FRACTIONS, cost_sweep
from teamopt.numerics import (BLOCK_STEPS, SIGMOID_HEAD, SOFTMAX_HEAD,
                              TrainConfig, Workspace, batch_indices,
                              block_rows, finite_diff_check, fit_stack,
                              init_mlp, loss_and_grad, sample_dropout_masks,
                              stable_softmax, stack_models, unstack_models)
from teamopt.voi import (STREAM_ALPHA, STREAM_BETA, joint_calibrator,
                         joint_voi_batch, joint_voi_loss_fn, train_fixed_voi,
                         train_joint_voi)

LAMBDAS = (0.5, 2.0, 8.0)


def toy_dataset(n=200, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0)
    h = y.copy()
    flip = rng.random(n) < 0.3
    h[flip] = rng.integers(0, 3, flip.sum())
    return Dataset(X, y, h, 3, "toy")


def assert_models_identical(a, b):
    assert a.layer_dims == b.layer_dims
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.shape == y.shape and np.array_equal(x, y)


def assert_calibrators_identical(a, b):
    for field in ("a", "b", "degenerate"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def quiet():
    warnings.simplefilter("ignore")
    return np.errstate(all="ignore")


# --- stacking ---------------------------------------------------------------

def test_stack_round_trip_and_shapes():
    # models[s][g] in, (S, G) stacks, and models[s][g] back out
    rng = np.random.default_rng(0)
    models = [[init_mlp((4, 6, 3), SOFTMAX_HEAD, rng) for _ in range(2)]
              for _ in range(3)]
    stacked = stack_models(models)
    assert stacked.weights[0].shape == (3, 2, 4, 6)
    assert stacked.biases[1].shape == (3, 2, 1, 3)
    back = unstack_models(stacked)
    assert [len(run) for run in back] == [2, 2, 2]
    for run, run_back in zip(models, back):
        for a, b in zip(run, run_back):
            assert_models_identical(a, b)
    with pytest.raises(ShapeError, match="architecture"):
        stack_models([[models[0][0], init_mlp((4, 5, 3), SOFTMAX_HEAD, rng)]])
    with pytest.raises(ShapeError, match="variant counts"):
        stack_models([models[0], models[1][:1], models[2]])


def test_nonfinite_stacked_loss_names_replica_and_instance():
    m = stack_models([[init_mlp((2, 2), SOFTMAX_HEAD,
                                np.random.default_rng(1))] * 2])
    vec = np.array([[[1.0, 1.0, 1.0], [1.0, 1.0, np.inf]]])
    with pytest.raises(NumericError) as info:
        loss_and_grad({"m": m}, None, lambda models, b, ws: (vec, None),
                      Workspace())
    assert (info.value.replica, info.value.index) == (1, 2)


# --- stacked training equals one-at-a-time training --------------------------

SEEDS = (0, 1, 2)


def seed_runs(cfg, n=200):
    """One (dataset, cfg) run per seed of SEEDS, as a sweep stacks them:
    the seed's training split of a toy dataset, `cfg` seeded to it."""
    ds = toy_dataset(n)
    return [(split(ds, SPLIT_FRACTIONS, s)[0], replace(cfg, seed=s))
            for s in SEEDS]


def assert_voi_identical(a, b):
    assert a.train_cfg == b.train_cfg
    for part in ("p_alpha", "p_beta", "p_gamma"):
        assert_models_identical(getattr(a, part).model,
                                getattr(b, part).model)
        assert_calibrators_identical(getattr(a, part).calibrator,
                                     getattr(b, part).calibrator)


def test_fixed_voi_seeds_equal_single_runs():
    runs = seed_runs(TrainConfig(iterations=25, hidden_dims=(6,)))
    team = TeamConfig.accuracy(3, 0.2)
    stacked = train_fixed_voi(runs, team)
    assert len(stacked) == len(runs)
    for run, system in zip(runs, stacked):
        assert_voi_identical(system, train_fixed_voi([run], team)[0])
    assert not np.array_equal(stacked[0].p_alpha.model.weights[0],
                              stacked[1].p_alpha.model.weights[0])


def test_joint_voi_grid_equals_single_runs():
    runs = seed_runs(TrainConfig(iterations=25, hidden_dims=(6,),
                                 calibration_interval=10))  # refits at 10, 20
    team = TeamConfig.accuracy(3, 0.2)
    starts = [(*run, start)
              for run, start in zip(runs, train_fixed_voi(runs, team))]
    grid = train_joint_voi(starts, team, LAMBDAS)
    assert [len(systems) for systems in grid] == [len(LAMBDAS)] * len(runs)
    for run, systems in zip(starts, grid):
        for lam, stacked in zip(LAMBDAS, systems):
            [[alone]] = train_joint_voi([run], team, (lam,))
            assert_voi_identical(stacked, alone)
    # the cost weight mattered, so the replicas did not train alike
    assert not np.array_equal(grid[0][0].p_alpha.model.weights[0],
                              grid[0][-1].p_alpha.model.weights[0])


def test_joint_disc_grid_equals_single_runs():
    runs = seed_runs(TrainConfig(iterations=40, hidden_dims=(6,)))
    team = TeamConfig.accuracy(3, 0.2)
    grid = train_joint(runs, team, LAMBDAS)
    for run, systems in zip(runs, grid):
        for lam, stacked in zip(LAMBDAS, systems):
            [[alone]] = train_joint([run], team, (lam,))
            assert stacked.train_cfg == alone.train_cfg
            assert_models_identical(stacked.m, alone.m)
            assert_models_identical(stacked.q, alone.q)
    assert not np.array_equal(grid[0][0].q.weights[0],
                              grid[0][-1].q.weights[0])


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_solo_replicas_equal_single_runs(dropout_rate):
    # each replica draws its own batches and masks from its own streams
    runs = seed_runs(TrainConfig(iterations=40, hidden_dims=(6,),
                                 dropout_rate=dropout_rate))
    team = TeamConfig.accuracy(3)
    pairs = [("y", STREAM_ALPHA), ("h", STREAM_BETA), ("y", SOLO_STREAMS)]
    stacked = train_solo_model(runs, team, pairs)
    assert [len(models) for models in stacked] == [len(pairs)] * len(runs)
    for run, models in zip(runs, stacked):
        for pair, model in zip(pairs, models):
            [[alone]] = train_solo_model([run], team, [pair])
            assert_models_identical(model, alone)
    assert not np.array_equal(stacked[0][0].weights[0],
                              stacked[0][1].weights[0])


def test_query_policy_grid_equals_single_runs():
    runs = seed_runs(TrainConfig(iterations=40, hidden_dims=(6,)))
    team = TeamConfig.accuracy(3)
    runs = [(*run, m) for run, [m] in zip(runs, train_solo_model(runs, team))]
    costs = (0.0, 0.1, 0.3)
    grid = train_query_policy(runs, team, costs)
    for run, policies in zip(runs, grid):
        for c, stacked in zip(costs, policies):
            assert_models_identical(
                stacked, train_query_policy([run], team, (c,))[0][0])
    assert not np.array_equal(grid[0][0].weights[0], grid[0][-1].weights[0])


def test_fixed_disc_seeds_equal_single_runs():
    runs = seed_runs(TrainConfig(iterations=40, hidden_dims=(6,)))
    team = TeamConfig.accuracy(3)
    costs = (0.0, 0.3)
    for run, systems in zip(runs, train_fixed(runs, team, costs)):
        for stacked, alone in zip(systems, train_fixed([run], team, costs)[0]):
            assert stacked.train_cfg == alone.train_cfg
            assert stacked.team == alone.team
            assert_models_identical(stacked.m, alone.m)
            assert_models_identical(stacked.q, alone.q)


def test_runs_must_share_their_config_apart_from_the_seed():
    [run0, run1, _] = seed_runs(TrainConfig(iterations=5, hidden_dims=(6,)))
    team = TeamConfig.accuracy(3)
    with pytest.raises(ConfigError, match="seed"):
        train_joint([run0, (run1[0], replace(run1[1], learning_rate=0.5))],
                    team, LAMBDAS)
    with pytest.raises(ShapeError, match="minibatch"):
        small = replace(run0[1], batch_size=1000)
        train_joint([(run0[0], small),
                     (run1[0].subset(np.arange(50)), replace(small, seed=1))],
                    team, LAMBDAS)


# --- the finite-difference contract holds per replica -----------------------

def random_calibrators(rng, K, G):
    """cals[s][g] of one run of G variants: an (alpha, beta, gamma)
    triple of random calibrators per variant, drawn head by head."""
    heads = [[PlattCalibrator(rng.uniform(0.5, 1.5, K), rng.normal(0, 0.3, K),
                              np.zeros(K, dtype=bool)) for _ in range(G)]
             for _ in range(3)]
    return [list(zip(*heads))]


def replica_case(seed):
    rng = np.random.default_rng(seed)
    K, d, hid, B, R = 3, 4, 5, 6, 3
    team = TeamConfig(np.eye(K) + 0.2 * rng.random((K, K)), 0.3)
    X = rng.standard_normal((B, d))
    y = rng.integers(0, K, B)
    h = rng.integers(0, K, B)
    lams = (0.5, 1.5, 4.0)
    return rng, team, X, y, h, lams, (K, d, hid, R)


def stacked_mlps(rng, dims, head, R):
    # one run of R variants
    return stack_models([[init_mlp(dims, head, rng, 0.0) for _ in range(R)]])


def check_replica_independence(models, batch, loss_fn):
    _, before = loss_and_grad(models, batch, loss_fn, Workspace())
    for m in models.values():
        for arr in m.weights + m.biases:
            arr[0, 0] += 0.25
    _, after = loss_and_grad(models, batch, loss_fn, Workspace())
    moved = False
    for name in models:
        for g0, g1 in zip(before[name].weights + before[name].biases,
                          after[name].weights + after[name].biases):
            assert np.array_equal(g0[0, 1:], g1[0, 1:])
            moved |= not np.array_equal(g0[0, 0], g1[0, 0])
    assert moved


def test_joint_disc_replicas_match_finite_differences():
    rng, team, X, y, h, lams, (K, d, hid, R) = replica_case(31)
    w = utility_loss_weights(team)
    loss_fn = joint_disc_loss_fn(team, lams)
    models = {"m": stacked_mlps(rng, (d, hid, K), SOFTMAX_HEAD, R),
              "q": stacked_mlps(rng, (d, hid, 1), SIGMOID_HEAD, R)}
    batch = (X, y, (h == y).astype(float), w[y], None, None)
    assert finite_diff_check(models, batch, loss_fn) < 1e-4
    check_replica_independence(models, batch, loss_fn)


def test_joint_voi_replicas_match_finite_differences():
    rng, team, X, y, h, lams, (K, d, hid, R) = replica_case(32)
    cfg = TrainConfig(softmax_temperature=0.7, dropout_rate=0.0)
    models = {"alpha": stacked_mlps(rng, (d, hid, K), SOFTMAX_HEAD, R),
              "beta": stacked_mlps(rng, (d, hid, K), SOFTMAX_HEAD, R),
              "gamma": stacked_mlps(rng, (d + K, hid, K), SOFTMAX_HEAD, R)}

    cals = random_calibrators(rng, K, R)
    batch = joint_voi_batch(X, h, y, utility_loss_weights(team),
                            joint_calibrator(cals, len(y)))
    loss_fn = joint_voi_loss_fn(team, cfg, lams)
    assert finite_diff_check(models, batch, loss_fn) < 1e-4
    check_replica_independence(models, batch, loss_fn)


def test_query_policy_replicas_match_finite_differences():
    rng, team, X, y, h, costs, (K, d, hid, R) = replica_case(33)
    m_y = rng.dirichlet(np.ones(K), size=len(y))[np.arange(len(y)), y]
    models = {"q": stacked_mlps(rng, (d, hid, 1), SIGMOID_HEAD, R)}
    batch = (X, m_y, (h == y).astype(float), utility_loss_weights(team)[y],
             None)
    loss_fn = query_policy_loss_fn(TrainConfig(cost_weight=0.7), costs)
    assert finite_diff_check(models, batch, loss_fn) < 1e-4
    check_replica_independence(models, batch, loss_fn)


@pytest.mark.parametrize("loss", ["solo", "query-policy", "joint-disc"])
def test_disc_gradients_outlive_the_next_evaluation(loss):
    # the workspace holds a step's arrays, never the gradients a loss
    # returns, which finite_diff_check reads after later evaluations
    rng, team, X, y, h, lams, (K, d, hid, R) = replica_case(34)
    w = utility_loss_weights(team)
    hit = (h == y).astype(float)
    m_y = rng.dirichlet(np.ones(K), size=len(y))[np.arange(len(y)), y]
    m = stacked_mlps(rng, (d, hid, K), SOFTMAX_HEAD, R)
    q = stacked_mlps(rng, (d, hid, 1), SIGMOID_HEAD, R)
    masks = [(rng.random((len(y), hid)) >= 0.3) / 0.7]
    models, batch, loss_fn = {
        "solo": ({"m": m}, (X, y, w[y], masks), solo_ce_loss),
        "query-policy": ({"q": q}, (X, m_y, hit, w[y], masks),
                         query_policy_loss_fn(TrainConfig(), lams)),
        "joint-disc": ({"m": m, "q": q}, (X, y, hit, w[y], masks, masks),
                       joint_disc_loss_fn(team, lams)),
    }[loss]
    ws = Workspace()
    _, first = loss_and_grad(models, batch, loss_fn, ws)
    kept = {name: [a.tobytes() for a in gs.weights + gs.biases]
            for name, gs in first.items()}
    moved = {name: replace(net, weights=[a + 0.1 for a in net.weights])
             for name, net in models.items()}
    _, second = loss_and_grad(moved, batch, loss_fn, ws)
    for name, gs in first.items():
        for a, b, c in zip(gs.weights + gs.biases, kept[name],
                           second[name].weights + second[name].biases):
            assert a.tobytes() == b
            assert not np.shares_memory(a, c)
        assert not np.array_equal(gs.weights[0], second[name].weights[0])


# --- the closed forms agree with the reference tape --------------------------

ORACLE_RTOL = 1e-12


def oracle_case(seed, dropout=0.3):
    """R=3 stacks with distinct parameters (nonzero biases), dropout masks,
    a non-identity utility and distinct per-replica cost weights."""
    rng = np.random.default_rng(seed)
    K, d, hid, B, R = 3, 4, 5, 9, 3
    team = TeamConfig(np.eye(K) + 0.3 * rng.random((K, K)), 0.2)
    X = rng.standard_normal((B, d))
    y = rng.integers(0, K, B)
    h = rng.integers(0, K, B)

    def stack(dims, head):
        # one run of R variants
        models = [init_mlp(dims, head, rng, dropout) for _ in range(R)]
        for m in models:
            for b in m.biases:
                b += rng.normal(0.0, 0.3, b.shape)
        return stack_models([models])

    return rng, team, X, y, h, (0.5, 1.5, 4.0), stack, (K, d, hid, B)


def step_masks(model, n, rng):
    """The dropout masks of one training step."""
    [masks] = sample_dropout_masks(model, n, rng, ws=Workspace(), steps=1)
    return masks


def assert_matches_oracle(models, batch, loss_fn, tape_fn):
    per, backward = loss_fn(models, batch, Workspace())
    per_ref, grads_ref = oracles.tape_loss_and_grad(models, batch, tape_fn)
    assert per.shape == per_ref.shape
    assert np.abs(per - per_ref).max() <= ORACLE_RTOL * np.abs(per_ref).max()
    grads = backward(np.full(per.shape, 1.0 / per.shape[-1]))
    assert set(grads) == set(grads_ref) == set(models)
    for name in models:
        for got, want in zip(grads[name].weights + grads[name].biases,
                             grads_ref[name].weights + grads_ref[name].biases):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= \
                ORACLE_RTOL * np.abs(want).max()
            assert np.abs(want).max() > 0.0


def test_solo_ce_matches_tape_oracle():
    rng, team, X, y, h, _, stack, (K, d, hid, B) = oracle_case(41)
    models = {"m": stack((d, hid, hid, K), SOFTMAX_HEAD)}
    w = utility_loss_weights(team)
    batch = (X, y, w[y], step_masks(models["m"], B, rng))
    assert_matches_oracle(models, batch, solo_ce_loss, oracles.solo_ce_tape(K))


def test_query_policy_loss_matches_tape_oracle():
    rng, team, X, y, h, costs, stack, (K, d, hid, B) = oracle_case(42)
    models = {"q": stack((d, hid, 1), SIGMOID_HEAD)}
    m_probs = stable_softmax(rng.standard_normal((B, K)))
    w = utility_loss_weights(team)
    batch = (X, m_probs[np.arange(B), y], (h == y).astype(float), w[y],
             step_masks(models["q"], B, rng))
    cfg = TrainConfig(cost_weight=0.8)
    assert_matches_oracle(models, batch, query_policy_loss_fn(cfg, costs),
                          oracles.query_policy_tape(cfg, costs, m_probs, h, y))


def test_joint_disc_loss_matches_tape_oracle():
    rng, team, X, y, h, lams, stack, (K, d, hid, B) = oracle_case(43)
    models = {"m": stack((d, hid, K), SOFTMAX_HEAD),
              "q": stack((d, hid, 1), SIGMOID_HEAD)}
    w = utility_loss_weights(team)
    batch = (X, y, (h == y).astype(float), w[y],
             step_masks(models["m"], B, rng), step_masks(models["q"], B, rng))
    assert_matches_oracle(models, batch, joint_disc_loss_fn(team, lams),
                          oracles.joint_disc_tape(team, lams, h))


def test_joint_voi_loss_matches_tape_oracle():
    rng, team, X, y, h, lams, stack, (K, d, hid, B) = oracle_case(44)
    cfg = TrainConfig(softmax_temperature=0.6)
    models = {"alpha": stack((d, hid, K), SOFTMAX_HEAD),
              "beta": stack((d, hid, K), SOFTMAX_HEAD),
              "gamma": stack((d + K, hid, K), SOFTMAX_HEAD)}

    cals = random_calibrators(rng, K, 3)
    masks = tuple(step_masks(models[name], n, rng)
                  for name, n in (("alpha", B), ("beta", B), ("gamma", B * K)))
    batch = joint_voi_batch(X, h, y, utility_loss_weights(team),
                            joint_calibrator(cals, B), masks)
    assert_matches_oracle(models, batch, joint_voi_loss_fn(team, cfg, lams),
                          oracles.joint_voi_tape(team, cfg, lams, cals))


# --- divergence in a stacked run ----------------------------------------------

def test_joint_disc_grid_divergence_names_lambda_and_solo_iteration():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 10.0)
    cfg = TrainConfig(iterations=5, hidden_dims=(6,), seed=0)
    with warnings.catch_warnings(), quiet():
        with pytest.raises(TrainingError) as stacked:
            train_joint([(ds, cfg)], team, (1.0, 1e308))
        with pytest.raises(TrainingError) as alone:
            train_joint([(ds, cfg)], team, (1e308,))
    assert "cost_weight=1e+308" in str(stacked.value)
    assert stacked.value.iteration == alone.value.iteration == 0
    train_joint([(ds, cfg)], team, (1.0,))  # fine on its own


def test_joint_voi_grid_divergence_names_lambda_and_solo_iteration():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3, 10.0)
    cfg = TrainConfig(iterations=5, hidden_dims=(6,), seed=0)
    [warm] = train_fixed_voi([(ds, cfg)], team)
    with warnings.catch_warnings(), quiet():
        with pytest.raises(TrainingError) as stacked:
            train_joint_voi([(ds, cfg, warm)], team, (1.0, 1e308))
        with pytest.raises(TrainingError) as alone:
            train_joint_voi([(ds, cfg, warm)], team, (1e308,))
    assert "cost_weight=1e+308" in str(stacked.value)
    assert stacked.value.iteration == alone.value.iteration == 0


def test_query_policy_grid_divergence_names_cost():
    ds = toy_dataset()
    team = TeamConfig.accuracy(3)
    cfg = TrainConfig(iterations=5, hidden_dims=(6,), seed=0,
                      cost_weight=1e308)
    [[m]] = train_solo_model([(ds, cfg)], team)
    with warnings.catch_warnings(), quiet():
        with pytest.raises(TrainingError) as stacked:
            train_query_policy([(ds, cfg, m)], team, (0.0, 10.0))
    assert "query_cost=10.0" in str(stacked.value)
    assert stacked.value.iteration == 0


@pytest.mark.parametrize("diverging", [0, 2])
def test_diverging_run_is_named_with_its_solo_error(diverging):
    # features of +-1e308 overflow one run's forward pass; the stack names
    # that run and raises the error its one-run training raises
    runs = seed_runs(TrainConfig(iterations=5, hidden_dims=(6,)))
    ds, cfg = runs[diverging]
    runs[diverging] = (replace(ds, X=np.sign(ds.X) * 1e308), cfg)
    team = TeamConfig.accuracy(3, 0.2)
    with warnings.catch_warnings(), quiet():
        with pytest.raises(TrainingError) as stacked:
            train_joint(runs, team, LAMBDAS)
        with pytest.raises(TrainingError) as alone:
            train_joint([runs[diverging]], team, LAMBDAS)
    assert stacked.value.run == diverging and alone.value.run == 0
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.iteration == alone.value.iteration


def trainer_calls(runs, team, ms, warm):
    """Per trainer, a call that trains `runs` with it: the q-policy from
    the predictors `ms` and joint-VOI from the fixed-VOI systems `warm`,
    one per run."""
    return {
        "solo": lambda: train_solo_model(runs, team),
        "query-policy": lambda: train_query_policy(
            [(*run, m) for run, m in zip(runs, ms)], team, (0.0, 0.2)),
        "joint-disc": lambda: train_joint(runs, team, LAMBDAS),
        "fixed-voi": lambda: train_fixed_voi(runs, team),
        "joint-voi": lambda: train_joint_voi(
            [(*run, w) for run, w in zip(runs, warm)], team, LAMBDAS),
    }


@pytest.mark.parametrize("trainer", ["solo", "query-policy", "joint-disc",
                                     "fixed-voi", "joint-voi"])
def test_a_run_that_does_not_train_is_named_with_its_solo_error(trainer):
    # features of 1e200 saturate every head, so no gradient reaches the
    # input weights, yet the loss stays finite
    runs = seed_runs(TrainConfig(iterations=25, hidden_dims=(16,),
                                 calibration_interval=10))
    team = TeamConfig.accuracy(3, 0.2)
    ms = [m for [m] in train_solo_model(runs, team)]
    warm = train_fixed_voi(runs, team)
    trainer_calls(runs, team, ms, warm)[trainer]()  # fine at scale 1
    stuck = 1
    ds, cfg = runs[stuck]
    runs[stuck] = (replace(ds, X=ds.X * 1e200), cfg)
    one = slice(stuck, stuck + 1)
    with warnings.catch_warnings(), quiet():
        with pytest.raises(TrainingError) as stacked:
            trainer_calls(runs, team, ms, warm)[trainer]()
        with pytest.raises(TrainingError) as alone:
            trainer_calls(runs[one], team, ms[one], warm[one])[trainer]()
    assert stacked.value.run == stuck and alone.value.run == 0
    assert str(stacked.value) == str(alone.value)
    assert "did not train" in str(stacked.value)
    assert stacked.value.iteration is None


def test_zero_loss_weights_do_not_train():
    # a utility with no spread weighs every class 0, so m never moves
    ds, cfg = seed_runs(TrainConfig(iterations=5, hidden_dims=(6,)))[0]
    team = TeamConfig(np.ones((3, 3)))
    with warnings.catch_warnings(), pytest.raises(TrainingError,
                                                  match="did not train"):
        warnings.simplefilter("ignore")
        train_solo_model([(ds, cfg)], team)


def test_diverging_lambda_fails_the_whole_sweep_cell():
    ds = toy_dataset(n=300)
    cfg = TrainConfig(iterations=5, hidden_dims=(6,))
    with warnings.catch_warnings(), quiet():
        results = cost_sweep(ds, ["joint-disc"], [10.0], [1.0, 1e308], [0],
                             train_cfg=cfg)
    cell = results[0].cells[0]
    assert cell.rows == [] and results[0].records == []
    assert "TrainingError" in cell.error and "1e+308" in cell.error


# --- step inputs drawn a block of steps at a time -----------------------------

def rngs_of(seed, S):
    return [np.random.default_rng([seed, j]) for j in range(S)]


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous  # a strided step would change BLAS paths
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 3), hidden=st.sampled_from([(5,), (4, 3)]),
       rate=st.sampled_from([0.0, 0.3]), n=st.integers(1, 6),
       iterations=st.integers(1, 20), block=st.integers(1, 9),
       per_run=st.booleans(), seed=st.integers(0, 2**16))
def test_block_masks_equal_per_step_draws(S, hidden, rate, n, iterations,
                                          block, per_run, seed):
    # blocks of `block` steps, the last one short when block does not
    # divide iterations, give each step the masks of a per-step draw
    m = init_mlp((2, *hidden, 3), SOFTMAX_HEAD, np.random.default_rng(0),
                 rate)
    lead = (S, 1) if per_run else (S,)
    ref, blk = rngs_of(seed, S), rngs_of(seed, S)
    got = []
    for start in range(0, iterations, block):
        got += sample_dropout_masks(m, n, *blk, lead=lead,
                                    steps=min(block, iterations - start),
                                    ws=Workspace())
    assert len(got) == iterations
    for step in got:
        [want] = sample_dropout_masks(m, n, *ref, lead=lead, ws=Workspace(),
                                      steps=1)
        if rate == 0.0:
            assert step is None and want is None
            continue
        assert len(step) == len(want) == len(hidden)
        for g, w in zip(step, want):
            assert g.shape == lead + w.shape[-2:] and g.dtype == bool
            assert_same_array(g, w)


@st.composite
def row_sources(draw):
    """(lead, B, fields, rows): the row sources of an (S, G) stack, one per
    run (lead (S, 1)) or one per replica (lead (S, G)), of unequal
    lengths, each taking all of its rows (None) or a subset of them."""
    S, G = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lead = (S, G) if draw(st.booleans()) else (S, 1)
    B = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(B, B + 12), min_size=lead[0] * lead[1],
                          max_size=lead[0] * lead[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = [rng.standard_normal((k, 3)) for k in sizes]
    y = [rng.integers(0, 4, k) for k in sizes]
    rows = [rng.choice(k, rng.integers(B, k + 1), replace=False)
            if draw(st.booleans()) else None for k in sizes]
    return lead, B, (X, y), rows


@settings(max_examples=60, deadline=None)
@given(case=row_sources(), iterations=st.integers(1, 20),
       seed=st.integers(0, 2**16))
def test_block_rows_equal_per_step_gathers(case, iterations, seed):
    lead, B, fields, rows = case
    m = init_mlp((3, 4, 2), SOFTMAX_HEAD, np.random.default_rng(0), 0.5)
    sources = len(fields[0])
    ref_rows, ref_drop = rngs_of(seed, sources), rngs_of(seed + 1, sources)
    blk_rows, blk_drop = rngs_of(seed, sources), rngs_of(seed + 1, sources)
    ws = Workspace()  # every block is drawn into the arrays of the last
    drawn = 0
    for start in range(0, iterations, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, iterations - start)
        block = zip(*block_rows(fields, blk_rows, B, lead, steps,
                                ws.scope("rows"), rows),
                    sample_dropout_masks(m, B, *blk_drop, lead=lead,
                                         steps=steps, ws=ws.scope("masks")))
        for *got_rows, masks in block:
            drawn += 1
            idx = [batch_indices(rng, len(a if r is None else r), B)
                   for rng, a, r in zip(ref_rows, fields[0], rows)]
            idx = [i if r is None else r[i] for i, r in zip(idx, rows)]
            for got, arrays in zip(got_rows, fields):
                want = np.array([a[i] for a, i in zip(arrays, idx)])
                assert_same_array(got, want.reshape(lead + want.shape[1:]))
            [[want_mask]] = sample_dropout_masks(m, B, *ref_drop, lead=lead,
                                                 steps=1, ws=Workspace())
            assert_same_array(masks[0], want_mask)
    assert drawn == iterations


@settings(max_examples=30, deadline=None)
@given(iterations=st.integers(1, 20), data=st.data())
def test_fit_reports_a_divergence_inside_a_block(iterations, data):
    # the batch hook makes the per-instance weights of one run NaN at one
    # step, so the loss of every variant of that run is non-finite there
    iteration = data.draw(st.integers(0, iterations - 1))
    run = data.draw(st.integers(0, 2))
    S, G, B = 3, 2, 4
    models = [[init_mlp((1, 3, 2), SOFTMAX_HEAD,
                        np.random.default_rng([s, g]), 0.0)
               for g in range(G)] for s in range(S)]
    params = [a for ms in models for m in ms for a in m.weights + m.biases]
    before = [a.copy() for a in params]
    fields = [[np.linspace(-1.0, 1.0, B)[:, None] + s for s in range(S)],
              [np.zeros(B, int)] * S]
    stepped = 0

    def batch(r):
        nonlocal stepped
        w_t = np.ones(r[1].shape)  # (S, 1, B)
        if stepped == iteration:
            w_t[run] = np.nan
        stepped += 1
        return r[0], r[1], w_t, r[2]

    cfg = TrainConfig(iterations=iterations)
    with pytest.raises(TrainingError) as info:
        fit_stack({"m": (models, rngs_of(1, S), B)}, fields, rngs_of(0, S),
                  B, solo_ce_loss, cfg, "toy", [f"v{g}" for g in range(G)],
                  batch=batch, rows=[None] * S)
    assert (info.value.iteration, info.value.run) == (iteration, run)
    assert str(info.value) == f"toy diverged at iteration {iteration} (v0)"
    assert stepped == iteration + 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params, before))


def test_fit_leaves_the_callers_stacks_untouched():
    # fit_stack with rows per run, laid out (S, 1), and per replica,
    # (S, G), each replica's generators seeded as its run's: both layouts
    # train the same models, returned per run, and leave the caller's be
    runs = seed_runs(TrainConfig(iterations=11, hidden_dims=(6,)))
    S, G = len(runs), 2
    models = [[init_mlp((4, 6, 3), SOFTMAX_HEAD,
                        np.random.default_rng([s, g])) for g in range(G)]
              for s in range(S)]

    def params():
        return [a for run in models for m in run for a in m.weights + m.biases]

    before = [a.copy() for a in params()]

    def train(copies):
        # one row source per run (copies=1) or per replica (copies=G)
        def gens(seed):
            return [np.random.default_rng([seed, s])
                    for s in range(S) for _ in range(copies)]

        fields = [[getattr(ds, f) for ds, _ in runs for _ in range(copies)]
                  for f in ("X", "y")]
        return fit_stack({"m": (models, gens(4), 64)}, fields, gens(3), 64,
                         solo_ce_loss, runs[0][1], "toy",
                         batch=lambda rows: (rows[0], rows[1],
                                             np.ones(rows[1].shape),
                                             rows[2]),
                         rows=[None] * S * copies)["m"]

    per_run, per_replica = train(1), train(G)
    assert [len(run) for run in per_run] == [G] * S
    for got, want, start in zip(per_run, per_replica, models):
        for a, b, m in zip(got, want, start):
            assert_models_identical(a, b)
            assert not np.array_equal(a.weights[0], m.weights[0])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params(), before))


def test_joint_voi_steps_use_the_latest_refit(monkeypatch):
    # batches are drawn ahead a block at a time, but each step's
    # calibrators are those of the refit before it, here at a refit
    # interval that does not divide the block
    made, used = [], []

    def joint_calibrator(cals, B):
        made.append(real_calibrator(cals, B))
        return made[-1]

    def joint_voi_batch(X, h, y, w, cal, *rest):
        used.append(cal)
        return real_batch(X, h, y, w, cal, *rest)

    real_calibrator, real_batch = voi.joint_calibrator, voi.joint_voi_batch
    monkeypatch.setattr(voi, "joint_calibrator", joint_calibrator)
    monkeypatch.setattr(voi, "joint_voi_batch", joint_voi_batch)
    runs = seed_runs(TrainConfig(iterations=12, hidden_dims=(6,),
                                 calibration_interval=5))[:2]
    team = TeamConfig.accuracy(3, 0.2)
    starts = [(*run, start)
              for run, start in zip(runs, train_fixed_voi(runs, team))]
    train_joint_voi(starts, team, LAMBDAS)
    # refits after steps 4 and 9, then the final one
    assert len(made) == 4 and len(used) == 12
    want = [0] * 5 + [1] * 5 + [2] * 2
    assert [next(k for k, c in enumerate(made)
                 if np.shares_memory(c.a, cal.a)) for cal in used] == want
