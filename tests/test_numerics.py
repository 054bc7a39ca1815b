"""MLP core tests: forward passes, closed-form and tape gradients, SGD,
the FD checker.

Derived constants below were frozen from independent hand computation
(scalar sigmoid/softmax arithmetic), not from running the package.
"""

import numpy as np
import pytest

from teamopt import tape
from teamopt.discriminative import solo_ce_loss
from teamopt.errors import ConfigError, InputError, NumericError, ShapeError
from teamopt.numerics import (SIGMOID_HEAD, SOFTMAX_HEAD, GradientSet,
                              MlpModel, TrainConfig, Workspace,
                              finite_diff_check, flat_view, forward_batch,
                              init_mlp, label_index, loss_and_grad,
                              loss_value, max_last, mlp_backward,
                              mlp_forward, sample_dropout_masks, sgd_step,
                              stable_sigmoid, stable_softmax, stack_models,
                              sum_last)

# sigma(0.3) and sigma(1); frozen from 1/(1+exp(-z))
SIGMA_03 = 0.574442516811659
SIGMA_1 = 0.7310585786300049


def forward(model, x):
    """Single-instance forward: a distribution over K classes, or a scalar."""
    out = forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    return out[0] if model.output_head == SOFTMAX_HEAD else float(out[0])


def is_distribution(p, atol=1e-9):
    return bool((p >= -atol).all() and abs(p.sum() - 1.0) <= atol)


def zero_model(d, k, head=SOFTMAX_HEAD, p=0.0):
    out = 1 if head == SIGMOID_HEAD else k
    return MlpModel((d, out), [np.zeros((d, out))], [np.zeros(out)], head, p)


def linear_loss(scale, X):
    """Per-instance scale * (sum of the logits) on inputs X, closed form."""
    def loss_fn(models, batch, ws):
        z, cache = mlp_forward(models["m"], X, None, ws)
        return scale * sum_last(z), lambda g: {"m": mlp_backward(
            cache, np.broadcast_to((g * scale)[..., None], z.shape))}
    return loss_fn


def constant_loss(values, X):
    """A loss whose per-instance values ignore the parameters."""
    def loss_fn(models, batch, ws):
        z, cache = mlp_forward(models["m"], X, None, ws)
        return np.asarray(values, dtype=np.float64)[None, None, :], \
            lambda g: {"m": mlp_backward(cache, np.zeros_like(z))}
    return loss_fn


# --- stable_softmax ------------------------------------------------------

def test_softmax_symmetric_logits():
    assert np.array_equal(stable_softmax(np.zeros(2)), [0.5, 0.5])


def test_softmax_huge_logits_no_overflow():
    out = stable_softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12


def test_softmax_two_class_equals_sigmoid_of_gap():
    out = stable_softmax(np.array([0.8, 0.5]))
    assert abs(out[0] - SIGMA_03) < 1e-12
    assert abs(out[1] - (1.0 - SIGMA_03)) < 1e-12


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(scale=5.0, size=rng.integers(2, 7))
        p = stable_softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(p, stable_softmax(z + 123.456), atol=1e-12)


def test_softmax_temperature_sharpens():
    z = np.array([0.2, 0.1, -0.3])
    assert stable_softmax(z, tau=0.01).max() > stable_softmax(z, tau=1.0).max()


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_softmax_nonpositive_temperature_rejected(tau):
    with pytest.raises(ConfigError):
        stable_softmax(np.zeros(2), tau=tau)


# --- forward -------------------------------------------------------------

def test_forward_zero_softmax_model_is_uniform():
    out = forward(zero_model(3, 5), np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(out, np.full(5, 0.2))


def test_forward_zero_sigmoid_model_is_half():
    assert forward(zero_model(3, 1, SIGMOID_HEAD), np.zeros(3)) == 0.5


def test_forward_hand_built_logits():
    # weights chosen so x=(1,) produces logits (1, 0)
    m = MlpModel((1, 2), [np.array([[1.0, 0.0]])], [np.zeros(2)],
                 SOFTMAX_HEAD, 0.0)
    out = forward(m, np.array([1.0]))
    assert is_distribution(out)
    # the helper itself rejects what is not a distribution
    assert not is_distribution(np.array([0.5, 0.6]))
    assert not is_distribution(np.array([-0.1, 1.1]))
    assert abs(out[0] - SIGMA_1) < 1e-12
    assert abs(out[1] - (1.0 - SIGMA_1)) < 1e-12


def test_forward_eval_is_bitwise_pure():
    m = init_mlp((4, 6, 3), SOFTMAX_HEAD, np.random.default_rng(7))
    x = np.random.default_rng(8).standard_normal(4)
    assert forward(m, x).tobytes() == forward(m, x).tobytes()


def test_forward_input_validation():
    m = zero_model(3, 2)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(4))
    with pytest.raises(InputError):
        forward(m, np.array([1.0, np.nan, 0.0]))


def test_init_mlp_bounds_and_zero_biases():
    m = init_mlp((5, 8, 3), SOFTMAX_HEAD, np.random.default_rng(0))
    for w, (fi, fo) in zip(m.weights, [(5, 8), (8, 3)]):
        assert np.abs(w).max() <= np.sqrt(6.0 / (fi + fo))
    assert all(not b.any() for b in m.biases)
    again = init_mlp((5, 8, 3), SOFTMAX_HEAD, np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, again.weights))


def masked_sigmoid(x):
    """Reference: the per-sign masked form of the stable sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0,
                        -745.0, 800.0, -800.0, 5e-324, -5e-324, 36.7, -36.7,
                        2.2250738585072014e-308, -2.2250738585072014e-308,
                        1e-310, -1e-310, 709.8, -709.8, 744.5, -744.5,
                        746.0, -746.0, 1e-20, -1e-20])
    # NaNs with payloads, of both signs, and a signalling one
    payloads = np.array([0x7FF8000000000001, 0xFFF8000000000123,
                         0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    cases = [special, payloads, rng.standard_normal(10_000),
             rng.standard_normal((5, 320, 5)) * 40.0,
             rng.uniform(-800.0, 800.0, 10_000),
             np.asfortranarray(rng.standard_normal((7, 9)) * 5.0).T,
             rng.standard_normal((2, 5, 64, 10))[..., ::2] * 30.0,
             *(rng.standard_normal(n) * 20.0 for n in range(1, 41))]
    for x in cases:
        got, want = stable_sigmoid(x, Workspace()), masked_sigmoid(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # NaN sign bits included
    assert stable_sigmoid(0.5, Workspace()).shape == ()
    assert tape.stable_sigmoid is stable_sigmoid  # the tape reuses it


def picked(a, rows, labels):
    """Reference: a[..., rows[i], labels[..., i]] at every leading
    position, one element at a time."""
    lead, n = a.shape[:-2], np.broadcast_shapes(np.shape(rows),
                                                np.shape(labels))[-1]
    rows = np.broadcast_to(rows, lead + (n,))
    labels = np.broadcast_to(labels, lead + (n,))
    return [(pos + (rows[pos + (i,)], labels[pos + (i,)]), pos + (i,))
            for pos in np.ndindex(lead) for i in range(n)]


def label_cases():
    rng = np.random.default_rng(22)
    B, K = 64, 5
    h = rng.integers(0, K, (2, 1, B))
    # (shape, rows, labels) as each loss indexes its head
    return {
        "solo-shared-rows": ((3, B, K), np.arange(B), rng.integers(0, K, B)),
        "solo-per-replica": ((2, 3, B, K), np.arange(B),
                             rng.integers(0, K, (2, 3, B))),
        "joint-disc": ((2, 5, B, K), np.arange(B),
                       rng.integers(0, K, (2, 1, B))),
        "joint-voi-alpha": ((2, 5, B + B * K + B, K), np.arange(B),
                            rng.integers(0, K, (2, 1, B))),
        "joint-voi-gamma": ((2, 5, B + B * K + B, K),
                            B + np.arange(B) * K + h,
                            rng.integers(0, K, (2, 1, B))),
    }


@pytest.mark.parametrize("case", list(label_cases()))
def test_label_index_picks_each_label_at_every_leading_position(case):
    shape, rows, labels = label_cases()[case]
    rng = np.random.default_rng(23)
    a = rng.standard_normal(shape)
    at = label_index(shape, rows, labels, Workspace())
    want = picked(a, rows, labels)
    assert at.shape == shape[:-2] + (64,)
    got = flat_view(a)[at]
    assert all(got[out] == a[src] for src, out in want)
    # a scatter-add reaches exactly those elements, each once
    v = rng.standard_normal(at.shape)
    d = np.zeros(shape)
    flat_view(d)[at] += v
    expected = np.zeros(shape)
    for src, out in want:
        expected[src] += v[out]
    assert d.tobytes() == expected.tobytes()


def test_flat_view_refuses_a_non_contiguous_array():
    a = np.zeros((4, 6))
    view = flat_view(a)
    assert view.shape == (24,) and np.shares_memory(view, a)
    for strided in (a[:, ::2], a.T, a[:, 1:]):
        with pytest.raises(ShapeError, match="non-contiguous"):
            flat_view(strided)


def test_last_axis_reductions_match_numpy_bit_for_bit():
    rng = np.random.default_rng(14)
    for K in range(1, 8):  # numpy adds pairwise from 8 columns on
        a = rng.standard_normal((5, 64, K)) * 30.0
        a[0, 0, 0] = np.nan
        a[1, 2, K - 1] = np.nan
        a[2, :, K // 2] = np.nan
        before = a.copy()
        for got, want in ((max_last(a), a.max(axis=-1)),
                          (sum_last(a), a.sum(axis=-1))):
            assert got.tobytes() == want.tobytes(), K
            # a fresh array: the input is left unwritten and unshared
            assert not np.shares_memory(got, a)
        assert a.tobytes() == before.tobytes()
        v = a[3, 5]  # a vector reduces to 0-d, as numpy's does
        assert np.ndim(max_last(v)) == np.ndim(sum_last(v)) == 0
        assert max_last(v) == v.max() and sum_last(v) == v.sum()


# --- closed-form MLP backward, loss_and_grad, finite_diff_check ----------

def ce_case(rng, n, K=3, d=4, hidden=(8,)):
    m = stack_models([[init_mlp((d, *hidden, K), SOFTMAX_HEAD, rng,
                                dropout_rate=0.0)]])
    X = rng.standard_normal((n, d))
    return m, (X, rng.integers(0, K, n), np.ones(n), None)


def test_ce_of_exact_onehot_is_zero_with_zero_grads():
    # logits (0, -1000) on target 0 and (-1000, 0) on target 1: softmax
    # puts exactly 1 on each target, so CE and its gradient vanish
    m = stack_models([[MlpModel((2, 2), [np.array([[0.0, -1000.0],
                                                   [-1000.0, 0.0]])],
                                [np.zeros(2)], SOFTMAX_HEAD, 0.0)]])
    batch = (np.eye(2), np.array([0, 1]), np.ones(2), None)
    loss, grads = loss_and_grad({"m": m}, batch, solo_ce_loss, Workspace())
    assert loss == 0.0
    assert not any(g.any() for g in grads["m"].weights + grads["m"].biases)


def test_constant_loss_has_zero_gradient():
    m = stack_models([[init_mlp((3, 4, 2), SOFTMAX_HEAD,
                                np.random.default_rng(5))]])
    loss, grads = loss_and_grad({"m": m}, None,
                                constant_loss([1.0, 2.0, 3.0], np.ones((3, 3))),
                                Workspace())
    assert loss == 2.0  # minibatch mean
    assert not any(g.any() for g in grads["m"].weights + grads["m"].biases)


def test_nonfinite_loss_reports_instance_index():
    m = stack_models([[zero_model(2, 2)]])
    vec = np.array([1.0, 1.0, 0.0, 1.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError) as info:
            loss_and_grad({"m": m}, None,
                          constant_loss(np.log(vec), np.ones((4, 2))),
                          Workspace())
    assert info.value.index == 2 and info.value.replica == 0


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(3):
        m, batch = ce_case(rng, 5)
        assert finite_diff_check({"m": m}, batch, solo_ce_loss) < 1e-4


def test_fd_check_linear_squared_error_near_machine_precision():
    rng = np.random.default_rng(9)
    m = stack_models([[init_mlp((3, 2), SOFTMAX_HEAD, rng)]])  # one layer
    X = rng.standard_normal((4, 3))
    T = rng.standard_normal((4, 2))

    def sq_loss(models, batch, ws):
        z, cache = mlp_forward(models["m"], X, None, ws)
        diff = z - T
        return sum_last(diff * diff), lambda g: {"m": mlp_backward(
            cache, 2.0 * diff * g[..., None])}

    assert finite_diff_check({"m": m}, None, sq_loss) < 1e-9


def test_mlp_backward_matches_finite_differences_with_dropout():
    # two hidden layers, dropout masks and two variants with distinct
    # parameters: a linear read-out of the logits checks the whole stack
    rng = np.random.default_rng(15)
    m = stack_models([[init_mlp((3, 6, 5, 2), SOFTMAX_HEAD, rng, 0.3)
                       for _ in range(2)]])
    for b in m.biases:  # keep every unit off the ReLU kink at 0
        b += rng.uniform(0.1, 0.5, b.shape)
    X = rng.standard_normal((7, 3))
    C = rng.standard_normal((1, 2, 7, 2))
    [masks] = sample_dropout_masks(m, 7, rng, ws=Workspace(), steps=1)

    def read_out(models, batch, ws):
        z, cache = mlp_forward(models["m"], X, masks, ws)
        return sum_last(z * C), lambda g: {"m": mlp_backward(
            cache, C * g[..., None])}

    assert finite_diff_check({"m": m}, None, read_out) < 1e-9


def test_training_losses_take_replica_stacks_only():
    m, batch = ce_case(np.random.default_rng(3), 4)
    with pytest.raises(ShapeError, match="stack"):
        loss_and_grad({"m": init_mlp((4, 8, 3), SOFTMAX_HEAD,
                                     np.random.default_rng(3))},
                      batch, solo_ce_loss, Workspace())


def test_loss_value_matches_loss_and_grad():
    m, batch = ce_case(np.random.default_rng(10), 6, hidden=(6,))
    loss, _ = loss_and_grad({"m": m}, batch, solo_ce_loss, Workspace())
    value = loss_value({"m": m}, batch, solo_ce_loss, Workspace())
    assert abs(loss - value) < 1e-15


def test_frozen_models_receive_no_gradient_entry():
    m, batch = ce_case(np.random.default_rng(13), 5, hidden=(6,))
    _, grads = loss_and_grad({"m": m}, batch, solo_ce_loss, Workspace())
    assert set(grads) == {"m"}


# --- the reference tape vs hand-rolled finite differences ----------------

def manual_fd(f, arr, step=1e-6):
    """Central differences of scalar f with respect to every entry of arr."""
    g = np.zeros_like(arr)
    flat, gflat = arr.ravel(), g.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        hi = f()
        flat[j] = orig - step
        lo = f()
        flat[j] = orig
        gflat[j] = (hi - lo) / (2.0 * step)
    return g


def test_tape_composite_softmax_pipeline_gradient():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((4, 3))
    W = rng.standard_normal((3, 5))
    C = rng.standard_normal((4, 5))

    def value():
        z = np.maximum(X @ W, 0.0)
        zs = z - z.max(axis=-1, keepdims=True)
        e = np.exp(zs / 0.7)
        p = e / e.sum(axis=-1, keepdims=True)
        return float((p * C).sum())

    w_node = tape.param(W)
    out = tape.sum_(tape.softmax(tape.relu(tape.matmul(tape.constant(X),
                                                       w_node)), tau=0.7)
                    * tape.constant(C))
    tape.backward(out)
    assert np.allclose(w_node.grad, manual_fd(value, W), atol=1e-7)


def test_tape_log_div_clamp_reshape_gradient():
    rng = np.random.default_rng(12)
    a = rng.uniform(0.5, 2.0, size=(2, 3))
    b = rng.uniform(0.5, 2.0, size=(2, 3))

    def value():
        r = np.log(np.maximum(a / b, 0.8)) + 1.0 / (1.0 + np.exp(-a))
        return float(r.reshape(6).sum())

    an, bn = tape.param(a), tape.param(b)
    node = tape.reshape(tape.log(tape.clamp_min(an / bn, 0.8))
                        + tape.sigmoid(an), (6,))
    tape.backward(tape.sum_(node))
    assert np.allclose(an.grad, manual_fd(value, a), atol=1e-7)
    assert np.allclose(bn.grad, manual_fd(value, b), atol=1e-7)


def test_tape_broadcast_bias_gradient():
    X = np.ones((5, 2))
    b = np.zeros(3)
    W = np.zeros((2, 3))
    bn = tape.param(b)
    out = tape.sum_(tape.matmul(tape.constant(X), tape.constant(W)) + bn)
    tape.backward(out)
    assert np.array_equal(bn.grad, np.full(3, 5.0))  # summed over the batch


# --- sgd_step -------------------------------------------------------------

def test_sgd_zero_gradient_is_identity():
    m = stack_models([[init_mlp((3, 4, 2), SOFTMAX_HEAD,
                                np.random.default_rng(1))]])
    _, grads = loss_and_grad({"m": m}, None,
                             constant_loss([0.0, 0.0], np.ones((2, 3))),
                             Workspace())
    out = sgd_step(m, grads["m"], 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(out.weights, m.weights))


def one_weight_model(value, K=1):
    return stack_models([[MlpModel((1, K), [np.full((1, K), value)],
                                   [np.zeros(K)], SOFTMAX_HEAD)]])


def test_sgd_single_weight_arithmetic():
    m = one_weight_model(1.0)
    grads = loss_and_grad({"m": m}, None,
                          linear_loss(0.5, np.ones((1, 1))),
                          Workspace())[1]["m"]
    assert sgd_step(m, grads, 0.1).weights[0][0, 0, 0, 0] == 0.95


def test_sgd_two_steps_accumulate_linearly():
    m = one_weight_model(3.0, K=2)
    grads = loss_and_grad({"m": m}, None,
                          linear_loss(2.0, np.ones((1, 1))),
                          Workspace())[1]["m"]
    stepped = sgd_step(sgd_step(m, grads, 0.1), grads, 0.1)
    assert np.allclose(stepped.weights[0], 3.0 - 2 * 0.1 * 2.0)


def test_sgd_shape_mismatch_rejected():
    m = stack_models([[zero_model(2, 2)]])
    bad = loss_and_grad({"m": stack_models([[zero_model(3, 2)]])}, None,
                        linear_loss(1.0, np.ones((1, 3))), Workspace())[1]["m"]
    with pytest.raises(ShapeError):
        sgd_step(m, bad, 0.1)


def test_sgd_updates_the_model_in_place():
    # the bits of w - lr * g, written into the arrays of the stack passed in
    rng = np.random.default_rng(8)
    m = stack_models([[init_mlp((3, 5, 4, 2), SOFTMAX_HEAD, rng)
                       for _ in range(2)]])
    grads = GradientSet([rng.standard_normal(w.shape) for w in m.weights],
                        [rng.standard_normal(b.shape) for b in m.biases])
    arrays = m.weights + m.biases
    want = [p - 0.37 * g for p, g in zip(arrays,
                                         grads.weights + grads.biases)]
    assert sgd_step(m, grads, 0.37) is m
    assert all(p is q for p, q in zip(m.weights + m.biases, arrays))
    assert [p.tobytes() for p in arrays] == [w.tobytes() for w in want]


# --- TrainConfig / MlpModel validation -------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"learning_rate": 0.0},
    {"batch_size": 0},
    {"iterations": 0},
    {"calibration_interval": 0},
    {"softmax_temperature": 0.0},
    {"cost_weight": -1.0},
    {"dropout_rate": 1.0},
    {"seed": -1},
    {"cost_weight": float("nan")},
    {"cost_weight": float("inf")},
    {"hidden_dims": 8},
    {"hidden_dims": (0,)},
    {"hidden_dims": (4.5,)},
    {"hidden_dims": ("8",)},
])
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_model_validation_catches_mismatches():
    with pytest.raises(ShapeError):
        MlpModel((2, 3), [np.zeros((2, 2))], [np.zeros(3)]).validate()
    with pytest.raises(ShapeError):
        MlpModel((2, 2), [np.zeros((2, 2))], [np.zeros(2)],
                 SIGMOID_HEAD).validate()
    with pytest.raises(NumericError):
        MlpModel((2, 2), [np.full((2, 2), np.inf)], [np.zeros(2)]).validate()


def test_dropout_masks_scale_and_seed():
    m = init_mlp((3, 10, 2), SOFTMAX_HEAD, np.random.default_rng(0),
                 dropout_rate=0.2)
    def draw(model, n):
        return sample_dropout_masks(model, n, np.random.default_rng(4),
                                    ws=Workspace(), steps=1)[0]

    masks = draw(m, 50)
    assert len(masks) == 1 and masks[0].shape == (50, 10)
    assert masks[0].dtype == bool  # keep flags; the forward pass scales
    X = np.random.default_rng(1).standard_normal((50, 3))
    _, (_, _, [gate]) = mlp_forward(stack_models([[m]]), X, masks,
                                    Workspace())
    vals = np.unique(gate)
    assert set(vals.tolist()) <= {0.0, 1.25}  # inverted dropout: 1/(1-p)
    assert draw(m, 5)[0].tobytes() == draw(m, 5)[0].tobytes()
    none_model = init_mlp((3, 10, 2), SOFTMAX_HEAD, np.random.default_rng(0),
                          dropout_rate=0.0)
    assert draw(none_model, 5) is None


def test_dropout_masks_equal_the_division_form_bit_for_bit():
    # a kept unit's gate scales by 1/keep; dividing by keep gives the
    # same bits
    rates = [0.05, 0.1, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99]
    rates += np.random.default_rng(9).uniform(0.0, 1.0, 20).tolist()
    X = np.random.default_rng(6).standard_normal((64, 3))
    for p in rates:
        m = init_mlp((3, 16, 7, 2), SOFTMAX_HEAD, np.random.default_rng(0),
                     dropout_rate=p)
        for b in m.biases:  # units on both sides of the ReLU kink
            b += np.random.default_rng(7).normal(0.0, 0.3, b.shape)
        stack = stack_models([[m]])
        [masks] = sample_dropout_masks(m, 64, np.random.default_rng(5),
                                       ws=Workspace(), steps=1)
        _, (weights, inputs, got) = mlp_forward(stack, X, masks, Workspace())
        rng = np.random.default_rng(5)
        want = []
        for i, dim in enumerate((16, 7)):
            h = inputs[i] @ weights[i] + stack.biases[i]
            want.append((h > 0) * ((rng.random((64, dim)) >= p) / (1.0 - p)))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


