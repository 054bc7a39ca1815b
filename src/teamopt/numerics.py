"""Differentiable MLP core: forward passes, loss gradients, SGD, checks.

Models are plain dataclasses of float64 arrays. Every trainer runs through
`fit_stack`, the package's one SGD function. It steps a stack of
same-shaped replicas: S independent runs of G variants each, each run on
its own minibatches, which its variants share. Replicas cross a module
boundary in one layout only, `models[s][g]`, a list per run of its
variants; `stack_models` builds the (S, G) stack from it and
`unstack_models` returns it, and a single training is the one-run,
one-variant case. `fit_stack` stacks the trainer's networks, draws each
run's rows and masks a block of steps at a time, updates the stacks in
place with `sgd_step`, so the caller's models are left as they were, and
returns the fitted models per run. Training losses are closed-form: each
returns its per-instance values and a backward function (see
`loss_and_grad`) written by hand on top of the one `mlp_forward` /
`mlp_backward` pair. Each fit has one `Workspace`: the loss computes its
(replicas, rows, ...) arrays into it and each block of step inputs is
drawn into it, so a fit's steps after its first allocate no large array.
The contract for every loss in this package is agreement with central
finite differences (see `finite_diff_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigError, InputError, NumericError, ShapeError,
                     TrainingError)

SOFTMAX_HEAD = "softmax"
SIGMOID_HEAD = "sigmoid"

PROB_CLAMP = 1e-12  # floor applied to probabilities before logs


@dataclass
class TrainConfig:
    """Hyperparameters shared by every training loop in the package.

    `hidden_dims` sizes the networks the trainers build; `cost_weight`
    scales the query-cost term of the joint losses; `softmax_temperature`
    sharpens or smooths the soft maxima of the differentiable VOI pipeline.
    """

    learning_rate: float = 0.1
    batch_size: int = 64
    iterations: int = 2000
    calibration_interval: int = 200
    softmax_temperature: float = 1.0
    cost_weight: float = 1.0
    seed: int = 0
    dropout_rate: float = 0.2
    hidden_dims: tuple[int, ...] = (16,)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1 or self.iterations < 1:
            raise ConfigError("batch_size and iterations must be >= 1")
        if self.calibration_interval < 1:
            raise ConfigError("calibration_interval must be >= 1")
        if self.softmax_temperature <= 0:
            raise ConfigError("softmax_temperature must be positive")
        if not (np.isfinite(self.cost_weight) and self.cost_weight >= 0):
            raise ConfigError("cost_weight must be finite and non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (isinstance(self.hidden_dims, (tuple, list)) and all(
                isinstance(h, (int, np.integer)) and h >= 1
                for h in self.hidden_dims)):
            raise ConfigError("hidden_dims must be a list of positive ints")


@dataclass
class MlpModel:
    """Fully-connected ReLU network with a softmax or scalar-sigmoid head.

    Weights are stored (fan_in, fan_out) so a batch X of shape (n, d)
    flows as X @ W + b. Inverted dropout applies to hidden activations
    during training only, through masks from `sample_dropout_masks`.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_head: str = SOFTMAX_HEAD
    dropout_rate: float = 0.2

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def validate(self) -> None:
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ShapeError(f"bad layer_dims {self.layer_dims}")
        if self.output_head not in (SOFTMAX_HEAD, SIGMOID_HEAD):
            raise ConfigError(f"unknown output head {self.output_head!r}")
        if self.output_head == SIGMOID_HEAD and self.output_dim != 1:
            raise ShapeError("sigmoid head requires output dim 1")
        if len(self.weights) != len(self.layer_dims) - 1:
            raise ShapeError("weight count does not match layer_dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[i], self.layer_dims[i + 1])
            if w.shape != want or b.shape != (want[1],):
                raise ShapeError(f"layer {i}: weight {w.shape}, bias {b.shape},"
                                 f" expected {want}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError(f"non-finite parameters in layer {i}")


class Workspace:
    """The arrays that the steps of one fit reuse from step to step.

    `get` returns the array last handed out under a key while its shape
    and dtype still match, and a new one otherwise, so a step computes
    into the arrays of the step before it, and no step after the first
    depends on what the allocator did with memory freed earlier in the
    process. `scope` gives the workspace of a name within this one, whose
    keys are kept apart from every other scope's. `constant` holds what
    the steps only read. Every function that computes into a workspace
    returns arrays that the next call on it overwrites, so a caller
    outside training, such as scoring or a refit, passes one of its own.
    """

    def __init__(self):
        self._arrays = {}
        self._scopes = {}
        self._constants = {}

    def scope(self, name: str) -> "Workspace":
        ws = self._scopes.get(name)
        if ws is None:
            ws = self._scopes[name] = Workspace()
        return ws

    def get(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(key)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[key] = np.empty(shape, dtype)
        return a

    def constant(self, key: str, make, *args):
        """make(*args), built the first time it is asked for with these
        args; its users only read it."""
        k = (key, *args)
        value = self._constants.get(k)
        if value is None:
            value = self._constants[k] = make(*args)
        return value


@dataclass
class GradientSet:
    """Per-parameter gradients mirroring an MlpModel's shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(layer_dims, output_head: str, rng: np.random.Generator,
             dropout_rate: float = 0.2) -> MlpModel:
    """Seeded Glorot-uniform weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    model = MlpModel(dims, weights, biases, output_head, dropout_rate)
    model.validate()
    return model


def max_last(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1) as a chain of np.maximum over the columns.

    The same bits, and several times faster than numpy's reduction over a
    short trailing axis such as the classes of a training batch. The
    result is a fresh array, taken in place after the first two columns.
    """
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    out = np.maximum(a[..., 0], a[..., 1])  # a scalar for a vector `a`
    for k in range(2, a.shape[-1]):
        out = np.maximum(out, a[..., k], out=out if out.ndim else None)
    return out


def sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) as left-to-right column additions.

    Bit-identical to numpy's sum below 8 columns, where numpy adds in the
    same order; several times faster over a short trailing axis. The sum
    is a fresh array, added into in place after the first two columns.
    """
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    out = a[..., 0] + a[..., 1]
    for k in range(2, a.shape[-1]):
        out += a[..., k]
    return out


def stable_softmax(logits: np.ndarray, tau: float = 1.0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """softmax(logits / tau) with max-subtraction; safe for huge logits.
    Computed in place in `out`, if given, or in a fresh array."""
    if tau <= 0:
        raise ConfigError("softmax temperature must be positive")
    z = np.divide(np.asarray(logits, dtype=np.float64), tau, out=out)
    z -= max_last(z)[..., None]
    np.exp(z, out=z)
    z /= sum_last(z)[..., None]
    return z


def stable_sigmoid(x, ws: Workspace) -> np.ndarray:
    """1 / (1 + exp(-x)) on float64 values, stable in both tails; the
    package's one sigmoid. Its result and scratch come from `ws`."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each
    # branch sees the bits a per-sign masked evaluation would. minimum
    # rather than -abs: it passes a NaN through with its sign unchanged.
    d = np.negative(x, out=ws.get("d", x.shape))
    np.minimum(x, d, out=d)
    np.exp(d, out=d)
    np.add(1.0, d, out=d)
    # the numerator: exp(0) = 1 where x >= 0, exp(-|x|) elsewhere
    e = np.minimum(x, 0.0, out=ws.get("out", x.shape))
    np.exp(e, out=e)
    return np.divide(e, d, out=e)


def sample_dropout_masks(model: MlpModel, n: int, *rngs: np.random.Generator,
                         ws: Workspace, lead: tuple = (), steps: int) -> list:
    """Inverted-dropout keep masks for each hidden layer of a batch of n
    rows at each of `steps` consecutive training steps: a list of one
    step's masks each (None for a model without dropout or hidden layers),
    holding in turn the values that one-step draws would give. A mask is
    bool, True where a unit is kept; `mlp_forward` scales the kept units
    by 1 / (1 - dropout_rate). A step's masks are (n, dim) from one
    generator, or one batch per generator of `rngs`, stacked on the
    leading axes `lead` (see `mlp_forward`). Each generator draws its
    steps in order, one step's uniforms at a time into one scratch row,
    which fills the values that one draw of all its steps would. The
    masks are C-contiguous views of `ws`'s arrays.
    """
    p = model.dropout_rate
    dims = model.layer_dims[1:-1]
    if p == 0.0 or not dims:  # no unit to drop
        return [None] * steps
    # a step takes its layers in order from each generator's stream
    u = ws.get("uniforms", (n * sum(dims),))
    # step-major, so that each step's (generators, n, dim) is contiguous
    keep = [ws.get(f"keep{i}", (steps, len(rngs), n * dim), bool)
            for i, dim in enumerate(dims)]
    for j, rng in enumerate(rngs):
        for t in range(steps):
            rng.random(out=u)
            at = 0
            for k, dim in zip(keep, dims):
                np.greater_equal(u[at:at + n * dim], p, out=k[t, j])
                at += n * dim
    masks = [k.reshape((steps,) + lead + (n, dim))
             for k, dim in zip(keep, dims)]
    return [list(step) for step in zip(*masks)]


def _check_input(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"input shape {X.shape} does not match model input"
                         f" dim {model.input_dim}")
    if not np.isfinite(X).all():
        raise InputError("non-finite feature values")
    return X


def logits_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Pre-head activations for a batch, without dropout: the training
    forward pass of the model as a one-run, one-variant stack."""
    return mlp_forward(stack_models([[model]]), _check_input(model, X), None,
                       Workspace())[0][0, 0]


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Head outputs for a batch: (n, K) distributions or (n,) sigmoids."""
    z = logits_batch(model, X)
    if model.output_head == SOFTMAX_HEAD:
        return stable_softmax(z)
    return stable_sigmoid(z[:, 0], Workspace())


# --- training-path forward and backward ----------------------------------

def mlp_forward(model: MlpModel, X: np.ndarray, masks, ws: Workspace):
    """Training forward pass of a replica stack: (logits, cache).

    The input's leading axes broadcast against the stack's replica axes
    (see `stack_models`): an (n, d) input is shared by every replica; an
    (S, 1, n, d) input feeds group s of its rows to the G variants of run
    s of an (S, G) stack; an (S, G, n, d) input gives each replica its own
    rows. The keep masks of `sample_dropout_masks` (None for eval
    behaviour) broadcast the same way, so the variants of a run share its
    rows and masks without a copy. The logits are (*replica axes, n, K),
    an array of `ws`. `cache` holds what `mlp_backward` needs; its
    activations and gates come from `ws`.
    """
    if model.weights[0].ndim < 3:
        raise ShapeError("training losses take replica stacks"
                         " (see stack_models)")
    # a kept unit's factor: the bits of a kept flag divided by 1 - p
    scale = 1.0 / (1.0 - model.dropout_rate)
    h = X
    inputs, gates = [], []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(h)
        shape = w.shape[:-2] + (X.shape[-2], w.shape[-1])
        # an array of the layer's own, so the rest of it runs in place
        h = np.matmul(h, w, out=ws.get(f"h{i}", shape))
        if i == last:
            h += b
            break
        if masks is None:
            h += b
            gate = np.greater(h, 0.0, out=ws.get(f"on{i}", shape, bool))
        else:
            # numpy broadcasts a smaller operand, and casts a bool one,
            # through a buffer of its own: the gate's array holds the bias
            # at the layer's shape until the gate is formed in it
            gate = ws.get(f"gate{i}", shape)
            np.copyto(gate, b)
            h += gate
            on = np.greater(h, 0.0, out=ws.get(f"on{i}", shape, bool))
            np.logical_and(on, masks[i], out=on)
            np.copyto(gate, on)
            gate *= scale
        # ReLU and inverted dropout as one multiplier per activation
        h *= gate
        gates.append(gate)
    return h, (model.weights, inputs, gates)


def mlp_backward(cache, d_logits: np.ndarray) -> GradientSet:
    """Parameter gradients of a replica stack given dL/d(logits), for a
    shared, per-run or per-replica input alike. The gradients are fresh
    arrays; the cache is spent, since each hidden layer's gradient is
    computed into the array of its activations."""
    weights, inputs, gates = cache
    n = len(weights)
    gw, gb = [None] * n, [None] * n
    g = d_logits
    for i in reversed(range(n)):
        gw[i] = np.swapaxes(inputs[i], -1, -2) @ g
        gb[i] = g.sum(axis=-2, keepdims=True)
        if i:
            # layer i - 1's activations are spent once gw[i] is formed
            g = np.matmul(g, np.swapaxes(weights[i], -1, -2), out=inputs[i])
            g *= gates[i - 1]
    return GradientSet(gw, gb)


def flat_view(a: np.ndarray) -> np.ndarray:
    """`a` as a 1-D view, for gathers and scatters at `label_index`
    positions. Raises ShapeError when `a` is not C-contiguous, where
    reshape(-1) would return a copy and a scatter into it would be lost."""
    if not a.flags.c_contiguous:
        raise ShapeError(f"no flat view of a non-contiguous {a.shape} array")
    return a.reshape(-1)


def _lead_offsets(shape: tuple) -> np.ndarray:
    # where each leading position's (n, K) block starts, on lead + (1,)
    lead = shape[:-2]
    return (np.arange(int(np.prod(lead)), dtype=np.int64)
            * (shape[-2] * shape[-1])).reshape(lead + (1,))


def label_index(shape, rows, labels, ws: Workspace) -> np.ndarray:
    """Flat positions in a C-contiguous array of `shape` (..., n, K) of
    a[..., rows[i], labels[..., i]] at every leading position, so that
    `flat_view(a)[at]` gathers them and `flat_view(a)[at] += v` adds to
    them; `rows` and `labels` broadcast against the leading shape and
    len(rows). The offsets of the leading positions are `ws`'s
    constants."""
    at = rows * shape[-1] + ws.constant("lead", _lead_offsets, tuple(shape))
    at += labels
    return at


def _objective(per_instance: np.ndarray) -> float:
    # each replica's minibatch mean, summed over the replicas
    return float(per_instance.sum() * (1.0 / per_instance.shape[-1]))


def loss_and_grad(models: dict[str, MlpModel], batch, loss_fn,
                  ws: Workspace) -> tuple[float, dict[str, GradientSet]]:
    """Minibatch-mean loss and its exact gradients.

    `loss_fn(models, batch, ws)` receives {name: replica stack} and a
    workspace for its arrays, and returns
    `(per_instance, backward)`: the per-instance losses, (S, G, n) as
    `mlp_forward` lays out the replicas, and a function
    mapping dL/d(per_instance), which it only reads, to {name:
    GradientSet} of fresh arrays. Each replica's
    loss is its own mean over the n instances (scaled by 1/n, not
    1/(S*G*n)), so its gradient is the one it would get alone; the
    returned loss is the sum of those means. Models absent from `models`
    (e.g. frozen calibrators, which enter the loss as constants) receive
    no gradient. A non-finite per-instance loss raises NumericError
    naming the first failing replica, counted in stack order, and
    instance.
    """
    per_instance, backward = loss_fn(models, batch, ws)
    if not np.isfinite(per_instance).all():
        *lead, i = np.argwhere(~np.isfinite(per_instance))[0]
        r = np.ravel_multi_index(lead, per_instance.shape[:-1])
        raise NumericError(f"non-finite loss at replica {r}, instance {i}",
                           index=int(i), replica=int(r))
    n = per_instance.shape[-1]
    return _objective(per_instance), backward(
        ws.constant("seed", np.full, per_instance.shape, 1.0 / n))


def loss_value(models: dict[str, MlpModel], batch, loss_fn,
               ws: Workspace) -> float:
    """Loss only, no gradients (used by the finite-difference oracle).

    The same objective as `loss_and_grad`: the minibatch mean, summed over
    replicas.
    """
    return _objective(loss_fn(models, batch, ws)[0])


def sgd_step(model: MlpModel, grads: GradientSet, learning_rate: float
             ) -> MlpModel:
    """One plain SGD update, in place; returns the model.

    `w -= lr * g` gives the bits of `w - lr * g`.
    """
    params = model.weights + model.biases
    deltas = grads.weights + grads.biases
    if len(grads.weights) != len(model.weights) or \
            len(deltas) != len(params):
        raise ShapeError("gradient set does not match model")
    for g, p in zip(deltas, params):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter"
                             f" {p.shape}")
    for p, g in zip(params, deltas):
        p -= learning_rate * g
    return model


def stack_models(models) -> MlpModel:
    """S runs of G variants of one architecture, `models[s][g]`, as one
    replica stack: weights (S, G, fan_in, fan_out) and biases (S, G, 1,
    fan_out), so that each run's rows reach its own variants (see
    `mlp_forward`). Runs with unequal variant counts raise ShapeError.
    """
    first = models[0][0]
    if any(len(run) != len(models[0]) for run in models):
        raise ShapeError("stacked runs must have equal variant counts")
    flat = [m for run in models for m in run]
    for m in flat[1:]:
        if (m.layer_dims, m.output_head, m.dropout_rate) != \
                (first.layer_dims, first.output_head, first.dropout_rate):
            raise ShapeError("stacked models must share one architecture")
    lead = (len(models), len(models[0]))
    weights = [np.stack(ws).reshape(lead + ws[0].shape)
               for ws in zip(*(m.weights for m in flat))]
    biases = [np.stack(bs).reshape(lead + (1,) + bs[0].shape)
              for bs in zip(*(m.biases for m in flat))]
    return replace(first, weights=weights, biases=biases)


def unstack_models(stacked: MlpModel) -> list[list[MlpModel]]:
    """The models of an (S, G) stack, `models[s][g]`, as independent
    copies."""
    S, G = stacked.weights[0].shape[:2]
    return [[replace(stacked,
                     weights=[w[s, g].copy() for w in stacked.weights],
                     biases=[b[s, g, 0].copy() for b in stacked.biases])
             for g in range(G)] for s in range(S)]


def _untrained(start: dict[str, np.ndarray], fitted: dict[str, MlpModel]
               ) -> tuple | None:
    """(run, network, variant) of the first replica, in run, then network,
    then variant order, with a network whose first-layer weights in
    `fitted` are bit-identical to their `start`; None if there is none.

    Only the first layer is compared: on saturated inputs the rows whose
    first hidden layer is all off still pass a gradient to the layers
    above, so those move, while the network learns nothing of its inputs.
    """
    unchanged = np.stack([(m.weights[0] == start[name]).all(axis=(-2, -1))
                          for name, m in fitted.items()])  # (nets, S, G)
    if not unchanged.any():
        return None
    run = int(np.argmax(unchanged.any(axis=(0, 2))))
    net, variant = np.argwhere(unchanged[:, run])[0]
    return run, list(fitted)[net], int(variant)


# --- runs ----------------------------------------------------------------
#
# Every trainer takes runs: one per seed, each a (dataset, cfg, ...)
# tuple, and trains all of them, with every variant of its grid, as one
# replica stack through `fit_stack`. Each run draws its minibatches and
# dropout masks from its own streams, seeded by its config, BLOCK_STEPS
# steps at a time, and its variants share them; so each run's results are
# bit-identical to training it alone, and a one-seed call is the S=1 case.
# A run's dataset may be a split (`data.Dataset.subset`): its batches are
# then gathered through its row indices from the dataset it was taken
# from, so no run holds a copy of its rows.

# Training steps whose minibatch rows and dropout masks are drawn at once.
# Each step sees the values it would draw alone; a longer block saves
# little more and holds more memory.
BLOCK_STEPS = 8


def batch_indices(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return rng.choice(n, size=min(size, n), replace=False)


def shared_batch_size(runs) -> int:
    """The minibatch size of runs trained as one stack, which must share
    their config apart from the seed, and their minibatch size."""
    cfg = runs[0][1]
    if any(replace(c, seed=cfg.seed) != cfg for _, c, *_ in runs):
        raise ConfigError("runs trained together must share their config"
                          " apart from the seed")
    sizes = {min(cfg.batch_size, len(ds)) for ds, *_ in runs}
    if len(sizes) > 1:
        raise ShapeError("runs trained together must share their"
                         " minibatch size")
    return sizes.pop()


def block_rows(fields, rngs, B: int, lead: tuple, steps: int,
               ws: Workspace, rows) -> list:
    """The minibatch rows of `steps` consecutive steps, one array per field.

    Row source j holds fields[k][j] for each field k and draws its steps'
    index sets in step order from rngs[j], as `batch_indices` per step
    would. Source j's rows are rows[j], indices into its field arrays
    (None: all of them), and each drawn index picks one of them. Each
    field is gathered once per source into a (steps, *lead, B, ...) array
    of `ws`, so step t's rows are its C-contiguous view [t], laid out on
    `lead` as `fit_stack` lays out a step's batch.
    """
    idx = []
    for j, (rng, a, r) in enumerate(zip(rngs, fields[0], rows)):
        i = ws.get(f"drawn{j}", (steps, B), np.int64)
        for t in range(steps):
            i[t] = batch_indices(rng, len(a if r is None else r), B)
        if r is not None:
            # mode="clip" takes without a buffer; no index is out of range
            i = np.take(r, i, out=ws.get(f"rows{j}", i.shape, r.dtype),
                        mode="clip")
        idx.append(i)
    blocks = []
    for k, arrays in enumerate(fields):
        a0 = arrays[0]
        block = ws.get(f"field{k}", (steps, len(arrays), B) + a0.shape[1:],
                       a0.dtype)
        # taken into contiguous scratch: a[i], or a take into the strided
        # block, makes a temporary of its own
        gathered = ws.get(f"gather{k}", (steps, B) + a0.shape[1:], a0.dtype)
        for j, (a, i) in enumerate(zip(arrays, idx)):
            block[:, j] = np.take(a, i, axis=0, out=gathered, mode="clip")
        blocks.append(block.reshape((steps,) + lead + block.shape[2:]))
    return blocks


def fit_stack(nets: dict, fields, rngs, B: int, loss_fn, cfg: TrainConfig,
              what: str, variant_labels=None, *, batch, on_step=None,
              rows) -> dict[str, list[list[MlpModel]]]:
    """The package's SGD: `cfg.iterations` plain steps of S runs of G
    variants each, trained as one replica stack.

    `nets` maps each network's name to (models, dropout generators, mask
    rows), models[s][g] starting variant g of run s. `fields` holds the
    row fields, each a list of arrays, one per row source, `rngs` the
    sources' batch generators and `rows` each source's row indices into
    its arrays (see `block_rows`). A source, like a dropout generator,
    serves a run, laid out as (S, 1) so that its rows broadcast over its
    variants, or a replica, run-major, laid out as (S, G) (see
    `mlp_forward`). Every BLOCK_STEPS steps the next block of rows and
    masks is drawn into the fit's one `Workspace`. A step's rows, B per
    source, and then each network's masks come as one tuple, which
    `batch` makes into the step's batch when the step comes.
    `loss_fn(models, batch, ws)` follows the `loss_and_grad` contract on
    the stacks, so each replica trains exactly as it would alone; every
    step passes it the fit's workspace.

    The networks are stacked once and updated in place, so the caller's
    models are left as they were; `on_step(it, stacks)` runs after every
    update and must not keep the arrays it is handed. A non-finite loss
    raises TrainingError carrying the iteration and the index of the run
    that failed first and, when the G `variant_labels` are given, naming
    that run's first failing variant: the error its run raises alone. A
    replica with a network whose input weights never moved, as when
    saturated inputs or zero loss weights zero their every gradient,
    raises the same way after the last step, without an iteration
    (`_untrained`). Returns each network's models, nested as given.
    """
    first = next(iter(nets.values()))[0]
    S, G = len(first), len(first[0])
    ws = Workspace()  # the fit's, for its loss and its step inputs

    def lead(sources):
        return (S, 1) if len(sources) == S else (S, G)

    def labelled(variant):
        return "" if variant_labels is None else \
            f" ({variant_labels[variant]})"

    models = {name: stack_models(ms) for name, (ms, _, _) in nets.items()}
    start = {name: m.weights[0].copy() for name, m in models.items()}
    for it in range(cfg.iterations):
        t = it % BLOCK_STEPS
        if t == 0:
            steps = min(BLOCK_STEPS, cfg.iterations - it)
            block = list(zip(
                *block_rows(fields, rngs, B, lead(rngs), steps,
                            ws.scope("rows"), rows),
                *(sample_dropout_masks(ms[0][0], n, *drops,
                                       ws=ws.scope(f"masks {name}"),
                                       lead=lead(drops), steps=steps)
                  for name, (ms, drops, n) in nets.items())))
        try:
            _, grads = loss_and_grad(models, batch(block[t]), loss_fn, ws)
        except NumericError as e:
            run, variant = divmod(e.replica, G)
            raise TrainingError(f"{what} diverged at iteration"
                                f" {it}{labelled(variant)}",
                                iteration=it, run=run) from e
        for name, m in models.items():
            sgd_step(m, grads[name], cfg.learning_rate)
        if on_step is not None:
            on_step(it, models)
    stuck = _untrained(start, models)
    if stuck is not None:
        run, name, variant = stuck
        raise TrainingError(f"{what} did not train: the input weights of"
                            f" {name!r} never moved{labelled(variant)}",
                            run=run)
    return {name: unstack_models(m) for name, m in models.items()}


def finite_diff_check(models: dict[str, MlpModel], batch, loss_fn) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error is |analytic - numeric| / max(1, |analytic|), maximized
    over every unfrozen parameter of every model, with differences taken
    at a step of 1e-5. The gradients, fresh arrays, are read after later
    evaluations on the check's one workspace.
    """
    step = 1e-5
    ws = Workspace()
    _, grads = loss_and_grad(models, batch, loss_fn, ws)
    worst = 0.0
    for name, model in models.items():
        gset = grads[name]
        for arrays, garrays in ((model.weights, gset.weights),
                                (model.biases, gset.biases)):
            for arr, garr in zip(arrays, garrays):
                flat = arr.ravel()
                gflat = garr.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + step
                    hi = loss_value(models, batch, loss_fn, ws)
                    flat[j] = orig - step
                    lo = loss_value(models, batch, loss_fn, ws)
                    flat[j] = orig
                    numeric = (hi - lo) / (2.0 * step)
                    err = abs(gflat[j] - numeric) / max(1.0, abs(gflat[j]))
                    worst = max(worst, err)
    return worst
