"""Reference forms of package quantities, shared by several test modules.

Scalar forms restate one rule per instance so the vectorized version in
the package can be compared against it; the tape forms restate each
training loss on the reverse-mode tape so its closed-form gradient can be.
"""

from typing import NamedTuple

import numpy as np

from teamopt import tape
from teamopt.calibration import PlattCalibrator
from teamopt.data import Dataset
from teamopt.discriminative import DecisionParts, mixture_loss
from teamopt.numerics import (PROB_CLAMP, GradientSet, Workspace,
                              mlp_backward, mlp_forward, stable_sigmoid,
                              stable_softmax, sum_last)
from teamopt.voi import _calibrated, _soft_max, gamma_all_input


def runtime_query_decision(q_val: float, m_dist: np.ndarray) -> bool:
    """Discriminative run-time rule: query iff (1 - q) * max(m) < q; ties
    resolve to no query."""
    return (1.0 - q_val) * float(np.max(m_dist)) < q_val


def subset(dataset, idx, name=None):
    """`Dataset.subset` as a copy: the rows `idx` gathered into a dataset
    that owns them."""
    return Dataset(dataset.X[idx], dataset.y[idx], dataset.h[idx],
                   dataset.num_classes, name or dataset.name, dataset.planted)


def numpy_quantile(values, q):
    """`data.sorted_quantile` as np.quantile computes it: the default
    linear rule, on the values in any order."""
    return float(np.quantile(np.asarray(values), q))


def voi_decision_parts_whole(system, X):
    """`voi.voi_decision_parts` on the whole batch at once: every
    instance's n*K gamma rows in one array."""
    X = np.asarray(X, dtype=np.float64)
    n, K = X.shape[0], system.num_classes
    U = system.team.utility
    pa = system.p_alpha.predict_batch(X)
    pb = system.p_beta.predict_batch(X)
    pg = system.p_gamma.predict_batch(gamma_all_input(X, K))  # (n*K, K)
    eu_nq = pa @ U.T  # (n, K) expected utility per action
    best_no_query = eu_nq.argmax(axis=1)
    u_nq = eu_nq[np.arange(n), best_no_query]
    eu_q = (pg @ U.T).reshape(n, K, K)  # [i, h, action]
    best_by_h = eu_q.argmax(axis=2)
    inner = eu_q.max(axis=2)  # (n, K)
    u_q_base = (pb * inner).sum(axis=1)
    return DecisionParts(best_no_query.astype(np.int64),
                         best_by_h.astype(np.int64), u_q_base, u_nq, True, pa)


def confusable_class_broadcast(X, y, means):
    """`data.confusable_class` as one (n, K, d) broadcast: every row's
    squared distance to every class mean, its own class masked out."""
    dists = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    dists[np.arange(len(X)), y] = np.inf
    return dists.argmin(axis=1)


def gaussian_features_broadcast(rng, means, y):
    """`data.gaussian_features` as one (n, d) array of each row's class
    mean plus the draw of N(0, I)."""
    return means[y] + rng.standard_normal((len(y), means.shape[1]))


def soft_expected_utilities(pa, pb, pg_rows, utility, tau):
    """Soft u_nq, u_q and query probability from explicit distributions.

    pg_rows[h] is the label distribution after observing response h. Each
    hard max over actions becomes a softmax_tau-weighted average, and the
    query probability is the two-way softmax of (u_q, u_nq). Costs stay
    out of u_q here; they re-enter through the q*c loss term.
    """
    U = np.asarray(utility, dtype=np.float64)
    eu_nq = U @ np.asarray(pa)
    u_nq = float(eu_nq @ stable_softmax(eu_nq, tau))
    eu_q = np.asarray(pg_rows) @ U.T  # (K, K): [h, action]
    inner = (eu_q * stable_softmax(eu_q, tau)).sum(axis=1)
    u_q = float(np.asarray(pb) @ inner)
    q = float(stable_sigmoid((u_q - u_nq) / tau, Workspace()))
    return u_nq, u_q, q


def soft_team_quantities(system, x, tau=None):
    """(u_nq_soft, u_q_soft, q_soft) of a VOI system for one instance,
    networks without dropout; tau defaults to the system's temperature."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    t = system.train_cfg.softmax_temperature if tau is None else tau
    pa = system.p_alpha.predict_batch(x)[0]
    pb = system.p_beta.predict_batch(x)[0]
    pg = system.p_gamma.predict_batch(gamma_all_input(x, system.num_classes))
    return soft_expected_utilities(pa, pb, pg, system.team.utility, t)


# --- tape references for the closed-form training losses ----------------
#
# The `*_tape` functions restate each training loss on the reverse-mode
# tape, on the same replica stacks and batches as the package's
# closed-form loss, and `tape_loss_and_grad` differentiates them the way
# the package's `loss_and_grad` does: each replica's mean over its
# instances.

class TapeNet(NamedTuple):
    """A model's parameters as gradient-tracked tape nodes, and the factor
    its inverted dropout gives a kept unit."""

    layers: list  # (W, b) node pairs
    keep_scale: float


def param_nodes(model):
    """Wrap a model's parameters as gradient-tracked tape nodes."""
    return TapeNet([(tape.param(w), tape.param(b))
                    for w, b in zip(model.weights, model.biases)],
                   1.0 / (1.0 - model.dropout_rate))


def apply_mlp(net, X, masks=None):
    """Run an MLP on the tape; returns the logits node.

    `net` is a `TapeNet` from `param_nodes`; `masks` are pre-sampled
    dropout keep masks or None for eval behaviour. A mask enters the tape
    as the constant float factor keep * keep_scale. The (n, d) input and
    the (n, dim) masks are shared by every replica of a stack and the
    logits are (S, G, n, K).
    """
    h = tape.constant(X)
    last = len(net.layers) - 1
    for i, (w, b) in enumerate(net.layers):
        h = tape.matmul(h, w) + b
        if i < last:
            h = tape.relu(h)
            if masks is not None:
                h = h * tape.constant(masks[i] * net.keep_scale)
    return h


def grads_of(net):
    """Collect accumulated gradients from a `TapeNet`'s nodes."""
    weights = [w.grad if w.grad is not None else np.zeros_like(w.data)
               for w, _ in net.layers]
    biases = [b.grad if b.grad is not None else np.zeros_like(b.data)
              for _, b in net.layers]
    return GradientSet(weights, biases)


def tape_loss_and_grad(models, batch, loss_fn):
    """(per-instance losses, {name: GradientSet}) of a tape loss
    `loss_fn(params, batch)` returning an (S, G, n) node."""
    params = {name: param_nodes(m) for name, m in models.items()}
    per_instance = loss_fn(params, batch)
    loss = tape.sum_(per_instance) * (1.0 / per_instance.shape[-1])
    tape.backward(loss)
    return per_instance.data, {name: grads_of(net)
                               for name, net in params.items()}


def stacked_calibrators(cals):
    """The (alpha, beta, gamma) calibrators of `cals[s][g]` triples, as
    three calibrators with (S, G, 1, K) parameters, which broadcast over
    the heads' (S, G, rows, K) logits instead of being tiled per row as
    `voi.joint_calibrator` tiles them."""
    return tuple(PlattCalibrator(*(
        np.array([[getattr(t[i], f) for t in run] for run in cals])[
            :, :, None] for f in ("a", "b", "degenerate"))) for i in range(3))


def calibrated_node(logits, cal):
    # calibrator parameters enter as constants: frozen during backprop
    s = tape.sigmoid(logits * tape.constant(cal.a) + tape.constant(cal.b))
    return s / tape.sum_(s, axis=-1, keepdims=True)


def mixture_nodes(q_node, m_probs, onehot_h, onehot_y, w_y, cost_term):
    """Per-instance mixture loss; `cost_term` is lambda * c, a float or a
    (G, 1) column with one value per variant."""
    q_col = tape.reshape(q_node, q_node.shape + (1,))
    mix = q_col * tape.constant(onehot_h) + (1.0 - q_col) * m_probs
    p_true = tape.sum_(mix * tape.constant(onehot_y), axis=-1)
    ce = tape.constant(w_y) * -tape.log(tape.clamp_min(p_true, PROB_CLAMP))
    return ce + cost_term * q_node


def query_node(params_q, X, masks):
    logits = apply_mlp(params_q, X, masks)
    return tape.sigmoid(tape.reshape(logits, logits.shape[:-1]))


def solo_ce_tape(K):
    """Tape form of `solo_ce_loss` on batches (X, t, w[t], masks)."""
    eye = np.eye(K)

    def loss_fn(params, batch):
        X, t, w_t, masks = batch
        probs = tape.softmax(apply_mlp(params["m"], X, masks))
        p_true = tape.sum_(probs * tape.constant(eye[t]), axis=-1)
        return tape.constant(w_t) * -tape.log(
            tape.clamp_min(p_true, PROB_CLAMP))

    return loss_fn


def query_policy_tape(cfg, costs, m_probs, h, y):
    """Tape form of `query_policy_loss_fn` on batches (X, m(x)[y],
    [h == y], w[y], masks), with the full frozen predictor outputs
    `m_probs` and the responses and labels of the batch rows."""
    K = m_probs.shape[-1]
    eye = np.eye(K)
    cost_term = cfg.cost_weight * np.asarray(costs, dtype=np.float64)[:, None]

    def loss_fn(params, batch):
        Xb, _, _, w_y, masks = batch
        return mixture_nodes(query_node(params["q"], Xb, masks),
                             tape.constant(m_probs), eye[h], eye[y], w_y,
                             cost_term)

    return loss_fn


def joint_disc_tape(team, cost_weights, h):
    """Tape form of `joint_disc_loss_fn` on batches (X, y, [h == y], w[y],
    masks_m, masks_q), given the batch's responses h."""
    eye = np.eye(team.num_classes)
    cost_term = np.asarray(cost_weights, dtype=np.float64)[:, None] \
        * team.query_cost

    def loss_fn(params, batch):
        Xb, y, _, w_y, masks_m, masks_q = batch
        m_probs = tape.softmax(apply_mlp(params["m"], Xb, masks_m))
        return mixture_nodes(query_node(params["q"], Xb, masks_q), m_probs,
                             eye[h], eye[y], w_y, cost_term)

    return loss_fn


def joint_voi_tape(team, cfg, cost_weights, cals):
    """Tape form of `joint_voi_loss_fn` on a `joint_voi_batch`, with the
    heads calibrated by `cals[s][g]`, the (alpha, beta, gamma) triples
    that the batch's `joint_calibrator` was built from."""
    tau = cfg.softmax_temperature
    lam_c = np.asarray(cost_weights, dtype=np.float64)[:, None] \
        * team.query_cost
    Ut = team.utility.T.copy()
    eye = np.eye(team.num_classes)

    cal_a, cal_b, cal_g = stacked_calibrators(cals)

    def loss_fn(params, batch):
        B, K = len(batch.y), Ut.shape[0]
        pa = calibrated_node(apply_mlp(params["alpha"], batch.X,
                                       batch.masks_a), cal_a)
        pb = calibrated_node(apply_mlp(params["beta"], batch.X,
                                       batch.masks_b), cal_b)
        pg = calibrated_node(apply_mlp(params["gamma"], batch.X_gamma_all,
                                       batch.masks_g), cal_g)
        eu_nq = tape.matmul(pa, tape.constant(Ut))  # (..., B, K) actions
        u_nq = tape.sum_(eu_nq * tape.softmax(eu_nq, tau=tau), axis=-1)
        eu_q = tape.matmul(pg, tape.constant(Ut))  # (..., B*K, K)
        inner = tape.sum_(eu_q * tape.softmax(eu_q, tau=tau), axis=-1)
        inner = tape.reshape(inner, inner.shape[:-1] + (B, K))
        u_q = tape.sum_(pb * inner, axis=-1)
        q = tape.sigmoid((u_q - u_nq) * (1.0 / tau))
        pg3 = tape.reshape(pg, pg.shape[:-2] + (B, K, K))
        onehot_h3 = eye[batch.h][:, :, None]
        p_gamma_h = tape.sum_(pg3 * tape.constant(onehot_h3), axis=-2)
        q_col = tape.reshape(q, q.shape + (1,))
        mix = q_col * p_gamma_h + (1.0 - q_col) * pa
        p_true = tape.sum_(mix * tape.constant(eye[batch.y]), axis=-1)
        ce = tape.constant(batch.w_y) * -tape.log(
            tape.clamp_min(p_true, PROB_CLAMP))
        return ce + lam_c * q

    return loss_fn


# --- the joint-VOI loss one head at a time -------------------------------

def joint_voi_three_pass(team, cfg, cost_weights, cals):
    """`joint_voi_loss_fn` as three separate head passes: each head's
    logits calibrated on their own by its calibrators in `cals[s][g]`
    (broadcast, not tiled per row), and a softened maximum each for alpha
    and gamma. The package's one-pass form must match it bit for bit."""
    tau = cfg.softmax_temperature
    lam_c = (np.asarray(cost_weights, dtype=np.float64)[:, None]
             * team.query_cost)
    U = team.utility
    Ut = U.T.copy()
    cal_a, cal_b, cal_g = stacked_calibrators(cals)

    def loss_fn(models, batch):
        B, K = len(batch.y), Ut.shape[0]
        rows = np.arange(B)
        h_rows = rows * K + batch.h  # p_gamma rows at the observed responses
        ws = Workspace()
        za, cache_a = mlp_forward(models["alpha"], batch.X, batch.masks_a,
                                  ws.scope("alpha"))
        zb, cache_b = mlp_forward(models["beta"], batch.X, batch.masks_b,
                                  ws.scope("beta"))
        zg, cache_g = mlp_forward(models["gamma"], batch.X_gamma_all,
                                  batch.masks_g, ws.scope("gamma"))
        pa, back_a = _calibrated(za, cal_a, ws.scope("pa"))  # (S, G, B, K)
        pb, back_b = _calibrated(zb, cal_b, ws.scope("pb"))
        pg, back_g = _calibrated(zg, cal_g, ws.scope("pg"))  # (.., B*K, K)
        u_nq, back_nq = _soft_max(pa @ Ut, tau, ws.scope("u_nq"))  # actions
        inner, back_inner = _soft_max(pg @ Ut, tau, ws.scope("inner"))
        inner = inner.reshape(inner.shape[:-1] + (B, K))  # (S, G, B, K)
        u_q = sum_last(pb * inner)
        q = stable_sigmoid((u_q - u_nq) * (1.0 / tau), ws.scope("q"))
        per, mix_backward = mixture_loss(q, pg[..., h_rows, batch.y],
                                         pa[..., rows, batch.y], batch.w_y,
                                         lam_c, ws.scope("mix"))

        def backward(g):
            dq, d_pg_hy, d_pa_y = mix_backward(g)
            d_gap = dq * q * (1.0 - q) * (1.0 / tau)  # d(u_q - u_nq)
            d_pa = back_nq(-d_gap) @ U
            d_pa[..., rows, batch.y] += d_pa_y
            d_inner = d_gap[..., None] * pb
            d_pg = back_inner(d_inner.reshape(d_inner.shape[:-2] + (B * K,))
                              ) @ U
            d_pg[..., h_rows, batch.y] += d_pg_hy
            return {"alpha": mlp_backward(cache_a, back_a(d_pa)),
                    "beta": mlp_backward(cache_b,
                                         back_b(d_gap[..., None] * inner)),
                    "gamma": mlp_backward(cache_g, back_g(d_pg))}

        return per, backward

    return loss_fn
