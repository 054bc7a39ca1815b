"""Value-of-information approaches to querying a human teammate.

Three calibrated models carry the probabilistic reasoning: p_alpha(y|x),
p_beta(h|x) and p_gamma(y|x,h) (the latter consumes onehot(h) appended to
x). The fixed approach trains each in isolation, calibrates, and queries
whenever the expected utility of asking, u_q, strictly exceeds the
expected utility of deciding alone, u_nq. The joint approach fine-tunes
all three networks end-to-end through softened maxima and a soft query
probability, refreshing the frozen Platt calibrators every
`calibration_interval` iterations. Decision time always uses the exact
(hard) rule.

Joint training holds its replicas as `numerics` does, nested per run:
the networks as models[s][g] and the calibrators as cals[s][g], the
(alpha, beta, gamma) triple of variant g of run s, which
`joint_calibrator` tiles into the (S, G, rows, K) parameters of a step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibration import PlattCalibrator, calibrate_batch, calibrated_head
from .discriminative import (DecisionParts, TeamConfig, derive_rng,
                             mixture_loss, train_solo_model,
                             utility_loss_weights)
from .errors import InputError, StateError
from .numerics import (MlpModel, TrainConfig, Workspace, eval_blocks,
                       fit_stack, flat_view, label_index, logits_batch,
                       mlp_backward, mlp_forward, shared_batch_size,
                       stable_sigmoid, stable_softmax, sum_last,
                       unstack_models)

# rng stream ids, disjoint from the discriminative module's 0..5
STREAM_ALPHA = (10, 11, 12)  # init, batch, dropout
STREAM_BETA = (13, 14, 15)
STREAM_GAMMA = (16, 17, 18)
STREAM_CALIB_SPLIT = 19
STREAM_JOINT_BATCH = 20
STREAM_JOINT_DROP = (21, 22, 23)  # alpha, beta, gamma dropout
_PARTS = ("alpha", "beta", "gamma")


@dataclass
class CalibratedModel:
    """An MLP plus the Platt calibrator applied to its logits."""

    model: MlpModel
    calibrator: PlattCalibrator | None = None

    @property
    def calibrated(self) -> bool:
        return self.calibrator is not None

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        if self.calibrator is None:
            raise StateError("model is not calibrated")
        return calibrate_batch(logits_batch(self.model, X), self.calibrator)


@dataclass
class VoiSystem:
    p_alpha: CalibratedModel
    p_beta: CalibratedModel
    p_gamma: CalibratedModel
    team: TeamConfig
    train_cfg: TrainConfig

    @property
    def num_classes(self) -> int:
        return self.p_alpha.model.output_dim

    def require_calibrated(self) -> None:
        for name, part in (("p_alpha", self.p_alpha), ("p_beta", self.p_beta),
                           ("p_gamma", self.p_gamma)):
            if not part.calibrated:
                raise StateError(f"{name} is not calibrated")

    def parts(self, X: np.ndarray) -> DecisionParts:
        """See `voi_decision_parts`."""
        return voi_decision_parts(self, X)


def gamma_input(X: np.ndarray, h: np.ndarray, num_classes: int) -> np.ndarray:
    """Inputs for the label-given-response model: x with onehot(h)
    appended, (n, d+K) for (n, d) rows, or (..., n, d+K) for groups of
    rows and their (..., n) responses."""
    return np.concatenate([X, np.eye(num_classes)[h]], axis=-1)


def gamma_all_input(X: np.ndarray, num_classes: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Every (x, onehot(h)) pair, h-major within each instance: (n*K, d+K),
    or (..., n*K, d+K) for (..., n, d) groups of rows. `out`, if given, is
    an earlier result at this shape: only its x columns are written, and
    its one-hot columns are kept."""
    *lead, n, d = X.shape
    K = num_classes
    if out is None:
        out = np.empty((*lead, n * K, d + K))
        out[..., d:] = np.tile(np.eye(K), (n, 1))
    out.reshape(*lead, n, K, d + K)[..., :d] = X[..., None, :]
    return out


# --- exact decision-time quantities -------------------------------------

def voi_decision_parts(system: VoiSystem, X: np.ndarray) -> DecisionParts:
    """The exact rule's quantities for a batch: query iff u_q - c > u_nq.

    alone_score is u_nq and query_score the expectation term of u_q
    before the cost, which `decide` subtracts. Either way the team takes
    the utility-best action under the calibrated label model it has:
    p_alpha alone, or p_gamma given the response.

    p_alpha and p_beta score the whole batch. p_gamma's n*K rows behind
    u_q are built (`gamma_all_input`), run (`numerics.eval_blocks`) and
    calibrated (`calibrated_head`, one workspace) a `numerics.row_blocks`
    block of instances at a time, so they are never held at once. The
    parts keep the bits of a whole-batch pass.
    """
    system.require_calibrated()
    X = np.asarray(X, dtype=np.float64)
    pa = system.p_alpha.predict_batch(X)
    pb = system.p_beta.predict_batch(X)
    n, K = pa.shape
    U = system.team.utility
    eu_nq = pa @ U.T  # (n, K) expected utility per action
    best_no_query = eu_nq.argmax(axis=1)
    u_nq = eu_nq[np.arange(n), best_no_query]
    best_by_h, u_q_base = np.empty((n, K), dtype=np.int64), np.empty(n)
    ws = Workspace()
    for i, z in eval_blocks(system.p_gamma.model, n,
                            lambda i: gamma_all_input(X[i], K)):
        pg = calibrated_head(z, system.p_gamma.calibrator, ws)[0]  # (b*K, K)
        eu_q = (pg @ U.T).reshape(-1, K, K)  # [i, h, action]
        best_by_h[i] = eu_q.argmax(axis=2)
        u_q_base[i] = (pb[i] * eu_q.max(axis=2)).sum(axis=1)
    return DecisionParts(best_no_query, best_by_h, u_q_base, u_nq, True, pa)


# --- joint training ------------------------------------------------------

@dataclass
class _JointBatch:
    X: np.ndarray             # (B, d), or (S, 1, B, d) groups of rows
    X_gamma_all: np.ndarray   # (B*K, d+K), or (S, 1, B*K, d+K)
    h: np.ndarray             # (B,) or (S, 1, B) int, observed responses
    y: np.ndarray             # (B,) or (S, 1, B) int
    w_y: np.ndarray           # (B,) or (S, 1, B)
    cal: PlattCalibrator      # one (a, b) per logit row, see joint_calibrator
    masks_a: list | None
    masks_b: list | None
    masks_g: list | None


def _calibrated(logits: np.ndarray, cal: PlattCalibrator, ws: Workspace):
    """`calibrated_head`'s distributions on training logits, computed in
    the logits' array and `ws`, with the backward map from dL/dp to
    dL/d(logits). The backward runs once: it computes in the head's spent
    arrays, the sigmoid's scratch and the logits' array, which holds its
    result, and it reads dL/dp before it writes there, so dL/dp may lie
    in the logits' array too. The calibrator parameters are constants:
    frozen during backprop."""
    p, s, total, low = calibrated_head(logits, cal, ws)

    def backward(dp):
        t = np.multiply(dp, p, out=ws.scope("s").get("d", p.shape))
        dot = sum_last(t)[..., None]
        np.subtract(dp, dot, out=t)
        t /= total
        d = np.subtract(1.0, s, out=logits)
        np.multiply(s, d, out=d)
        d *= cal.a
        d *= t  # (dp - dot) / total * (s * (1 - s) * a)
        if low is not None:
            # s / total is p, which stays finite where the total
            # underflowed; there the total is 1.0, so t is dp - dot
            d[low] = (t * p * ((1.0 - s) * cal.a))[low]
        return d

    return p, backward


def _soft_max(eu: np.ndarray, tau: float, ws: Workspace):
    """The softened maximum sum_a eu[a] * softmax_tau(eu)[a] over the last
    axis, computed in `ws`, with the backward map from its gradient to
    dL/d(eu), which runs once: it computes in the softmax's array."""
    sm = stable_softmax(eu, tau, ws.get("sm", eu.shape))
    t = np.multiply(eu, sm, out=ws.get("t", eu.shape))
    u = sum_last(t)

    def backward(du):
        # d u / d eu[k] = sm[k] * (1 + (eu[k] - u) / tau)
        b = np.subtract(eu, u[..., None], out=t)
        b /= tau
        np.add(1.0, b, out=b)
        d = np.multiply(du[..., None], sm, out=sm)
        d *= b
        return d

    return u, backward


def joint_calibrator(cals, B: int) -> PlattCalibrator:
    """The calibrators of an (S, G) replica stack, `cals[s][g]` the
    (alpha, beta, gamma) triple of replica g of run s, as one calibrator
    with (S, G, rows, K) parameters: a row of parameters per logit row of
    a B-instance joint batch, laid out [alpha (B) | gamma (B*K) | beta
    (B)] as `joint_voi_loss_fn` stacks the heads' logits.

    Calibrating against parameters already at the logits' shape gives the
    bits that broadcasting gives, without numpy's short inner loops over
    K; a trainer builds it once per refit.
    """
    def tiled(field):
        # a fresh C-ordered array, whose layout every elementwise result
        # of the head inherits
        heads = np.array([[[getattr(c, field) for c in (a, g, b)]
                           for a, b, g in run] for run in cals])
        return np.repeat(heads, (B, B * heads.shape[-1], B), axis=-2)

    return PlattCalibrator(tiled("a"), tiled("b"), tiled("degenerate"))


def joint_voi_batch(X: np.ndarray, h: np.ndarray, y: np.ndarray,
                    w: np.ndarray, cal: PlattCalibrator, masks=(None,) * 3,
                    gamma_rows: np.ndarray | None = None) -> _JointBatch:
    """The constant side of one training batch: its rows, shared by every
    replica or in groups (see `mlp_forward`), the per-class loss weights
    `w` (`utility_loss_weights`), the `joint_calibrator` of the batch
    size and the (alpha, beta, gamma) masks. Its gamma rows are written
    into `gamma_rows`, if given, an earlier batch's at this shape, whose
    one-hot columns stay (see `gamma_all_input`); a trainer passes the
    same array at every step, so the batch it returned last is spent."""
    return _JointBatch(X, gamma_all_input(X, len(w), gamma_rows), h, y,
                       w[y], cal, *masks)


def joint_voi_loss_fn(team: TeamConfig, cfg: TrainConfig, cost_weights):
    """Per-instance joint soft-VOI loss for fit_stack / finite_diff_check.

    Follows the `loss_and_grad` contract on replica stacks {"alpha",
    "beta", "gamma"} and a _JointBatch, through the soft pipeline:
    calibrated distributions, softened maxima, the two-way soft query
    probability, cross-entropy of the q-mixture of p_gamma(.|x,h) and
    p_alpha(.|x), plus cost_weight * q * c. `cost_weights` holds one
    lambda per variant. The three heads' logits run as one
    [alpha | gamma | beta] stack of rows through a single calibrated
    head, and the alpha and gamma rows through a single softened
    maximum over actions.

    The (replicas, rows, ...) arrays of a step live in the fit's
    workspace, so the steps after the first allocate none of them; an
    array whose use is over takes a later one, and each backward runs
    once, on the arrays of the forward before it.
    """
    tau = cfg.softmax_temperature
    lam_c = (np.asarray(cost_weights, dtype=np.float64)[:, None]
             * team.query_cost)
    U = team.utility
    Ut = U.T.copy()

    def loss_fn(models, batch: _JointBatch, ws):
        B, K = batch.y.shape[-1], Ut.shape[0]
        G = B + B * K  # the alpha and gamma rows, which take soft maxima
        rows = ws.constant("rows", np.arange, B)
        lead = models["alpha"].weights[0].shape[:-2]
        za, cache_a = mlp_forward(models["alpha"], batch.X, batch.masks_a,
                                  ws.scope("alpha"))
        zg, cache_g = mlp_forward(models["gamma"], batch.X_gamma_all,
                                  batch.masks_g, ws.scope("gamma"))
        zb, cache_b = mlp_forward(models["beta"], batch.X, batch.masks_b,
                                  ws.scope("beta"))
        # the heads' logits stacked [alpha | gamma | beta], calibrated in
        # place, and dL/dp once they are spent
        z = np.concatenate((za, zg, zb), axis=-2,
                           out=ws.get("logits", lead + (G + B, K)))
        p, back_p = _calibrated(z, batch.cal, ws.scope("head"))
        at_a = label_index(p.shape, rows, batch.y, ws)
        # gamma rows of the observed responses
        at_g = label_index(p.shape, B + rows * K + batch.h, batch.y, ws)
        flat_p = flat_view(p)
        eu = np.matmul(p[..., :G, :], Ut, out=ws.get("eu", lead + (G, K)))
        u, back_u = _soft_max(eu, tau, ws.scope("soft"))  # over actions
        u_nq = u[..., :B]
        inner = u[..., B:].reshape(u.shape[:-1] + (B, K))  # [i, h]
        pb = p[..., G:, :]
        u_q = sum_last(pb * inner)
        q = stable_sigmoid((u_q - u_nq) * (1.0 / tau), ws.scope("q"))
        per, mix_backward = mixture_loss(q, flat_p[at_g], flat_p[at_a],
                                         batch.w_y, lam_c, ws.scope("mix"))

        def backward(g):
            dq, d_pg_hy, d_pa_y = mix_backward(g)
            # d(u_q - u_nq) = dq * q * (1 - q) / tau
            d_gap = np.multiply(dq, q, out=ws.get("d_gap", q.shape))
            d_gap *= np.subtract(1.0, q, out=ws.get("1-q", q.shape))
            d_gap *= 1.0 / tau
            # du is [-d_gap | d_gap * pb], laid out as u is; splitting
            # its last axis into (B, K) is a view, never a copy
            du = ws.get("du", u.shape)
            np.negative(d_gap, out=du[..., :B])
            np.multiply(d_gap[..., None], pb,
                        out=du[..., B:].reshape(pb.shape))
            dp = z
            np.matmul(back_u(du), U, out=dp[..., :G, :])
            flat_dp = flat_view(dp)
            flat_dp[at_a] += d_pa_y
            flat_dp[at_g] += d_pg_hy
            np.multiply(d_gap[..., None], inner, out=dp[..., G:, :])
            dz = back_p(dp)
            return {"alpha": mlp_backward(cache_a, dz[..., :B, :]),
                    "beta": mlp_backward(cache_b, dz[..., G:, :]),
                    "gamma": mlp_backward(cache_g, dz[..., B:G, :])}

        return per, backward

    return loss_fn


def _calibration_split(dataset, seed: int):
    """(fit, calib): the rows a VOI training fits its networks on and the
    held-out slice its calibrators fit on, both taken by `subset`."""
    n = len(dataset)
    n_cal = max(1, n // 5)
    if n - n_cal < 1:
        raise InputError("dataset too small to hold out a calibration slice")
    perm = derive_rng(seed, STREAM_CALIB_SPLIT).permutation(n)
    return (dataset.subset(perm[n_cal:], f"{dataset.name}/fit"),
            dataset.subset(perm[:n_cal], f"{dataset.name}/calib"))


def _refit_calibrators(a_m: MlpModel, b_m: MlpModel, g_m: MlpModel,
                       calib_ds, start=(None,) * 3
                       ) -> tuple[PlattCalibrator, ...]:
    """(cal_a, cal_b, cal_g) fitted on the held-out slice, each fit started
    from the matching `start` calibrator when one is given.

    Each head's logits are computed a row block at a time
    (`numerics.eval_blocks`), from rows (and gamma's response columns)
    gathered from the slice's source a block at a time, into one
    C-ordered (n, K) array: `fit_platt`'s bits depend on that layout.
    One head's logits are held at a time."""
    K, n = calib_ds.num_classes, len(calib_ds)
    yc, hc = calib_ds.y, calib_ds.h

    def rows(i):
        return calib_ds.take("X", i)

    def gamma_rows(i):
        return gamma_input(rows(i), hc[i], K)

    cals = []
    for m, inputs, labels, warm in ((a_m, rows, yc, start[0]),
                                    (b_m, rows, hc, start[1]),
                                    (g_m, gamma_rows, yc, start[2])):
        logits = np.empty((n, K))
        for i, z in eval_blocks(m, n, inputs):
            logits[i] = z
        cals.append(PlattCalibrator.fit(logits, labels, K, warm))
    return tuple(cals)


def train_fixed_voi(runs, team: TeamConfig) -> list[VoiSystem]:
    """Per run, a (dataset, cfg) pair: alpha, beta and gamma trained in
    isolation and Platt-calibrated.

    Networks fit on 80% of the run's dataset; the held-out 20% slice feeds
    the calibrators (and every later recalibration of a joint run). The
    runs train as two stacks: alpha and beta of every run, which share
    their inputs and shape, and gamma of every run, whose inputs
    (`gamma_input`) are built a step at a time from the rows it draws.
    """
    splits = [_calibration_split(ds, cfg.seed) for ds, cfg in runs]
    K = runs[0][0].num_classes
    ab = train_solo_model([(fit_ds, cfg) for (fit_ds, _), (_, cfg)
                           in zip(splits, runs)], team,
                          (("y", STREAM_ALPHA), ("h", STREAM_BETA)))
    g = train_solo_model(
        [(fit_ds, cfg) for (fit_ds, _), (_, cfg) in zip(splits, runs)], team,
        (("y", STREAM_GAMMA),),
        (runs[0][0].feature_dim + K, lambda X, h: gamma_input(X, h, K)))
    systems = []
    for (a_m, b_m), [g_m], (_, calib_ds), (_, cfg) in zip(ab, g, splits,
                                                           runs):
        cals = _refit_calibrators(a_m, b_m, g_m, calib_ds)
        systems.append(VoiSystem(*(CalibratedModel(m, c) for m, c in zip(
            (a_m, b_m, g_m), cals)), team, cfg))
    return systems


def train_joint_voi(runs, team: TeamConfig, cost_weights
                    ) -> list[list[VoiSystem]]:
    """Fine-tune all three networks end-to-end: per run, one system per
    cost weight.

    A run is (dataset, cfg, start): every variant of the run starts from
    `start`, the fixed-VOI system of the same dataset and config, which is
    left unchanged, and runs T SGD iterations on the soft joint loss with
    calibrators frozen. Each variant refits its own calibrators on its
    run's held-out slice every `calibration_interval` iterations and once
    at the end; each refit's Newton iterations start from that variant's
    previous calibrators (the first from `start`'s). A run's variants step
    in lockstep on its minibatches and dropout masks; each system equals
    what a one-value grid gives, and its `train_cfg` carries its
    `cost_weight`.
    """
    splits = [_calibration_split(ds, c.seed) for ds, c, _ in runs]
    B = shared_batch_size([(fit_ds, c) for (fit_ds, _), (_, c, _)
                           in zip(splits, runs)])
    cfg = runs[0][1]
    for _, _, start in runs:
        start.require_calibrated()
    S, G, K = len(runs), len(cost_weights), runs[0][0].num_classes
    w = utility_loss_weights(team)
    starts = [(s.p_alpha, s.p_beta, s.p_gamma) for _, _, s in runs]
    nets = {name: ([[parts[i].model] * G for parts in starts],
                   [derive_rng(c.seed, drop) for _, c, _ in runs], rows)
            for i, (name, drop, rows) in enumerate(
                zip(_PARTS, STREAM_JOINT_DROP, (B, B, B * K)))}

    # per run, each variant's (cal_a, cal_b, cal_g)
    cals = [[tuple(p.calibrator for p in parts)] * G for parts in starts]
    cal = joint_calibrator(cals, B)

    def refit(replicas):
        # each replica refits its own calibrators on its (alpha, beta,
        # gamma) networks and its run's held-out slice
        nonlocal cal, cals
        cals = [[_refit_calibrators(*m, calib_ds, prev)
                 for m, prev in zip(run, run_cals)]
                for run, (_, calib_ds), run_cals in zip(replicas, splits,
                                                        cals)]
        cal = joint_calibrator(cals, B)

    def per_replica(fitted):
        # models[s][g] of each network as (alpha, beta, gamma) triples
        return [list(zip(*run)) for run in zip(*(fitted[p] for p in _PARTS))]

    def on_step(it, models):
        if (it + 1) % cfg.calibration_interval == 0 and it + 1 < cfg.iterations:
            refit(per_replica({p: unstack_models(models[p])
                               for p in _PARTS}))

    # each step's batch takes the latest refit's calibrators, and writes
    # its x columns into gamma rows whose one-hot block is written once
    gamma_rows = gamma_all_input(
        np.zeros((S, 1, B, runs[0][0].feature_dim)), K)
    fitted = fit_stack(
        nets, [[getattr(ds.source, f) for ds, _ in splits] for f in "Xhy"],
        [derive_rng(c.seed, STREAM_JOINT_BATCH) for _, c, _ in runs], B,
        joint_voi_loss_fn(team, cfg, cost_weights), cfg, "joint training",
        [f"cost_weight={lam!r}" for lam in cost_weights],
        batch=lambda rows: joint_voi_batch(*rows[:3], w, cal, rows[3:],
                                           gamma_rows),
        on_step=on_step, rows=[ds.rows for ds, _ in splits])
    replicas = per_replica(fitted)
    refit(replicas)  # the final refit sets cals
    return [[VoiSystem(*map(CalibratedModel, m, triple), team,
                       replace(run_cfg, cost_weight=lam))
             for m, triple, lam in zip(run, run_cals, cost_weights)]
            for (_, run_cfg, _), run, run_cals in zip(runs, replicas, cals)]
