"""Fixed and joint discriminative training of a predictor and query policy.

The predictor m is a softmax MLP, the query policy q a scalar-sigmoid MLP
over the same features. The fixed approach trains m alone and then fits q
against the frozen m; the joint approach optimizes both at once through
the mixture loss

    w[y] * CE(y, q * onehot(h) + (1 - q) * m(x)) + lambda * c * q

so the predictor can cede regions the policy routes to the human. At run
time the discrete query rule fires iff (1 - q) * max(m(x)) < q.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericError, QueryError
from .numerics import (PROB_CLAMP, SIGMOID_HEAD, SOFTMAX_HEAD, MlpModel,
                       TrainConfig, Workspace, fit_stack, flat_view,
                       forward_batch, init_mlp, label_index, mlp_backward,
                       mlp_forward, shared_batch_size, stable_sigmoid,
                       stable_softmax)

# Deterministic rng stream ids; stage-1/solo training of m must share the
# m streams with joint training so the q-frozen trajectories coincide.
STREAM_INIT_M = 0
STREAM_INIT_Q = 1
STREAM_BATCH = 2
STREAM_DROP_M = 3
STREAM_DROP_Q = 4
STREAM_BATCH_Q = 5
# (init, batch, dropout) streams of m trained alone
SOLO_STREAMS = (STREAM_INIT_M, STREAM_BATCH, STREAM_DROP_M)


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream)))


@dataclass
class TeamConfig:
    """Utility matrix U[pred][truth] and the cost of one human query."""

    utility: np.ndarray
    query_cost: float = 0.0

    def __post_init__(self):
        self.utility = np.asarray(self.utility, dtype=np.float64)
        if self.utility.ndim != 2 or \
                self.utility.shape[0] != self.utility.shape[1]:
            raise InputError("utility must be a square matrix")
        if self.utility.shape[0] < 2:
            raise InputError("utility must be at least 2x2: a team needs"
                             " two classes")
        if not np.isfinite(self.utility).all():
            raise InputError("utility must be finite")
        if not (np.isfinite(self.query_cost) and self.query_cost >= 0):
            raise InputError("query_cost must be finite and non-negative")

    @property
    def num_classes(self) -> int:
        return self.utility.shape[0]

    @classmethod
    def accuracy(cls, num_classes: int, query_cost: float = 0.0) -> "TeamConfig":
        return cls(np.eye(num_classes), query_cost)

    def with_cost(self, query_cost: float) -> "TeamConfig":
        return TeamConfig(self.utility, query_cost)


@dataclass
class TeamPrediction:
    predicted_label: int
    queried: bool
    q_soft: float
    machine_dist: np.ndarray


def utility_loss_weights(team: TeamConfig) -> np.ndarray:
    """Per-true-class CE weights from the utility spread, mean-normalized.

    w[y] is the utility lost by the worst prediction relative to the
    correct one, scaled so the mean weight is 1. Identity utility gives
    all-ones; scaling U leaves w unchanged.
    """
    U = team.utility
    spread = np.diag(U) - U.min(axis=0)
    if (spread == 0).any():
        warnings.warn("utility has no spread for some true class;"
                      " its loss weight is 0")
    total = spread.sum()
    if total == 0:
        return np.zeros_like(spread)
    return spread * (len(spread) / total)


# --- decisions, shared by both system families ---------------------------

@dataclass
class DecisionParts:
    """Cost-free per-instance quantities behind a team's decision rule.

    Instance i is queried iff query_score[i] - c > alone_score[i], where c
    is the query cost if `cost_applies` and 0 otherwise; ties do not
    query, and a NaN or infinite score raises NumericError rather than
    deciding. A queried instance takes by_response[i, h] for the human
    response h, any other machine[i]. One pass over a batch thus serves
    a whole grid of query costs.
    """

    machine: np.ndarray       # (n,) int, the label when deciding alone
    by_response: np.ndarray   # (n, K) int, the label after each response
    query_score: np.ndarray   # (n,)
    alone_score: np.ndarray   # (n,)
    cost_applies: bool
    machine_dist: np.ndarray  # (n, K) the machine's class distribution
    q_soft: np.ndarray | None = None  # (n,) soft query score, if any

    def queried(self, cost: float) -> np.ndarray:
        for name in ("query_score", "alone_score"):
            bad = ~np.isfinite(getattr(self, name))
            if bad.any():
                i = int(np.argmax(bad))
                raise NumericError(f"non-finite {name} at instance {i}",
                                   index=i)
        c = cost if self.cost_applies else 0.0
        return self.query_score - c > self.alone_score


def decide(parts: DecisionParts, h: np.ndarray, cost: float
           ) -> tuple[np.ndarray, np.ndarray]:
    """(team labels, query flags) given every instance's human response.

    Raises QueryError on a response outside [0, K), NumericError on a
    non-finite score.
    """
    h = np.asarray(h)
    if h.shape != parts.machine.shape:
        raise InputError("need one human response per instance")
    K = parts.by_response.shape[1]
    if ((h < 0) | (h >= K)).any():
        raise QueryError(f"human response outside class range [0, {K})")
    queried = parts.queried(cost)
    post = parts.by_response[np.arange(len(h)), h]
    return np.where(queried, post, parts.machine), queried


def team_predict(system, x: np.ndarray, human_response_provider
                 ) -> TeamPrediction:
    """Decide one instance at the system's query cost, calling the human
    response provider only when the rule fires.

    q_soft is the rule's soft query score, or the hard decision (1.0 when
    queried) for a rule that has none.
    """
    x = np.asarray(x, dtype=np.float64)
    parts = system.parts(x[None, :])
    cost = system.team.query_cost
    queried = bool(parts.queried(cost)[0])
    q_soft = float(queried if parts.q_soft is None else parts.q_soft[0])
    dist = parts.machine_dist[0]
    if not queried:
        return TeamPrediction(int(parts.machine[0]), False, q_soft, dist)
    try:
        h = int(human_response_provider(x))
    except Exception as e:
        raise QueryError(f"human response provider failed: {e}") from e
    labels, _ = decide(parts, np.array([h]), cost)
    return TeamPrediction(int(labels[0]), True, q_soft, dist)


@dataclass
class DiscriminativeSystem:
    m: MlpModel
    q: MlpModel
    team: TeamConfig
    train_cfg: TrainConfig

    def parts(self, X: np.ndarray) -> DecisionParts:
        """The run-time rule, query iff (1 - q) * max(m) < q, ignores the
        query cost; a queried instance takes the human response."""
        m_probs = forward_batch(self.m, X)
        q_vals = forward_batch(self.q, X)
        n, K = m_probs.shape
        return DecisionParts(m_probs.argmax(axis=1),
                             np.broadcast_to(np.arange(K), (n, K)), q_vals,
                             (1.0 - q_vals) * m_probs.max(axis=1), False,
                             m_probs, q_vals)


# --- training ----------------------------------------------------------
# Each trainer gives `numerics.fit_stack` its networks, row fields, loss
# and grid; the "runs" block there tells how its runs are stacked.


def _fresh_net(runs, G: int, dims, head: str, init: int, drop: int, rows):
    """`fit_stack`'s entry for a network trained from scratch: per run, a
    model initialised from the run's `init` stream, shared by its G
    variants, and a dropout generator from its `drop` stream."""
    return ([[init_mlp(dims, head, derive_rng(c.seed, init),
                       c.dropout_rate)] * G for _, c, *_ in runs],
            [derive_rng(c.seed, drop) for _, c, *_ in runs], rows)


def _weighted_nll(w, p, out):
    """w * -log(max(p, PROB_CLAMP)), computed in `out`."""
    np.maximum(p, PROB_CLAMP, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    return np.multiply(w, out, out=out)


def _softmax_at_labels(models, name, X, masks, labels, ws: Workspace):
    """Softmax head of the stack `name` in place of its logits, the flat
    position of each row's label there (`label_index`), the probabilities
    at those labels and the forward cache."""
    z, cache = mlp_forward(models[name], X, masks, ws.scope(name))
    p = stable_softmax(z, out=z)
    at = label_index(p.shape, ws.constant("rows", np.arange, p.shape[-2]),
                     labels, ws)
    return p, at, flat_view(p)[at], cache


def solo_ce_loss(models, batch, ws: Workspace):
    """Per-instance weighted CE of the replica stack "m" and its backward
    (the `loss_and_grad` contract), on batches (X, targets, w[targets],
    dropout masks): an (n, d) input with (n,) targets and (n, dim) masks
    shared by every replica, or rows per run or per replica on leading
    axes, such as (S, G, n, d), (S, G, n) and (S, G, n, dim) (see
    `mlp_forward`)."""
    X, t, w_t, masks = batch
    p, at, p_t, cache = _softmax_at_labels(models, "m", X, masks, t, ws)
    per = _weighted_nll(w_t, p_t, ws.get("per", p_t.shape))

    def backward(g):
        # d(-log softmax(z)[t])/dz = p - onehot(t); nothing past the clamp
        coef = np.multiply(g, w_t, out=ws.get("coef", g.shape))
        coef *= np.greater(p_t, PROB_CLAMP, out=ws.get("live", g.shape,
                                                        bool))
        d = np.multiply(p, coef[..., None], out=p)
        flat_view(d)[at] -= coef
        return {"m": mlp_backward(cache, d)}

    return per, backward


def train_solo_model(runs, team: TeamConfig,
                     replicas=(("y", SOLO_STREAMS),)) -> list[list[MlpModel]]:
    """Weighted-CE training of softmax MLPs in isolation: for each run, a
    (dataset, cfg) pair, one model per `(targets, streams)` pair of
    `replicas`, all trained as one replica stack. Returns each run's
    models, in `replicas` order.

    `targets` names the dataset field a model learns: "y", the labels, or
    "h", the human responses, which is how the VOI module trains its
    component models on a dataset of any inputs (see `voi.gamma_input`).
    `streams` holds the (init, batch, dropout) rng stream ids, seeded by
    the run's config. Every replica draws its own batch indices and
    dropout masks from its own streams, so each model equals what training
    it alone gives.
    """
    B = shared_batch_size(runs)
    ds0, cfg = runs[0]
    w = utility_loss_weights(team)
    dims = (ds0.feature_dim, *cfg.hidden_dims, ds0.num_classes)
    models = [[init_mlp(dims, SOFTMAX_HEAD, derive_rng(c.seed, init),
                        cfg.dropout_rate) for _, (init, _, _) in replicas]
              for _, c in runs]
    # row source s * len(replicas) + j feeds pair j of run s
    X, T, rows, batches, drops = zip(*(
        (ds.source.X, getattr(ds.source, target), ds.rows,
         derive_rng(c.seed, batch), derive_rng(c.seed, drop))
        for ds, c in runs for target, (_, batch, drop) in replicas))
    return fit_stack({"m": (models, drops, B)}, (X, T), batches, B,
                     solo_ce_loss, cfg, "solo training",
                     batch=lambda r: (r[0], r[1], w[r[1]], r[2]),
                     rows=rows)["m"]


def mixture_loss(q, p_human, p_machine, w_y, cost_term, ws: Workspace):
    """Per-instance mixture loss and its backward, computed in `ws`.

    The loss is w[y] * -log(q * p_human + (1 - q) * p_machine) + cost_term
    * q, the mixture probability floored at PROB_CLAMP; p_human and
    p_machine are the probabilities the human and the machine branch give
    the true label ([h == y] and m(x)[y] here, p_gamma(y|x,h) and
    p_alpha(y|x) for the VOI family). q holds one value per replica and
    row, and the other operands broadcast against it. `cost_term` is
    lambda * c, a float or a (G, 1) column with one value per variant.
    The backward, which runs once, maps dL/d(loss) to (dL/dq,
    dL/dp_human, dL/dp_machine).
    """
    shape = q.shape
    t = ws.get("t", shape)  # scratch for one term at a time
    p_true = np.multiply(q, p_human, out=ws.get("p_true", shape))
    rest = np.subtract(1.0, q, out=ws.get("rest", shape))
    p_true += np.multiply(rest, p_machine, out=t)
    per = _weighted_nll(w_y, p_true, ws.get("per", shape))
    per += np.multiply(cost_term, q, out=t)

    def backward(g):
        # nothing flows past the clamp
        dp = np.negative(g, out=ws.get("dp", shape))
        dp *= w_y
        dp /= np.maximum(p_true, PROB_CLAMP, out=t)
        dp *= np.greater(p_true, PROB_CLAMP, out=ws.get("live", shape, bool))
        dq = np.subtract(p_human, p_machine, out=ws.get("dq", shape))
        np.multiply(dp, dq, out=dq)
        dq += np.multiply(g, cost_term, out=t)
        return dq, np.multiply(dp, q, out=ws.get("dp_human", shape)), \
            np.multiply(dp, rest, out=rest)

    return per, backward


def _query_forward(models, X: np.ndarray, masks, ws: Workspace):
    """Soft query probabilities of the sigmoid-head stack "q", (S, G, n),
    and the map from dL/dq to its GradientSet."""
    ws = ws.scope("q")
    z, cache = mlp_forward(models["q"], X, masks, ws)
    q = stable_sigmoid(z[..., 0], ws.scope("sigmoid"))

    def backward(dq):
        dz = np.multiply(dq, q, out=ws.get("dz", q.shape))
        dz *= np.subtract(1.0, q, out=ws.get("rest", q.shape))
        return mlp_backward(cache, dz[..., None])

    return q, backward


def query_policy_loss_fn(cfg: TrainConfig, costs):
    """Per-instance mixture loss of the q stack against a frozen predictor
    (the `loss_and_grad` contract): one query cost per variant, cost term
    cfg.cost_weight * c. Batches are (X, m(x)[y], [h == y], w[y], masks).
    """
    cost_term = cfg.cost_weight * np.asarray(costs, dtype=np.float64)[:, None]

    def loss_fn(models, batch, ws):
        Xb, m_y, hit, w_y, masks = batch
        q, query_backward = _query_forward(models, Xb, masks, ws)
        per, mix_backward = mixture_loss(q, hit, m_y, w_y, cost_term,
                                         ws.scope("mix"))
        return per, lambda g: {"q": query_backward(mix_backward(g)[0])}

    return loss_fn


def _at_rows(ds, values: np.ndarray) -> np.ndarray:
    """`values`, one per row of `ds`, as a row field of its source: put
    at ds's rows there, the only ones a batch of ds draws."""
    if ds.rows is None:
        return values
    field = np.zeros(len(ds.source))
    field[ds.rows] = values
    return field


def train_query_policy(runs, team: TeamConfig, costs
                       ) -> list[list[MlpModel]]:
    """Stage 2 of the fixed approach: per run, one q-policy per query cost.

    A run is (dataset, cfg, m): each of its policies is fit against its
    frozen predictor m; `team` supplies the utility and `costs` replace
    its query cost. A run's policies step in lockstep on its minibatches
    and dropout masks, and each equals what a one-cost grid gives.
    """
    B = shared_batch_size(runs)
    cfg = runs[0][1]
    w = utility_loss_weights(team)
    src = [ds.source for ds, _, _ in runs]
    # frozen, no dropout: plain constants
    m_y = [_at_rows(ds, forward_batch(m, ds.X)[np.arange(len(ds)), ds.y])
           for ds, _, m in runs]
    q = _fresh_net(runs, len(costs),
                   (src[0].feature_dim, *cfg.hidden_dims, 1), SIGMOID_HEAD,
                   STREAM_INIT_Q, STREAM_DROP_Q, B)
    fields = [[s.X for s in src], m_y, [s.y for s in src], [s.h for s in src]]
    return fit_stack({"q": q}, fields,
                     [derive_rng(c.seed, STREAM_BATCH_Q) for _, c, _ in runs],
                     B, query_policy_loss_fn(cfg, costs), cfg,
                     "query-policy training",
                     [f"query_cost={c!r}" for c in costs],
                     batch=lambda r: (r[0], r[1],
                                      (r[3] == r[2]).astype(np.float64),
                                      w[r[2]], r[4]),
                     rows=[ds.rows for ds, _, _ in runs])["q"]


def train_fixed(runs, team: TeamConfig, costs
                ) -> list[list[DiscriminativeSystem]]:
    """Per run, a (dataset, cfg) pair: train m in isolation, then one
    query policy per cost with m frozen.

    The system for cost c shares m and carries `team.with_cost(c)`.
    """
    ms = [m for [m] in train_solo_model(runs, team)]
    policies = train_query_policy(
        [(ds, cfg, m) for (ds, cfg), m in zip(runs, ms)], team, costs)
    return [[DiscriminativeSystem(m, q, team.with_cost(c), cfg)
             for c, q in zip(costs, qs)]
            for (_, cfg), m, qs in zip(runs, ms, policies)]


def joint_disc_loss_fn(team: TeamConfig, cost_weights):
    """Per-instance mixture loss of m and q for fit_stack / finite_diff_check.

    Follows the `loss_and_grad` contract on replica stacks {"m", "q"} and
    batches (X, y, [h == y], w[y], masks_m, masks_q). `cost_weights` holds
    one lambda per variant; the cost term is lambda * c.
    """
    cost_term = (np.asarray(cost_weights, dtype=np.float64)[:, None]
                 * team.query_cost)

    def loss_fn(models, batch, ws):
        Xb, y, hit, w_y, masks_m, masks_q = batch
        m, at, m_y, cache_m = _softmax_at_labels(models, "m", Xb, masks_m, y,
                                                 ws)
        q, query_backward = _query_forward(models, Xb, masks_q, ws)
        per, mix_backward = mixture_loss(q, hit, m_y, w_y, cost_term,
                                         ws.scope("mix"))

        def backward(g):
            dq, _, dm_y = mix_backward(g)
            # d softmax(z)[y]/dz = m_y * (onehot(y) - m)
            c = np.multiply(dm_y, m_y, out=m_y)
            d = np.multiply(m, np.negative(c, out=ws.get("-c", c.shape))
                            [..., None], out=m)
            flat_view(d)[at] += c
            return {"m": mlp_backward(cache_m, d), "q": query_backward(dq)}

        return per, backward

    return loss_fn


def train_joint(runs, team: TeamConfig, cost_weights
                ) -> list[list[DiscriminativeSystem]]:
    """End-to-end SGD of m and q on the mixture loss: per run, a
    (dataset, cfg) pair, one system per cost weight.

    A run's variants step in lockstep on its minibatches and dropout
    masks; each system equals what a one-value grid gives, and its
    `train_cfg` carries its `cost_weight`.
    """
    B = shared_batch_size(runs)
    ds0, cfg = runs[0]
    w = utility_loss_weights(team)
    G, d = len(cost_weights), ds0.feature_dim
    nets = {"m": _fresh_net(runs, G, (d, *cfg.hidden_dims, ds0.num_classes),
                            SOFTMAX_HEAD, STREAM_INIT_M, STREAM_DROP_M, B),
            "q": _fresh_net(runs, G, (d, *cfg.hidden_dims, 1), SIGMOID_HEAD,
                            STREAM_INIT_Q, STREAM_DROP_Q, B)}
    fields = [[getattr(ds.source, f) for ds, _ in runs] for f in "Xyh"]
    fitted = fit_stack(
        nets, fields, [derive_rng(c.seed, STREAM_BATCH) for _, c in runs], B,
        joint_disc_loss_fn(team, cost_weights), cfg, "joint training",
        [f"cost_weight={lam!r}" for lam in cost_weights],
        batch=lambda r: (r[0], r[1], (r[2] == r[1]).astype(np.float64),
                         w[r[1]], *r[3:]),
        rows=[ds.rows for ds, _ in runs])
    return [[DiscriminativeSystem(m, q, team, replace(c, cost_weight=lam))
             for m, q, lam in zip(run_m, run_q, cost_weights)]
            for (_, c), run_m, run_q in zip(runs, fitted["m"], fitted["q"])]
