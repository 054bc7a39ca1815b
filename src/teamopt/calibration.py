"""Platt sigmoid calibration and calibration-quality measurement.

Binary fits follow Platt's recipe: a sigmoid sigma(a*s + b) fitted by
damped Newton iterations against smoothed targets (N+ + 1)/(N+ + 2) and
1/(N- + 2). The multiclass extension is one-vs-rest on per-class logits
followed by renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .numerics import Workspace, stable_sigmoid, stable_softmax, sum_last

_P_EPS = 1e-12
_TINY = np.finfo(np.float64).tiny
_GRAD_TOL = 1e-8
_MAX_NEWTON = 200


class PlattFit(NamedTuple):
    a: float
    b: float
    degenerate: bool  # single-class labels; (a, b) is the smoothed base rate


_EYE2 = np.eye(2)


def _nll(scores, targets, rest, a, b, ws: Workspace):
    """Platt objective at (a, b), and the unclipped sigmoid behind it;
    `rest` is 1 - targets. Both depend on (a, b) alone. The sigmoid and
    the scratch come from `ws`, so the next call on `ws` overwrites the
    sigmoid."""
    z = np.multiply(scores, a, out=ws.get("z", scores.shape))
    z += b
    p = stable_sigmoid(z, ws.scope("sigmoid"))
    # targets * log(q) + rest * log(1 - q), q the clipped sigmoid
    q = np.clip(p, _P_EPS, 1.0 - _P_EPS, out=z)
    t = np.log(q, out=ws.get("t", q.shape))
    t *= targets
    np.subtract(1.0, q, out=q)
    np.log(q, out=q)
    q *= rest
    t += q
    return float(-t.sum()), p


def fit_platt(scores: np.ndarray, binary_labels: np.ndarray,
              start: tuple[float, float] | None = None) -> PlattFit:
    """Fit sigma(a*s + b) to 0/1 labels with Platt-smoothed targets.

    Damped Newton from `start` = (a, b), or from (0, log-odds of the
    smoothed base rate) when it is None: steps that do not decrease the
    objective are retried with more damping, so the objective decreases
    monotonically. Stops at
    gradient norm < 1e-8, after 200 iterations, or as soon as the
    iterations can only cycle without moving (a, b) (see below), which
    returns what running on to the cap would. Single-class labels yield a
    degenerate flat calibrator at the smoothed base rate, whatever the
    start. Empty or non-finite scores, and labels other than 0 and 1
    (True and False count as 1 and 0), raise InputError. The objective
    (`_nll`) computes into two workspaces, and is not evaluated again at a
    point whose result one of them still holds.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(binary_labels)
    if s.shape != lab.shape or s.ndim != 1:
        raise ShapeError("scores and labels must be equal-length vectors")
    if len(s) == 0:
        raise InputError("cannot fit calibrator on empty data")
    if not np.isfinite(s).all():
        raise InputError("cannot fit calibrator on non-finite scores")
    pos = lab == 1
    if not (pos | (lab == 0)).all():
        raise InputError("binary labels must be 0 or 1")
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        base = (n_pos + 1.0) / (len(s) + 2.0)
        return PlattFit(0.0, float(np.log(base / (1.0 - base))), True)

    t_hi = (n_pos + 1.0) / (n_pos + 2.0)
    t_lo = 1.0 / (n_neg + 2.0)
    targets = np.where(pos, t_hi, t_lo)
    rest = 1.0 - targets
    ss = s * s

    if start is None:
        a, b = 0.0, float(np.log((n_pos + 1.0) / (n_neg + 1.0)))
    else:
        a, b = float(start[0]) + 0.0, float(start[1]) + 0.0  # no -0.0
    # `here` holds the current point's sigmoid, and `there` that of
    # `other`: the candidate last evaluated, or the point before the
    # last accepted step
    here, there = Workspace(), Workspace()
    obj, p = _nll(s, targets, rest, a, b, here)  # p is sigma(a*s + b)
    other = None  # (a, b, obj, p) of the point in `there`
    damping = 1e-6
    # An iteration is a function of (a, b, damping) alone. Under rounding
    # noise, accepted steps can leave (a, b) bit-unchanged while damping
    # wanders; once an iteration starts at a damping already seen since
    # (a, b) last moved, the rest is a cycle that never moves (a, b).
    seen = set()
    diff, w = np.empty_like(s), np.empty_like(s)  # written every iteration
    for _ in range(_MAX_NEWTON):
        if damping in seen:
            break
        seen.add(damping)
        np.subtract(p, targets, out=diff)
        g0, g1 = float(diff @ s), float(diff.sum())
        if np.hypot(g0, g1) < _GRAD_TOL:
            break
        np.subtract(1.0, p, out=w)
        w *= p  # p * (1 - p), the product commutes bit for bit
        ws = float(w @ s)
        grad = np.array([g0, g1])
        hess = np.array([[float(w @ ss), ws], [ws, float(w.sum())]])
        # Retry with stronger damping until the step actually improves.
        accepted = False
        while damping < 1e12:
            try:
                step = np.linalg.solve(hess + damping * _EYE2, grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            new_a, new_b = a - float(step[0]), b - float(step[1])
            # a and b start at +0.0 or nonzero (+ 0.0 turns a -0.0 start
            # into +0.0) and x - x is +0.0, so they never hold -0.0 and
            # == compares their bits.
            moved = new_a != a or new_b != b
            if not moved:
                new_obj, new_p = obj, p
            elif other is not None and other[:2] == (new_a, new_b):
                new_obj, new_p = other[2:]
            else:
                new_obj, new_p = _nll(s, targets, rest, new_a, new_b, there)
                other = (new_a, new_b, new_obj, new_p)
            if new_obj <= obj:
                if moved:
                    seen.clear()
                    here, there = there, here
                    other = (a, b, obj, p)
                a, b, obj, p = new_a, new_b, new_obj, new_p
                damping = max(damping * 0.1, 1e-12)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break
    return PlattFit(float(a), float(b), False)


@dataclass
class PlattCalibrator:
    """Per-class (a_k, b_k) sigmoid parameters over pre-softmax logits."""

    a: np.ndarray  # (K,)
    b: np.ndarray  # (K,)
    degenerate: np.ndarray  # (K,) bool flags from single-class fits

    @property
    def num_classes(self) -> int:
        # voi.joint_calibrator's parameters are (S, G, rows, K)
        return self.a.shape[-1]

    @classmethod
    def identity(cls, num_classes: int) -> "PlattCalibrator":
        return cls(np.ones(num_classes), np.zeros(num_classes),
                   np.zeros(num_classes, dtype=bool))

    @classmethod
    def fit(cls, logits: np.ndarray, labels: np.ndarray, num_classes: int,
            start: "PlattCalibrator | None" = None) -> "PlattCalibrator":
        """One-vs-rest Platt fit of per-class logit scores.

        With a `start` calibrator, class k's Newton iterations start from
        its (a_k, b_k) unless that class was degenerate there. Labels
        that are not a 1-d integer array, one per row, in [0, K) raise
        InputError.
        """
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[1] != num_classes:
            raise ShapeError(f"logits shape {logits.shape} does not match"
                             f" K={num_classes}")
        labels = np.asarray(labels)
        if labels.shape != (len(logits),) or \
                not np.issubdtype(labels.dtype, np.integer) or \
                ((labels < 0) | (labels >= num_classes)).any():
            raise InputError(f"labels must be a 1-d integer array, one per"
                             f" row, in [0, {num_classes})")
        a = np.empty(num_classes)
        b = np.empty(num_classes)
        flags = np.zeros(num_classes, dtype=bool)
        for k in range(num_classes):
            warm = None
            if start is not None and not start.degenerate[k]:
                warm = (start.a[k], start.b[k])
            fit = fit_platt(logits[:, k], labels == k, warm)
            a[k], b[k], flags[k] = fit.a, fit.b, fit.degenerate
        return cls(a, b, flags)


def calibrated_head(logits: np.ndarray, cal: PlattCalibrator,
                    ws: Workspace):
    """(p, s, total, low): the calibrated distributions p = s / total, the
    per-class sigmoids s, their (..., 1) sum over the last axis, and the
    mask of rows normalised in log space (None if none). The calibrated
    logits a * logits + b are computed in `logits`, whose values are then
    spent; p, s and the scratch of the sigmoid come from `ws`.

    A row whose total is below the smallest normal float has every sigmoid
    underflowed, and s / total would be 0/0 or a ratio of subnormals. Such
    rows take the same ratio in log space, softmax(log sigmoid(z)), and
    their total reads 1. Every other row keeps the plain division.
    """
    z = np.multiply(logits, cal.a, out=logits)
    z += cal.b
    s = stable_sigmoid(z, ws.scope("s"))
    total = sum_last(s)[..., None]
    low = total[..., 0] < _TINY
    if not low.any():
        p = np.divide(s, total, out=ws.get("p", s.shape))
        return p, s, total, None
    total = np.where(low[..., None], 1.0, total)
    p = s / total
    zl = z[low]
    p[low] = stable_softmax(np.minimum(zl, 0.0) - np.log1p(np.exp(-abs(zl))))
    return p, s, total, low


def calibrate_batch(logits: np.ndarray, cal: PlattCalibrator) -> np.ndarray:
    """Per-class sigmoids of the logits, renormalized to distributions.
    The logits are left as they were."""
    logits = np.array(logits, dtype=np.float64, order="C")
    if logits.shape[-1] != cal.num_classes:
        raise ShapeError(f"logits last dim {logits.shape[-1]} !="
                         f" K={cal.num_classes}")
    return calibrated_head(logits, cal, Workspace())[0]


def expected_calibration_error(predictions, labels, bins: int = 10) -> float:
    """Standard ECE over equal-width max-probability bins."""
    if bins < 1:
        raise ConfigError("bins must be >= 1")
    probs = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or len(probs) == 0:
        raise InputError("predictions must be a nonempty (n, K) array")
    if labels.shape != (len(probs),) or \
            not np.issubdtype(labels.dtype, np.integer):
        raise InputError("labels must be a 1-d integer array, one per"
                         " prediction")
    if not np.isfinite(probs).all():
        raise InputError("non-finite predictions")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
    ece = 0.0
    for k in range(bins):
        in_bin = idx == k
        n_k = int(in_bin.sum())
        if n_k == 0:
            continue
        gap = abs(correct[in_bin].mean() - conf[in_bin].mean())
        ece += (n_k / len(probs)) * gap
    return float(ece)
