"""Scalar reference forms of package quantities, shared by several test
modules. Each restates one rule per instance so the vectorized or tape
version in the package can be compared against it."""

import numpy as np

from teamopt.numerics import stable_softmax
from teamopt.tape import stable_sigmoid
from teamopt.voi import gamma_all_input


def runtime_query_decision(q_val: float, m_dist: np.ndarray) -> bool:
    """Discriminative run-time rule: query iff (1 - q) * max(m) < q; ties
    resolve to no query."""
    return (1.0 - q_val) * float(np.max(m_dist)) < q_val


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
    q = float(stable_sigmoid((u_q - u_nq) / tau))
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
