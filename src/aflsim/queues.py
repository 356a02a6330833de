"""Virtual-queue dynamics, costs, and the per-step market utility.

These pure functions are the numerical substrate the market engine evaluates
every step: the pending-backlog queue, the urgency queue that accumulates
delay pressure, and the utility and cost arithmetic.  Each works elementwise,
on scalars or on one array entry per data owner.
"""

import numpy as np


def update_pending_queue(q, theta, s, x, kappa):
    """Next pending backlog: max(q - theta - s, 0) + x * kappa."""
    return np.maximum(q - theta - s, 0.0) + x * kappa


def update_urgency_queue(Q, theta, s, kappa_bar, q_is_positive):
    """Next urgency level: max(Q - theta - s + kappa_bar * [q > 0], 0)."""
    growth = np.where(q_is_positive, kappa_bar, 0.0)
    return np.maximum(Q - theta - s + growth, 0.0)


def subdelegation_cost(avg_neighbor_price, s):
    """Cost of handing s tasks to neighbours at their average price."""
    # Zero where s is zero: the no-neighbour sentinel price is +inf.
    out = np.zeros(np.broadcast(avg_neighbor_price, s).shape)
    return np.multiply(avg_neighbor_price, s, out=out, where=np.not_equal(s, 0))


def training_cost(unit_cost_c, theta):
    """Cost of completing theta tasks locally."""
    return unit_cost_c * theta


def utility(accept_x, price_p, reputation_r, demand_f, avg_neighbor_price, s, unit_cost_c, theta):
    """Per-step market utility: x*p*r*f minus sub-delegation and training costs."""
    revenue = accept_x * price_p * reputation_r * demand_f
    return (
        revenue
        - subdelegation_cost(avg_neighbor_price, s)
        - training_cost(unit_cost_c, theta)
    )
