"""The decision rules one DO at a time on Python floats, as the formulas read.

These are the references the whole-array rules of `policy_pas` and
`policy_baselines`, and `market.step`'s composition of them with each DO's
`decide_for_policy` draws, must equal bit for bit, with the same draws from
each DO's generator in the same order.
"""

import math
from collections import namedtuple

from aflsim.policy_baselines import price_ampp, price_rand

# One DO's full joint decision for a step.
JointDecision = namedtuple(
    "JointDecision", "accept_x price_p subdelegate_s work_theta price_degenerate", defaults=(False,)
)


def outweighs_queues(rho, value, pending_q, urgency_Q) -> bool:
    return rho * value - pending_q - urgency_Q >= 0


def subdelegation_cap(state, has_eligible_delegate: bool, theta: int) -> int:
    if not has_eligible_delegate:
        return 0
    return max(0, min(int(math.floor(state.pending_q)) - theta, state.s_max))


def decide_subdelegation(state, avg_neighbor_price: float, has_eligible_delegate: bool, theta: int) -> int:
    if outweighs_queues(state.availability_rho, avg_neighbor_price, state.pending_q, state.urgency_Q):
        return 0
    return subdelegation_cap(state, has_eligible_delegate, theta)


def price_is_degenerate(state, r_floor: float) -> bool:
    return state.availability_rho <= 0.0 or state.reputation_r < r_floor


def decide_price(state, degenerate: bool) -> float:
    if degenerate:
        return state.reserve_price_p_min
    quotient = state.pending_q / (2.0 * state.availability_rho * state.reputation_r)
    return max(state.reserve_price_p_min, quotient)


def decide_acceptance(state, price_p: float) -> int:
    return 1 if state.availability_rho * price_p * state.reputation_r - state.pending_q > 0 else 0


def decide_work(state, mode: str) -> int:
    cap = min(int(math.floor(state.pending_q)), state.theta_max)
    if mode == "greedy":
        return cap
    if outweighs_queues(state.availability_rho, state.unit_cost_c, state.pending_q, state.urgency_Q):
        return 0
    return cap


def subdel_rand(state, has_eligible_delegate: bool, theta: int, rng) -> int:
    cap = subdelegation_cap(state, has_eligible_delegate, theta)
    if cap == 0 or rng.random() < 0.5:
        return 0
    return int(rng.integers(0, cap + 1))


def reference_decide(
    spec, state, avg_neighbor_price, has_eligible_delegate, rng, markup_max, lin_gain, work_mode, r_floor
) -> JointDecision:
    """One DO's joint decision against its snapshot values, every rule
    dispatched by name, drawing from `rng` as the market's DOs do."""
    theta = decide_work(state, work_mode)
    if spec.subdel_rule == "threshold":
        s = decide_subdelegation(state, avg_neighbor_price, has_eligible_delegate, theta)
    elif spec.subdel_rule == "rand":
        s = subdel_rand(state, has_eligible_delegate, theta, rng)
    else:
        s = subdelegation_cap(state, has_eligible_delegate, theta)

    degenerate = False
    if spec.price_rule == "lyapunov":
        degenerate = price_is_degenerate(state, r_floor)
        price = decide_price(state, degenerate)
    elif spec.price_rule == "rand":
        price = price_rand(state, rng, markup_max)
    elif spec.price_rule == "ampp":
        price = price_ampp(state, rng, markup_max)
    else:
        price = lin_gain * state.reserve_price_p_min

    x = decide_acceptance(state, price) if spec.accept_rule == "lyapunov" else 1
    return JointDecision(x, price, s, theta, degenerate)
