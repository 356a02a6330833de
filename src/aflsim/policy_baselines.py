"""Baseline data-owner strategies and the composed policy registry.

Six baselines cross three pricing rules (uniform-random, random markup above
the reserve, linear gain on the reserve) with two sub-delegation rules
(random, greedy).  Baselines always accept new offers; admission caps are
enforced by the market, not the policy.  The registry also wires the ablated
variants of the queue-aware policy, each differing from it in exactly one
component.
"""

import math
from dataclasses import dataclass

from .core import DataOwnerState, StepDecision
from .policy_pas import (
    DelegationContext,
    decide_acceptance,
    decide_price,
    decide_subdelegation,
    decide_work,
    price_is_degenerate,
)

DEFAULT_MARKUP_MAX = 1.0
DEFAULT_LIN_GAIN = 1.5


def price_rand(state: DataOwnerState, rng, markup_max: float = DEFAULT_MARKUP_MAX, p_cap: float | None = None) -> float:
    """Uniform draw on [p_min, p_cap]; the default cap keeps the support
    comparable with the markup and linear rules."""
    if p_cap is None:
        p_cap = 2.0 * state.reserve_price_p_min * (1.0 + markup_max)
    if p_cap < state.reserve_price_p_min:
        raise ValueError("p_cap must be >= the reserve price")
    return float(rng.uniform(state.reserve_price_p_min, p_cap))


def price_ampp(state: DataOwnerState, rng, markup_max: float = DEFAULT_MARKUP_MAX) -> float:
    """Random markup above the reserve: p_min * (1 + U(0, markup_max))."""
    if markup_max <= 0:
        raise ValueError("markup_max must be > 0")
    return state.reserve_price_p_min * (1.0 + float(rng.uniform(0.0, markup_max)))


def price_lin(state: DataOwnerState, gain: float = DEFAULT_LIN_GAIN) -> float:
    """Deterministic linear gain on the reserve price."""
    if gain <= 0:
        raise ValueError("gain must be > 0")
    return gain * state.reserve_price_p_min


def _subdel_cap(state: DataOwnerState, theta: int) -> int:
    return max(0, min(int(math.floor(state.pending_q)) - theta, state.s_max))


def subdel_rand(state: DataOwnerState, ctx: DelegationContext, theta: int, rng) -> int:
    """Half the time delegate nothing, otherwise a uniform integer amount
    within the per-step cap.  No randomness is consumed when nothing could be
    delegated anyway, keeping downstream draws aligned across variants."""
    cap = _subdel_cap(state, theta)
    if cap <= 0 or not ctx.has_eligible_delegate:
        return 0
    if rng.random() < 0.5:
        return 0
    return int(rng.integers(0, cap + 1))


def subdel_greedy(state: DataOwnerState, ctx: DelegationContext, theta: int) -> int:
    """Delegate as much of the leftover backlog as the cap allows."""
    cap = _subdel_cap(state, theta)
    if cap <= 0 or not ctx.has_eligible_delegate:
        return 0
    return cap


@dataclass(frozen=True)
class PolicySpec:
    """A data-owner policy as a bundle of named component rules."""

    name: str
    price_rule: str    # "lyapunov" | "rand" | "ampp" | "lin"
    subdel_rule: str   # "threshold" | "rand" | "greedy"
    accept_rule: str   # "lyapunov" | "always"
    work_rule: str     # "greedy" | "threshold"


POLICIES: dict[str, PolicySpec] = {
    "pas-afl": PolicySpec("pas-afl", "lyapunov", "threshold", "lyapunov", "greedy"),
    "rand-rand": PolicySpec("rand-rand", "rand", "rand", "always", "greedy"),
    "rand-greedy": PolicySpec("rand-greedy", "rand", "greedy", "always", "greedy"),
    "ampp-rand": PolicySpec("ampp-rand", "ampp", "rand", "always", "greedy"),
    "ampp-greedy": PolicySpec("ampp-greedy", "ampp", "greedy", "always", "greedy"),
    "lin-rand": PolicySpec("lin-rand", "lin", "rand", "always", "greedy"),
    "lin-greedy": PolicySpec("lin-greedy", "lin", "greedy", "always", "greedy"),
    # Ablated variants of the joint policy, one component swapped each.
    "pas-nopricing-rand": PolicySpec("pas-nopricing-rand", "rand", "threshold", "lyapunov", "greedy"),
    "pas-nopricing-ampp": PolicySpec("pas-nopricing-ampp", "ampp", "threshold", "lyapunov", "greedy"),
    "pas-nopricing-lin": PolicySpec("pas-nopricing-lin", "lin", "threshold", "lyapunov", "greedy"),
    "pas-nosubdel-rand": PolicySpec("pas-nosubdel-rand", "lyapunov", "rand", "lyapunov", "greedy"),
    "pas-nosubdel-greedy": PolicySpec("pas-nosubdel-greedy", "lyapunov", "greedy", "lyapunov", "greedy"),
}

BASELINE_NAMES = ("rand-rand", "rand-greedy", "ampp-rand", "ampp-greedy", "lin-rand", "lin-greedy")
ABLATION_NAMES = (
    "pas-nopricing-rand",
    "pas-nopricing-ampp",
    "pas-nopricing-lin",
    "pas-nosubdel-rand",
    "pas-nosubdel-greedy",
)


def resolve_policy(name: str) -> PolicySpec:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy name: {name!r}") from None


def decide_for_policy(
    spec: PolicySpec,
    state: DataOwnerState,
    ctx: DelegationContext,
    rng,
    markup_max: float = DEFAULT_MARKUP_MAX,
    lin_gain: float = DEFAULT_LIN_GAIN,
    work_mode: str | None = None,
    r_floor: float = 1e-3,
) -> StepDecision:
    """Evaluate one composed policy on one DO against a market snapshot."""
    theta = decide_work(state, work_mode or spec.work_rule)

    if spec.subdel_rule == "threshold":
        s = decide_subdelegation(state, ctx, theta)
    elif spec.subdel_rule == "rand":
        s = subdel_rand(state, ctx, theta, rng)
    elif spec.subdel_rule == "greedy":
        s = subdel_greedy(state, ctx, theta)
    else:
        raise ValueError(f"unknown subdel rule: {spec.subdel_rule!r}")

    degenerate = False
    if spec.price_rule == "lyapunov":
        price = decide_price(state, r_floor)
        degenerate = price_is_degenerate(state, r_floor)
    elif spec.price_rule == "rand":
        price = price_rand(state, rng, markup_max)
    elif spec.price_rule == "ampp":
        price = price_ampp(state, rng, markup_max)
    elif spec.price_rule == "lin":
        price = price_lin(state, lin_gain)
    else:
        raise ValueError(f"unknown price rule: {spec.price_rule!r}")

    if spec.accept_rule == "lyapunov":
        x = decide_acceptance(state, price)
    elif spec.accept_rule == "always":
        x = 1
    else:
        raise ValueError(f"unknown accept rule: {spec.accept_rule!r}")

    return StepDecision(
        accept_x=x,
        price_p=price,
        subdelegate_s=s,
        work_theta=theta,
        price_degenerate=degenerate,
    )
