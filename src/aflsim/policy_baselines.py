"""Baseline data-owner strategies and the composed policy registry.

Six baselines cross three pricing rules (uniform-random, random markup above
the reserve, linear gain on the reserve) with two sub-delegation rules
(random, and greedy, which delegates the full `subdelegation_cap`).
Baselines always accept new offers; admission caps are enforced by the
market, not the policy.  The registry also wires the ablated variants of the
queue-aware policy, each differing from it in exactly one component.
"""

import math
from dataclasses import dataclass

from .core import DataOwnerState, StepDecision
from .policy_pas import (
    decide_acceptance,
    decide_price,
    decide_subdelegation,
    decide_work,
    price_is_degenerate,
    subdelegation_cap,
)


def price_rand(state: DataOwnerState, rng, markup_max: float) -> float:
    """Uniform draw on [p_min, 2 * p_min * (1 + markup_max)], a support
    comparable with the markup and linear rules."""
    p_min = state.reserve_price_p_min
    p_cap = 2.0 * p_min * (1.0 + markup_max)
    if not p_min <= p_cap < math.inf:
        raise ValueError("the price cap must be finite and >= the reserve price")
    # The value rng.uniform(p_min, p_cap) returns, from the same draw.
    return p_min + (p_cap - p_min) * rng.random()


def price_ampp(state: DataOwnerState, rng, markup_max: float) -> float:
    """Random markup above the reserve: p_min * (1 + U(0, markup_max))."""
    if markup_max <= 0:
        raise ValueError("markup_max must be > 0")
    return state.reserve_price_p_min * (1.0 + markup_max * rng.random())


def price_lin(state: DataOwnerState, gain: float) -> float:
    """Deterministic linear gain on the reserve price."""
    if gain < 1:
        raise ValueError("gain must be >= 1")
    return gain * state.reserve_price_p_min


def subdel_rand(state: DataOwnerState, has_eligible_delegate: bool, theta: int, rng) -> int:
    """Half the time delegate nothing, otherwise a uniform integer amount
    within the per-step cap.  No randomness is consumed when nothing could be
    delegated anyway, keeping downstream draws aligned across variants."""
    cap = subdelegation_cap(state, has_eligible_delegate, theta)
    if cap == 0 or rng.random() < 0.5:
        return 0
    return int(rng.integers(0, cap + 1))


@dataclass(frozen=True)
class PolicySpec:
    """A data-owner policy as a bundle of named component rules."""

    price_rule: str    # "lyapunov" | "rand" | "ampp" | "lin"
    subdel_rule: str   # "threshold" | "rand" | "greedy"
    accept_rule: str   # "lyapunov" | "always"

    @property
    def draws(self) -> bool:
        """Whether deciding consumes randomness."""
        return self.price_rule in ("rand", "ampp") or self.subdel_rule == "rand"


POLICIES: dict[str, PolicySpec] = {
    "pas-afl": PolicySpec("lyapunov", "threshold", "lyapunov"),
    "rand-rand": PolicySpec("rand", "rand", "always"),
    "rand-greedy": PolicySpec("rand", "greedy", "always"),
    "ampp-rand": PolicySpec("ampp", "rand", "always"),
    "ampp-greedy": PolicySpec("ampp", "greedy", "always"),
    "lin-rand": PolicySpec("lin", "rand", "always"),
    "lin-greedy": PolicySpec("lin", "greedy", "always"),
    # Ablated variants of the joint policy, one component swapped each.
    "pas-nopricing-rand": PolicySpec("rand", "threshold", "lyapunov"),
    "pas-nopricing-ampp": PolicySpec("ampp", "threshold", "lyapunov"),
    "pas-nopricing-lin": PolicySpec("lin", "threshold", "lyapunov"),
    "pas-nosubdel-rand": PolicySpec("lyapunov", "rand", "lyapunov"),
    "pas-nosubdel-greedy": PolicySpec("lyapunov", "greedy", "lyapunov"),
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
    avg_neighbor_price: float,
    has_eligible_delegate: bool,
    rng,
    markup_max: float,
    lin_gain: float,
    work_mode: str,
    r_floor: float,
) -> StepDecision:
    """Evaluate one composed policy on one DO against a market snapshot."""
    theta = decide_work(state, work_mode)

    if spec.subdel_rule == "threshold":
        s = decide_subdelegation(state, avg_neighbor_price, has_eligible_delegate, theta)
    elif spec.subdel_rule == "rand":
        s = subdel_rand(state, has_eligible_delegate, theta, rng)
    elif spec.subdel_rule == "greedy":
        s = subdelegation_cap(state, has_eligible_delegate, theta)
    else:
        raise ValueError(f"unknown subdel rule: {spec.subdel_rule!r}")

    degenerate = False
    if spec.price_rule == "lyapunov":
        degenerate = price_is_degenerate(state, r_floor)
        price = decide_price(state, degenerate)
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

    return StepDecision(x, price, s, theta, degenerate)
