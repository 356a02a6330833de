"""Baseline data-owner strategies and the composed policy registry.

Six baselines cross three pricing rules (uniform-random, random markup above
the reserve, linear gain on the reserve) with two sub-delegation rules
(random, and greedy, which delegates the full `subdelegation_cap`).
Baselines always accept new offers; admission caps are enforced by the
market, not the policy.  The registry also wires the ablated variants of the
queue-aware policy, each differing from it in exactly one component.

The linear price, like the queue-aware rules, is a whole array over the DOs.
The random rules draw from each DO's own generator, so they run in
`decide_for_policy`, one call per DO, which the market makes for every DO.
A call reads of its DO only the `OwnerConstants` the world built for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import OwnerConstants, StepDecision


def price_rand(state: OwnerConstants, rng, markup_max: float) -> float:
    """Uniform draw on [p_min, 2 * p_min * (1 + markup_max)], a support
    comparable with the markup and linear rules."""
    p_min = state.reserve_price_p_min
    p_cap = 2.0 * p_min * (1.0 + markup_max)
    if not p_min <= p_cap < math.inf:
        raise ValueError("the price cap must be finite and >= the reserve price")
    # The value rng.uniform(p_min, p_cap) returns, from the same draw.
    return p_min + (p_cap - p_min) * rng.random()


def price_ampp(state: OwnerConstants, rng, markup_max: float) -> float:
    """Random markup above the reserve: p_min * (1 + U(0, markup_max))."""
    if markup_max <= 0:
        raise ValueError("markup_max must be > 0")
    return state.reserve_price_p_min * (1.0 + markup_max * rng.random())


def price_lin(states: np.ndarray, gain: float) -> np.ndarray:
    """Deterministic linear gain on each DO's reserve price."""
    if gain < 1:
        raise ValueError("gain must be >= 1")
    return gain * states["reserve_price_p_min"]


def subdel_rand(cap: int, rng) -> int:
    """Half the time delegate nothing, otherwise a uniform integer amount
    within the per-step cap.  No randomness is consumed when nothing could be
    delegated anyway, keeping downstream draws aligned across variants."""
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
    state: OwnerConstants,
    subdelegate_s: int,
    price_p: float,
    cap: int,
    rng,
    markup_max: float,
) -> StepDecision:
    """One DO's draws: `state` is its `OwnerConstants`, `subdelegate_s` and
    `price_p` are what the whole-array rules decided for it and `cap` its
    sub-delegation cap.  A random rule replaces its value with draws from the
    DO's generator `rng`, in this order: `subdel_rand`'s, then the price's."""
    if spec.subdel_rule == "rand":
        subdelegate_s = subdel_rand(cap, rng)
    if spec.price_rule == "rand":
        price_p = price_rand(state, rng, markup_max)
    elif spec.price_rule == "ampp":
        price_p = price_ampp(state, rng, markup_max)
    return StepDecision(price_p, subdelegate_s)
