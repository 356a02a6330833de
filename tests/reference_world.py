"""A world's data-owner parameters drawn one DO at a time, as the model reads.

`World._build_data_owners` decodes the same numbers from blocks of the
generator's raw outputs.  This loop, on a generator seeded as the world seeds
its DO-parameter stream, is the reference it must equal byte for byte.
"""

import numpy as np

from aflsim.core import STATE, TASK
from aflsim.market import _DRAWN_COLUMNS, _STREAM_DO_PARAMS


def reference_data_owners(cfg, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The `STATE` records and the initial `TASK` queue of a world built from
    `cfg` at `seed`, before its first step."""
    rng = np.random.default_rng([seed, _STREAM_DO_PARAMS])
    do = cfg.do_params
    ds_lo, ds_hi = cfg.data_size_range

    def uniform(bounds: tuple[float, float]) -> float:
        # The value rng.uniform(lo, hi) returns, from the same draw.
        lo, hi = bounds
        return lo + (hi - lo) * rng.random()

    drawn, payments = [], []
    for _ in range(cfg.n_dos):
        p_min = uniform(do.p_min)
        row = (
            p_min,
            uniform(do.unit_cost_frac) * p_min,
            uniform(do.rho),
            uniform(do.r0),
            uniform(do.r_min),
            int(rng.integers(do.theta_max[0], do.theta_max[1] + 1)),
            int(rng.integers(do.s_max[0], do.s_max[1] + 1)),
            int(rng.integers(do.kappa_hat[0], do.kappa_hat[1] + 1)),
            uniform(do.epsilon),
            int(rng.integers(do.m_positive[0], do.m_positive[1] + 1)),
            int(rng.integers(do.q0[0], do.q0[1] + 1)),
            int(rng.integers(ds_lo, ds_hi + 1)),
        )
        drawn.append(row)
        payments.append(rng.uniform(*do.q0_payment_markup, size=row[-2]) * p_min)

    states = np.zeros(cfg.n_dos, STATE)
    for name, column in zip(_DRAWN_COLUMNS, zip(*drawn)):
        states[name] = column
    states["avg_demand_kappa_bar"] = cfg.market.kappa_bar_prior
    states["current_price_p"] = states["reserve_price_p_min"]

    owner = np.repeat(np.arange(cfg.n_dos), states["pending_q"].astype(np.intp))
    queue = np.zeros(len(owner), TASK)
    queue["owner"] = owner
    queue["payment"] = np.concatenate(payments)
    queue["id"] = np.arange(len(owner))
    return states, queue
