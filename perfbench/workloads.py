"""Inputs of the refcalc benchmark, shared by the harness and the reference.

Nothing here imports refcalc: the reference script builds its expected
values from these definitions alone, and the harness turns them into
scenario files and command lines for the program under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("calculus_grid", "turnout_eval", "oracle_validate", "sweep_pool")

# Every job states its quadrature tolerance, so pass_s is time to a solution
# of that accuracy even if the program's defaults change.
CALCULUS_TOL = {"abs_tol": 1e-10, "rel_tol": 1e-8}
# Tier-1's turnout tolerance; at the default one a single turnout eval takes
# minutes, far too long for a benchmark run.
TURNOUT_TOL = {"abs_tol": 1e-7, "rel_tol": 1e-6}

DIVERGED = {
    "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": 0.3,
    "taste": {"family": "normal", "scale": 0.2},
    "shock": {"family": "normal", "scale": 0.25},
    "regime": "non_binding",
    "quadrature": CALCULUS_TOL,
}
SPOILER = {**DIVERGED, "b_R": -0.1, "third_party": {"v": -0.01}}
TURNOUT = {
    "r": 0.55, "mu": 0.6, "p": 0.2, "b_L": -0.8, "b_R": -0.4,
    "taste": {"family": "normal", "scale": 1.2},
    "shock": {"family": "normal", "scale": 0.3},
    "regime": "binding",
    "turnout": {"c_bar": 6.0, "sigma": 3.0, "kappa": 1.0},
    "quadrature": TURNOUT_TOL,
}

SWEEP_QUANTITIES = (
    "win_prob", "net_benefit", "gamma_star", "r_bind", "r_star_star",
    "delta_second", "delta_traditional",
)
SERIAL_SWEEP_STEPS = 41
POOL_SWEEP_STEPS = 81
POOL_WORKERS = 2

# The seed shifts the r grid by one of a few offsets; the reference holds
# expected values for each of them.
GRID_OFFSETS = 4
_GRID_SHIFT = 0.002
_GRID_LO, _GRID_HI = 0.30, 0.60

# Oracle sizes: the counts engine at full size, the per-voter agents engine
# small enough that a pass stays well under ten seconds.
COUNTS_SIZE = {"n_policy_voters": 100_000, "n_replications": 100_000}
AGENTS_SIZE = {"n_policy_voters": 10_000, "n_replications": 1_000}

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def sweep_range(offset_index: int) -> tuple[float, float]:
    shift = offset_index * _GRID_SHIFT
    return _GRID_LO + shift, _GRID_HI + shift


def sweep_values(offset_index: int, steps: int) -> list[float]:
    """The r grid exactly as `refcalc sweep --from --to --steps` spaces it."""
    lo, hi = sweep_range(offset_index)
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


class SeedPlan:
    """Everything a workload seed decides: the grid offset and oracle seeds."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.grid_offset = rng.randrange(GRID_OFFSETS)
        self.oracle_seeds = [rng.randrange(2**32) for _ in range(6)]
