"""Replay the analytic calculus against a finite electorate of agents.

Every closed-form or quadrature quantity in the package has a Monte Carlo
counterpart: draw a finite electorate, hold the referendum agent by agent,
count who wins. The demo runs that cross-examination for the two-party
baseline, the spoiler race, and the costly-turnout extension, reporting a
z-score for each check, and finishes by re-locating a cohesion threshold
from simulation alone and comparing its confidence interval with the
quadrature answer.

Usage:
    python3 demos/run_oracle_check.py [--voters N] [--reps N] [--seed N]
                                      [--out checks.csv]
"""

from __future__ import annotations

import argparse
import csv

from refcalc import (
    DistributionSpec,
    ElectorateParams,
    QuadratureConfig,
    ReferendumRegime,
    SimConfig,
    ThirdPartyParams,
    TurnoutParams,
    estimate_threshold,
    r_bind,
    second_issue_congruence,
    simulate,
    win_prob,
    win_prob_third,
    win_prob_turnout,
)

BASELINE = ElectorateParams(
    r=0.45,
    mu=0.5,
    p=0.2,
    b_L=-0.5,
    b_R=0.3,
    taste=DistributionSpec("normal", 0.2),
    shock=DistributionSpec("normal", 0.25),
)
SPOILER = ThirdPartyParams(
    base=ElectorateParams(
        r=0.55,
        mu=0.55,
        p=0.2,
        b_L=-0.8,
        b_R=-0.25,
        taste=DistributionSpec("normal", 0.5),
        shock=DistributionSpec("normal", 0.3),
    ),
    v=-0.1,
)
TURNOUT = TurnoutParams(
    base=ElectorateParams(
        r=0.55,
        mu=0.6,
        p=0.2,
        b_L=-0.8,
        b_R=-0.4,
        taste=DistributionSpec("normal", 1.2),
        shock=DistributionSpec("normal", 0.3),
    ),
    c_bar=6.0,
    sigma=3.0,
    kappa=1.0,
)
# The turnout analytic side integrates both intensities in one pass over the
# truncated shock; these tolerances are far below the Monte Carlo standard
# errors the demo compares against.
TURNOUT_QUAD = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)


def section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--voters", type=int, default=20_000,
                        help="policy voters per replication (default 20000)")
    parser.add_argument("--reps", type=int, default=2_000,
                        help="replications per check (default 2000)")
    parser.add_argument("--seed", type=int, default=2026,
                        help="base seed; each check offsets it (default 2026)")
    parser.add_argument("--out", default=None, help="optional CSV of every check")
    args = parser.parse_args(argv)

    rows: list[tuple[str, float, float, float, float]] = []
    n_pass = 0

    def check(name: str, analytic: float, simulated: float, se: float) -> None:
        nonlocal n_pass
        z = (simulated - analytic) / se if se > 0 else 0.0
        verdict = "ok" if abs(z) <= 3.0 else "DISCREPANT"
        if verdict == "ok":
            n_pass += 1
        rows.append((name, analytic, simulated, se, z))
        print(f"{name:<34} analytic={analytic: .6f}  simulated={simulated: .6f}  "
              f"z={z:+5.2f}  {verdict}")

    def config(offset: int, mode: str) -> SimConfig:
        return SimConfig(
            n_policy_voters=args.voters,
            n_replications=args.reps,
            seed=args.seed + offset,
            mode=mode,
        )

    print(f"voters per replication: {args.voters}   replications: {args.reps}   "
          f"base seed: {args.seed}")

    section("two-party baseline (diverged parties, b_R = 0.3)")
    for offset, regime in enumerate((
        ReferendumRegime.NO_REFERENDUM,
        ReferendumRegime.BINDING,
        ReferendumRegime.NON_BINDING,
    )):
        sim = simulate(BASELINE, regime, config(offset, "two_party"))
        analytic_win = win_prob(BASELINE, regime)
        check(f"win_prob[{regime.value}]", analytic_win, sim.win_freq_R, sim.se_win_R)
        if regime is not ReferendumRegime.NO_REFERENDUM:
            analytic_cong = second_issue_congruence(BASELINE, regime).prob_with_ref
        else:
            analytic_cong = second_issue_congruence(
                BASELINE, ReferendumRegime.BINDING
            ).prob_no_ref
        check(f"congruence_y[{regime.value}]", analytic_cong,
              sim.congruence_y, sim.se_congruence_y)

    section("spoiler race (three candidates, advisory referendum)")
    for offset, regime in enumerate((
        ReferendumRegime.NO_REFERENDUM,
        ReferendumRegime.NON_BINDING,
    ), start=10):
        sim = simulate(SPOILER, regime, config(offset, "third_party"))
        analytic = win_prob_third(SPOILER, regime)
        se = sim.se_win_R if sim.se_win_R > 0 else 1.0 / args.reps
        check(f"ahead_of_left[{regime.value}]", analytic, sim.ahead_freq_R, se)

    section("costly turnout (ballot measure as mobilization)")
    for offset, regime in enumerate((
        ReferendumRegime.NO_REFERENDUM,
        ReferendumRegime.BINDING,
    ), start=20):
        sim = simulate(TURNOUT, regime, config(offset, "turnout"))
        analytic = win_prob_turnout(TURNOUT, regime, TURNOUT_QUAD)
        check(f"win_prob_turnout[{regime.value}]", analytic,
              sim.win_freq_R, sim.se_win_R)

    section("a threshold found by simulation alone")
    analytic_bind = r_bind(
        BASELINE.b_L, BASELINE.b_R, BASELINE.p, BASELINE.taste, BASELINE.shock
    ).value
    estimate = estimate_threshold(
        BASELINE,
        "r_bind",
        SimConfig(
            n_policy_voters=args.voters,
            n_replications=args.reps * 5,
            seed=args.seed + 30,
            mode="two_party",
        ),
        tol=2e-3,
    )
    inside = estimate.ci_low <= analytic_bind <= estimate.ci_high
    print(f"r_bind by quadrature:  {analytic_bind:.6f}")
    print(f"r_bind by bisection on simulated net benefit: {estimate.value:.6f}")
    print(f"  confidence interval [{estimate.ci_low:.6f}, {estimate.ci_high:.6f}]"
          f"  ({estimate.evaluations} simulation points, flags={list(estimate.flags)})")
    print(f"  quadrature value inside the interval: {inside}")
    print("The bisection never sees the analytic machinery: it pairs simulated")
    print("elections with and without the referendum on common random numbers")
    print("and walks r until the benefit changes sign.")

    section("summary")
    print(f"{n_pass} of {len(rows)} checks within 3 standard errors"
          + ("" if inside else "; threshold interval MISSED the quadrature value"))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "analytic", "simulated", "se", "z"])
            writer.writerows(
                (name, f"{a:.12g}", f"{s:.12g}", f"{se:.12g}", f"{z:.12g}")
                for name, a, s, se, z in rows
            )
        print(f"\nwrote {len(rows)} checks to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
