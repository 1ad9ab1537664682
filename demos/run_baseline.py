"""Walk one electorate through the full two-party calculus.

A single baseline electorate (moderately conservative, parties split on the
emerging issue) is taken end to end: primitive checks, party positions, the
pivotal shock, win probabilities without and with a referendum under both
regimes, and the congruence ledger for each issue. Every quantity printed
here is the analytic (quadrature) value; run_oracle_check.py replays the
same electorate against the finite-agent simulator.

Usage:
    python3 demos/run_baseline.py [--out baseline.csv]
"""

from __future__ import annotations

import argparse
import csv

from refcalc import (
    DistributionSpec,
    ElectorateParams,
    ReferendumRegime,
    gamma_star,
    initial_positions,
    net_benefit,
    r_bind,
    r_star_star,
    referendum_support,
    second_issue_congruence,
    traditional_issue_congruence,
    validate,
    win_prob,
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


def section(title: str) -> None:
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="optional CSV of every printed quantity")
    args = parser.parse_args(argv)

    rows: list[tuple[str, float]] = []

    def record(name: str, value: float) -> float:
        rows.append((name, float(value)))
        return float(value)

    p = BASELINE
    section("primitives")
    print(f"conservative share r = {p.r},  policy-voter share mu = {p.mu}")
    print(f"traditional salience p = {p.p},  party biases b_L = {p.b_L}, b_R = {p.b_R}")
    print(f"taste  ~ {p.taste.family}(scale={p.taste.scale})")
    print(f"shock  ~ {p.shock.family}(scale={p.shock.scale})")
    violations = validate(p)
    print(f"model requirements: {'all satisfied' if not violations else violations}")

    section("positions and the pivotal shock")
    pos = initial_positions(p)
    print(f"initial positions: Left y={pos.y_left}, Right y={pos.y_right}"
          f"  ({'diverged' if pos.diverged else 'aligned'})")
    gs = gamma_star(p)
    record("gamma_star", gs.value)
    print(f"pivotal shock gamma* = {gs.value:.6f}"
          f"  (bracket ({gs.bracket[0]:.2f}, {gs.bracket[1]:.2f}), residual {gs.residual:.1e})")
    for g in (-0.5, 0.0, gs.value, 0.5):
        s = float(referendum_support(p, g))
        marker = "  <- crosses 1/2 here" if abs(g - gs.value) < 1e-12 else ""
        print(f"  support for the emerging policy at gamma={g:+.4f}: {s:.4f}{marker}")

    section("win probabilities and the value of holding a referendum")
    base = record("win_prob_no_referendum", win_prob(p, ReferendumRegime.NO_REFERENDUM))
    print(f"P(Right wins), no referendum:         {base:.6f}")
    for regime in (ReferendumRegime.BINDING, ReferendumRegime.NON_BINDING):
        with_ref = record(f"win_prob_{regime.value}", win_prob(p, regime))
        gain = record(f"net_benefit_{regime.value}", net_benefit(p, regime))
        print(f"P(Right wins), {regime.value:<12} referendum: {with_ref:.6f}"
              f"   net benefit {gain:+.6f}")
    print("Both gains are positive: r sits above both cohesion thresholds (next")
    print("section), so Right profits from settling the emerging issue, and the")
    print("binding version, which removes the shock from the race entirely,")
    print("profits it the most.")

    section("cohesion thresholds at these biases")
    rb = record("r_bind", r_bind(p.b_L, p.b_R, p.p, p.taste, p.shock).value)
    rss = record("r_star_star", r_star_star(p.b_L, p.b_R, p.p, p.taste, p.shock).value)
    print(f"binding threshold     r_bind = {rb:.6f}")
    print(f"non-binding threshold r**    = {rss:.6f}")
    for name, threshold in (("binding", rb), ("non-binding", rss)):
        side = "helps" if p.r > threshold else "hurts"
        print(f"  at r = {p.r} a {name} referendum {side} Right"
              f" (threshold {threshold:.4f})")

    section("congruence: does policy track the majority?")
    print(f"{'issue':<12} {'regime':<12} {'no ref':>10} {'with ref':>10} {'delta':>10}")
    for regime in (ReferendumRegime.BINDING, ReferendumRegime.NON_BINDING):
        for fn, issue in (
            (second_issue_congruence, "emerging"),
            (traditional_issue_congruence, "traditional"),
        ):
            rep = fn(p, regime)
            record(f"congruence_{issue}_{regime.value}_delta", rep.delta)
            print(f"{issue:<12} {regime.value:<12} {rep.prob_no_ref:>10.6f}"
                  f" {rep.prob_with_ref:>10.6f} {rep.delta:>+10.6f}")
    print("A binding referendum settles the emerging issue by majority vote, so")
    print("its emerging-issue congruence is exactly 1; the traditional issue can")
    print("still lose ground because realignment shifts who wins the election.")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "value"])
            writer.writerows((name, f"{value:.12g}") for name, value in rows)
        print(f"\nwrote {len(rows)} quantities to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
