"""Follow the spoiler: an advisory referendum against a single-issue entrant.

Both major parties oppose the emerging policy (b_L < b_R < 0), leaving room
for a low-valence single-issue entrant at y = 1 that bleeds support from
whichever major a defector is closer to. The demo builds the three-way race
step by step: how the entrant distorts Right's lead at a given shock, what
an advisory referendum does to the ahead-of-Left probability, when the
entrant's mere presence hurts Right, and finally the wide-dispersion
classification in which everything collapses to the sign of
(r - 1/2) * phi(b_L, b_R).

Usage:
    python3 demos/run_third_party.py [--out spoiler.csv]
"""

from __future__ import annotations

import argparse
import csv

from refcalc import (
    DistributionSpec,
    ElectorateParams,
    ReferendumRegime,
    ThirdPartyParams,
    classify_referendum_preference,
    lambda_margin,
    lambda_win,
    net_benefit_third,
    phi,
    phi_thresholds,
    win_prob_third,
    worse_off_condition,
)

BASE = ElectorateParams(
    r=0.55,
    mu=0.55,
    p=0.2,
    b_L=-0.8,
    b_R=-0.25,
    taste=DistributionSpec("normal", 0.5),
    shock=DistributionSpec("normal", 0.3),
)
TP = ThirdPartyParams(base=BASE, v=-0.1)


def section(title: str) -> None:
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="optional CSV of the dispersion sweep")
    args = parser.parse_args(argv)

    b = TP.base
    section("the three-way race at a fixed shock")
    print(f"majors: r = {b.r}, mu = {b.mu}, p = {b.p}, b_L = {b.b_L}, b_R = {b.b_R}")
    print(f"entrant: position y = 1, valence v = {TP.v}")
    print()
    print(f"{'shock':>8} {'two-party':>12} {'with entrant':>13}")
    B = b.taste.cdf
    for g in (-0.4, 0.0, 0.4):
        # Right's policy share with the majors diverged, and the margin of
        # the shares each major keeps against the entrant.
        share = b.r * B(g + b.b_R + b.p) + (1.0 - b.r) * B(g + b.b_L - b.p)
        margin = b.r * B(-TP.v - b.b_R - g) - (1.0 - b.r) * B(b.p - TP.v - b.b_L - g)
        two = float(lambda_win(share, b.mu))
        three = float(min(max(lambda_margin(margin, b.mu), 0.0), 1.0))
        print(f"{g:>8.2f} {two:>12.6f} {three:>13.6f}")
    print("The two-party column imagines the majors diverged (Right at y = 1);")
    print("the entrant column keeps both majors at y = 0 and lets the entrant")
    print("harvest emerging-policy enthusiasts. High shocks that would have")
    print("been Right's best states now feed the entrant instead.")

    section("does the entrant's presence hurt Right?")
    worse = worse_off_condition(TP)
    print(f"r = {b.r} >= 1/2, and indeed worse_off_condition = {worse}")
    smaller = ThirdPartyParams(
        base=ElectorateParams(r=0.30, mu=b.mu, p=0.05, b_L=-0.3, b_R=-0.25,
                              taste=b.taste, shock=b.shock),
        v=TP.v,
    )
    sb = smaller.base
    print(f"r = {sb.r}, b_L = {sb.b_L}, b_R = {sb.b_R}, p = {sb.p}: "
          f"worse_off_condition = {worse_off_condition(smaller)}")
    print("A majority Right always loses more to a y = 1 entrant than Left does.")
    print("Flip Right into the minority and bring the majors' exposures close")
    print("together, and the spoiler drains more votes from Left: the only case")
    print("in which Right welcomes the entrant's presence.")

    section("what the advisory referendum is worth")
    unheld = win_prob_third(TP, ReferendumRegime.NO_REFERENDUM)
    held = win_prob_third(TP, ReferendumRegime.NON_BINDING)
    gain = net_benefit_third(TP)
    print(f"P(Right ahead of Left), no referendum:   {unheld:.6f}")
    print(f"P(Right ahead of Left), referendum held: {held:.6f}")
    print(f"net benefit: {gain:+.6f}   (held - unheld = {held - unheld:+.6f})")
    print("A strong-enough measured support lets Right jump to y = 1, absorb")
    print("the entrant's base, and fight Left on the usual diverged terms.")

    section("wide dispersion: the sign collapses to (r - 1/2) * phi")
    ph = phi(b.b_L, b.b_R, b.shock)
    thresholds = phi_thresholds(b.b_L, b.shock)
    print(f"phi(b_L={b.b_L}, b_R={b.b_R}) = {ph:+.6f}")
    print(f"b_L* (shock lower quartile) = {thresholds.b_L_star:.6f}; "
          f"b_R* = {thresholds.b_R_star if thresholds.b_R_star is None else f'{thresholds.b_R_star:.6f}'}")
    print(f"b_L sits below b_L*, so phi changes sign at b_R* and our b_R above")
    print(f"it makes phi negative.")
    print()
    wide_base = ElectorateParams(r=b.r, mu=b.mu, p=0.05, b_L=-0.04, b_R=-0.012,
                                 taste=b.taste, shock=DistributionSpec("normal", 0.02))
    print("The asymptotic claim needs taste dispersion to dwarf every other")
    print("scale (the classifier enforces a 50x floor), so the sweep shrinks")
    print("the electorate instead of inflating sigma without bound:")
    print(f"  b_L = {wide_base.b_L}, b_R = {wide_base.b_R}, p = {wide_base.p}, "
          f"shock normal({wide_base.shock.scale}), v = -0.002, r = {wide_base.r}")
    print()
    print(f"{'taste scale':>12} {'net benefit':>14}")
    rows: list[tuple[float, float]] = []
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        scaled = ThirdPartyParams(
            base=ElectorateParams(
                r=wide_base.r, mu=wide_base.mu, p=wide_base.p,
                b_L=wide_base.b_L, b_R=wide_base.b_R,
                taste=DistributionSpec(b.taste.family, scale),
                shock=wide_base.shock,
            ),
            v=-0.002,
        )
        value = net_benefit_third(scaled)
        rows.append((scale, value))
        print(f"{scale:>12.2f} {value:>+14.3e}")
    wide = ThirdPartyParams(
        base=ElectorateParams(
            r=wide_base.r, mu=wide_base.mu, p=wide_base.p,
            b_L=wide_base.b_L, b_R=wide_base.b_R,
            taste=DistributionSpec(b.taste.family, 8.0), shock=wide_base.shock,
        ),
        v=-0.002,
    )
    verdict = classify_referendum_preference(wide)
    ph_wide = phi(wide_base.b_L, wide_base.b_R, wide_base.shock)
    print()
    print(f"phi = {ph_wide:+.6f}, r - 1/2 = {wide_base.r - 0.5:+.2f}  ->  "
          f"asymptotic sign {verdict.asymptotic_sign:+.0f}")
    print(f"classification at scale 8.0: decision={verdict.decision!r}, "
          f"standing={verdict.standing!r}, flags={list(verdict.flags)}")
    print(f"exact net benefit there: {verdict.exact_net_benefit:+.3e}")
    print("As dispersion grows the exact value settles at the sign the kernel")
    print("predicts: here phi < 0 despite Right holding the majority, so the")
    print("advisory referendum hurts Right at every scale in the sweep, and the")
    print("classifier says not_hold.")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["taste_scale", "net_benefit_third"])
            writer.writerows((f"{s:.12g}", f"{v:.12g}") for s, v in rows)
        print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
