"""Command-line front end: eval, sweep, figure, validate.

All four subcommands read global flags --quad-abs-tol, --quad-rel-tol,
--seed, --threads, --out. CLI flags override the scenario file's own
quadrature and sim blocks. Exit codes: 0 on success (a validate run that
prints FAIL verdicts still succeeded at its job), 2 on scenario or usage
errors, 3 on numerical failures. sweep rejects a --var or quantity whose
regime, third_party or turnout block is missing (_NEEDS); where a present
block fails its constraints at a grid point, the cell is empty.

CSV output is RFC-4180 (the csv module's default quoting and CRLF line
endings), '.' decimal point, 12 significant digits. Undefined cells (a
threshold outside its branch, the traditional delta on the r = 1/2 knife
edge) are empty strings. Given identical inputs and seeds the bytes are
identical run to run.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

from .congruence import (
    KNIFE_EDGE_FLAG,
    classify_congruence_region,
    second_issue_congruence,
    traditional_issue_congruence,
)
from .distributions import DistributionSpec
from .election import net_benefit, win_prob
from .errors import NumericalError, ScenarioError, UsageError
from .model import (
    ElectorateParams,
    ReferendumRegime,
    referendum_support,
    validate as validate_params,
)
from .oracle import simulate
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .scenario import Scenario, load_scenario
from .third_party import (
    ThirdPartyParams,
    net_benefit_third,
    phi,
    win_prob_third,
    worse_off_condition,
)
from .thresholds import gamma_star, r_bind, r_star, r_star_star
from .turnout import TurnoutParams, net_benefit_turnout, r_T, win_prob_turnout


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.12g" % value


def _open_out(path):
    if path:
        return open(path, "w", newline="", encoding="utf-8")
    return nullcontext(sys.stdout)


def _write_csv(path, header, rows):
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    sim = scenario.sim
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    quad = _quad_from_args(args, scenario.quadrature)
    return replace(scenario, quadrature=quad, sim=sim)


def _quad_from_args(args, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureConfig:
    """quad with the --quad-abs-tol / --quad-rel-tol overrides applied."""
    if args.quad_abs_tol is not None:
        quad = replace(quad, abs_tol=args.quad_abs_tol)
    if args.quad_rel_tol is not None:
        quad = replace(quad, rel_tol=args.quad_rel_tol)
    return quad


# ---------------------------------------------------------------- eval

def _eval_rows(scenario: Scenario):
    """(code_name, symbol, value) triples for every applicable quantity."""
    p, quad = scenario.params, scenario.quadrature
    regime = scenario.regime
    held = regime is not ReferendumRegime.NO_REFERENDUM
    rows = [
        ("gamma_star", "γ*", gamma_star(p).value),
        ("win_prob_no_referendum", "λ", win_prob(p, regime, held=False, config=quad)),
    ]
    if held:
        rows += [
            (f"win_prob_{regime.value}", "λ", win_prob(p, regime, held=True, config=quad)),
            ("net_benefit", "Δλ", net_benefit(p, regime, config=quad)),
        ]
        second = second_issue_congruence(p, regime, quad)
        trad = traditional_issue_congruence(p, regime, quad)
        rows += [
            ("congruence_second_no_ref", "P(y=maj)", second.prob_no_ref),
            ("congruence_second_with_ref", "P(y=maj)", second.prob_with_ref),
            ("congruence_second_delta", "ΔP", second.delta),
            ("congruence_traditional_no_ref", "P(x=maj)", trad.prob_no_ref),
            ("congruence_traditional_with_ref", "P(x=maj)", trad.prob_with_ref),
            ("congruence_traditional_delta", "ΔP", trad.delta),
        ]
    if p.b_R >= 0:
        rows += [
            ("r_bind", "r_bind", r_bind(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value),
            ("r_star_star", "r**", r_star_star(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value),
        ]
    else:
        rows.append(
            ("r_star", "r*", r_star(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value)
        )
    if scenario.third is not None:
        tp = scenario.third
        rows += [
            ("phi", "φ", phi(p.b_L, p.b_R, p.shock)),
            ("ahead_third_no_ref", "∫λ̂g", win_prob_third(tp, held=False, config=quad)),
            ("ahead_third_non_binding", "λ̂→λ", win_prob_third(tp, held=True, config=quad)),
            ("net_benefit_third", "Γ", net_benefit_third(tp, config=quad)),
            ("worse_off_with_spoiler", "∫λ̂g<λ(r)", worse_off_condition(tp, config=quad)),
        ]
    if scenario.turnout is not None:
        tu = scenario.turnout
        rows += [
            ("r_T", "r_T", r_T(tu, config=quad).value),
            ("win_prob_turnout_no_ref", "P_T", win_prob_turnout(tu, referendum=False, config=quad)),
            ("win_prob_turnout_binding", "P_T", win_prob_turnout(tu, referendum=True, config=quad)),
            ("net_benefit_turnout", "ΔP_T", net_benefit_turnout(tu, config=quad)),
        ]
    return rows


def _cmd_eval(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    rows = _eval_rows(scenario)
    print(f"scenario: {args.scenario}")
    print(f"regime:   {scenario.regime.value}")
    print("=" * 60)
    for code, symbol, value in rows:
        print(f"{code:<34} {symbol:<10} {_fmt(value)}")
    if args.out:
        _write_csv(args.out, ["quantity", "value"], [(c, _fmt(v)) for c, _, v in rows])
    return 0


# ---------------------------------------------------------------- sweep

_SCALAR_VARS = ("r", "mu", "p", "b_L", "b_R", "taste_scale", "shock_scale",
                "v", "c_bar", "sigma", "kappa")
_GAMMA_QUANTITIES = ("s", "g")
_SCALAR_QUANTITIES = (
    "win_prob", "net_benefit", "gamma_star", "r_bind", "r_star", "r_star_star",
    "delta_second", "delta_traditional", "phi", "net_benefit_third", "r_T",
    "net_benefit_turnout",
)


# Sweep vars and quantities that need a scenario block; the sweep is rejected
# up front when the block is missing.
_NEEDS = {
    "net_benefit": "regime", "delta_second": "regime", "delta_traditional": "regime",
    "phi": "third_party", "net_benefit_third": "third_party", "v": "third_party",
    "r_T": "turnout", "net_benefit_turnout": "turnout",
    "c_bar": "turnout", "sigma": "turnout", "kappa": "turnout",
}


def _rebuild(scenario: Scenario, var: str, value: float) -> Scenario:
    p = scenario.params
    if var in ("r", "mu", "p", "b_L", "b_R"):
        p = replace(p, **{var: value})
    elif var == "taste_scale":
        p = replace(p, taste=replace(p.taste, scale=value))
    elif var == "shock_scale":
        p = replace(p, shock=replace(p.shock, scale=value))
    violations = validate_params(p)
    if violations:
        raise ScenarioError(
            f"grid point {var}={value:g} leaves the electorate invalid: "
            + "; ".join(violations)
        )
    third = scenario.third
    if third is not None:
        v = value if var == "v" else third.v
        third = ThirdPartyParams(base=p, v=v)
    turnout = scenario.turnout
    if turnout is not None:
        turnout = TurnoutParams(
            base=p,
            c_bar=value if var == "c_bar" else turnout.c_bar,
            sigma=value if var == "sigma" else turnout.sigma,
            kappa=value if var == "kappa" else turnout.kappa,
        )
    return replace(scenario, params=p, third=third, turnout=turnout)


def _one_quantity(scn: Scenario, name: str):
    p, quad, regime = scn.params, scn.quadrature, scn.regime
    held = regime is not ReferendumRegime.NO_REFERENDUM
    if name == "win_prob":
        return win_prob(p, regime, held=held, config=quad)
    if name == "net_benefit":
        return net_benefit(p, regime, config=quad)
    if name == "gamma_star":
        return gamma_star(p).value
    if name == "r_bind":
        return r_bind(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value
    if name == "r_star":
        return r_star(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value
    if name == "r_star_star":
        return r_star_star(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value
    if name == "delta_second":
        return second_issue_congruence(p, regime, quad).delta
    if name == "delta_traditional":
        report = traditional_issue_congruence(p, regime, quad)
        return None if KNIFE_EDGE_FLAG in report.flags else report.delta
    if name == "phi":
        return phi(p.b_L, p.b_R, p.shock)
    if name == "net_benefit_third":
        return net_benefit_third(scn.third, config=quad)
    if name == "r_T":
        return r_T(scn.turnout, config=quad).value
    if name == "net_benefit_turnout":
        return net_benefit_turnout(scn.turnout, config=quad)
    raise UsageError(f"unknown quantity {name!r}")


def _sweep_cell(job):
    scenario, var, value, quantities = job
    if var == "gamma":
        cells = []
        for q in quantities:
            if q == "s":
                cells.append(_fmt(float(referendum_support(scenario.params, value))))
            else:
                cells.append(_fmt(scenario.params.shock.pdf(value)))
        return [_fmt(value)] + cells
    point = _rebuild(scenario, var, value)
    cells = []
    for q in quantities:
        try:
            cells.append(_fmt(_one_quantity(point, q)))
        except UsageError:
            cells.append("")
    return [_fmt(value)] + cells


def _cmd_sweep(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    if not quantities:
        raise ScenarioError("no quantities requested")
    if args.steps < 2:
        raise ScenarioError(f"steps must be at least 2, got {args.steps}")
    if not args.from_ < args.to:
        raise ScenarioError(f"need from < to, got {args.from_} .. {args.to}")
    allowed = _GAMMA_QUANTITIES if args.var == "gamma" else _SCALAR_QUANTITIES
    for q in quantities:
        if q not in allowed:
            raise ScenarioError(
                f"quantity {q!r} not available for var {args.var!r}; "
                f"allowed: {', '.join(allowed)}"
            )
    present = {
        "regime": scenario.regime is not ReferendumRegime.NO_REFERENDUM,
        "third_party": scenario.third is not None,
        "turnout": scenario.turnout is not None,
    }
    for name in (args.var, *quantities):
        block = _NEEDS.get(name)
        if block is not None and not present[block]:
            what = (
                "a binding or non_binding regime" if block == "regime"
                else f"a {block} block"
            )
            raise ScenarioError(f"{name} needs {what} in the scenario")

    step = (args.to - args.from_) / (args.steps - 1)
    values = [args.from_ + i * step for i in range(args.steps)]
    jobs = [(scenario, args.var, v, quantities) for v in values]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(job) for job in jobs]
    _write_csv(args.out, [args.var, *quantities], rows)
    return 0


# ---------------------------------------------------------------- figure

def _normal(scale):
    return DistributionSpec(family="normal", scale=scale)


_FIG12_PARAMS = ElectorateParams(
    r=0.5, mu=0.5, p=0.2, b_L=-0.5, b_R=-0.1,
    taste=_normal(0.2), shock=_normal(0.25),
)
_FIG3 = dict(p=0.05, b_L=-1.0, taste=_normal(1.0), shock=_normal(0.5))
_FIGG_PARAMS = ElectorateParams(
    r=0.5, mu=0.7, p=1.0, b_L=-1.0, b_R=-0.5,
    taste=DistributionSpec(family="logistic", scale=1.0), shock=_normal(0.5),
)


def _figure_fig1(quad):
    header = ["gamma", "g", "s", "bold_segment"]
    rows = []
    for i in range(-100, 101):
        gamma = i / 100
        rows.append([
            _fmt(gamma),
            _fmt(_FIG12_PARAMS.shock.pdf(gamma)),
            _fmt(float(referendum_support(_FIG12_PARAMS, gamma))),
            "1" if 0.1 <= gamma <= 0.5 else "0",
        ])
    return header, rows


def _figure_fig2(quad):
    alt = replace(_FIG12_PARAMS, b_R=-0.01)
    header = ["gamma", "s_bR_-0.1", "s_bR_-0.01"]
    rows = []
    for i in range(-100, 101):
        gamma = i / 100
        rows.append([
            _fmt(gamma),
            _fmt(float(referendum_support(_FIG12_PARAMS, gamma))),
            _fmt(float(referendum_support(alt, gamma))),
        ])
    return header, rows


def _figure_fig3(quad):
    header = ["b_R", "r_bind", "r_star", "r_star_star"]
    rows = []
    for i in range(-19, 51):
        b_R = i / 20
        if b_R >= 0:
            bind = r_bind(_FIG3["b_L"], b_R, _FIG3["p"], _FIG3["taste"], _FIG3["shock"], quad).value
            star = None
            star2 = r_star_star(_FIG3["b_L"], b_R, _FIG3["p"], _FIG3["taste"], _FIG3["shock"], quad).value
        else:
            bind = star2 = None
            star = r_star(_FIG3["b_L"], b_R, _FIG3["p"], _FIG3["taste"], _FIG3["shock"], quad).value
        rows.append([_fmt(b_R), _fmt(bind), _fmt(star), _fmt(star2)])
    return header, rows


def _figure_figg(quad):
    b_R_values = [-(96 - 4 * j) / 100 for j in range(24)]
    r_values = [(30 + 2 * k) / 100 for k in range(21)]
    cells = classify_congruence_region(
        _FIGG_PARAMS, b_R_values, r_values, ReferendumRegime.NON_BINDING, quad
    )
    header = ["b_R", "r", "delta_second", "delta_traditional", "region_flag"]
    rows = [
        [_fmt(c.b_R), _fmt(c.r), _fmt(c.delta_second), _fmt(c.delta_traditional), c.region_flag]
        for c in cells
    ]
    return header, rows


_FIGURES = {
    "fig1": _figure_fig1,
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "figg": _figure_figg,
}


def _cmd_figure(args) -> int:
    header, rows = _FIGURES[args.name](_quad_from_args(args))
    _write_csv(args.out, header, rows)
    return 0


# ---------------------------------------------------------------- validate

def _validate_checks(scenario: Scenario):
    """(name, analytic, simulated, se) rows comparing calculus to the oracle."""
    p, quad = scenario.params, scenario.quadrature
    regime = scenario.regime
    held = regime is not ReferendumRegime.NO_REFERENDUM
    sim_cfg = scenario.sim
    checks = []

    base = simulate(p, ReferendumRegime.NO_REFERENDUM, sim_cfg)
    checks.append((
        "win_prob_no_referendum",
        win_prob(p, regime, held=False, config=quad),
        base.win_freq_R, base.se_win_R,
    ))
    cong_regime = regime if held else ReferendumRegime.BINDING
    second = second_issue_congruence(p, cong_regime, quad)
    checks.append((
        "congruence_y_no_referendum",
        second.prob_no_ref, base.congruence_y, base.se_congruence_y,
    ))
    if held:
        res = simulate(p, regime, sim_cfg)
        checks.append((
            f"win_prob_{regime.value}",
            win_prob(p, regime, held=True, config=quad),
            res.win_freq_R, res.se_win_R,
        ))
        checks.append((
            f"congruence_y_{regime.value}",
            second.prob_with_ref, res.congruence_y, res.se_congruence_y,
        ))

    if scenario.third is not None:
        cfg = replace(sim_cfg, mode="third_party")
        for label, is_held, reg in (
            ("no_referendum", False, ReferendumRegime.NO_REFERENDUM),
            ("non_binding", True, ReferendumRegime.NON_BINDING),
        ):
            res = simulate(scenario.third, reg, cfg)
            se = math.sqrt(res.ahead_freq_R * (1 - res.ahead_freq_R) / cfg.n_replications)
            checks.append((
                f"ahead_third_{label}",
                win_prob_third(scenario.third, held=is_held, config=quad),
                res.ahead_freq_R, se,
            ))

    if scenario.turnout is not None:
        cfg = replace(sim_cfg, mode="turnout")
        for label, ref, reg in (
            ("no_referendum", False, ReferendumRegime.NO_REFERENDUM),
            ("binding", True, ReferendumRegime.BINDING),
        ):
            res = simulate(scenario.turnout, reg, cfg)
            checks.append((
                f"win_prob_turnout_{label}",
                win_prob_turnout(scenario.turnout, referendum=ref, config=quad),
                res.win_freq_R, res.se_win_R,
            ))
    return checks


def _cmd_validate(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    checks = _validate_checks(scenario)
    rows = []
    n_pass = 0
    for name, analytic, simulated, se in checks:
        diff = abs(analytic - simulated)
        if se > 0:
            z = diff / se
            ok = diff <= 3.0 * se
        else:
            z = 0.0 if diff == 0 else math.inf
            ok = diff == 0
        n_pass += ok
        rows.append((name, analytic, simulated, se, z, "PASS" if ok else "FAIL"))

    print(f"scenario: {args.scenario}")
    print(f"seed:     {scenario.sim.seed}")
    print(f"voters:   {scenario.sim.n_policy_voters}   "
          f"replications: {scenario.sim.n_replications}")
    print("=" * 78)
    for name, analytic, simulated, se, z, verdict in rows:
        print(f"{name:<30} analytic={analytic: .6f}  simulated={simulated: .6f}  "
              f"z={z:6.2f}  {verdict}")
    print("=" * 78)
    print(f"{n_pass} of {len(rows)} checks within 3 standard errors")
    if args.out:
        _write_csv(
            args.out,
            ["quantity", "analytic", "simulated", "se", "z", "verdict"],
            [
                (name, _fmt(a), _fmt(s), _fmt(se), _fmt(z), verdict)
                for name, a, s, se, z, verdict in rows
            ],
        )
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quad-abs-tol", type=float, default=None,
                        help="override quadrature absolute tolerance")
    common.add_argument("--quad-rel-tol", type=float, default=None,
                        help="override quadrature relative tolerance")
    common.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
    common.add_argument("--threads", type=int, default=1,
                        help="parallel workers for sweep grids")
    common.add_argument("--out", default=None,
                        help="write CSV here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="refcalc",
        description="Referendum calculus: win probabilities, thresholds, "
                    "congruence, and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate every applicable quantity for a scenario")
    p_eval.add_argument("scenario", help="scenario JSON file")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one parameter and emit a CSV grid")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("--var", required=True, choices=(*_SCALAR_VARS, "gamma"),
                         help="parameter to sweep (gamma sweeps the shock axis)")
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--quantities", required=True,
        help="comma-separated list; scalar vars: " + ", ".join(_SCALAR_QUANTITIES)
             + "; gamma: s, g",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", parents=[common],
                           help="emit a plot-ready dataset with baked-in primitives")
    p_fig.add_argument("name", choices=sorted(_FIGURES))
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", parents=[common],
                           help="compare analytic quantities against the Monte Carlo oracle")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
