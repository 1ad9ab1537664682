"""Command-line front end: eval, sweep, figure, validate.

All four subcommands take --quad-abs-tol, --quad-rel-tol and --out; only
sweep takes --threads and only validate --seed, the one subcommand that runs
the oracle. CLI flags override the scenario file's own quadrature and sim
blocks. Exit codes: 0 on success (a validate run that prints FAIL verdicts
still succeeded at its job), 2 on scenario or usage errors (an --out path
that cannot be opened among them, found before any computation), 3 on
numerical failures. eval and sweep share one table of named quantities
(_QUANTITIES); sweep rejects a non-finite grid and a quantity or --var
(_VARS) whose regime, third_party or turnout block is missing, and where a
present block fails its constraints at a grid point, the cell is empty. sweep
cuts its grid into at most --threads (>= 1) contiguous blocks, one per worker
process, each sent and returned in one round trip; the output and the first
error are the serial run's. figure's fig1, fig2 and fig3 are sweeps of
baked-in electorates: they and sweep take every cell from one grid path
(_grid).

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
from functools import cached_property

from .congruence import (
    _majority_delta,
    _traditional,
    classify_congruence_region,
    knife_edge,
    second_delta,
    second_issue_congruence,
)
from .distributions import DistributionSpec
from .election import net_benefit, win_prob
from .errors import NumericalError, ScenarioError, UsageError
from .model import (
    REGIMES,
    ElectorateParams,
    ReferendumRegime,
    referendum_support,
    shock_pieces,
    validate as validate_params,
)
from .oracle import SimConfig, simulate_runs
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, memo
from .scenario import Scenario, load_scenario
from .third_party import (
    net_benefit_third,
    phi,
    validate_third,
    win_prob_third,
    worse_off_condition,
)
from .thresholds import gamma_star, r_bind, r_star, r_star_star
from .turnout import net_benefit_turnout, r_T, win_prob_turnout

NO_REFERENDUM = ReferendumRegime.NO_REFERENDUM
BINDING = ReferendumRegime.BINDING
NON_BINDING = ReferendumRegime.NON_BINDING


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.12g" % value


def _open_out(path):
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(out, header, rows):
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def _load(args) -> Scenario:
    """The scenario file with the --quad-abs-tol / --quad-rel-tol overrides applied."""
    scenario = load_scenario(args.scenario)
    return replace(scenario, quadrature=_quad_from_args(args, scenario.quadrature))


def _quad_from_args(args, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> QuadratureConfig:
    """quad with the --quad-abs-tol / --quad-rel-tol overrides applied."""
    if args.quad_abs_tol is not None:
        quad = replace(quad, abs_tol=args.quad_abs_tol)
    if args.quad_rel_tol is not None:
        quad = replace(quad, rel_tol=args.quad_rel_tol)
    return quad


# ---------------------------------------------------------------- quantities

def _threshold(fn, p: ElectorateParams, quad: QuadratureConfig):
    """fn(b_L, b_R, p, taste, shock, quad).value, or None where fn's own check
    rejects p's sign of b_R (r_bind and r_star_star need b_R >= 0, r_star
    b_R < 0)."""
    try:
        return fn(p.b_L, p.b_R, p.p, p.taste, p.shock, quad).value
    except UsageError:
        return None


class _Point:
    """A scenario as _QUANTITIES reads it: its params, regime, quadrature,
    third and turnout blocks, and win_prob's two terms, each computed at its
    first read. win_prob under a regime is the no-referendum win probability
    plus net_benefit, the very double election.win_prob returns, so one gain
    walk serves a point's win_prob, net_benefit and traditional congruence
    rows."""

    def __init__(self, scenario: Scenario):
        for field in ("params", "regime", "quadrature", "third", "turnout"):
            setattr(self, field, getattr(scenario, field))

    @cached_property
    def win_no_ref(self) -> float:
        return win_prob(self.params, NO_REFERENDUM, self.quadrature)

    @cached_property
    def gain(self) -> float:
        return net_benefit(self.params, self.regime, config=self.quadrature)

    def win_prob(self) -> float:
        if self.regime is NO_REFERENDUM:
            return self.win_no_ref
        return self.win_no_ref + self.gain

    def delta_traditional(self) -> float | None:
        # congruence.traditional_delta from the point's gain: None on the
        # knife edge, where nothing is integrated.
        r = self.params.r
        return None if knife_edge(r) else _majority_delta(r, self.gain)


# Every named scalar quantity, shared by eval and sweep: the scenario block it
# needs (None, "regime", "third_party" or "turnout") and its value at a
# _Point. A sweep naming a quantity whose block is missing is rejected.
_QUANTITIES = {
    "win_prob": (None, _Point.win_prob),
    "net_benefit": ("regime", lambda s: s.gain),
    "gamma_star": (None, lambda s: gamma_star(s.params).value),
    "r_bind": (None, lambda s: _threshold(r_bind, s.params, s.quadrature)),
    "r_star": (None, lambda s: _threshold(r_star, s.params, s.quadrature)),
    "r_star_star": (None, lambda s: _threshold(r_star_star, s.params, s.quadrature)),
    "delta_second": ("regime", lambda s: second_delta(s.params, s.regime, s.quadrature)),
    "delta_traditional": ("regime", _Point.delta_traditional),
    "phi": ("third_party", lambda s: None if validate_third(s.third)
            else phi(s.params.b_L, s.params.b_R, s.params.shock)),
    "net_benefit_third": ("third_party", lambda s: net_benefit_third(s.third, config=s.quadrature)),
    "r_T": ("turnout", lambda s: r_T(s.turnout, config=s.quadrature).value),
    "net_benefit_turnout": (
        "turnout", lambda s: net_benefit_turnout(s.turnout, config=s.quadrature)),
}


def _value(point: _Point, name: str):
    return _QUANTITIES[name][1](point)


# ---------------------------------------------------------------- eval

def _eval_rows(scenario: Scenario):
    """(code_name, symbol, value) triples for every applicable quantity."""
    p, quad = scenario.params, scenario.quadrature
    regime = scenario.regime
    point = _Point(scenario)
    wp_no = point.win_no_ref
    rows = [
        ("gamma_star", "γ*", _value(point, "gamma_star")),
        ("win_prob_no_referendum", "λ", wp_no),
    ]
    if regime is not NO_REFERENDUM:
        rows += [
            (f"win_prob_{regime.value}", "λ", _value(point, "win_prob")),
            ("net_benefit", "Δλ", _value(point, "net_benefit")),
        ]
        second = second_issue_congruence(p, regime, quad)
        trad = _traditional(p.r, regime, wp_no, point.gain)
        rows += [
            ("congruence_second_no_ref", "P(y=maj)", second.prob_no_ref),
            ("congruence_second_with_ref", "P(y=maj)", second.prob_with_ref),
            ("congruence_second_delta", "ΔP", second.delta),
            ("congruence_traditional_no_ref", "P(x=maj)", trad.prob_no_ref),
            ("congruence_traditional_with_ref", "P(x=maj)", trad.prob_with_ref),
            ("congruence_traditional_delta", "ΔP", trad.delta),
        ]
    for name, symbol in (("r_bind", "r_bind"), ("r_star_star", "r**"), ("r_star", "r*")):
        value = _value(point, name)
        if value is not None:
            rows.append((name, symbol, value))
    if scenario.third is not None:
        tp = scenario.third
        rows += [
            ("phi", "φ", _value(point, "phi")),
            ("ahead_third_no_ref", "∫λ̂g", win_prob_third(tp, NO_REFERENDUM, quad)),
            ("ahead_third_non_binding", "λ̂→λ", win_prob_third(tp, NON_BINDING, quad)),
            ("net_benefit_third", "Γ", _value(point, "net_benefit_third")),
            ("worse_off_with_spoiler", "∫λ̂g<λ(r)", worse_off_condition(tp, config=quad)),
        ]
    if scenario.turnout is not None:
        tu = scenario.turnout
        rows += [
            ("r_T", "r_T", _value(point, "r_T")),
            ("win_prob_turnout_no_ref", "P_T", win_prob_turnout(tu, NO_REFERENDUM, quad)),
            ("win_prob_turnout_binding", "P_T", win_prob_turnout(tu, BINDING, quad)),
            ("net_benefit_turnout", "ΔP_T", _value(point, "net_benefit_turnout")),
        ]
    return rows


def _cmd_eval(args, out) -> int:
    scenario = _load(args)
    rows = _eval_rows(scenario)
    print(f"scenario: {args.scenario}")
    print(f"regime:   {scenario.regime.value}")
    print("=" * 60)
    for code, symbol, value in rows:
        print(f"{code:<34} {symbol:<10} {_fmt(value)}")
    if args.out:
        _write_csv(out, ["quantity", "value"], [(c, _fmt(v)) for c, _, v in rows])
    return 0


# ---------------------------------------------------------------- sweep

# Each sweep var and the extension block it needs (None: the electorate
# itself); a sweep over a var whose block is missing is rejected.
_VARS = {
    "r": None, "mu": None, "p": None, "b_L": None, "b_R": None,
    "taste_scale": None, "shock_scale": None,
    "v": "third_party", "c_bar": "turnout", "sigma": "turnout", "kappa": "turnout",
}
# A gamma sweep's quantities at (electorate, shock): support and shock density.
_GAMMA_QUANTITIES = {
    "s": lambda p, gamma: float(referendum_support(p, gamma)),
    "g": lambda p, gamma: p.shock.pdf(gamma),
}


def _rebuild(scenario: Scenario, var: str, value: float) -> Scenario:
    p = scenario.params
    if var in ("taste_scale", "shock_scale"):
        dist = var.removesuffix("_scale")
        p = replace(p, **{dist: replace(getattr(p, dist), scale=value)})
    elif _VARS[var] is None:
        p = replace(p, **{var: value})
    violations = validate_params(p)
    if violations:
        raise ScenarioError(
            f"grid point {var}={value:g} leaves the electorate invalid: "
            + "; ".join(violations)
        )
    third, turnout = scenario.third, scenario.turnout
    if third is not None:
        third = replace(third, base=p, **({var: value} if _VARS[var] == "third_party" else {}))
    if turnout is not None:
        turnout = replace(turnout, base=p, **({var: value} if _VARS[var] == "turnout" else {}))
    return replace(scenario, params=p, third=third, turnout=turnout)


def _sweep_cell(job):
    scenario, var, value, quantities = job
    if var == "gamma":
        return [_fmt(value)] + [
            _fmt(_GAMMA_QUANTITIES[q](scenario.params, value)) for q in quantities
        ]
    point = _Point(_rebuild(scenario, var, value))
    cells = []
    for q in quantities:
        try:
            cells.append(_fmt(_value(point, q)))
        except UsageError:
            cells.append("")
    return [_fmt(value)] + cells


def _grid(scenario: Scenario, var: str, values, quantities, threads: int = 1):
    """One CSV row per value: the value, then each quantity's _sweep_cell.

    With threads > 1 the grid is cut into at most threads contiguous blocks
    of size points (the last may be shorter), one worker process per block:
    each worker takes its points in one message and returns its rows in one.
    map yields the blocks in grid order and a block stops at its first
    failing point, so the rows and the first error are the serial run's."""
    jobs = [(scenario, var, v, quantities) for v in values]
    workers = min(threads, len(jobs))
    if workers > 1:
        size = math.ceil(len(jobs) / workers)
        with ProcessPoolExecutor(max_workers=math.ceil(len(jobs) / size)) as pool:
            return list(pool.map(_sweep_cell, jobs, chunksize=size))
    return [_sweep_cell(job) for job in jobs]


def _cmd_sweep(args, out) -> int:
    scenario = _load(args)
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    if not quantities:
        raise ScenarioError("no quantities requested")
    if args.steps < 2:
        raise ScenarioError(f"steps must be at least 2, got {args.steps}")
    step = (args.to - args.from_) / (args.steps - 1)
    if not (args.from_ < args.to and math.isfinite(step)):
        raise ScenarioError(f"need finite from < to, got {args.from_} .. {args.to}")
    if args.threads < 1:
        raise ScenarioError(f"threads must be at least 1, got {args.threads}")
    allowed = _GAMMA_QUANTITIES if args.var == "gamma" else tuple(_QUANTITIES)
    for q in quantities:
        if q not in allowed:
            raise ScenarioError(
                f"quantity {q!r} not available for var {args.var!r}; "
                f"allowed: {', '.join(allowed)}"
            )
    present = {
        "regime": scenario.regime is not NO_REFERENDUM,
        "third_party": scenario.third is not None,
        "turnout": scenario.turnout is not None,
    }
    needs = [(args.var, _VARS.get(args.var))]
    if args.var != "gamma":
        needs += [(q, _QUANTITIES[q][0]) for q in quantities]
    for name, block in needs:
        if block is not None and not present[block]:
            what = (
                "a binding or non_binding regime" if block == "regime"
                else f"a {block} block"
            )
            raise ScenarioError(f"{name} needs {what} in the scenario")

    values = [args.from_ + i * step for i in range(args.steps)]
    rows = _grid(scenario, args.var, values, quantities, args.threads)
    _write_csv(out, [args.var, *quantities], rows)
    return 0


# ---------------------------------------------------------------- figure

def _normal(scale):
    return DistributionSpec(family="normal", scale=scale)


_FIG12_PARAMS = ElectorateParams(
    r=0.5, mu=0.5, p=0.2, b_L=-0.5, b_R=-0.1,
    taste=_normal(0.2), shock=_normal(0.25),
)
# fig3 varies b_R; r and mu do not enter the thresholds.
_FIG3_PARAMS = ElectorateParams(
    r=0.5, mu=0.5, p=0.05, b_L=-1.0, b_R=0.0,
    taste=_normal(1.0), shock=_normal(0.5),
)
_FIGG_PARAMS = ElectorateParams(
    r=0.5, mu=0.7, p=1.0, b_L=-1.0, b_R=-0.5,
    taste=DistributionSpec(family="logistic", scale=1.0), shock=_normal(0.5),
)
_FIG12_GAMMAS = [i / 100 for i in range(-100, 101)]


def _electorate(params: ElectorateParams, quad: QuadratureConfig) -> Scenario:
    """A scenario holding only params: no referendum and no extension blocks."""
    return Scenario(params, NO_REFERENDUM, None, None, quad, SimConfig())


def _figure_fig1(quad):
    split_lo, split_hi, _ = shock_pieces(_FIG12_PARAMS.b_L, _FIG12_PARAMS.b_R, NON_BINDING)[1]
    rows = _grid(_electorate(_FIG12_PARAMS, quad), "gamma", _FIG12_GAMMAS, ("g", "s"))
    return ["gamma", "g", "s", "bold_segment"], [
        [*row, "1" if split_lo <= gamma <= split_hi else "0"]
        for gamma, row in zip(_FIG12_GAMMAS, rows)
    ]


def _figure_fig2(quad):
    b_Rs = (_FIG12_PARAMS.b_R, -0.01)
    grids = [
        _grid(_electorate(replace(_FIG12_PARAMS, b_R=b_R), quad), "gamma", _FIG12_GAMMAS, ("s",))
        for b_R in b_Rs
    ]
    return ["gamma", *(f"s_bR_{b_R:g}" for b_R in b_Rs)], [
        left + right[1:] for left, right in zip(*grids)
    ]


def _figure_fig3(quad):
    quantities = ("r_bind", "r_star", "r_star_star")
    b_Rs = [i / 20 for i in range(-19, 51)]
    return ["b_R", *quantities], _grid(_electorate(_FIG3_PARAMS, quad), "b_R", b_Rs, quantities)


def _figure_figg(quad):
    b_R_values = [-(96 - 4 * j) / 100 for j in range(24)]
    r_values = [(30 + 2 * k) / 100 for k in range(21)]
    cells = classify_congruence_region(
        _FIGG_PARAMS, b_R_values, r_values, NON_BINDING, quad
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


def _cmd_figure(args, out) -> int:
    header, rows = _FIGURES[args.name](_quad_from_args(args))
    _write_csv(out, header, rows)
    return 0


# ---------------------------------------------------------------- validate

def _validate_checks(scenario: Scenario):
    """(name, analytic, simulated, se) rows comparing calculus to the oracle;
    each row feeds one regime to both. One simulate_runs call covers every
    row, so runs on a shared draw stream are drawn once."""
    p, quad, sim_cfg = scenario.params, scenario.quadrature, scenario.sim
    regime = scenario.regime
    held = regime is not NO_REFERENDUM
    # Without a referendum only the level without it is used, and it is the
    # same under either held regime.
    second = second_issue_congruence(p, regime if held else BINDING, quad)
    runs = [(p, reg) for reg in ((NO_REFERENDUM, regime) if held else (NO_REFERENDUM,))]
    if scenario.third is not None:
        runs += [(scenario.third, reg) for reg in REGIMES["third_party"]]
    if scenario.turnout is not None:
        runs += [(scenario.turnout, reg) for reg in REGIMES["turnout"]]

    checks = []
    for (target, reg), res in zip(runs, simulate_runs(runs, sim_cfg)):
        if res.mode == "two_party":
            checks.append((
                f"win_prob_{reg.value}", win_prob(p, reg, quad), res.win_freq_R, res.se_win_R,
            ))
            cong = second.prob_no_ref if reg is NO_REFERENDUM else second.prob_with_ref
            checks.append((
                f"congruence_y_{reg.value}", cong, res.congruence_y, res.se_congruence_y,
            ))
        elif res.mode == "third_party":
            se = math.sqrt(res.ahead_freq_R * (1 - res.ahead_freq_R) / res.n_replications)
            checks.append((
                f"ahead_third_{reg.value}",
                win_prob_third(target, reg, quad), res.ahead_freq_R, se,
            ))
        else:
            checks.append((
                f"win_prob_turnout_{reg.value}",
                win_prob_turnout(target, reg, quad), res.win_freq_R, res.se_win_R,
            ))
    return checks


def _cmd_validate(args, out) -> int:
    scenario = _load(args)
    if args.seed is not None:
        scenario = replace(scenario, sim=replace(scenario.sim, seed=args.seed))
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
            out,
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
    p_sweep.add_argument("--var", required=True, choices=(*_VARS, "gamma"),
                         help="parameter to sweep (gamma sweeps the shock axis)")
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--quantities", required=True,
        help="comma-separated list; scalar vars: " + ", ".join(_QUANTITIES)
             + "; gamma: " + ", ".join(_GAMMA_QUANTITIES),
    )
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="parallel workers for the grid")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", parents=[common],
                           help="emit a plot-ready dataset with baked-in primitives")
    p_fig.add_argument("name", choices=sorted(_FIGURES))
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", parents=[common],
                           help="compare analytic quantities against the Monte Carlo oracle")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    --out is opened before any computation, so a path that cannot be opened
    exits 2 at once; a later failure leaves the file empty. The command runs
    inside quadrature.memo(), so each cohesion kernel integral is computed
    once per command, and none is kept once main returns. Only the kernels
    are kept; the thresholds and every win integral read them alike. Most
    involve neither r nor mu, so a sweep over either reuses them. One over a
    piece that ends at gamma_star or at a kink of the saturated win map is
    kept too: the congruence levels and delta read it alike.
    """
    args = _build_parser().parse_args(argv)
    try:
        with _open_out(args.out) as out, memo():
            return args.func(args, out)
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
