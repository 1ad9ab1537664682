"""In-process tests of the command-line front end.

Every test drives ``refcalc.cli.main`` directly with an argv list and a
scenario file written under tmp_path, so exit codes, stdout reports, and
CSV bytes are all observable without spawning a subprocess.  FROZEN
values are from the standalone scipy derivation scripts; CSV cells are
parsed back to floats before comparison because the 12-significant-digit
rendering can differ from an independently derived value in the last
digit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import pytest

from scipy import optimize

from refcalc import quadrature
from refcalc.cli import _FIG12_GAMMAS, _FIG12_PARAMS, main
from refcalc.distributions import DistributionSpec
from refcalc.model import ElectorateParams, referendum_support
from refcalc.quadrature import recall
from refcalc.third_party import phi

from conftest import DRIFT, nan_where

GAMMA_STAR_A = 0.2365713444530117      # FROZEN scipy brentq
WIN_NO_REF_A = 0.4312868827503117      # FROZEN scipy quad
WIN_NON_BINDING_A = 0.44589834351968965  # FROZEN scipy quad
R_BIND_WIDE = 0.3582516326965752       # FROZEN closed ratio, b_R = 0.5
R_SS_WIDE = 0.16648346185208715        # FROZEN scipy brentq, b_R = 0.5


def _scenario_a(**extra):
    scn = {
        "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": 0.3,
        "taste": {"family": "normal", "scale": 0.2},
        "shock": {"family": "normal", "scale": 0.25},
    }
    scn.update(extra)
    return scn


def _scenario_wide(**extra):
    scn = {
        "r": 0.4, "mu": 0.5, "p": 0.05, "b_L": -1.0, "b_R": 0.5,
        "taste": {"family": "normal", "scale": 1.0},
        "shock": {"family": "normal", "scale": 0.5},
    }
    scn.update(extra)
    return scn


def _scenario_turnout(**turnout):
    # Ceiling p + sigma + kappa + max|b_J| = 0.2 + 3 + 1 + 0.8 = 5.0 at the defaults.
    return {
        "r": 0.55, "mu": 0.6, "p": 0.2, "b_L": -0.8, "b_R": -0.4,
        "taste": {"family": "normal", "scale": 1.2},
        "shock": {"family": "normal", "scale": 0.3},
        "regime": "binding",
        "turnout": {"c_bar": 6.0, "sigma": 3.0, "kappa": 1.0, **turnout},
        "quadrature": {"abs_tol": 1e-7, "rel_tol": 1e-6},
    }


# r_bind's kernels both underflow to 0 at p >= 2 (r_bind is 1 at p <= 1.5).
_UNDERFLOW = {
    "r": 0.5, "mu": 0.5, "p": 3.0, "b_L": -1.0, "b_R": 1.2,
    "taste": {"family": "normal", "scale": 0.05},
    "shock": {"family": "normal", "scale": 0.1},
}
UNDERFLOW_ERR = (
    "numerical failure: r_bind: both kernels are 0, so the condition holds for every r\n"
)


# conftest's DRIFT electorate as a scenario, under a non-binding referendum.
_DRIFT = {
    **DRIFT, "regime": "non_binding",
    **{k: {"family": DRIFT[k][0], "scale": DRIFT[k][1]} for k in ("taste", "shock")},
}


def _dump(tmp_path, name, scn):
    path = tmp_path / name
    path.write_text(json.dumps(scn))
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- eval

def test_eval_report_and_csv(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding"))
    out = tmp_path / "eval.csv"
    rc = main(["eval", scn, "--out", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "regime:   non_binding" in report
    assert "=" * 60 in report
    assert "gamma_star" in report

    header, rows = _read_csv(out)
    assert header == ["quantity", "value"]
    values = {name: float(cell) for name, cell in rows}
    # non_binding + b_R >= 0: base pair, held pair, six congruence rows,
    # and the binding-side thresholds.
    assert len(rows) == 12
    assert values["gamma_star"] == pytest.approx(GAMMA_STAR_A, abs=1e-9)
    assert values["win_prob_no_referendum"] == pytest.approx(WIN_NO_REF_A, abs=1e-9)
    assert values["win_prob_non_binding"] == pytest.approx(WIN_NON_BINDING_A, abs=1e-8)
    assert values["net_benefit"] == pytest.approx(
        WIN_NON_BINDING_A - WIN_NO_REF_A, abs=1e-8)
    assert "r_bind" in values and "r_star_star" in values
    # RFC 4180 line endings
    assert b"\r\n" in out.read_bytes()


def test_eval_without_regime_reports_base_rows_only(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    out = tmp_path / "eval.csv"
    rc = main(["eval", scn, "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    names = [name for name, _ in rows]
    assert names == ["gamma_star", "win_prob_no_referendum", "r_bind", "r_star_star"]


def test_eval_negative_b_R_reports_r_star(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(b_R=-0.25))
    out = tmp_path / "eval.csv"
    rc = main(["eval", scn, "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    names = [name for name, _ in rows]
    assert "r_star" in names
    assert "r_bind" not in names


def test_eval_traditional_delta_is_empty_on_the_knife_edge(tmp_path, capsys):
    # At r = 1/2 neither party holds the traditional majority: eval's delta
    # cell is empty, like sweep's delta_traditional for the same scenario.
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding", r=0.5))
    ev, sw = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    assert main(["eval", scn, "--out", str(ev)]) == 0
    evaluated = dict(_read_csv(ev)[1])
    assert evaluated["congruence_traditional_delta"] == ""
    assert evaluated["congruence_traditional_no_ref"] != ""
    assert evaluated["congruence_traditional_with_ref"] != ""
    assert main(["sweep", scn, "--var", "b_R", "--from", "0.1", "--to", "0.4",
                 "--steps", "4", "--quantities", "delta_traditional",
                 "--out", str(sw)]) == 0
    assert [row[1] for row in _read_csv(sw)[1]] == ["", "", "", ""]


@pytest.mark.parametrize("r", [0.45, 0.5, 0.55])
def test_eval_integrates_each_win_probability_once(tmp_path, capsys, monkeypatch, r):
    # The traditional congruence rows read the two win probabilities again,
    # but within the command's memo every kernel integral behind them is
    # computed once.
    import refcalc.thresholds as thresholds

    computed = []

    def spy(compute, *key):
        def counted():
            computed.append(key)
            return compute()

        return recall(counted, *key)

    monkeypatch.setattr(thresholds, "recall", spy)
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding", r=r))
    assert main(["eval", scn]) == 0
    assert computed
    assert len(set(computed)) == len(computed)


def test_eval_second_delta_is_exactly_zero_where_both_tails_saturate(tmp_path, capsys):
    # The snapshot's eval_saturated: a non-binding referendum changes only
    # the two tails, where the win map sits at 0 and at 1, so the delta is
    # 0, whatever the rounding of the two printed levels.
    scn = _dump(tmp_path, "sat.json", _scenario_a(regime="non_binding", mu=0.9, r=0.52))
    out = tmp_path / "eval.csv"
    assert main(["eval", scn, "--out", str(out)]) == 0
    assert dict(_read_csv(out)[1])["congruence_second_delta"] == "0"
    assert "congruence_second_delta            ΔP         0\n" in capsys.readouterr().out


def test_eval_prints_emerging_levels_that_differ_by_the_delta(tmp_path, capsys):
    # On this electorate the emerging level without a referendum misses its
    # mpmath value by 7.2e-12 and the delta by 3.6e-13, and Right's win
    # probability without one by 7.6e-12. Each printed value is rounded to
    # 12 significant digits, by at most 5e-13 here, so levels that differ by
    # their delta print within three such roundings of it: the emerging
    # levels, the two win probabilities around net_benefit and the
    # traditional levels around their delta.
    out = tmp_path / "eval.csv"
    assert main(["eval", _dump(tmp_path, "drift.json", _DRIFT), "--out", str(out)]) == 0
    values = {name: float(cell) for name, cell in _read_csv(out)[1]}
    rows = [
        ("congruence_second_with_ref", "congruence_second_no_ref", "congruence_second_delta"),
        ("win_prob_non_binding", "win_prob_no_referendum", "net_benefit"),
        ("congruence_traditional_with_ref", "congruence_traditional_no_ref",
         "congruence_traditional_delta"),
    ]
    for with_ref, no_ref, delta in rows:
        assert abs(values[with_ref] - values[no_ref] - values[delta]) <= 1.5e-12


@pytest.mark.xfail(
    strict=True,
    reason="r_bind is the kernel ratio, not the sign change of net_benefit, "
           "where the win map saturates (mu > 1/2)",
)
def test_eval_r_bind_is_the_clamped_root_when_the_win_map_saturates(tmp_path, capsys):
    # At mu = 0.7 the ratio reads 0.447945237483; there net_benefit(BINDING)
    # is -0.0180 and the win map clamps. The binding net benefit changes
    # sign at r = 0.459697 (scipy brentq on net_benefit).
    scn = _dump(tmp_path, "sat.json", _scenario_a(
        regime="binding", mu=0.7, p=0.3, b_L=-0.4, b_R=0.2,
        taste={"family": "normal", "scale": 1.0},
        shock={"family": "normal", "scale": 0.5},
    ))
    out = tmp_path / "eval.csv"
    assert main(["eval", scn, "--out", str(out)]) == 0
    values = dict(_read_csv(out)[1])
    assert float(values["r_bind"]) == pytest.approx(0.459697, abs=1e-5)


# ---------------------------------------------------------------- exit codes

def test_missing_scenario_file_exits_2(tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_scenario_without_a_shock_exits_2(tmp_path, capsys):
    scn = _scenario_a()
    del scn["shock"]
    path = _dump(tmp_path, "no_shock.json", scn)
    assert main(["eval", path]) == 2
    assert capsys.readouterr().err == (
        f'scenario error: missing required key "shock" at {path}\n'
    )


def test_a_json_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    scn = _dump(tmp_path, "huge.json", _scenario_a(r=10**400))
    assert main(["eval", scn]) == 2
    assert capsys.readouterr().err == (
        f"scenario error: {scn}.r must be a finite number, got {10**400}\n"
    )


def test_invalid_params_exit_2(tmp_path, capsys):
    scn = _dump(tmp_path, "bad.json", _scenario_a(b_L=0.5))
    rc = main(["eval", scn])
    assert rc == 2


def test_turnout_below_the_cost_ceiling_exits_2(tmp_path, capsys):
    # c_bar = 4.5 clears p + kappa + sigma = 4.2 but not the largest stake, 5.0.
    scn = _dump(tmp_path, "cheap.json", _scenario_turnout(c_bar=4.5))
    rc = main(["eval", scn])
    assert rc == 2
    assert "participation probability" in capsys.readouterr().err


def test_exhausted_quadrature_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    scn = _dump(tmp_path, "tight.json", _scenario_a(
        regime="non_binding", quadrature={"abs_tol": 1e-300, "rel_tol": 1e-300},
    ))
    rc = main(["eval", scn])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("scn", [
    _scenario_a(regime="non_binding"),
    _scenario_a(regime="non_binding", b_R=-0.1, third_party={"v": -0.01}),
    _scenario_turnout(),
    _DRIFT,
], ids=["diverged", "spoiler", "turnout", "drift"])
def test_no_integral_comes_near_the_subdivision_budget(tmp_path, monkeypatch, scn):
    # The budget only stops a runaway bisection, so it is a constant and not
    # a setting. At tolerances of 1e-15 the most any integral of these evals
    # (the benchmark's three scenarios and DRIFT) spent was 38, on DRIFT.
    budgets = []

    def recorded(n, make=quadrature._Budget):
        budgets.append(make(n))
        return budgets[-1]

    monkeypatch.setattr(quadrature, "_Budget", recorded)
    path = _dump(tmp_path, "scn.json", scn)
    assert main(["eval", path, "--quad-abs-tol", "1e-15", "--quad-rel-tol", "1e-15"]) == 0
    assert budgets
    assert max(quadrature._MAX_SUBDIVISIONS - b.left for b in budgets) <= 100


def test_non_finite_integrand_exits_3(tmp_path, capsys, monkeypatch):
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding"))
    nan_where(monkeypatch, "pdf", lambda x: type(x) is float and x > 0.1)
    rc = main(["eval", scn])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite integrand" in err
    assert "achieved tolerance inf" in err


@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_a_nan_in_the_win_integrand_exits_3(tmp_path, capsys, monkeypatch, command):
    # A taste cdf that returns NaN on part of its range puts a NaN share into
    # the two-party win integrand. The sweep used to read the usage error it
    # raised as "undefined here": blank cells and exit 0.
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding"))
    argv = {
        "sweep": ["sweep", scn, "--var", "r", "--from", "0.4", "--to", "0.5",
                  "--steps", "3", "--quantities", "win_prob,net_benefit"],
        "eval": ["eval", scn],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    nan_where(monkeypatch, "cdf", lambda x: type(x) is float and 0.30 < x < 0.50)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert "non-finite integrand" in captured.err
    assert captured.out == ""


def test_root_finder_out_of_iterations_exits_3(tmp_path, capsys, monkeypatch):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    monkeypatch.setattr("refcalc.thresholds.ROOT_MAXITER", 2)
    rc = main(["eval", scn])
    assert rc == 3
    assert "numerical failure: gamma_star: no convergence in 2 iterations" in capsys.readouterr().err


def test_underflowed_cohesion_kernels_exit_3(tmp_path, capsys):
    # Both of r_bind's kernels underflow to 0 here, so every r solves its
    # condition. An exception escaping main would be a traceback and exit 1.
    scn = _dump(tmp_path, "u.json", _UNDERFLOW)
    assert main(["eval", scn]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == UNDERFLOW_ERR


def test_unknown_figure_name_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--quad-abs-tol", "--quad-rel-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_flag_exits_2(tmp_path, capsys, flag, value):
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding"))
    assert main(["eval", scn, flag, value]) == 2
    assert "finite" in capsys.readouterr().err


def test_nan_tolerance_in_scenario_file_exits_2(tmp_path, capsys):
    # json.load accepts the NaN literal, so the file reaches the parser.
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(_scenario_a(quadrature={"rel_tol": math.nan})))
    assert "NaN" in path.read_text()
    assert main(["eval", str(path)]) == 2
    assert "rel_tol" in capsys.readouterr().err


def test_quadrature_block_error_names_its_path(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(_scenario_a(quadrature={"rel_tol": math.nan})))
    assert main(["eval", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"scenario error: {path}.quadrature: "
        "rel_tol must be finite and non-negative, got nan\n"
    )


@pytest.mark.parametrize("command", ["eval", "validate"])
def test_sim_block_error_names_its_path(tmp_path, capsys, command):
    # eval reads no sim block, but a bad one still fails the file at load.
    path = tmp_path / "no_reps.json"
    path.write_text(json.dumps(_scenario_a(sim={"n_replications": 0})))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"scenario error: {path}.sim: "
        "n_replications must be a positive integer, got 0\n"
    )


@pytest.mark.parametrize("argv", [
    ["eval", "SCN"],
    ["sweep", "SCN", "--var", "r", "--from", "0.4", "--to", "0.5", "--steps", "2",
     "--quantities", "win_prob"],
    ["figure", "fig1"],
    ["validate", "SCN"],
], ids=["eval", "sweep", "figure", "validate"])
def test_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys, monkeypatch, argv):
    # --out is opened before any computation: validate used to run every
    # simulation and print its whole report before failing here.
    def no_simulation(*args):
        raise AssertionError("simulated before opening --out")

    monkeypatch.setattr("refcalc.cli.simulate_runs", no_simulation)
    scn = _dump(tmp_path, "a.json", _scenario_a(
        sim={"n_policy_voters": 200, "n_replications": 20}))
    out = tmp_path / "missing" / "x.csv"
    argv = [scn if a == "SCN" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: No such file or directory\n"
    )


def test_numerical_failure_after_opening_out_leaves_it_empty(tmp_path, capsys, monkeypatch):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    out = tmp_path / "eval.csv"
    out.write_text("old contents")
    monkeypatch.setattr("refcalc.thresholds.ROOT_MAXITER", 2)
    assert main(["eval", scn, "--out", str(out)]) == 3
    assert out.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ["eval", "SCN", "--threads", "2"],
    ["eval", "SCN", "--seed", "3"],
    ["sweep", "SCN", "--var", "r", "--from", "0.4", "--to", "0.5", "--steps", "2",
     "--quantities", "win_prob", "--seed", "3"],
    ["figure", "fig1", "--threads", "2"],
    ["validate", "SCN", "--threads", "2"],
])
def test_flags_only_where_they_are_read(tmp_path, capsys, argv):
    # --threads belongs to sweep and --seed to validate; elsewhere they are
    # argparse errors rather than silently ignored.
    scn = _dump(tmp_path, "a.json", _scenario_a())
    with pytest.raises(SystemExit) as exc:
        main([scn if a == "SCN" else a for a in argv])
    assert exc.value.code == 2


# ---------------------------------------------------------------- sweep

def test_sweep_threshold_grid(tmp_path, capsys):
    scn = _dump(tmp_path, "wide.json", _scenario_wide())
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", scn, "--var", "b_R", "--from", "0.0", "--to", "1.0",
               "--steps", "5", "--quantities", "r_bind,r_star_star",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["b_R", "r_bind", "r_star_star"]
    assert [row[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]
    grid = {row[0]: (float(row[1]), float(row[2])) for row in rows}
    assert grid["0.5"][0] == pytest.approx(R_BIND_WIDE, abs=1e-8)
    assert grid["0.5"][1] == pytest.approx(R_SS_WIDE, abs=1e-8)
    assert grid["1"][0] == pytest.approx(0.5, abs=1e-6)
    assert grid["1"][1] == pytest.approx(0.5, abs=1e-6)
    binds = [float(row[1]) for row in rows]
    assert all(a < b for a, b in zip(binds, binds[1:]))


@pytest.mark.parametrize("scn, var, lo, hi, steps, quantities, rc, err", [
    (_scenario_wide(), "b_R", "0.0", "1.0", "5", "r_bind,r_star_star", 0, ""),
    # mu across 1/2, where the win map saturates from 0.6 on: blocks of 4
    # and 3 points.
    (_scenario_a(regime="non_binding"), "mu", "0.3", "0.9", "7",
     "win_prob,net_benefit,delta_second", 0, ""),
    # Blocks p 0.5-1.5 and p 2.0-3.0: the second worker fails at its first
    # point, the serial run's first error.
    (_UNDERFLOW, "p", "0.5", "3.0", "6", "win_prob,r_bind", 3, UNDERFLOW_ERR),
    # b_L 0.1, 0.3 and 0.5 are invalid, and the error names the point: the
    # serial run's first, not the first of a block that interleaves the grid.
    (_scenario_a(regime="non_binding"), "b_L", "-0.5", "0.5", "6", "win_prob", 2,
     "scenario error: grid point b_L=0.1 leaves the electorate invalid"),
], ids=["b_R", "mu_saturated", "underflow", "invalid_b_L"])
def test_sweep_threads_byte_identical(tmp_path, capsys, scn, var, lo, hi, steps,
                                      quantities, rc, err):
    path = _dump(tmp_path, "s.json", scn)
    argv = ["sweep", path, "--var", var, "--from", lo, "--to", hi, "--steps", steps,
            "--quantities", quantities]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        assert main(argv + ["--out", str(out), "--threads", threads]) == rc
        captured = capsys.readouterr()
        runs.append((out.read_bytes(), captured.out, captured.err))
    assert runs[0] == runs[1]
    assert runs[0][2].startswith(err)
    if rc:
        assert runs[0][:2] == (b"", "")


def test_sweep_threads_capped_at_grid_size(tmp_path, capsys, monkeypatch):
    pools = []

    class SerialPool:
        # Stands in for the process pool: records (max_workers, chunksize),
        # maps in-process.
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, jobs)

    monkeypatch.setattr("refcalc.cli.ProcessPoolExecutor", SerialPool)
    scn = _dump(tmp_path, "wide.json", _scenario_wide())
    argv = ["sweep", scn, "--var", "b_R", "--from", "0.0", "--to", "1.0",
            "--steps", "5", "--quantities", "r_bind"]
    one = tmp_path / "serial.csv"
    assert main(argv + ["--out", str(one)]) == 0
    assert pools == []
    # One contiguous block per worker, and no worker without a block: 5
    # points over 4 threads are 3 blocks of 2, 2 and 1.
    for threads, pool in (("5000", (5, 1)), ("2", (2, 3)), ("4", (3, 2))):
        many = tmp_path / f"threads{threads}.csv"
        assert main(argv + ["--out", str(many), "--threads", threads]) == 0
        assert pools.pop() == pool
        assert one.read_bytes() == many.read_bytes()
    for bad in ("0", "-3"):
        assert main(argv + ["--threads", bad]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
    assert pools == []


# Quantities eval reports under the same name as sweep (win_prob under
# win_prob_<regime>); a threshold eval omits is an empty sweep cell.
_SHARED = ("win_prob", "net_benefit", "gamma_star", "r_bind", "r_star", "r_star_star")
# The congruence deltas, which eval names after their issue.
_CONGRUENCE = {
    "delta_second": "congruence_second_delta",
    "delta_traditional": "congruence_traditional_delta",
}


@pytest.mark.parametrize("scn, extra", [
    (_scenario_a(regime="non_binding"), tuple(_CONGRUENCE)),
    (_scenario_a(regime="non_binding", b_R=-0.1, third_party={"v": -0.01}),
     ("phi", "net_benefit_third")),
    (_scenario_turnout(), ("r_T", "net_benefit_turnout")),
], ids=["diverged", "spoiler", "turnout"])
def test_sweep_first_row_matches_eval(tmp_path, capsys, scn, extra):
    path = _dump(tmp_path, "s.json", scn)
    ev, sw = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    assert main(["eval", path, "--out", str(ev)]) == 0
    quantities = (*_SHARED, *extra)
    assert main(["sweep", path, "--var", "r", "--from", repr(scn["r"]),
                 "--to", repr(scn["r"] + 0.01), "--steps", "2",
                 "--quantities", ",".join(quantities), "--out", str(sw)]) == 0
    evaluated = dict(_read_csv(ev)[1])
    header, rows = _read_csv(sw)
    first = dict(zip(header, rows[0]))
    assert first["r"] == repr(scn["r"])
    assert first["win_prob"] == evaluated[f"win_prob_{scn['regime']}"]
    for name in quantities[1:]:
        assert first[name] == evaluated.get(_CONGRUENCE.get(name, name), ""), name


def test_sweep_gamma_axis(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    out = tmp_path / "gamma.csv"
    rc = main(["sweep", scn, "--var", "gamma", "--from", "-0.5", "--to", "0.5",
               "--steps", "3", "--quantities", "s,g", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["gamma", "s", "g"]
    params = ElectorateParams(
        r=0.45, mu=0.5, p=0.2, b_L=-0.5, b_R=0.3,
        taste=DistributionSpec(family="normal", scale=0.2),
        shock=DistributionSpec(family="normal", scale=0.25),
    )
    for row in rows:
        gamma = float(row[0])
        # 12 significant digits in the CSV leave up to ~5e-12 relative slack
        assert float(row[1]) == pytest.approx(
            float(referendum_support(params, gamma)), rel=1e-11)
        assert float(row[2]) == pytest.approx(params.shock.pdf(gamma), rel=1e-11)
    # symmetric shock density renders identically at +/- 0.5
    assert rows[0][2] == rows[2][2]


def test_sweep_gamma_rejects_scalar_quantity(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    rc = main(["sweep", scn, "--var", "gamma", "--from", "-1", "--to", "1",
               "--steps", "3", "--quantities", "win_prob"])
    assert rc == 2
    assert "not available" in capsys.readouterr().err


def test_sweep_invalid_grid_point_exits_2(tmp_path, capsys):
    # at mu = 0.6 competitiveness needs r in (1/6, 5/6); r = 0.05 breaks it
    scn = _dump(tmp_path, "a.json", _scenario_a(mu=0.6))
    rc = main(["sweep", scn, "--var", "r", "--from", "0.05", "--to", "0.95",
               "--steps", "4", "--quantities", "gamma_star"])
    assert rc == 2
    assert "grid point" in capsys.readouterr().err


def test_sweep_congruence_needs_a_regime(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    rc = main(["sweep", scn, "--var", "b_R", "--from", "0.1", "--to", "0.4",
               "--steps", "3", "--quantities", "delta_second"])
    assert rc == 2
    assert "regime" in capsys.readouterr().err


def test_sweep_missing_block_exits_2(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="binding"))
    rc = main(["sweep", scn, "--var", "r", "--from", "0.4", "--to", "0.5",
               "--steps", "2", "--quantities", "win_prob,r_T"])
    assert rc == 2
    assert "r_T needs a turnout block" in capsys.readouterr().err
    rc = main(["sweep", scn, "--var", "v", "--from", "-0.05", "--to", "-0.01",
               "--steps", "2", "--quantities", "win_prob"])
    assert rc == 2
    assert "v needs a third_party block" in capsys.readouterr().err


def test_sweep_turnout_cells_empty_where_constraints_fail(tmp_path, capsys):
    # sigma = 1 fails sigma > p + kappa, sigma = 5 the cost ceiling c_bar >= 7.
    scn = _dump(tmp_path, "t.json", _scenario_turnout())
    out = tmp_path / "sigma.csv"
    rc = main(["sweep", scn, "--var", "sigma", "--from", "1.0", "--to", "5.0",
               "--steps", "3", "--quantities", "r_T", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["sigma", "r_T"]
    assert [row[0] for row in rows] == ["1", "3", "5"]
    assert rows[0][1] == "" and rows[2][1] == ""
    # FROZEN scipy: I_L / (I_L + I_R) at sigma = 3.
    assert float(rows[1][1]) == pytest.approx(0.5346722369893764, abs=1e-7)


@pytest.mark.parametrize("argv, message", [
    (["--var", "r", "--from", "0.4", "--to", "0.5", "--steps", "3", "--quantities", " , "],
     "no quantities requested"),
    (["--var", "r", "--from", "0.4", "--to", "0.5", "--steps", "1", "--quantities", "win_prob"],
     "steps must be at least 2, got 1"),
    (["--var", "r", "--from", "0.5", "--to", "0.4", "--steps", "3", "--quantities", "win_prob"],
     "need finite from < to, got 0.5 .. 0.4"),
], ids=["no_quantities", "one_step", "from_above_to"])
def test_sweep_argument_errors_exit_2(tmp_path, capsys, argv, message):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    assert main(["sweep", scn, *argv]) == 2
    assert message in capsys.readouterr().err


def _spoiler(**extra):
    return _scenario_a(regime="non_binding", b_R=-0.1, third_party={"v": -0.01}, **extra)


@pytest.mark.parametrize("scn, argv", [
    (_spoiler(), ["--var", "v", "--from=-0.5", "--to=inf", "--quantities", "phi"]),
    (_scenario_a(), ["--var", "r", "--from=0.3", "--to=inf", "--quantities", "win_prob"]),
    (_scenario_a(), ["--var", "gamma", "--from=-1e308", "--to=1e308", "--quantities", "s"]),
], ids=["v_to_inf", "r_to_inf", "gamma_step_overflows"])
def test_sweep_rejects_a_non_finite_grid_before_computing(tmp_path, capsys, monkeypatch, scn, argv):
    # An infinite end, or a span whose step overflows, used to print nan and
    # inf rows or fail mid-grid with a message about some grid point.
    def no_cell(job):
        raise AssertionError("computed a cell of a non-finite grid")

    monkeypatch.setattr("refcalc.cli._sweep_cell", no_cell)
    path = _dump(tmp_path, "s.json", scn)
    assert main(["sweep", path, "--steps", "3", *argv]) == 2
    err = capsys.readouterr().err
    assert "need finite from < to" in err
    lo, hi = (float(arg.split("=")[1]) for arg in argv[2:4])
    assert f"got {lo} .. {hi}" in err


def test_sweep_phi_is_empty_where_the_spoiler_block_fails(tmp_path, capsys):
    # The spoiler block needs v < 0 and b_R < 0; phi's cell follows it like
    # net_benefit_third's, where phi alone is still defined.
    path = _dump(tmp_path, "s.json", _spoiler())
    shock = DistributionSpec("normal", 0.25)
    for var, grid, valid in (("v", ("-0.5", "0.5"), 1), ("b_R", ("-0.2", "0"), 2)):
        out = tmp_path / f"{var}.csv"
        assert main(["sweep", path, "--var", var, "--from", grid[0], "--to", grid[1],
                     "--steps", "3", "--quantities", "phi,net_benefit_third",
                     "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        for row in rows[:valid]:
            b_R = float(row[0]) if var == "b_R" else -0.1
            assert row[1] == "%.12g" % phi(-0.5, b_R, shock)
            assert row[2] != ""
        for row in rows[valid:]:
            assert row[1:] == ["", ""], row


def _phi_normal(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _gamma_star_normal(r, b_L, b_R, taste_scale):
    # Support r Phi((g + b_R)/s) + (1 - r) Phi((g + b_L)/s) = 1/2, by erf.
    def excess(g):
        return (r * _phi_normal((g + b_R) / taste_scale)
                + (1.0 - r) * _phi_normal((g + b_L) / taste_scale) - 0.5)
    return optimize.brentq(excess, -5.0, 5.0, xtol=1e-15, rtol=4 * 2.0**-52)


@pytest.mark.parametrize("var", ["taste_scale", "shock_scale"])
def test_sweep_scale_vars(tmp_path, capsys, var):
    # Both parties start at y = 0 (b_R < 0), so without a referendum the
    # emerging policy is the majority's exactly when the shock is below
    # gamma_star: a binding referendum raises that congruence by
    # 1 - G(gamma_star), with G the N(0, shock_scale) cdf.
    path = _dump(tmp_path, "a.json", _scenario_a(regime="binding", b_R=-0.1))
    out = tmp_path / f"{var}.csv"
    assert main(["sweep", path, "--var", var, "--from", "0.1", "--to", "0.5",
                 "--steps", "3", "--quantities", "gamma_star,delta_second",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == [var, "gamma_star", "delta_second"]
    assert [row[0] for row in rows] == ["0.1", "0.3", "0.5"]
    for row in rows:
        scale = float(row[0])
        taste, shock = (scale, 0.25) if var == "taste_scale" else (0.2, scale)
        gs = _gamma_star_normal(0.45, -0.5, -0.1, taste)
        assert float(row[1]) == pytest.approx(gs, abs=1e-9)
        assert float(row[2]) == pytest.approx(1.0 - _phi_normal(gs / shock), abs=1e-9)


# ---------------------------------------------------------------- figures

def test_fig1_dataset(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["gamma", "g", "s", "bold_segment"]
    assert len(rows) == 201
    bold = [row for row in rows if row[3] == "1"]
    assert len(bold) == 41  # gamma in [0.10, 0.50] at step 0.01
    support = [float(row[2]) for row in rows]
    assert all(a < b for a, b in zip(support, support[1:]))
    density = {row[0]: row[1] for row in rows}
    assert density["-1"] == density["1"]


def test_fig1_bold_segment_is_the_split_piece(tmp_path, capsys):
    # Bold exactly where a non-binding referendum splits the parties.
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    lo, hi = -_FIG12_PARAMS.b_R, -_FIG12_PARAMS.b_L
    assert [row[3] for row in _read_csv(out)[1]] == [
        "1" if lo <= gamma <= hi else "0" for gamma in _FIG12_GAMMAS
    ]


def test_fig2_dataset(tmp_path, capsys):
    # Support r Phi((g + b_R)/0.2) + (1 - r) Phi((g + b_L)/0.2) at r = 1/2,
    # b_L = -0.5 and b_R in {-0.1, -0.01}, from math.erf.
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["gamma", "s_bR_-0.1", "s_bR_-0.01"]
    assert [row[0] for row in rows[:3]] == ["-1", "-0.99", "-0.98"]
    assert len(rows) == 201 and rows[-1][0] == "1"
    for row in rows:
        g = float(row[0])
        for cell, b_R in zip(row[1:], (-0.1, -0.01)):
            expected = 0.5 * _phi_normal((g + b_R) / 0.2) + 0.5 * _phi_normal((g - 0.5) / 0.2)
            assert float(cell) == pytest.approx(expected, rel=1e-11, abs=1e-15)
        # A right bias closer to zero raises support at every shock.
        assert float(row[2]) > float(row[1])


def test_fig3_dataset(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["b_R", "r_bind", "r_star", "r_star_star"]
    assert len(rows) == 70  # b_R = i/20 for i in -19 .. 50
    cells = {row[0]: row[1:] for row in rows}
    # negative side: only r_star defined, and below one half
    bind, star, star2 = cells["-0.95"]
    assert bind == "" and star2 == ""
    assert 0.0 < float(star) < 0.5
    # positive side: r_bind and r_star_star defined, r_star empty
    bind, star, star2 = cells["0.5"]
    assert star == ""
    assert float(bind) == pytest.approx(R_BIND_WIDE, abs=1e-8)
    assert float(star2) == pytest.approx(R_SS_WIDE, abs=1e-8)
    # knife edge at b_R = -b_L = 1
    bind, _, star2 = cells["1"]
    assert float(bind) == pytest.approx(0.5, abs=1e-6)
    assert float(star2) == pytest.approx(0.5, abs=1e-6)
    binds = [float(row[1]) for row in rows if row[1] != ""]
    assert all(a < b for a, b in zip(binds, binds[1:]))


@pytest.mark.parametrize("name, var", [("fig1", "gamma"), ("fig2", "gamma"), ("fig3", "b_R")])
def test_fig1_to_fig3_cells_are_sweep_cells(tmp_path, capsys, monkeypatch, name, var):
    # Each of these figures is a sweep of its baked-in electorate: every
    # cell it prints, bar fig1's bold flag, is a cell sweep computes.
    import refcalc.cli as cli

    cell, made = cli._sweep_cell, []

    def spy(job):
        assert job[1] == var
        made.append(cell(job))
        return made[-1]

    monkeypatch.setattr(cli, "_sweep_cell", spy)
    out = tmp_path / f"{name}.csv"
    assert main(["figure", name, "--out", str(out)]) == 0
    rows = _read_csv(out)[1]
    if name == "fig1":
        rows = [row[:3] for row in rows]
    elif name == "fig2":
        assert len(made) == 2 * len(rows)
        made = [a + b[1:] for a, b in zip(made[:len(rows)], made[len(rows):])]
    assert rows == made


def test_figg_region_tally(tmp_path, capsys):
    out = tmp_path / "figg.csv"
    assert main(["figure", "figg", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["b_R", "r", "delta_second", "delta_traditional", "region_flag"]
    assert len(rows) == 504  # 24 b_R values x 21 r values
    tally: dict[str, int] = {}
    for row in rows:
        tally[row[4]] = tally.get(row[4], 0) + 1
    assert tally == {
        "both_negative": 122,
        "traditional_negative": 339,
        "second_negative": 17,
        "none_negative": 2,
        "knife_edge": 24,
    }
    for row in rows:
        if row[4] == "knife_edge":
            assert row[1] == "0.5" and row[3] == ""


# ---------------------------------------------------------------- validate

def test_validate_report_passes_and_csv(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(
        regime="non_binding",
        sim={"n_policy_voters": 20000, "n_replications": 2000, "seed": 5},
    ))
    out = tmp_path / "val.csv"
    rc = main(["validate", scn, "--out", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "4 of 4 checks within 3 standard errors" in report
    header, rows = _read_csv(out)
    assert header == ["quantity", "analytic", "simulated", "se", "z", "verdict"]
    assert [row[0] for row in rows] == [
        "win_prob_no_referendum", "congruence_y_no_referendum",
        "win_prob_non_binding", "congruence_y_non_binding",
    ]
    for row in rows:
        assert row[5] == "PASS"
        assert abs(float(row[1]) - float(row[2])) <= 3.0 * float(row[4]) + 1e-15
        assert float(row[4]) > 0
        assert math.isfinite(float(row[3]))


def test_validate_with_corrupted_tolerance_reports_fail_but_exits_zero(
        tmp_path, capsys):
    # A taste scale 100x below the shock scale turns the taste cdf into a
    # step between two of the 15 nodes of a single panel; at tolerance 1
    # that panel is accepted as it stands and the analytic column is wrong.
    scn = _dump(tmp_path, "a.json", {
        "r": 0.45, "mu": 0.5, "p": 0.05, "b_L": -1.0, "b_R": 0.1,
        "taste": {"family": "normal", "scale": 0.01},
        "shock": {"family": "normal", "scale": 1.0},
        "regime": "non_binding",
        "sim": {"n_policy_voters": 20000, "n_replications": 2000, "seed": 5},
    })
    assert main(["validate", scn]) == 0
    assert "4 of 4 checks within 3 standard errors" in capsys.readouterr().out
    rc = main(["validate", scn, "--quad-abs-tol", "1", "--quad-rel-tol", "1"])
    assert rc == 0  # the run did its job; the verdict column carries the news
    report = capsys.readouterr().out
    assert "FAIL" in report
    assert "of 4 checks within 3 standard errors" in report


def test_validate_byte_identical_across_runs(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(
        regime="binding",
        sim={"n_policy_voters": 20000, "n_replications": 2000, "seed": 9},
    ))
    one, two = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["validate", scn, "--out", str(one)]) == 0
    assert main(["validate", scn, "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_validate_seed_flag_overrides_scenario(tmp_path, capsys):
    scn = _dump(tmp_path, "a.json", _scenario_a(
        regime="binding",
        sim={"n_policy_voters": 20000, "n_replications": 2000, "seed": 9},
    ))
    one, two = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["validate", scn, "--out", str(one)]) == 0
    assert main(["validate", scn, "--out", str(two), "--seed", "10"]) == 0
    assert one.read_bytes() != two.read_bytes()


def _scenario_combined(agent_level):
    # Both extension blocks on one electorate: validate's third-party and
    # turnout rows, with every two-party and spoiler run on one draw stream.
    return {
        **_scenario_turnout(),
        "regime": "non_binding",
        "third_party": {"v": -0.05},
        "sim": {"n_policy_voters": 2000, "n_replications": 200, "seed": 5,
                "agent_level": agent_level},
    }


# validate's report (after its "scenario:" line) and CSV on the combined
# scenario, as the oracle produced them with one simulate call per row.
_COMBINED_VALIDATE = {
    "counts": (
        (
            'seed:     5\n'
            'voters:   2000   replications: 200\n'
            '==============================================================================\n'
            'win_prob_no_referendum         analytic= 0.575000  simulated= 0.590000  z=  0.43  PASS\n'
            'congruence_y_no_referendum     analytic= 0.973365  simulated= 0.975000  z=  0.15  PASS\n'
            'win_prob_non_binding           analytic= 0.567023  simulated= 0.580000  z=  0.37  PASS\n'
            'congruence_y_non_binding       analytic= 0.959931  simulated= 0.935000  z=  1.43  PASS\n'
            'ahead_third_no_referendum      analytic= 0.494141  simulated= 0.505000  z=  0.31  PASS\n'
            'ahead_third_non_binding        analytic= 0.495742  simulated= 0.500000  z=  0.12  PASS\n'
            'win_prob_turnout_no_referendum analytic= 0.502500  simulated= 0.515000  z=  0.35  PASS\n'
            'win_prob_turnout_binding       analytic= 0.506652  simulated= 0.520000  z=  0.38  PASS\n'
            '==============================================================================\n'
            '8 of 8 checks within 3 standard errors\n'
        ),
        (
            'quantity,analytic,simulated,se,z,verdict\r\n'
            'win_prob_no_referendum,0.575,0.59,0.0347778665246,0.431308803529,PASS\r\n'
            'congruence_y_no_referendum,0.9733645854,0.975,0.0110397010829,0.148139391454,PASS\r\n'
            'win_prob_non_binding,0.56702250159,0.58,0.0348998567332,0.371849618444,PASS\r\n'
            'congruence_y_non_binding,0.959930615436,0.935,0.0174320107848,1.43016291944,PASS\r\n'
            'ahead_third_no_referendum,0.494140746411,0.505,0.0353535712482,0.307161432507,PASS\r\n'
            'ahead_third_non_binding,0.495741885844,0.5,0.0353553390593,0.120437655802,PASS\r\n'
            'win_prob_turnout_no_referendum,0.5025,0.515,0.0353394255754,0.353712597091,PASS\r\n'
            'win_prob_turnout_binding,0.506651508461,0.52,0.0353270434653,0.377854760243,PASS\r\n'
        ),
    ),
    "agents": (
        (
            'seed:     5\n'
            'voters:   2000   replications: 200\n'
            '==============================================================================\n'
            'win_prob_no_referendum         analytic= 0.575000  simulated= 0.610000  z=  1.01  PASS\n'
            'congruence_y_no_referendum     analytic= 0.973365  simulated= 0.980000  z=  0.67  PASS\n'
            'win_prob_non_binding           analytic= 0.567023  simulated= 0.610000  z=  1.25  PASS\n'
            'congruence_y_non_binding       analytic= 0.959931  simulated= 0.950000  z=  0.64  PASS\n'
            'ahead_third_no_referendum      analytic= 0.494141  simulated= 0.500000  z=  0.17  PASS\n'
            'ahead_third_non_binding        analytic= 0.495742  simulated= 0.510000  z=  0.40  PASS\n'
            'win_prob_turnout_no_referendum analytic= 0.502500  simulated= 0.495000  z=  0.21  PASS\n'
            'win_prob_turnout_binding       analytic= 0.506652  simulated= 0.515000  z=  0.24  PASS\n'
            '==============================================================================\n'
            '8 of 8 checks within 3 standard errors\n'
        ),
        (
            'quantity,analytic,simulated,se,z,verdict\r\n'
            'win_prob_no_referendum,0.575,0.61,0.034489128722,1.0148125307,PASS\r\n'
            'congruence_y_no_referendum,0.9733645854,0.98,0.00989949493661,0.670278094261,PASS\r\n'
            'win_prob_non_binding,0.56702250159,0.61,0.034489128722,1.24611725499,PASS\r\n'
            'congruence_y_non_binding,0.959930615436,0.95,0.0154110350074,0.644383419465,PASS\r\n'
            'ahead_third_no_referendum,0.494140746411,0.5,0.0353553390593,0.165724717814,PASS\r\n'
            'ahead_third_non_binding,0.495741885844,0.51,0.0353482672843,0.403361048555,PASS\r\n'
            'win_prob_turnout_no_referendum,0.5025,0.495,0.0353535712482,0.212142641753,PASS\r\n'
            'win_prob_turnout_binding,0.506651508461,0.515,0.0353394255754,0.236237329915,PASS\r\n'
        ),
    ),
}


@pytest.mark.parametrize("engine", ["counts", "agents"])
def test_validate_third_party_and_turnout_rows_are_pinned(tmp_path, capsys, engine):
    scn = _dump(tmp_path, "both.json", _scenario_combined(engine == "agents"))
    out = tmp_path / "val.csv"
    assert main(["validate", scn, "--out", str(out)]) == 0
    report, expected_csv = _COMBINED_VALIDATE[engine]
    captured = capsys.readouterr()
    assert captured.out == f"scenario: {scn}\n" + report
    assert captured.err == ""
    assert out.read_bytes() == expected_csv.encode()


README_PATH = Path(__file__).resolve().parent.parent / "README.md"


def _readme_lines(text, after):
    """The README lines from the first one after the line ``after`` up to the
    end of its code block."""
    start = text.index(after + "\n") + len(after) + 1
    return text[start:text.index("```", start)].splitlines()


def test_readme_samples_come_from_its_scenario_file(tmp_path, capsys, monkeypatch):
    # The README's scenario file must load, and its eval and validate
    # samples must be rows the commands print on that file.
    text = README_PATH.read_text(encoding="utf-8")
    scenario = _readme_lines(text[text.index("## Scenario files"):], "```json")
    (tmp_path / "scenario.json").write_text("\n".join(scenario))
    monkeypatch.chdir(tmp_path)
    for command, shown in (
        ("eval", lambda line: line != "..."),
        ("validate", lambda line: line.endswith(("PASS", "FAIL"))),
    ):
        sample = _readme_lines(text, f"$ refcalc {command} scenario.json")
        assert main([command, "scenario.json"]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = [line for line in sample if shown(line)]
        assert rows and [line for line in rows if line not in printed] == []
