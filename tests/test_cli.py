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

import pytest

from refcalc.cli import main
from refcalc.distributions import DistributionSpec
from refcalc.model import ElectorateParams, referendum_support

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


# ---------------------------------------------------------------- exit codes

def test_missing_scenario_file_exits_2(tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


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


def test_exhausted_quadrature_exits_3(tmp_path, capsys):
    scn = _dump(tmp_path, "tight.json", _scenario_a(
        regime="non_binding",
        quadrature={"abs_tol": 1e-300, "rel_tol": 1e-300, "max_subdivisions": 1},
    ))
    rc = main(["eval", scn])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_integrand_exits_3(tmp_path, capsys, monkeypatch):
    scn = _dump(tmp_path, "a.json", _scenario_a(regime="non_binding"))
    pdf = DistributionSpec.pdf
    monkeypatch.setattr(
        DistributionSpec, "pdf",
        lambda self, x: math.nan if type(x) is float and x > 0.1 else pdf(self, x),
    )
    rc = main(["eval", scn])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite integrand" in err
    assert "achieved tolerance inf" in err


def test_root_finder_out_of_iterations_exits_3(tmp_path, capsys, monkeypatch):
    scn = _dump(tmp_path, "a.json", _scenario_a())
    monkeypatch.setattr("refcalc.thresholds.ROOT_MAXITER", 2)
    rc = main(["eval", scn])
    assert rc == 3
    assert "numerical failure: gamma_star: no convergence in 2 iterations" in capsys.readouterr().err


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
def test_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys, argv):
    scn = _dump(tmp_path, "a.json", _scenario_a(
        sim={"n_policy_voters": 200, "n_replications": 20}))
    out = tmp_path / "missing" / "x.csv"
    argv = [scn if a == "SCN" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: No such file or directory\n"
    )


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


def test_sweep_threads_byte_identical(tmp_path, capsys):
    scn = _dump(tmp_path, "wide.json", _scenario_wide())
    argv = ["sweep", scn, "--var", "b_R", "--from", "0.0", "--to", "1.0",
            "--steps", "5", "--quantities", "r_bind,r_star_star"]
    one, two = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(argv + ["--out", str(one)]) == 0
    assert main(argv + ["--out", str(two), "--threads", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_sweep_threads_capped_at_grid_size(tmp_path, capsys, monkeypatch):
    pools = []

    class SerialPool:
        # Stands in for the process pool: records max_workers, maps in-process.
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("refcalc.cli.ProcessPoolExecutor", SerialPool)
    scn = _dump(tmp_path, "wide.json", _scenario_wide())
    argv = ["sweep", scn, "--var", "b_R", "--from", "0.0", "--to", "1.0",
            "--steps", "5", "--quantities", "r_bind"]
    one, many = tmp_path / "serial.csv", tmp_path / "many.csv"
    assert main(argv + ["--out", str(one)]) == 0
    assert pools == []
    assert main(argv + ["--out", str(many), "--threads", "5000"]) == 0
    assert pools == [5]
    assert one.read_bytes() == many.read_bytes()
    for bad in ("0", "-3"):
        assert main(argv + ["--threads", bad]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
    assert pools == [5]


# Quantities eval reports under the same name as sweep (win_prob under
# win_prob_<regime>); a threshold eval omits is an empty sweep cell.
_SHARED = ("win_prob", "net_benefit", "gamma_star", "r_bind", "r_star", "r_star_star")


@pytest.mark.parametrize("scn, extra", [
    (_scenario_a(regime="non_binding"), ()),
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
        assert first[name] == evaluated.get(name, ""), name


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
            'ahead_third_no_referendum,0.49414074641,0.505,0.0353535712482,0.30716143254,PASS\r\n'
            'ahead_third_non_binding,0.495741885843,0.5,0.0353553390593,0.120437655818,PASS\r\n'
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
            'ahead_third_no_referendum,0.49414074641,0.5,0.0353553390593,0.165724717847,PASS\r\n'
            'ahead_third_non_binding,0.495741885843,0.51,0.0353482672843,0.403361048571,PASS\r\n'
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
