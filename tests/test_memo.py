"""The per-command integral memo (quadrature.memo / quadrature.recall).

The CLI runs every command inside quadrature.memo(), where the cohesion
kernels, and only they, are looked up before they are integrated; the
thresholds, the win integrals and the congruence deltas read them alike.
Keys compare by ==, so 0.0 and -0.0 share one. These tests pin what that may
and may not change: each distinct kernel is integrated once per command, no
integral is computed outside recall, the memo stores nothing else, every
value is the very double computed outside the memo (at either zero), nothing
survives the command, and a failure is never stored. Four counts pin what
is read: figg reads each moved piece of a cell once, second_delta integrates
no kernel pair it does not use, validate integrates no delta it does not
print, and a saturated spoiler eval reads the spoiler race's whole line once.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from refcalc import cli, congruence, election, quadrature, thresholds
from refcalc.cli import main
from refcalc.congruence import classify_congruence_region, second_delta, second_issue_levels
from refcalc.election import win_prob
from refcalc.errors import QuadratureError, UsageError
from refcalc.model import DistributionSpec, ReferendumRegime, moved_pieces
from refcalc.quadrature import QuadratureConfig, memo
from refcalc.scenario import load_scenario
from refcalc.thresholds import r_bind, r_star, r_star_star

from conftest import SCENARIO_A

# The benchmark's diverged scenario and its serial r-sweep.
DIVERGED = {
    "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": 0.3,
    "taste": {"family": "normal", "scale": 0.2},
    "shock": {"family": "normal", "scale": 0.25},
    "regime": "non_binding",
    "quadrature": {"abs_tol": 1e-10, "rel_tol": 1e-8},
}
# The diverged scenario where the win map saturates at mu 0.9 and r 0.52,
# and the benchmark's spoiler scenario there.
SATURATED = {**DIVERGED, "mu": 0.9, "r": 0.52}
SPOILER_SATURATED = {**SATURATED, "b_R": -0.1, "third_party": {"v": -0.01}}
SWEEP_QUANTITIES = (
    "win_prob", "net_benefit", "gamma_star", "r_bind", "r_star_star",
    "delta_second", "delta_traditional",
)


def _dump(tmp_path, scn):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    return str(path)


def _sweep_r(path, steps=41):
    return ["sweep", path, "--var", "r", "--from", "0.3", "--to", "0.6",
            "--steps", str(steps), "--quantities", ",".join(SWEEP_QUANTITIES)]


class _Tally:
    """Counts quadrature.integrate calls, and per key the lookups and
    computations that go through the kernels' recall. Keeps the table of
    each memo the CLI enters."""

    def __init__(self, monkeypatch):
        self.integrals = 0
        self.looked_up = Counter()
        self.computed = Counter()
        self.integrals_in_compute = 0
        self.tables = []
        integrate, recall = quadrature.integrate, quadrature.recall

        def counted_integrate(*args, **kwargs):
            self.integrals += 1
            return integrate(*args, **kwargs)

        def spied_recall(compute, *key):
            self.looked_up[key] += 1

            def counted_compute():
                self.computed[key] += 1
                before = self.integrals
                value = compute()
                self.integrals_in_compute += self.integrals - before
                return value

            return recall(counted_compute, *key)

        @contextmanager
        def kept_memo():
            with memo():
                self.tables.append(quadrature._memo.get())
                yield

        monkeypatch.setattr(quadrature, "integrate", counted_integrate)
        monkeypatch.setattr(thresholds, "recall", spied_recall)
        monkeypatch.setattr(cli, "memo", kept_memo)


def _argv(tmp_path, command):
    if command == "sweep_r":
        return _sweep_r(_dump(tmp_path, DIVERGED))
    if command == "eval_saturated":
        return ["eval", _dump(tmp_path, SATURATED)]
    if command == "eval_spoiler_saturated":
        return ["eval", _dump(tmp_path, SPOILER_SATURATED)]
    return ["figure", command]


@pytest.mark.parametrize(
    "command", ["sweep_r", "fig3", "figg", "eval_saturated", "eval_spoiler_saturated"])
def test_each_distinct_integral_is_integrated_once_per_command(
    tmp_path, capsys, monkeypatch, command
):
    tally = _Tally(monkeypatch)
    assert main(_argv(tmp_path, command)) == 0
    assert set(tally.computed) == set(tally.looked_up)
    assert max(tally.computed.values()) == 1
    # One integrate call per key, and only its first lookup pays for it.
    # Every integral goes through recall: a kernel over a piece that ends at
    # gamma_star or at a kink of the saturated win map is kept like any other.
    assert tally.integrals == tally.integrals_in_compute == len(tally.looked_up)
    assert sum(tally.looked_up.values()) > len(tally.looked_up)
    # The memo holds the kernels and nothing else.
    (table,) = tally.tables
    assert set(table) == set(tally.computed)
    assert {key[0] for key in table} <= {"L", "R"}
    if command == "sweep_r":
        # No kernel depends on r. L and R over the whole line (r_bind's),
        # over both tails (r_star_star's) and over the split piece
        # [-b_R, -b_L] are computed at the first grid point only, and every
        # quantity reads nothing else: delta_second sums over the two tails,
        # which lie on either side of gamma_star, so no kernel pair over
        # [-b_R, gamma_star] is integrated outside the memo.
        pieces = {key[5:7] for key in table}
        assert pieces == {(None, None), (None, -0.3), (-0.3, 0.5), (0.5, None)}
        assert len(table) == 8
    elif command == "eval_spoiler_saturated":
        # worse_off_condition reads the spoiler race's gap over the whole
        # line, the read win_prob_third makes without a referendum, so the
        # whole line's spoiler kernel pair is not integrated beside its
        # stretches.
        assert len(table) == 14
    elif command == "fig3":
        # r_bind's L does not involve b_R: one for all 50 diverged rows.
        assert sum(key[0] == "L" and key[5:7] == (None, None) for key in table) == 1


def test_consecutive_commands_do_the_same_work(tmp_path, capsys, monkeypatch):
    # The memo empties when main returns, so a second identical command is as
    # cold as the first.
    argv = _sweep_r(_dump(tmp_path, DIVERGED), steps=5)
    tally = _Tally(monkeypatch)
    counts = []
    for _ in range(2):
        before = tally.integrals
        assert main(argv) == 0
        counts.append(tally.integrals - before)
    assert counts[0] == counts[1] > 0
    assert quadrature._memo.get() is None


def test_figg_reads_each_moved_piece_once(tmp_path, monkeypatch):
    # Every figg cell is an aligned start under non_binding: one read of the
    # split piece [-b_R, -b_L] gives both deltas, and one of
    # [-b_R, gamma_star] the rest of delta_second. net_benefit is not called.
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(election, "split_at_kinks")
    counted(election, "net_benefit")
    counted(congruence, "net_benefit")
    assert main(["figure", "figg", "--out", str(tmp_path / "figg.csv")]) == 0
    assert calls == {"split_at_kinks": 2 * 24 * 21}


@pytest.mark.parametrize("b_R, regime", [(-0.1, "non_binding"), (0.3, "binding")])
def test_second_delta_integrates_only_the_kernels_it_reads(monkeypatch, b_R, regime):
    # Outside the memo. At mu 0.9 the win map saturates: each piece the delta
    # reads is cut at its kinks, and only the stretch between them takes a
    # kernel pair. From the aligned start those are the split piece
    # [-b_R, -b_L] and [-b_R, gamma_star]; from the diverged one the whole
    # line and [-b_R, gamma_star], as the left tail sits at 0 throughout.
    params = replace(SCENARIO_A, mu=0.9, r=0.52, b_R=b_R)
    tally = _Tally(monkeypatch)
    second_delta(params, ReferendumRegime(regime))
    assert tally.integrals == tally.integrals_in_compute == 4


def test_validate_integrates_no_congruence_delta(tmp_path, monkeypatch):
    # validate prints the emerging issue's congruence levels, not its delta.
    # From this diverged start the delta reads the right tail's kernel pair,
    # which neither level nor either win probability reads.
    sim = {"n_policy_voters": 200, "n_replications": 20, "agent_level": False}
    path = _dump(tmp_path, {**DIVERGED, "sim": sim})
    scenario = load_scenario(path)
    p, nb, quad = scenario.params, ReferendumRegime.NON_BINDING, scenario.quadrature
    tally = _Tally(monkeypatch)
    assert main(["validate", path, "--out", str(tmp_path / "validate.csv")]) == 0
    printed = tally.integrals
    with memo():
        win_prob(p, ReferendumRegime.NO_REFERENDUM, quad)
        win_prob(p, nb, quad)
        second_issue_levels(p, nb, quad)
        assert tally.integrals - printed == printed == 8
        second_delta(p, nb, quad)
        assert tally.integrals - printed == 8 + 2


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def _sweep_values(scenario, var, grid, quantities):
    rows = []
    for value in grid:
        point = cli._rebuild(scenario, var, value)
        row = []
        for q in quantities:
            try:
                row.append(cli._value(point, q))
            except UsageError:  # an empty cell, as in the sweep
                row.append(None)
        rows.append(_bits(row))
    return rows


@pytest.mark.parametrize("var, grid", [
    ("r", [0.3 + 0.0075 * i for i in range(41)]),
    # Both zeros, each twice, among other b_R values.
    ("b_R", [-0.2, 0.0, -0.0, 0.3, 0.0, -0.0, -0.1, 0.3]),
])
def test_sweep_cells_are_the_doubles_computed_without_the_memo(tmp_path, var, grid):
    scenario = load_scenario(_dump(tmp_path, DIVERGED))
    quantities = (*SWEEP_QUANTITIES, "r_star")
    with memo():
        inside = _sweep_values(scenario, var, grid, quantities)
    assert inside == _sweep_values(scenario, var, grid, quantities)


@pytest.mark.parametrize("family", ["normal", "logistic"])
def test_both_zeros_share_one_key(monkeypatch, family):
    # 0.0 == -0.0 and both hash alike, so they share a key. That is exact:
    # outside the memo, each threshold and each kernel is the same double at
    # either zero, and inside it the second zero computes nothing new.
    args = dict(b_L=-0.5, p=0.2, taste=DistributionSpec(family, 0.2), shock=SCENARIO_A.shock)

    def thresholds_at(b_R):
        return _bits([r_bind(b_R=b_R, **args).value, r_star_star(b_R=b_R, **args).value])

    def kernels_at(b_R):
        # r_bind's piece, then r_star_star's two.
        return [
            _bits(thresholds._kernels(args["b_L"], b_R, args["p"], args["taste"],
                                      args["shock"], moved_pieces(args["b_L"], b_R, regime),
                                      quadrature.DEFAULT_QUADRATURE))
            for regime in (ReferendumRegime.BINDING, ReferendumRegime.NON_BINDING)
        ]

    outside = thresholds_at(0.0)
    assert thresholds_at(-0.0) == outside
    assert kernels_at(-0.0) == kernels_at(0.0)
    tally = _Tally(monkeypatch)
    with memo():
        assert thresholds_at(0.0) == outside
        assert len(tally.computed) == 6
        before = tally.integrals
        assert thresholds_at(-0.0) == outside
        assert tally.integrals == before


def test_figure_and_eval_rows_are_the_doubles_computed_without_the_memo(tmp_path):
    quad = quadrature.DEFAULT_QUADRATURE
    fig3 = cli._FIG3_PARAMS

    def fig3_rows():
        return [
            _bits(cli._threshold(fn, replace(fig3, b_R=i / 20), quad)
                  for fn in (r_bind, r_star, r_star_star))
            for i in range(-19, 51)
        ]

    def figg_rows():
        b_R_values = [-(96 - 4 * j) / 100 for j in range(24)]
        r_values = [(30 + 2 * k) / 100 for k in range(21)]
        cells = classify_congruence_region(
            cli._FIGG_PARAMS, b_R_values, r_values, ReferendumRegime.NON_BINDING, quad)
        return [(_bits((c.delta_second, c.delta_traditional)), c.region_flag) for c in cells]

    scenarios = [
        load_scenario(_dump(tmp_path, DIVERGED)),
        load_scenario(_dump(tmp_path, {**DIVERGED, "b_R": -0.1, "third_party": {"v": -0.01}})),
    ]

    def eval_rows():
        return [[(name, _bits([v])) for name, _, v in cli._eval_rows(s)] for s in scenarios]

    for rows in (fig3_rows, figg_rows, eval_rows):
        with memo():
            inside = rows()
        assert inside == rows()


def test_sweep_with_two_workers_prints_the_serial_bytes(tmp_path, capsys):
    argv = _sweep_r(_dump(tmp_path, DIVERGED), steps=9)
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--threads", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_a_failed_integral_is_not_stored():
    # One subdivision is too few for the full-line kernels at the default
    # tolerance; the identical next call must fail again, not hit.
    starved = QuadratureConfig(max_subdivisions=1)
    p = SCENARIO_A
    with memo():
        for _ in range(2):
            with pytest.raises(QuadratureError):
                r_bind(p.b_L, p.b_R, p.p, p.taste, p.shock, starved)
