"""The per-command integral memo (quadrature.memo / quadrature.recall_pair).

The CLI runs every command inside quadrature.memo(), where the kernels of
thresholds (the cohesion kernels and turnout's intensities), and only they,
are looked up before they are integrated, in pairs (recall_pair); the
thresholds, the win integrals, the congruence deltas and the turnout
quantities read them alike. Keys compare by ==, so 0.0 and -0.0 share one. These tests
pin what that may and may not change: each distinct kernel is integrated
once per command, a pair half kept integrates only its missing kernel, no
integral is computed outside recall_pair, the memo stores nothing else, every
value is the very double computed outside the memo (at either zero), nothing
survives the command, and a failure is never stored. Five counts pin what
is read: figg reads each moved piece of a cell once, second_delta integrates
no kernel pair it does not use, the emerging-issue report integrates each
kernel pair of its level and delta once, validate integrates each distinct
kernel once, a saturated spoiler eval reads the spoiler race's whole line
once, a sweep point or an eval walks its gain once, and a turnout eval
integrates its two intensities in one pair, which a turnout sweep over r,
mu, p or c_bar integrates at its first point only.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from refcalc import cli, congruence, election, quadrature, thresholds
from refcalc.cli import main
from refcalc.congruence import (
    classify_congruence_region,
    second_delta,
    second_issue_congruence,
)
from refcalc.errors import QuadratureError, UsageError
from refcalc.model import DistributionSpec, ReferendumRegime, moved_pieces
from refcalc.quadrature import memo
from refcalc.scenario import load_scenario
from refcalc.thresholds import gamma_star, r_bind, r_star, r_star_star

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
# The benchmark's turnout scenario.
TURNOUT = {
    "r": 0.55, "mu": 0.6, "p": 0.2, "b_L": -0.8, "b_R": -0.4,
    "taste": {"family": "normal", "scale": 1.2},
    "shock": {"family": "normal", "scale": 0.3},
    "regime": "binding",
    "turnout": {"c_bar": 6.0, "sigma": 3.0, "kappa": 1.0},
    "quadrature": {"abs_tol": 1e-7, "rel_tol": 1e-6},
}


def _dump(tmp_path, scn):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    return str(path)


def _sweep_r(path, steps=41):
    return ["sweep", path, "--var", "r", "--from", "0.3", "--to", "0.6",
            "--steps", str(steps), "--quantities", ",".join(SWEEP_QUANTITIES)]


class _Tally:
    """Counts kernel integrals, one per quadrature.integrate call and two per
    integrate_shock_pair call, and per key the lookups and computations that
    go through the kernels' recall_pair, and lists the key pairs integrated
    in one pass. Keeps the table of each memo the CLI enters."""

    def __init__(self, monkeypatch):
        self.integrals = 0
        self.pairs = 0
        self.looked_up = Counter()
        self.computed = Counter()
        self.paired = []
        self.integrals_in_compute = 0
        self.tables = []
        integrate, pair = quadrature.integrate, thresholds.integrate_shock_pair
        recall_pair = quadrature.recall_pair

        def counted_integrate(*args, **kwargs):
            self.integrals += 1
            return integrate(*args, **kwargs)

        def counted_pair(*args, **kwargs):
            self.integrals += 2
            self.pairs += 1
            return pair(*args, **kwargs)

        def in_compute(compute, *args):
            before = self.integrals
            value = compute(*args)
            self.integrals_in_compute += self.integrals - before
            return value

        def spied_recall_pair(compute, compute_one, key_a, key_b):
            self.looked_up.update((key_a, key_b))

            def counted_compute():
                self.computed.update((key_a, key_b))
                self.paired.append((key_a, key_b))
                return in_compute(compute)

            def counted_one(*key):
                self.computed[key] += 1
                return in_compute(compute_one, *key)

            return recall_pair(counted_compute, counted_one, key_a, key_b)

        @contextmanager
        def kept_memo():
            with memo():
                self.tables.append(quadrature._memo.get())
                yield

        monkeypatch.setattr(quadrature, "integrate", counted_integrate)
        monkeypatch.setattr(thresholds, "integrate_shock_pair", counted_pair)
        monkeypatch.setattr(thresholds, "recall_pair", spied_recall_pair)
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
        # No kernel depends on r. L and R over the whole line (r_bind's and
        # the win probability's) and over both tails (r_star_star's and the
        # net benefit's) are computed at the first grid point only, and every
        # quantity reads nothing else: the win probability with a referendum
        # is the whole-line read plus the net benefit, so the split piece
        # [-b_R, -b_L], whose positions the referendum keeps, is not read,
        # and delta_second sums over the two tails, which lie on either side
        # of gamma_star, so no kernel pair over [-b_R, gamma_star] is
        # integrated outside the memo.
        pieces = {key[5:7] for key in table}
        assert pieces == {(None, None), (None, -0.3), (0.5, None)}
        assert len(table) == 6
    elif command == "eval_spoiler_saturated":
        # worse_off_condition reads the spoiler race's gap over the whole
        # line, the read win_prob_third makes with or without a referendum,
        # so the whole line's spoiler kernel pair is not integrated beside
        # its stretches, and no spoiler pair is integrated over the left
        # tail (-inf, -b_R], whose positions the referendum keeps.
        assert len(table) == 12
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


# (start, regime, integrals outside memo(), integrals inside it) of the
# emerging-issue report on SCENARIO_A. From the aligned start the level is
# G(gamma_star) and reads nothing, and the delta reads the kernel pairs over
# [-b_R, -b_L] and [-b_R, gamma_star]. From the diverged start the level
# reads the pairs over the whole line, (-inf, -b_R] and [-b_R, gamma_star];
# the binding delta is 1 less it, and the non-binding delta reads both
# tails, of which the memo keeps (-inf, -b_R] from the level.
REPORT_READS = [
    (-0.1, "non_binding", 4, 4),
    (0.3, "binding", 6, 6),
    (0.3, "non_binding", 10, 8),
]


@pytest.mark.parametrize("b_R, regime, outside, inside", REPORT_READS)
def test_the_emerging_report_integrates_each_kernel_pair_once(
    monkeypatch, b_R, regime, outside, inside
):
    params, regime = replace(SCENARIO_A, b_R=b_R), ReferendumRegime(regime)
    tally = _Tally(monkeypatch)
    second_issue_congruence(params, regime)
    assert tally.integrals == tally.integrals_in_compute == outside
    with memo():
        second_issue_congruence(params, regime)
    assert tally.integrals - outside == inside


def test_validate_integrates_each_distinct_kernel_once(tmp_path, monkeypatch):
    # validate prints both win probabilities and both emerging-issue levels,
    # and each level with a non-binding referendum is the level without it
    # plus its gain. From this diverged start that is the kernel pairs over
    # the whole line, (-inf, -b_R] and [-b_R, gamma_star], which the levels
    # without it read, and the right tail [-b_L, inf), which only the gains
    # read; the split piece [-b_R, -b_L], whose positions the referendum
    # keeps, is not read.
    sim = {"n_policy_voters": 200, "n_replications": 20, "agent_level": False}
    path = _dump(tmp_path, {**DIVERGED, "sim": sim})
    tally = _Tally(monkeypatch)
    assert main(["validate", path, "--out", str(tmp_path / "validate.csv")]) == 0
    assert max(tally.computed.values()) == 1
    assert tally.integrals == tally.integrals_in_compute == len(tally.looked_up) == 8
    (table,) = tally.tables
    assert {key[5:7] for key in table} == {
        (None, None), (None, -0.3), (-0.3, gamma_star(load_scenario(path).params).value), (0.5, None),
    }


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def _sweep_values(scenario, var, grid, quantities):
    rows = []
    for value in grid:
        point = cli._Point(cli._rebuild(scenario, var, value))
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


def test_a_failed_integral_is_not_stored(monkeypatch):
    # One subdivision is too few for the full-line kernels at the default
    # tolerance; the identical next call must fail again, not hit.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    p = SCENARIO_A
    with memo():
        for _ in range(2):
            with pytest.raises(QuadratureError):
                r_bind(p.b_L, p.b_R, p.p, p.taste, p.shock)


@pytest.mark.parametrize("command, points", [("sweep_r", 41), ("eval", 1), ("eval_knife_edge", 1)])
def test_a_point_walks_its_gain_once(tmp_path, capsys, monkeypatch, command, points):
    # A sweep point's win_prob, net_benefit and delta_traditional, and an
    # eval's win probabilities, net benefit and traditional congruence rows,
    # all read the point's one gain walk over the moved pieces
    # (cli._Point.gain). A walk under no referendum moves nothing.
    walked = []
    gain_walk = election._gain_walk

    def counted(params, regime, *args):
        if regime is not ReferendumRegime.NO_REFERENDUM:
            walked.append(params.r)
        return gain_walk(params, regime, *args)

    monkeypatch.setattr(election, "_gain_walk", counted)
    if command == "sweep_r":
        argv = _sweep_r(_dump(tmp_path, DIVERGED))
    else:
        argv = ["eval", _dump(tmp_path, {**DIVERGED, "r": 0.5} if "knife" in command else DIVERGED)]
    assert main(argv) == 0
    assert len(walked) == len(set(walked)) == points


def test_a_half_kept_pair_integrates_only_its_missing_kernel(tmp_path, capsys, monkeypatch):
    # r_bind's L over the whole line does not involve b_R: along a b_R sweep
    # it is kept from the first point on, so each later point integrates its
    # whole-line R alone instead of the pair.
    argv = ["sweep", _dump(tmp_path, DIVERGED), "--var", "b_R", "--from", "0", "--to", "0.4",
            "--steps", "5", "--quantities", "r_bind"]
    tally = _Tally(monkeypatch)
    assert main(argv) == 0
    assert tally.pairs == 1
    assert tally.integrals == tally.integrals_in_compute == len(tally.computed) == 2 + 4
    assert max(tally.computed.values()) == 1
    (L,) = [key for key in tally.looked_up if key[0] == "L"]
    assert L[1:3] == (-0.5, 0.2) and L[5:7] == (None, None)
    assert tally.looked_up[L] == 5
    assert sorted(key[1] for key in tally.computed if key[0] == "R") == [i * 0.1 for i in range(5)]


def test_a_turnout_eval_integrates_its_two_intensities_in_one_pair(tmp_path, capsys, monkeypatch):
    # r_T, the win probability with the measure and the net benefit all read
    # I(b_L) and I(b_R): one kernel pair of the "A" form, integrated in one
    # pass over the truncated shock and kept for the rest of the command.
    # The two-party rows read their L and R kernels as before.
    tally = _Tally(monkeypatch)
    assert main(["eval", _dump(tmp_path, TURNOUT)]) == 0
    assert max(tally.computed.values()) == 1
    assert tally.integrals == tally.integrals_in_compute == len(tally.looked_up)
    [(key_L, key_R)] = [pair for pair in tally.paired if pair[0][0] == "A"]
    assert [key for key in tally.computed if key[0] == "A"] == [key_L, key_R]
    # The key holds what the intensity reads, b_J, the truncated taste and
    # shock and the config, and no p.
    assert key_L[1:3] == (-0.8, None) and key_R[1:3] == (-0.4, None)
    # r_T, net_benefit_turnout and win_prob_turnout's net benefit.
    assert tally.looked_up[key_L] == tally.looked_up[key_R] == 3


@pytest.mark.parametrize("var, lo, hi", [
    ("r", "0.4", "0.7"), ("mu", "0.3", "0.8"), ("p", "0.1", "0.7"), ("c_bar", "5.5", "8"),
])
def test_a_turnout_sweep_integrates_the_intensity_pair_at_its_first_point(
    tmp_path, capsys, monkeypatch, var, lo, hi
):
    # No intensity reads r, mu, p or c_bar, so a sweep over any of them reads
    # the pair its first point integrated.
    argv = ["sweep", _dump(tmp_path, TURNOUT), "--var", var, "--from", lo, "--to", hi,
            "--steps", "7", "--quantities", "r_T,net_benefit_turnout"]
    tally = _Tally(monkeypatch)
    assert main(argv) == 0
    assert tally.pairs == 1 and tally.integrals == tally.integrals_in_compute == 2
    assert len(tally.paired) == 1
    assert set(tally.computed) == set(tally.looked_up) == set(tally.paired[0])
    assert all(n == 2 * 7 for n in tally.looked_up.values())
