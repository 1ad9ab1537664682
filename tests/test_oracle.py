"""Finite-agent Monte Carlo oracle: determinism, engine agreement, and the
threshold estimator's honesty."""
from __future__ import annotations

import json
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from refcalc.election import win_prob
from refcalc.congruence import second_issue_congruence
from refcalc.errors import UsageError
from refcalc.model import DistributionSpec, ElectorateParams, PartyPositions, ReferendumRegime
from refcalc.quadrature import QuadratureConfig
from refcalc import model, oracle
from refcalc.oracle import SimConfig, estimate_threshold, simulate, simulate_runs
from refcalc.third_party import ThirdPartyParams, win_prob_third
from refcalc.turnout import TurnoutParams, validate_turnout, win_prob_turnout

from conftest import SCENARIO_A

NO_REF = ReferendumRegime.NO_REFERENDUM
BINDING = ReferendumRegime.BINDING
NON_BINDING = ReferendumRegime.NON_BINDING

SPOILER = ThirdPartyParams(
    base=ElectorateParams(
        r=0.55,
        mu=0.5,
        p=0.2,
        b_L=-0.5,
        b_R=-0.1,
        taste=DistributionSpec("normal", 0.6),
        shock=DistributionSpec("normal", 0.25),
    ),
    v=-0.05,
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

FULL = SimConfig(n_policy_voters=100_000, n_replications=10_000, seed=11)

# Aligned positions (b_R < 0): the non-binding branch takes r_star's side.
ALIGNED = replace(SCENARIO_A, r=0.55, b_R=-0.1)

GOLDEN_PATH = Path(__file__).with_name("oracle_golden.json")


def _z(analytic, result):
    se = max(result.se_win_R, 1e-12)
    return abs(result.win_freq_R - analytic) / se


# ------------------------------------------------------------- determinism


def test_same_seed_same_result():
    cfg = SimConfig(n_policy_voters=5_000, n_replications=400, seed=42)
    a = simulate(SCENARIO_A, NON_BINDING, cfg)
    b = simulate(SCENARIO_A, NON_BINDING, cfg)
    assert a == b


def test_seed_changes_result():
    cfg = SimConfig(n_policy_voters=5_000, n_replications=400, seed=42)
    a = simulate(SCENARIO_A, NON_BINDING, cfg)
    c = simulate(SCENARIO_A, NON_BINDING, replace(cfg, seed=43))
    assert a.win_freq_R != c.win_freq_R


def test_agent_engine_is_deterministic_too():
    cfg = SimConfig(n_policy_voters=800, n_replications=60, seed=9, agent_level=True)
    assert simulate(SCENARIO_A, BINDING, cfg) == simulate(SCENARIO_A, BINDING, cfg)


GOLDEN_TARGETS = [
    ("two_party", "A", SCENARIO_A, (NO_REF, BINDING, NON_BINDING)),
    ("two_party", "aligned", ALIGNED, (NO_REF, BINDING, NON_BINDING)),
    ("third_party", "spoiler", SPOILER, (NO_REF, NON_BINDING)),
    ("turnout", "turnout", TURNOUT, (NO_REF, BINDING)),
]


def _golden_results(
    paired=False, n=400, n_reps=50, seeds=(1, 2**40 + 3), engines=(False, True)
):
    """repr of the SimResult tuple over mode x allowed regime x engine x
    seed, keyed by configuration. With paired, one simulate_runs call per
    target x engine x seed covers all of the target's regimes on shared
    draws. The "sampled" key segment names the tally every run counts: the
    sampled ballots.

    Re-record after an intended change with
    ``json.dump(_golden_results(), open(GOLDEN_PATH, "w"), indent=1)``.
    """
    out = {}
    for mode, name, target, regimes in GOLDEN_TARGETS:
        for agents in engines:
            for seed in seeds:
                cfg = SimConfig(
                    n_policy_voters=n, n_replications=n_reps, seed=seed,
                    mode=mode, agent_level=agents,
                )
                if paired:
                    results = oracle.simulate_runs([(target, r) for r in regimes], cfg)
                else:
                    results = [simulate(target, r, cfg) for r in regimes]
                for regime, res in zip(regimes, results, strict=True):
                    key = "/".join([
                        mode, name, regime.value,
                        "agents" if agents else "counts", "sampled", str(seed),
                    ])
                    out[key] = repr(astuple(res))
    return out


def test_golden_results_are_frozen():
    # Pins the draw order of both engines: any reordering, extra draw or
    # changed float comparison shows up as a changed field.
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = _golden_results()
    assert len(actual) == 40
    assert actual.keys() == golden.keys()
    changed = {k: (golden[k], v) for k, v in actual.items() if golden[k] != v}
    assert not changed, changed


def test_paired_runs_reproduce_the_golden_file():
    # Every result must still be the one a separate simulate call froze.
    assert _golden_results(paired=True) == json.loads(GOLDEN_PATH.read_text())


AGENTS_GOLDEN_PATH = Path(__file__).with_name("oracle_agents_golden.json")

# (n_policy_voters, n_replications, seeds): electorates of one to seven
# voters, where a party or the turnout can be empty, and one full-size case.
AGENTS_GOLDEN_SIZES = [(n, 40, (1, 2**40 + 3)) for n in (1, 2, 3, 7)]
AGENTS_GOLDEN_SIZES.append((10_000, 20, (1,)))


def _agents_golden_results(paired=False):
    """The golden results of the agents engine alone at each of
    AGENTS_GOLDEN_SIZES, keyed by n_policy_voters/golden key. The tiny
    electorates reach the empty-party and no-ballot-cast NaN branches,
    which the 400-voter file does not. Re-record after an intended change
    with
    ``json.dump(_agents_golden_results(), open(AGENTS_GOLDEN_PATH, "w"), indent=1)``.
    """
    out = {}
    for n, n_reps, seeds in AGENTS_GOLDEN_SIZES:
        results = _golden_results(paired, n, n_reps, seeds, engines=(True,))
        out.update({f"{n}/{key}": value for key, value in results.items()})
    return out


@pytest.mark.parametrize("paired", [False, True], ids=["separate", "paired"])
def test_agents_engine_is_frozen_on_tiny_electorates(paired):
    # With one voter every replication has an empty party, and a held
    # turnout measure often draws no ballot at all; the summary skips those
    # NaN replications, so a changed branch shows as a changed mean.
    golden = json.loads(AGENTS_GOLDEN_PATH.read_text())
    actual = _agents_golden_results(paired)
    assert len(actual) == 4 * 20 + 10
    assert actual.keys() == golden.keys()
    changed = {k: (golden[k], v) for k, v in actual.items() if golden[k] != v}
    assert not changed, changed


def _separately(runs, cfg):
    return [
        repr(astuple(simulate(target, regime, replace(cfg, mode=mode))))
        for mode, target, regime in runs
    ]


def _paired(runs, cfg):
    results = oracle.simulate_runs([(target, regime) for _, target, regime in runs], cfg)
    assert [res.mode for res in results] == [mode for mode, _, _ in runs]
    assert [res.regime for res in results] == [regime for _, _, regime in runs]
    return [repr(astuple(res)) for res in results]


@pytest.mark.parametrize("agents", [False, True], ids=["counts", "agents"])
def test_two_party_and_third_party_runs_pair_on_one_electorate(agents):
    # In the agents engine all five runs share one per-voter loop.
    runs = [("two_party", SPOILER.base, r) for r in (NO_REF, BINDING, NON_BINDING)]
    runs += [("third_party", SPOILER, r) for r in (NO_REF, NON_BINDING)]
    cfg = SimConfig(n_policy_voters=500, n_replications=40, seed=3, agent_level=agents)
    assert _paired(runs, cfg) == _separately(runs, cfg)


@pytest.mark.parametrize("agents", [False, True], ids=["counts", "agents"])
def test_paired_results_come_back_in_input_order(agents):
    runs = [
        ("turnout", TURNOUT, BINDING),
        ("two_party", SCENARIO_A, NON_BINDING),
        ("third_party", SPOILER, NON_BINDING),
        ("two_party", ALIGNED, NO_REF),
        ("turnout", TURNOUT, NO_REF),
        ("two_party", SCENARIO_A, NO_REF),
        ("two_party", SPOILER.base, BINDING),
        ("third_party", SPOILER, NO_REF),
        ("two_party", SCENARIO_A, NON_BINDING),
    ]
    cfg = SimConfig(n_policy_voters=500, n_replications=40, seed=8, agent_level=agents)
    assert _paired(runs, cfg) == _separately(runs, cfg)


def test_runs_at_the_same_positions_match_separate_calls():
    # With a near-degenerate shock every non-binding tally of the spoiler
    # electorate (about 0.33) stays below both cuts (about 0.39 and 0.64),
    # so all four runs leave the majors at their initial positions (0, 0)
    # in every replication and the agents engine decides the major-party
    # choice once for all of them.
    quiet = replace(SPOILER, base=replace(SPOILER.base, shock=DistributionSpec("normal", 1e-4)))
    runs = [("two_party", quiet.base, r) for r in (NO_REF, NON_BINDING)]
    runs += [("third_party", quiet, r) for r in (NO_REF, NON_BINDING)]
    cfg = SimConfig(n_policy_voters=2_000, n_replications=40, seed=4, agent_level=True)
    assert _paired(runs, cfg) == _separately(runs, cfg)
    two_no, two_nb, third_no, third_nb = oracle.simulate_runs(
        [(target, regime) for _, target, regime in runs], cfg
    )
    for no_ref, non_binding in ((two_no, two_nb), (third_no, third_nb)):
        assert math.isnan(no_ref.referendum_y1_share)
        assert non_binding.referendum_y1_share < 0.36
        for field in ("win_freq_R", "win_freq_T", "ahead_freq_R", "congruence_x"):
            assert getattr(no_ref, field) == getattr(non_binding, field), field


@pytest.mark.parametrize(
    "agents, streams", [(False, 4), (True, 2 * 10)], ids=["counts", "agents"]
)
def test_runs_on_one_stream_are_drawn_once(agents, streams, monkeypatch):
    # validate's six runs on a scenario with both extension blocks. The
    # counts engine pairs regimes within a mode, except a held turnout
    # measure, which draws different cells: 4 streams, not 6. The agents
    # engine draws the electorate once for the four ballot runs and once for
    # the turnout runs: 2 streams per replication, not 6.
    made = []

    def philox(*args, _philox=np.random.Philox):
        made.append(args)
        return _philox(*args)

    monkeypatch.setattr(np.random, "Philox", philox)
    runs = [(TURNOUT.base, NO_REF), (TURNOUT.base, NON_BINDING)]
    runs += [(replace(SPOILER, base=TURNOUT.base), r) for r in (NO_REF, NON_BINDING)]
    runs += [(TURNOUT, r) for r in (NO_REF, BINDING)]
    cfg = SimConfig(n_policy_voters=200, n_replications=10, seed=1, agent_level=agents)
    assert len(oracle.simulate_runs(runs, cfg)) == 6
    assert len(made) == streams


# ---------------------------------------------------------- the race rule


_TIE_COINS = (0.25, math.nextafter(0.5, 0.0), 0.5, 0.75)


def _is_bool(value):
    return type(value) in (bool, np.bool_)


def test_race_gives_an_exact_right_left_tie_to_the_coin():
    # Three votes each and an even noise split: the shares tie exactly.
    coin = np.array(_TIE_COINS)
    votes = np.full(4, 3)
    win_R, win_T, ahead_R = oracle._race(0.5, 6, np.full(4, 0.5), coin, votes, votes, 0)
    assert ahead_R.tolist() == win_R.tolist() == [True, True, False, False]
    assert not win_T.any()
    for c, expected in zip(_TIE_COINS, (True, True, False, False)):
        assert oracle._race(0.5, 6, 0.5, c, 3, 3, 0) == (expected, False, expected)


# (votes_right, votes_left, votes_third) with mu = 1, so shares are vote
# shares: (win_R, win_T, ahead_R) at coin 0.25.
_SPOILER_RACES = [
    ((4, 1, 4), (True, False, True)),    # ties Right at the top
    ((1, 4, 4), (False, False, False)),  # ties Left at the top
    ((3, 3, 3), (True, False, True)),    # three-way tie: the coin picks Right
    ((3, 2, 4), (False, True, True)),    # one vote more wins
]


def test_race_spoiler_loses_an_exact_tie_with_either_major():
    votes = np.array([v for v, _ in _SPOILER_RACES]).T
    coin = np.full(len(_SPOILER_RACES), 0.25)
    arrays = oracle._race(1.0, 9, np.full(len(_SPOILER_RACES), 0.4), coin, *votes)
    assert [tuple(col) for col in zip(*(a.tolist() for a in arrays))] == [
        expected for _, expected in _SPOILER_RACES
    ]
    for v, expected in _SPOILER_RACES:
        assert oracle._race(1.0, 9, 0.4, 0.25, *v) == expected


def test_race_without_spoiler_votes_is_the_two_way_race():
    rng = np.random.default_rng(3)
    n = 10
    votes_right = rng.integers(0, n + 1, 500)
    eta = rng.choice([0.5, rng.random()], 500)
    win_R, win_T, ahead_R = oracle._race(
        0.5, n, eta, rng.random(500), votes_right, n - votes_right, 0
    )
    assert win_R.dtype == win_T.dtype == ahead_R.dtype == bool
    assert not win_T.any()
    assert np.array_equal(win_R, ahead_R)
    assert 0 < win_R.sum() < 500


@pytest.mark.parametrize("votes", [(4, 2, 0), (2, 4, 0), (3, 3, 0), (3, 2, 4), (1, 4, 4)])
@pytest.mark.parametrize("eta", [0.5, np.float64(0.5)])
def test_race_on_scalars_returns_booleans(votes, eta):
    # The agents engine passes Python ints and floats; ~True would be -2.
    for coin in _TIE_COINS:
        race = oracle._race(0.5, 6, eta, coin, *votes)
        assert all(_is_bool(value) for value in race), race
        win_R, win_T, ahead_R = race
        assert win_R == (ahead_R and not win_T)


# ------------------------------------------- analytic vs simulated (3 SE)


@pytest.mark.parametrize("regime", [NO_REF, BINDING, NON_BINDING])
def test_two_party_matches_analytic(regime):
    res = simulate(SCENARIO_A, regime, FULL)
    analytic = win_prob(SCENARIO_A, regime)
    assert _z(analytic, res) < 3.0


@pytest.mark.parametrize("agents", [False, True], ids=["counts", "agents"])
def test_oracle_states_its_own_starting_positions(agents, monkeypatch):
    # win_prob reads the starting positions from model.shock_pieces; the
    # oracle must not, or a fault in that row would cancel out in validate.
    # On SCENARIO_A, the benchmark's diverged electorate, the fault below
    # moved win_freq_R from 0.375 to 0.400 (counts) and 0.410 (agents).
    cfg = SimConfig(n_policy_voters=2000, n_replications=200, seed=3, agent_level=agents)
    honest = simulate(SCENARIO_A, NO_REF, cfg)
    rule = model.shock_pieces

    def both_start_at_zero(b_L, b_R, regime):
        if regime is NO_REF:
            return ((None, None, PartyPositions(0, 0)),)
        return rule(b_L, b_R, regime)

    monkeypatch.setattr(model, "shock_pieces", both_start_at_zero)
    assert simulate(SCENARIO_A, NO_REF, cfg) == honest


def test_two_party_congruence_matches_analytic():
    res = simulate(SCENARIO_A, NON_BINDING, FULL)
    rep = second_issue_congruence(SCENARIO_A, NON_BINDING)
    z = abs(res.congruence_y - rep.prob_with_ref) / max(res.se_congruence_y, 1e-12)
    assert z < 3.0


@pytest.mark.parametrize("agents", [False, True], ids=["counts", "agents"])
@pytest.mark.parametrize("target, regime", [
    (SCENARIO_A, NO_REF), (SCENARIO_A, BINDING), (SCENARIO_A, NON_BINDING),
    (TURNOUT, NO_REF), (TURNOUT, BINDING),
], ids=["two_party-no_ref", "two_party-binding", "two_party-non_binding",
        "turnout-no_ref", "turnout-binding"])
def test_races_without_a_spoiler_keep_the_no_spoiler_invariants(target, regime, agents):
    # _race with 0 spoiler votes: nobody but the majors wins, and Right wins
    # exactly when it is ahead of Left.
    cfg = SimConfig(n_policy_voters=2_000, n_replications=200, seed=7, agent_level=agents)
    (res,) = simulate_runs([(target, regime)], cfg)
    assert res.win_freq_T == 0.0
    assert res.ahead_freq_R == res.win_freq_R
    assert res.win_freq_L == pytest.approx(1.0 - res.win_freq_R, abs=1e-12)


@pytest.mark.parametrize("held, regime", [(False, NO_REF), (True, NON_BINDING)])
def test_third_party_matches_analytic(held, regime):
    cfg = replace(FULL, mode="third_party")
    res = simulate(SPOILER, regime, cfg)
    assert (res.regime is not NO_REF) is held
    assert _z(win_prob_third(SPOILER, regime), res) < 3.0
    assert res.win_freq_R + res.win_freq_L + res.win_freq_T == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("held, regime", [(False, NO_REF), (True, BINDING)])
def test_turnout_matches_analytic(held, regime):
    cfg = replace(FULL, mode="turnout")
    res = simulate(TURNOUT, regime, cfg)
    assert (res.regime is not NO_REF) is held
    assert _z(win_prob_turnout(TURNOUT, regime), res) < 3.0


def test_turnout_participation_levels():
    cfg = replace(FULL, mode="turnout")
    quiet = simulate(TURNOUT, NO_REF, cfg)
    loud = simulate(TURNOUT, BINDING, cfg)
    # Without the measure every policy voter's stake is p: participation p/c_bar.
    expected = TURNOUT.base.p / TURNOUT.c_bar
    assert quiet.turnout_freq_R == pytest.approx(expected, abs=5e-4)
    assert quiet.turnout_freq_L == pytest.approx(expected, abs=5e-4)
    # The ballot measure mobilizes both parties.
    assert loud.turnout_freq_R > quiet.turnout_freq_R
    assert loud.turnout_freq_L > quiet.turnout_freq_L


def test_binding_congruence_is_exactly_one():
    # Whatever the tally, a binding vote implements the tally's majority.
    cfg = SimConfig(n_policy_voters=2_000, n_replications=300, seed=5)
    res = simulate(SCENARIO_A, BINDING, cfg)
    assert res.congruence_y == 1.0
    assert res.se_congruence_y == 0.0


# ------------------------------------------------- engine cross-validation


@pytest.mark.parametrize(
    "label, target, regime, mode",
    [
        ("two_party", SCENARIO_A, NON_BINDING, "two_party"),
        ("third_party", SPOILER, NON_BINDING, "third_party"),
        ("turnout", TURNOUT, BINDING, "turnout"),
    ],
)
def test_agents_and_counts_engines_agree(label, target, regime, mode):
    counts_cfg = SimConfig(
        n_policy_voters=3_000, n_replications=300, seed=17, mode=mode
    )
    agents_cfg = replace(counts_cfg, agent_level=True)
    a = simulate(target, regime, counts_cfg)
    b = simulate(target, regime, agents_cfg)
    joint = math.sqrt(a.se_win_R**2 + b.se_win_R**2)
    assert abs(a.win_freq_R - b.win_freq_R) < 3.0 * max(joint, 1e-12), label


# ------------------------------------------------------------- convergence


def test_standard_error_halves_with_quadrupled_budget():
    # With a nearly degenerate shock the tally share's variance is pure
    # finite-sample noise, so its standard error scales as 1/sqrt(n R):
    # doubling both n and R should halve it, within 20 percent.
    params = replace(
        SCENARIO_A,
        shock=DistributionSpec("normal", 1e-4),
        taste=DistributionSpec("normal", 1.0),
    )
    small = simulate(
        params, NON_BINDING, SimConfig(n_policy_voters=2_000, n_replications=500, seed=7)
    )
    large = simulate(
        params,
        NON_BINDING,
        SimConfig(n_policy_voters=4_000, n_replications=1_000, seed=7),
    )
    ratio = large.se_referendum_y1_share / small.se_referendum_y1_share
    assert 0.4 < ratio < 0.6


# ------------------------------------------------------ threshold recovery


def test_estimate_r_bind_brackets_analytic():
    target = ElectorateParams(
        r=0.5, mu=0.5, p=0.05, b_L=-1.0, b_R=0.5,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    cfg = SimConfig(n_policy_voters=20_000, n_replications=2_000, seed=0)
    est = estimate_threshold(target, "r_bind", cfg)
    assert est.flags == ()
    # FROZEN scipy: r_bind = 0.3582516326965752.
    assert est.ci_low < 0.3582516326965752 < est.ci_high
    assert est.evaluations > 2


def test_estimate_r_T_brackets_analytic():
    cfg = SimConfig(n_policy_voters=20_000, n_replications=2_000, seed=0, mode="turnout")
    # mu = 0.6 narrows the admissible r band to (1/6, 5/6); the default
    # bracket leaves it, so pass one inside.
    est = estimate_threshold(TURNOUT, "r_T", cfg, bracket=(0.25, 0.75))
    # FROZEN scipy: r_T = 0.5346722369893764.
    assert est.ci_low < 0.5346722369893764 < est.ci_high


def test_estimate_threshold_reports_missing_sign_change():
    target = ElectorateParams(
        r=0.5, mu=0.5, p=0.05, b_L=-1.0, b_R=0.5,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    cfg = SimConfig(n_policy_voters=5_000, n_replications=500, seed=0)
    est = estimate_threshold(target, "r_bind", cfg, bracket=(0.6, 0.9))
    assert est.flags == ("no_sign_change_in_bracket",)
    assert est.value == 0.6
    assert est.evaluations == 2


def test_estimate_threshold_reports_a_bracket_wholly_below_the_threshold():
    # Below r_bind (FROZEN 0.3582516326965752) a binding referendum costs
    # Right, so the net benefit has one sign on (0.1, 0.2) and the estimate
    # is the bracket's upper end, flagged.
    target = ElectorateParams(
        r=0.5, mu=0.5, p=0.05, b_L=-1.0, b_R=0.5,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    cfg = SimConfig(n_policy_voters=5_000, n_replications=500, seed=0)
    est = estimate_threshold(target, "r_bind", cfg, bracket=(0.1, 0.2))
    assert est.flags == ("no_sign_change_in_bracket",)
    assert est.value == 0.2
    assert est.ci_low < 0.2 < est.ci_high
    assert est.evaluations == 2


def test_simulate_runs_rejects_a_target_it_cannot_simulate(monkeypatch):
    # Every run is checked before the first draw.
    def no_draws(*args):
        raise AssertionError("drew before checking every target")

    monkeypatch.setattr(oracle.np.random, "Philox", no_draws)
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0)
    for target in (SCENARIO_A.taste, "two_party"):
        with pytest.raises(UsageError, match=f"^cannot simulate a {type(target).__name__}$"):
            simulate_runs([(SCENARIO_A, NO_REF), (target, NO_REF)], cfg)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_estimate_threshold_rejects_a_tolerance_that_is_not_finite_and_positive(
    tol, monkeypatch
):
    # tol=0 used to bisect forever once lo and hi were adjacent floats, and a
    # NaN tol skipped the bisection; both are rejected before any simulation.
    def no_simulation(*args):
        raise AssertionError("simulated before checking tol")

    monkeypatch.setattr(oracle, "_arrays", no_simulation)
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0)
    with pytest.raises(UsageError, match="tol"):
        estimate_threshold(SCENARIO_A, "r_bind", cfg, tol=tol)


@pytest.mark.parametrize("bracket", [(0.1, 0.9), (0.1, 0.5), (0.5, 0.9)])
def test_estimate_threshold_rejects_a_bracket_outside_the_competitiveness_band(
    bracket, monkeypatch
):
    # mu = 0.6 allows only 1/6 < r < 5/6. The default bracket used to fail at
    # the first draw, with a message about the electorate, not the bracket.
    def no_simulation(*args):
        raise AssertionError("simulated before checking the bracket")

    monkeypatch.setattr(oracle, "_arrays", no_simulation)
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0, mode="turnout")
    with pytest.raises(UsageError, match=r"^bracket .* competitiveness band \(0\.166667, 0\.833333\)"):
        estimate_threshold(TURNOUT, "r_T", cfg, bracket=bracket)


@pytest.mark.parametrize("changes", [{"n_policy_voters": 0}, {"seed": -1}])
def test_estimate_threshold_validates_its_config(changes):
    # It used to skip the SimConfig checks: no voters gave a bracket-wide
    # estimate, and a negative seed a bare ValueError from numpy.
    with pytest.raises(UsageError):
        cfg = replace(SimConfig(n_policy_voters=100, n_replications=10, seed=0), **changes)
        estimate_threshold(SCENARIO_A, "r_bind", cfg)


@pytest.mark.parametrize("field", ["n_policy_voters", "n_replications", "seed"])
def test_sim_config_rejects_a_bool_for_a_size_or_seed(field):
    # bool is an int subclass: True used to run as one voter or seed 1, and
    # as a replication count failed in numpy with a bare TypeError.
    with pytest.raises(UsageError, match=field):
        SimConfig(**{field: True})


def test_sim_config_rejects_a_non_bool_engine_switch():
    # "no" is truthy: unchecked, it would run the agents engine.
    with pytest.raises(UsageError, match="agent_level must be true or false, got 'no'"):
        SimConfig(agent_level="no")


def test_estimate_threshold_stops_at_adjacent_floats():
    # A tolerance below the float spacing of the bracket still terminates.
    target = ElectorateParams(
        r=0.5, mu=0.5, p=0.05, b_L=-1.0, b_R=0.5,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    cfg = SimConfig(n_policy_voters=2_000, n_replications=50, seed=0)
    est = estimate_threshold(target, "r_bind", cfg, bracket=(0.1, 0.9), tol=1e-300)
    assert est.flags == ()
    assert est.evaluations < 80


def test_estimate_threshold_rejects_unknown_quantity():
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0)
    with pytest.raises(UsageError):
        estimate_threshold(SCENARIO_A, "r_nonsense", cfg)
    with pytest.raises(UsageError):
        estimate_threshold(SCENARIO_A, "r_T", cfg)  # wrong mode for quantity
    with pytest.raises(UsageError):
        estimate_threshold(SPOILER, "r_star", cfg)  # wrong target for the mode
    with pytest.raises(UsageError):
        estimate_threshold(SCENARIO_A, "r_bind", cfg, bracket=(0.9, 0.1))


# ------------------------------------------------------------ input checks


def test_mode_and_target_must_match():
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0)
    with pytest.raises(UsageError):
        simulate(SPOILER, NO_REF, cfg)
    with pytest.raises(UsageError):
        simulate(SCENARIO_A, NO_REF, replace(cfg, mode="third_party"))
    with pytest.raises(UsageError):
        simulate(TURNOUT, NO_REF, replace(cfg, mode="two_party"))


@pytest.mark.parametrize("regime", [NO_REF, BINDING, NON_BINDING, "binding"])
@pytest.mark.parametrize("mode", ["two_party", "third_party", "turnout"])
def test_analytic_side_and_oracle_accept_the_same_regimes(mode, regime):
    target, analytic = {
        "two_party": (SCENARIO_A, win_prob),
        "third_party": (SPOILER, win_prob_third),
        "turnout": (TURNOUT, win_prob_turnout),
    }[mode]
    cfg = SimConfig(n_policy_voters=50, n_replications=5, seed=0, mode=mode)
    loose = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    outcomes = []
    for run in (lambda: analytic(target, regime, loose), lambda: simulate(target, regime, cfg)):
        try:
            run()
            outcomes.append("returned")
        except UsageError:
            outcomes.append("raised")
    assert outcomes[0] == outcomes[1], outcomes
    # No binding referendum with a spoiler, no non-binding same-day measure.
    unsupported = (
        not isinstance(regime, ReferendumRegime)
        or (mode, regime) in (("third_party", BINDING), ("turnout", NON_BINDING))
    )
    assert outcomes[0] == ("raised" if unsupported else "returned")


def test_unsupported_regime_mode_pairs():
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0)
    with pytest.raises(UsageError):
        simulate(SPOILER, BINDING, replace(cfg, mode="third_party"))
    with pytest.raises(UsageError):
        simulate(TURNOUT, NON_BINDING, replace(cfg, mode="turnout"))


def test_turnout_cost_ceiling_guard():
    # p + sigma + kappa + max|b_J| = 5.0: some stakes would exceed the cost cap.
    cheap = replace(TURNOUT, c_bar=4.5)
    assert any("participation probability" in v for v in validate_turnout(cheap))
    cfg = SimConfig(n_policy_voters=100, n_replications=10, seed=0, mode="turnout")
    with pytest.raises(UsageError) as exc:
        simulate(cheap, BINDING, cfg)
    assert "participation probability" in str(exc.value)


def test_sim_config_validation():
    with pytest.raises(UsageError):
        simulate(SCENARIO_A, NO_REF, SimConfig(n_policy_voters=0, n_replications=10, seed=0))
    with pytest.raises(UsageError):
        simulate(SCENARIO_A, NO_REF, SimConfig(n_policy_voters=10, n_replications=0, seed=0))
    with pytest.raises(UsageError):
        simulate(SCENARIO_A, NO_REF, SimConfig(n_policy_voters=10, n_replications=10, seed=-1))
    with pytest.raises(UsageError):
        simulate(
            SCENARIO_A, NO_REF,
            SimConfig(n_policy_voters=10, n_replications=10, seed=0, mode="four_party"),
        )
