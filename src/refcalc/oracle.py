"""Finite-agent Monte Carlo ground truth for the analytic formulas.

Every probability the analytic modules compute by quadrature is re-derived
here by brute force: draw a finite electorate, let everyone vote, count. Two
engines share the downstream accounting:

* the default counts engine draws sufficient statistics per replication
  (shock, noise share, party split, then multinomial cell counts over the
  relevant taste intervals), which is distributionally identical to drawing
  voters one by one but runs vectorized across replications;
* the agents engine (agent_level=True) materializes every voter in one
  per-voter loop shared by all modes and decides each ballot explicitly:
  utility comparison between the majors, plus the spoiler's utility in
  third_party mode, or stake against cost in turnout mode. No interval
  algebra enters a sampled ballot. It is meant for cross-checking the
  counts engine at small sizes: at 10^4 voters a replication takes
  about 0.5 ms for the two-party runs and 0.6 ms with a spoiler or
  turnout on a shared 2-vCPU x86 host (Python 3.11, numpy 2.4, scipy 1.17).
  Nearly all of it is the per-voter draws: Philox at about 0.09 ms per
  10^4 doubles, drawn two or three times, and the erfcinv quantile at
  about 0.2 ms (at most about 0.01 ms more truncated).

Determinism contract. Every run draws from Philox streams seeded with
config.seed alone. The counts engine uses a single stream per run; the draw
order is fixed: shock uniforms, noise shares, party counts (the prologue all
kernels share), mode-specific cell counts (listed in each kernel), tie coins.
The agents engine gives replication k its own Philox stream from
SeedSequence((seed, k + 1)); per replication the order is shock uniform,
noise share, party uniforms, taste uniforms, cost uniforms (turnout only),
tie coin. Identical config (seed included) therefore yields bit-identical
results regardless of how replications are scheduled.

simulate_runs draws each stream its runs share once and decides every
run's ballots on it, so a paired run's result is byte-identical to a
separate simulate call. Counts engine: the two_party runs of one
ElectorateParams share a stream, as do the third_party runs of one
ThirdPartyParams; each turnout run keeps its own, as a held measure draws
different cells. Agents engine: the two_party and third_party runs on one
electorate (target or target.base, compared with ==) share one, as do the
turnout runs of one TurnoutParams.

Every election, in both engines and every mode, is decided by one race
rule, _race: noise voters split eta : 1 - eta between the majors, an exact
Right-Left tie falls to a fair coin from the stream, and a spoiler loses
exact vote ties to either major. The two-party and turnout races are the
spoiler race with no spoiler votes. Other tie conventions: indifferent
voters vote their own party; referendum tallies at exactly the threshold
count as yes. Every referendum-derived quantity (tally or cast share,
inferred positions, outcome, latent majority) is read off the sampled
ballots, in both engines and every mode. The oracle states the position rule
itself (_position_cuts) and reads one model curve, referendum_support, at -b_J
for the non-binding cuts; the analytic modules read it only for gamma_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ElectorateParams,
    ReferendumRegime,
    competitive_band,
    referendum_support,
    require_regime,
    require_valid,
)
from .errors import UsageError
from .third_party import ThirdPartyParams, require_valid_third
from .turnout import TurnoutParams, require_valid_turnout

_TINY = 1e-16  # keeps quantile-transform arguments strictly inside (0, 1)


@dataclass(frozen=True)
class SimConfig:
    n_policy_voters: int = 100_000
    n_replications: int = 10_000
    seed: int = 0
    mode: str = "two_party"
    agent_level: bool = False

    def __post_init__(self):
        # type() rather than isinstance(): bool is an int subclass.
        for name in ("n_policy_voters", "n_replications"):
            value = getattr(self, name)
            if not (type(value) is int and value >= 1):
                raise UsageError(f"{name} must be a positive integer, got {value!r}")
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise UsageError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if type(self.agent_level) is not bool:
            raise UsageError(f"agent_level must be true or false, got {self.agent_level!r}")


@dataclass(frozen=True)
class SimResult:
    """Aggregated frequencies over replications, with binomial standard errors.

    win_freq_T is 0.0 outside third_party mode. The turnout fields are NaN
    outside turnout mode, as is referendum_y1_share when no referendum is
    held. ahead_freq_R is the probability Right outpolls Left (equal to
    win_freq_R except in third_party mode, where the spoiler can in
    principle finish first).
    """

    mode: str
    regime: ReferendumRegime
    n_policy_voters: int
    n_replications: int
    win_freq_R: float
    win_freq_L: float
    win_freq_T: float
    ahead_freq_R: float
    se_win_R: float
    congruence_y: float
    se_congruence_y: float
    congruence_x: float
    se_congruence_x: float
    referendum_y1_share: float
    se_referendum_y1_share: float
    turnout_freq_R: float
    turnout_freq_L: float
    seed: int


@dataclass
class _RepArrays:
    """Per-replication outcomes, every race decided by _race: Left wins
    whenever neither Right nor the spoiler does, and without a spoiler win_T
    is np.False_ and ahead_R is win_R. The turnout fields are None outside
    turnout mode."""

    win_R: np.ndarray
    win_T: np.ndarray | np.bool_
    ahead_R: np.ndarray
    cong_y: np.ndarray
    cong_x: np.ndarray
    y1_share: np.ndarray | None
    turnout_R: np.ndarray | None = None
    turnout_L: np.ndarray | None = None


def _uniform_open(rng, size=None, out=None):
    return np.clip(rng.random(size, out=out), _TINY, 1.0 - _TINY, out=out)


def _cells(rng, counts, *probs):
    """Batched multinomial: counts (R,), probs k arrays of (R,) summing to 1."""
    pvals = np.clip(np.stack(probs, axis=-1), 0.0, None)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    return rng.multinomial(counts, pvals)


def _base_draws(rng, shock, params, config):
    """Shock, noise share and party split of every replication, in stream order."""
    n, n_reps = config.n_policy_voters, config.n_replications
    gamma = shock.quantile(_uniform_open(rng, n_reps))
    eta = rng.random(n_reps)
    n_right = rng.binomial(n, params.r, size=n_reps)
    return gamma, eta, n_right, n - n_right


def _position_cuts(params, regime):
    """(c_R, c_L): after the referendum stage party J holds y=1 exactly when
    the tally share is at least c_J; an infinite cut keeps a party at its
    initial position. The oracle's own statement of the position rule, in
    tally space, kept apart from model.shock_pieces so that validate checks it."""
    if regime is ReferendumRegime.NO_REFERENDUM:
        # Party J starts at y=1 exactly when b_J >= 0.
        return tuple(-math.inf if b >= 0 else math.inf for b in (params.b_R, params.b_L))
    if regime is ReferendumRegime.BINDING:
        return 0.5, 0.5
    # A non-binding tally share t reveals the shock through the strictly
    # increasing support curve, so party J adopts y=1 exactly when t is at
    # least the support at the shock -b_J.
    return (
        referendum_support(params, -params.b_R),
        referendum_support(params, -params.b_L),
    )


def _race(mu, n, eta, coin, votes_right, votes_left, votes_third):
    """The one race rule: (win_R, win_T, ahead_R) from each party's ballots.

    Noise voters split eta : 1 - eta between the majors, an exact Right-Left
    tie goes to the coin, and the spoiler loses exact ties to either major.
    A race without a spoiler passes votes_third = 0: the noise share keeps
    Right's share positive, so a spoiler without votes never finishes first,
    and the race returns np.False_ as win_T and its ahead_R as win_R. Scalars
    and arrays alike give booleans: the logical ufunc keeps ~True from
    reading -2.
    """
    s_right = mu * (votes_right / n) + (1.0 - mu) * eta
    s_left = mu * (votes_left / n) + (1.0 - mu) * (1.0 - eta)
    ahead = (s_right > s_left) | ((s_right == s_left) & (coin < 0.5))
    if np.ndim(votes_third) == 0 and votes_third == 0:
        return ahead, np.False_, ahead
    s_third = mu * (votes_third / n)
    win_third = (s_third > s_right) & (s_third > s_left)
    return ahead & np.logical_not(win_third), win_third, ahead


def _split(rng, counts, cuts):
    """Multinomial counts over the taste intervals between increasing cdf cuts."""
    return _cells(
        rng, counts, cuts[0], *(hi - lo for lo, hi in zip(cuts, cuts[1:])), 1.0 - cuts[-1]
    )


def _counts_majors(target, regimes, config, rng):
    """The two-party and the spoiler race, one _RepArrays per regime, all
    decided on one set of draws. A two-party target is the spoiler race
    without the spoiler's cells: it draws none and passes 0 spoiler votes."""
    spoiler = isinstance(target, ThirdPartyParams)
    params = target.base if spoiler else target
    n = config.n_policy_voters
    B = params.taste.cdf
    gamma, eta, n_right, n_left = _base_draws(rng, params.shock, params, config)

    # Each cut is B(shift - gamma). Conservative cuts, in increasing order:
    # election cut (Left vs Right when majors diverge), referendum yes cut,
    # spoiler defection cut. Liberal cuts: referendum yes, election cut,
    # spoiler defection. A party's cut arrays live only through its split.
    cons_shifts = [-params.p - params.b_R, -params.b_R]
    libs_shifts = [-params.b_L, params.p - params.b_L]
    if spoiler:
        cons_shifts.append(-target.v - params.b_R)
        libs_shifts.append(params.p - target.v - params.b_L)
    cons = _split(rng, n_right, [B(shift - gamma) for shift in cons_shifts])
    libs = _split(rng, n_left, [B(shift - gamma) for shift in libs_shifts])
    coin = rng.random(config.n_replications)
    # The spoiler's defectors from each party: column views, or a scalar 0.
    third_cons, third_libs = (cons[:, 3], libs[:, 3]) if spoiler else (0, 0)

    yes = (cons[:, 2] + third_cons) + (n_left - libs[:, 0])
    tally, maj_yes = yes / n, 2 * yes >= n
    maj_right = 2 * n_right >= n

    # Right's and the spoiler's votes by post-referendum configuration; Left
    # gets the rest. Majors both at y=1: straight party-line voting, spoiler
    # abandoned. Right alone at y=1: the spoiler's base merges into Right,
    # Left keeps everyone below its election cut. Majors both at y=0: the
    # pre-referendum split.
    vr_pre = n_right - third_cons if spoiler else n_right
    vt_pre = third_cons + third_libs
    vr_mid = (n_right - cons[:, 0]) + libs[:, 2] + third_libs

    def decide(regime):
        cut_right, cut_left = _position_cuts(params, regime)
        y_right, y_left = tally >= cut_right, tally >= cut_left
        both = y_left
        only_right = y_right & ~y_left
        votes_right = np.where(both, n_right, np.where(only_right, vr_mid, vr_pre))
        votes_left = n - votes_right
        votes_third = 0
        if spoiler:
            votes_third = np.where(both | only_right, 0, vt_pre)
            votes_left -= votes_third
        win_right, win_third, ahead = _race(
            params.mu, n, eta, coin, votes_right, votes_left, votes_third
        )
        y_impl = np.where(win_third, True, np.where(win_right, y_right, y_left))
        x_impl = win_right | win_third
        return _RepArrays(
            win_R=win_right,
            win_T=win_third,
            ahead_R=ahead,
            cong_y=y_impl == maj_yes,
            cong_x=x_impl == maj_right,
            y1_share=None if regime is ReferendumRegime.NO_REFERENDUM else tally,
        )

    return [decide(regime) for regime in regimes]


def _participation_cells(tp, b_J, gamma):
    """Held-referendum cell probabilities for one party, given the shock.

    Cells: (participate, yes), (participate, no), (abstain, yes),
    (abstain, no). A voter's stake is p + |w| with w = u + b_J + gamma, and
    participation probability (p + |w|) / c_bar, integrated in closed form
    over each preference side via the truncated partial means.
    """
    taste_t, p, c_bar = tp.taste_t, tp.base.p, tp.c_bar
    shift = b_J + gamma
    f0 = taste_t.cdf(-shift)
    w = taste_t.half_width
    pos_mean = taste_t.partial_mean(-shift, w) + shift * (1.0 - f0)
    neg_mean = -(taste_t.partial_mean(-w, -shift) + shift * f0)
    p_yes = (p * (1.0 - f0) + pos_mean) / c_bar
    p_no = (p * f0 + neg_mean) / c_bar
    return p_yes, p_no, (1.0 - f0) - p_yes, f0 - p_no


def _counts_turnout(tp, regimes, config, rng):
    """A held measure draws different cells, so regimes holds one regime."""
    (regime,) = regimes
    params = tp.base
    n, n_reps = config.n_policy_voters, config.n_replications
    taste_t = tp.taste_t
    gamma, eta, n_right, n_left = _base_draws(rng, tp.shock_t, params, config)
    held = regime is ReferendumRegime.BINDING

    if held:
        r_cells = _cells(rng, n_right, *_participation_cells(tp, params.b_R, gamma))
        l_cells = _cells(rng, n_left, *_participation_cells(tp, params.b_L, gamma))
        part_right = r_cells[:, 0] + r_cells[:, 1]
        part_left = l_cells[:, 0] + l_cells[:, 1]
        yes_latent = (r_cells[:, 0] + r_cells[:, 2]) + (l_cells[:, 0] + l_cells[:, 2])
        yes_cast = r_cells[:, 0] + l_cells[:, 0]
        no_cast = r_cells[:, 1] + l_cells[:, 1]
    else:
        p_vote = params.p / tp.c_bar
        part_right = rng.binomial(n_right, p_vote)
        part_left = rng.binomial(n_left, p_vote)
        yes_right = rng.binomial(
            n_right, 1.0 - taste_t.cdf(-params.b_R - gamma)
        )
        yes_left = rng.binomial(n_left, 1.0 - taste_t.cdf(-params.b_L - gamma))
        yes_latent = yes_right + yes_left
    coin = rng.random(n_reps)
    win, win_third, ahead = _race(params.mu, n, eta, coin, part_right, part_left, 0)

    y_impl = np.zeros(n_reps, dtype=bool)
    y1_share = None
    # 0/0 (no ballots cast, or no voter in a party) yields NaN.
    with np.errstate(invalid="ignore"):
        if held:
            y_impl = yes_cast >= no_cast
            y1_share = yes_cast / (yes_cast + no_cast)
        turnout_right = part_right / n_right
        turnout_left = part_left / n_left

    maj_yes = 2 * yes_latent >= n
    maj_right = 2 * n_right >= n
    return [_RepArrays(
        win_R=win,
        win_T=win_third,
        ahead_R=ahead,
        cong_y=y_impl == maj_yes,
        cong_x=win == maj_right,
        y1_share=y1_share,
        turnout_R=turnout_right,
        turnout_L=turnout_left,
    )]


def _agents(runs, config, rng_for):
    """Per-voter loop shared by all modes; only the ballot rule differs.

    runs are (mode, target, regime) triples on one draw stream: each
    replication is drawn once and every run's ballots are decided on it.
    Each run's position cuts are set before the loop, and the runs of a
    replication that leave the majors at the same positions share one
    major-party choice.
    """
    mode, target, _ = runs[0]
    turnout = mode == "turnout"
    params = target if mode == "two_party" else target.base
    taste, shock = (
        (target.taste_t, target.shock_t) if turnout else (params.taste, params.shock)
    )
    n, n_reps = config.n_policy_voters, config.n_replications
    mu = params.mu
    plans = [  # held, position cuts, spoiler appeal v (None: no spoiler)
        (
            regime is not ReferendumRegime.NO_REFERENDUM,
            None if turnout else _position_cuts(params, regime),
            run_target.v if run_mode == "third_party" else None,
        )
        for run_mode, run_target, regime in runs
    ]
    buf = np.empty(n)  # party, then taste, then cost uniforms
    rows = [[] for _ in runs]
    for k in range(n_reps):
        rng = rng_for(k)
        gamma = shock.quantile(float(_uniform_open(rng)))
        eta = rng.random()
        is_cons = rng.random(out=buf) < params.r
        u = taste.quantile(_uniform_open(rng, out=buf))
        cost = rng.random(out=buf) * target.c_bar if turnout else None
        b_i = np.where(is_cons, params.b_R + gamma, params.b_L + gamma) + u
        coin = rng.random()

        yes = b_i >= 0
        n_yes, n_cons = np.count_nonzero(yes), np.count_nonzero(is_cons)
        maj_right = 2 * n_cons >= n
        tally, maj_yes = n_yes / n, 2 * n_yes >= n
        if not turnout:
            p_cons, p_libs = params.p * is_cons, params.p * ~is_cons
            choices = {}  # (y_right, y_left): (prefers_right, util_right, util_left)
        for (held, cuts, v), out in zip(plans, rows):
            y1 = turnout_right = turnout_left = math.nan
            votes_third = 0
            if turnout:
                stake = params.p + np.abs(b_i) if held else params.p
                votes = stake >= cost
                n_votes = np.count_nonzero(votes)
                votes_right = np.count_nonzero(votes & is_cons)
                votes_left = n_votes - votes_right
                # Whoever wins, a held measure implements its cast majority.
                y_right = y_left = False
                if held:
                    yes_cast = np.count_nonzero(votes & yes)
                    no_cast = n_votes - yes_cast
                    y_right = y_left = yes_cast >= no_cast
                    total = yes_cast + no_cast
                    y1 = yes_cast / total if total else math.nan
                turnout_right = votes_right / n_cons if n_cons else math.nan
                turnout_left = votes_left / (n - n_cons) if n - n_cons else math.nan
            else:
                if held:
                    y1 = tally
                y_right, y_left = tally >= cuts[0], tally >= cuts[1]
                if (y_right, y_left) not in choices:
                    util_right = p_cons + b_i * y_right
                    util_left = p_libs + b_i * y_left
                    prefers_right = (util_right > util_left) | (
                        (util_right == util_left) & is_cons
                    )
                    choices[y_right, y_left] = prefers_right, util_right, util_left
                prefers_right, util_right, util_left = choices[y_right, y_left]
                if v is not None:
                    vote_third = p_cons + b_i + v > np.maximum(util_right, util_left)
                    votes_third = np.count_nonzero(vote_third)
                    prefers_right = prefers_right & ~vote_third
                # The ballots partition the voters.
                votes_right = np.count_nonzero(prefers_right)
                votes_left = n - votes_third - votes_right
            win, win_third, ahead = _race(
                mu, n, eta, coin, votes_right, votes_left, votes_third
            )
            y_impl = win_third or (y_right if win else y_left)
            out.append((  # in _RepArrays field order
                win, win_third, ahead, y_impl == maj_yes, (win or win_third) == maj_right,
                y1, turnout_right, turnout_left,
            ))
    return [_RepArrays(*(np.array(col) for col in zip(*out))) for out in rows]


_TARGETS = {  # target type: (mode, validator, counts kernel)
    ElectorateParams: ("two_party", require_valid, _counts_majors),
    ThirdPartyParams: ("third_party", require_valid_third, _counts_majors),
    TurnoutParams: ("turnout", require_valid_turnout, _counts_turnout),
}


def _require_mode(target, config) -> None:
    if _TARGETS.get(type(target), ("",))[0] != config.mode:
        raise UsageError(f"{config.mode} mode cannot simulate a {type(target).__name__}")


def _arrays(runs, config):
    """Yield (index, _RepArrays) for every (target, regime) run, one draw
    stream at a time, drawing each shared stream once (see the determinism
    contract). Every run is validated before the first draw."""
    groups = {}
    for i, (target, regime) in enumerate(runs):
        if type(target) not in _TARGETS:
            raise UsageError(f"cannot simulate a {type(target).__name__}")
        mode, require, _ = _TARGETS[type(target)]
        require(target)
        require_regime(regime, mode)
        if config.agent_level:
            key = target.base if mode == "third_party" else target
        else:
            key = i if mode == "turnout" else target
        groups.setdefault(key, []).append((i, mode, target, regime))

    def rng_for(k):
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((config.seed, k + 1)))
        )

    for group in groups.values():
        order, modes, targets, regimes = zip(*group)
        if config.agent_level:
            results = _agents(tuple(zip(modes, targets, regimes)), config, rng_for)
        else:
            rng = np.random.Generator(np.random.Philox(config.seed))
            counts = _TARGETS[type(targets[0])][2]
            results = counts(targets[0], regimes, config, rng)
        yield from zip(order, results)


def _binom_se(phat: float, n_reps: int) -> float:
    return math.sqrt(phat * (1.0 - phat) / n_reps)


def _mean_se(values) -> tuple[float, float]:
    if values is None:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=float)
    good = arr[~np.isnan(arr)]
    if good.size == 0:
        return math.nan, math.nan
    mean = float(good.mean())
    se = float(good.std(ddof=1) / math.sqrt(good.size)) if good.size > 1 else math.nan
    return mean, se


def _summary(target, regime, arrays: _RepArrays, config: SimConfig) -> SimResult:
    n_reps = config.n_replications
    win_R = float(arrays.win_R.mean())
    cong_y = float(arrays.cong_y.mean())
    cong_x = float(arrays.cong_x.mean())
    y1_mean, y1_se = _mean_se(arrays.y1_share)
    turnout_R, _ = _mean_se(arrays.turnout_R)
    turnout_L, _ = _mean_se(arrays.turnout_L)
    return SimResult(
        mode=_TARGETS[type(target)][0],
        regime=regime,
        n_policy_voters=config.n_policy_voters,
        n_replications=n_reps,
        win_freq_R=win_R,
        win_freq_L=float((~arrays.win_R & ~arrays.win_T).mean()),
        win_freq_T=float(arrays.win_T.mean()),
        ahead_freq_R=float(arrays.ahead_R.mean()),
        se_win_R=_binom_se(win_R, n_reps),
        congruence_y=cong_y,
        se_congruence_y=_binom_se(cong_y, n_reps),
        congruence_x=cong_x,
        se_congruence_x=_binom_se(cong_x, n_reps),
        referendum_y1_share=y1_mean,
        se_referendum_y1_share=y1_se,
        turnout_freq_R=turnout_R,
        turnout_freq_L=turnout_L,
        seed=config.seed,
    )


def simulate_runs(runs, config: SimConfig) -> tuple[SimResult, ...]:
    """Run several finite-agent elections under one config, in input order.

    runs holds (target, regime) pairs. Each run's mode is read off its
    target's type, not from config.mode. Runs on one draw stream are drawn
    once (see the determinism contract); each result is byte-identical to a
    separate simulate call.
    """
    runs = tuple(runs)
    results = [None] * len(runs)
    # Summarise each stream's runs before the next is drawn.
    for i, arrays in _arrays(runs, config):
        results[i] = _summary(*runs[i], arrays, config)
    return tuple(results)


def simulate(target, regime: ReferendumRegime, config: SimConfig) -> SimResult:
    """Run the finite-agent election and aggregate replication frequencies.

    target must match config.mode: ElectorateParams for two_party,
    ThirdPartyParams for third_party, TurnoutParams for turnout. regime is
    one the mode's model defines (model.REGIMES), no_referendum being the
    baseline, and the same value the analytic win probability takes.
    simulate_runs runs several regimes or targets on shared draws.
    """
    _require_mode(target, config)
    return simulate_runs(((target, regime),), config)[0]


@dataclass(frozen=True)
class ThresholdEstimate:
    quantity: str
    value: float
    ci_low: float
    ci_high: float
    evaluations: int
    flags: tuple[str, ...] = ()


_THRESHOLD_RUNS = {
    "r_bind": ("two_party", ReferendumRegime.BINDING, 1.0),
    "r_star": ("two_party", ReferendumRegime.NON_BINDING, -1.0),
    "r_star_star": ("two_party", ReferendumRegime.NON_BINDING, 1.0),
    "r_T": ("turnout", ReferendumRegime.BINDING, 1.0),
}


def _with_r(target, r_value: float):
    if isinstance(target, ElectorateParams):
        return replace(target, r=r_value)
    return replace(target, base=replace(target.base, r=r_value))


def estimate_threshold(
    target,
    quantity: str,
    config: SimConfig,
    bracket: tuple[float, float] = (0.1, 0.9),
    tol: float = 1e-3,
) -> ThresholdEstimate:
    """Locate a benefit threshold in r from simulation alone.

    Bisection on the simulated net benefit (held minus baseline win
    frequency, common seed so the shock, noise, and party draws pair up),
    oriented by which side of the threshold benefits Right. The confidence
    interval combines the bisection width with 3 standard errors of the
    per-replication difference mapped through a secant slope estimate, so
    a flat net benefit honestly widens the interval. Both ends of bracket
    must lie inside the competitiveness band 1 - 1/(2 mu) < r < 1/(2 mu);
    the default (0.1, 0.9) does only for mu < 5/9.
    """
    if quantity not in _THRESHOLD_RUNS:
        raise UsageError(
            f"quantity must be one of {sorted(_THRESHOLD_RUNS)}, got {quantity!r}"
        )
    mode, regime, orient = _THRESHOLD_RUNS[quantity]
    if config.mode != mode:
        raise UsageError(f"{quantity} needs config.mode={mode!r}, got {config.mode!r}")
    _require_mode(target, config)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < 1.0:
        raise UsageError(f"bracket must satisfy 0 < lo < hi < 1, got {bracket}")
    mu = (target if isinstance(target, ElectorateParams) else target.base).mu
    if 0.0 < mu < 1.0:
        band = competitive_band(mu)
        if not (band[0] < lo and hi < band[1]):
            raise UsageError(
                f"bracket {bracket} leaves the competitiveness band "
                f"({band[0]:.6g}, {band[1]:.6g}) of mu={mu}"
            )
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be finite and positive, got {tol!r}")

    def measure(r_value):
        t = _with_r(target, r_value)
        arrays = dict(_arrays(((t, regime), (t, ReferendumRegime.NO_REFERENDUM)), config))
        diff = arrays[0].win_R.astype(np.float64) - arrays[1].win_R.astype(np.float64)
        se = (
            float(diff.std(ddof=1) / math.sqrt(diff.size))
            if diff.size > 1
            else math.inf
        )
        # Resolution floor: a run whose paired differences are all zero has
        # not shown the effect is zero, only that it is below one flipped
        # replication; never report a tighter uncertainty than that.
        return float(diff.mean()), max(se, 1.0 / diff.size)

    d_lo, se_lo = measure(lo)
    d_hi, se_hi = measure(hi)
    evaluations = 2
    slope = (d_hi - d_lo) / (hi - lo)
    spread = 3.0 * max(se_lo, se_hi) / max(abs(slope), 1e-12)

    if orient * d_lo >= 0.0:
        return ThresholdEstimate(
            quantity, lo, lo - spread, lo + spread, evaluations,
            ("no_sign_change_in_bracket",),
        )
    if orient * d_hi <= 0.0:
        return ThresholdEstimate(
            quantity, hi, hi - spread, hi + spread, evaluations,
            ("no_sign_change_in_bracket",),
        )

    se_mid = max(se_lo, se_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: tol is below their spacing
        d_mid, se_mid = measure(mid)
        evaluations += 1
        if orient * d_mid >= 0.0:
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    half = 0.5 * tol + 3.0 * se_mid / max(abs(slope), 1e-12)
    return ThresholdEstimate(
        quantity, value, value - half, value + half, evaluations
    )
