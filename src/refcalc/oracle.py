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
  algebra enters a sampled ballot. It is slow and meant for cross-checking
  the counts engine at small sizes.

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

Tie conventions: indifferent voters vote their own party; a spoiler loses
exact vote ties to either major; an exactly tied two-way election falls to a
fair coin from the stream; referendum tallies at exactly the threshold count
as yes. The continuum_tally toggle replaces every referendum-derived
quantity (tally or cast share, inferred positions, outcome, latent
majority) by its exact conditional-on-shock value, in both engines and every
mode, isolating election noise from tally noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ElectorateParams,
    ReferendumRegime,
    initial_positions,
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
    continuum_tally: bool = False

    def __post_init__(self):
        # type() rather than isinstance(): bool is an int subclass.
        for name in ("n_policy_voters", "n_replications"):
            value = getattr(self, name)
            if not (type(value) is int and value >= 1):
                raise UsageError(f"{name} must be a positive integer, got {value!r}")
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise UsageError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


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
    """Per-replication outcomes. Left wins whenever neither Right nor the
    spoiler does; win_T None means no spoiler and ahead_R None means Right
    is ahead exactly when it wins."""

    win_R: np.ndarray
    cong_y: np.ndarray
    cong_x: np.ndarray
    y1_share: np.ndarray | None
    win_T: np.ndarray | None = None
    ahead_R: np.ndarray | None = None
    turnout_R: np.ndarray | None = None
    turnout_L: np.ndarray | None = None


def _uniform_open(rng, size=None):
    return np.clip(rng.random(size), _TINY, 1.0 - _TINY)


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


def _majority_yes(yes_count, n, continuum, support):
    if continuum:
        return support >= 0.5
    return 2 * yes_count >= n


def _two_party_positions(params, regime, tally):
    """Per-replication (y_R, y_L) arrays after the referendum stage."""
    ones = np.ones_like(tally, dtype=bool)
    if regime is ReferendumRegime.NO_REFERENDUM:
        pos = initial_positions(params)
        return ones & bool(pos.y_right), ones & bool(pos.y_left)
    if regime is ReferendumRegime.BINDING:
        outcome = tally >= 0.5
        return outcome, outcome.copy()
    # A non-binding tally share t reveals the shock through the strictly
    # increasing support curve, so party J adopts y=1 exactly when t is at
    # least the support at the shock -b_J.
    return (
        tally >= referendum_support(params, -params.b_R),
        tally >= referendum_support(params, -params.b_L),
    )


def _counts_two_party(params, regimes, config, rng):
    """One _RepArrays per regime, all decided on one set of draws."""
    n, n_reps = config.n_policy_voters, config.n_replications
    B = params.taste.cdf
    gamma, eta, n_right, n_left = _base_draws(rng, params.shock, params, config)

    # Conservative taste cells: below the election cut (vote Left when
    # diverged), between election and referendum cuts (Right, no), above
    # (Right, yes). Liberals mirror with the cuts on the other side of p.
    q_elect = B(-params.p - params.b_R - gamma)
    q_yes = B(-params.b_R - gamma)
    cons = _cells(rng, n_right, q_elect, q_yes - q_elect, 1.0 - q_yes)
    l_yes = B(-params.b_L - gamma)
    l_elect = B(params.p - params.b_L - gamma)
    libs = _cells(rng, n_left, l_yes, l_elect - l_yes, 1.0 - l_elect)
    coin = rng.random(n_reps)

    yes = cons[:, 2] + (n_left - libs[:, 0])
    support = referendum_support(params, gamma)
    tally = np.asarray(support if config.continuum_tally else yes / n)
    votes_diverged = cons[:, 1] + cons[:, 2] + libs[:, 2]
    maj_yes = _majority_yes(yes, n, config.continuum_tally, support)
    maj_right = 2 * n_right >= n

    def decide(regime):
        y_right, y_left = _two_party_positions(params, regime, tally)
        votes_right = np.where(y_right & ~y_left, votes_diverged, n_right)
        share_right = params.mu * votes_right / n + (1.0 - params.mu) * eta
        win = (share_right > 0.5) | ((share_right == 0.5) & (coin < 0.5))
        y_impl = np.where(win, y_right, y_left)
        return _RepArrays(
            win_R=win,
            cong_y=y_impl == maj_yes,
            cong_x=win == maj_right,
            y1_share=None if regime is ReferendumRegime.NO_REFERENDUM else tally,
        )

    return [decide(regime) for regime in regimes]


def _counts_third_party(tp, regimes, config, rng):
    """One _RepArrays per regime, all decided on one set of draws."""
    params, v = tp.base, tp.v
    n, n_reps = config.n_policy_voters, config.n_replications
    B = params.taste.cdf
    gamma, eta, n_right, n_left = _base_draws(rng, params.shock, params, config)

    # Conservative cuts, in increasing order: election cut (Left vs Right
    # when majors diverge), referendum yes cut, spoiler defection cut.
    qa = B(-params.p - params.b_R - gamma)
    qb = B(-params.b_R - gamma)
    qc = B(-v - params.b_R - gamma)
    cons = _cells(rng, n_right, qa, qb - qa, qc - qb, 1.0 - qc)
    # Liberal cuts: referendum yes, election cut, spoiler defection.
    la = B(-params.b_L - gamma)
    lb = B(params.p - params.b_L - gamma)
    lc = B(params.p - v - params.b_L - gamma)
    libs = _cells(rng, n_left, la, lb - la, lc - lb, 1.0 - lc)
    coin = rng.random(n_reps)

    yes = (cons[:, 2] + cons[:, 3]) + (n_left - libs[:, 0])
    support = referendum_support(params, gamma)
    tally = np.asarray(support if config.continuum_tally else yes / n)
    maj_yes = _majority_yes(yes, n, config.continuum_tally, support)
    maj_right = 2 * n_right >= n

    # Vote totals by post-referendum configuration. Majors both at y=1:
    # straight party-line voting, spoiler abandoned. Right alone at y=1: the
    # spoiler's base merges into Right, Left keeps everyone below its
    # election cut. Majors both at y=0: the pre-referendum three-way split.
    vr_pre = n_right - cons[:, 3]
    vl_pre = n_left - libs[:, 3]
    vt_pre = cons[:, 3] + libs[:, 3]
    vr_mid = (n_right - cons[:, 0]) + libs[:, 2] + libs[:, 3]
    vl_mid = cons[:, 0] + libs[:, 0] + libs[:, 1]

    def decide(regime):
        y_right, y_left = _two_party_positions(params, regime, tally)
        both = y_left
        only_right = y_right & ~y_left
        votes_right = np.where(both, n_right, np.where(only_right, vr_mid, vr_pre))
        votes_left = np.where(both, n_left, np.where(only_right, vl_mid, vl_pre))
        votes_third = np.where(both | only_right, 0, vt_pre)

        s_right = params.mu * votes_right / n + (1.0 - params.mu) * eta
        s_left = params.mu * votes_left / n + (1.0 - params.mu) * (1.0 - eta)
        s_third = params.mu * votes_third / n

        ahead = (s_right > s_left) | ((s_right == s_left) & (coin < 0.5))
        win_third = (s_third > s_right) & (s_third > s_left)
        win_right = ~win_third & ahead

        y_impl = np.where(win_third, True, np.where(win_right, y_right, y_left))
        x_impl = win_right | win_third
        return _RepArrays(
            win_R=win_right,
            cong_y=y_impl == maj_yes,
            cong_x=x_impl == maj_right,
            y1_share=None if regime is ReferendumRegime.NO_REFERENDUM else tally,
            win_T=win_third,
            ahead_R=ahead,
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


def _cast_rates(tp, gamma):
    """Yes and no ballots cast per policy voter at shock gamma, measure held."""
    params = tp.base
    py_r, pn_r, *_ = _participation_cells(tp, params.b_R, gamma)
    py_l, pn_l, *_ = _participation_cells(tp, params.b_L, gamma)
    cast_yes_rate = params.r * py_r + (1.0 - params.r) * py_l
    cast_no_rate = params.r * pn_r + (1.0 - params.r) * pn_l
    return cast_yes_rate, cast_no_rate


def _turnout_support(tp, gamma):
    """Continuum yes share at shock gamma, over the truncated taste."""
    params, cdf = tp.base, tp.taste_t.cdf
    return params.r * (1.0 - cdf(-params.b_R - gamma)) + (1.0 - params.r) * (
        1.0 - cdf(-params.b_L - gamma)
    )


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

    s_right = params.mu * part_right / n + (1.0 - params.mu) * eta
    s_left = params.mu * part_left / n + (1.0 - params.mu) * (1.0 - eta)
    margin = s_right - s_left
    win = (margin > 0) | ((margin == 0) & (coin < 0.5))

    support = _turnout_support(tp, gamma)
    y_impl = np.zeros(n_reps, dtype=bool)
    y1_share = None
    # 0/0 (no ballots cast, or no voter in a party) yields NaN.
    with np.errstate(invalid="ignore"):
        if held:
            if config.continuum_tally:
                yes_cast, no_cast = _cast_rates(tp, gamma)
            y_impl = yes_cast >= no_cast
            y1_share = yes_cast / (yes_cast + no_cast)
        turnout_right = part_right / n_right
        turnout_left = part_left / n_left

    maj_yes = _majority_yes(yes_latent, n, config.continuum_tally, support)
    maj_right = 2 * n_right >= n
    return [_RepArrays(
        win_R=win,
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
    """
    mode, target, _ = runs[0]
    turnout = mode == "turnout"
    params = target if mode == "two_party" else target.base
    taste, shock = (
        (target.taste_t, target.shock_t) if turnout else (params.taste, params.shock)
    )
    n, n_reps = config.n_policy_voters, config.n_replications
    rows = [[] for _ in runs]
    for k in range(n_reps):
        rng = rng_for(k)
        gamma = float(shock.quantile(_uniform_open(rng)))
        eta = rng.random()
        is_cons = rng.random(n) < params.r
        u = taste.quantile(_uniform_open(rng, n))
        cost = rng.random(n) * target.c_bar if turnout else None
        b_i = np.where(is_cons, params.b_R, params.b_L) + gamma + u
        coin = rng.random()

        yes = b_i >= 0
        n_cons = int(is_cons.sum())
        maj_right = 2 * n_cons >= n
        if turnout:
            support = _turnout_support(target, gamma)
        else:
            support = float(referendum_support(params, gamma))
            tally = support if config.continuum_tally else yes.mean()
            p_cons, p_libs = params.p * is_cons, params.p * ~is_cons
        maj_yes = bool(
            _majority_yes(int(yes.sum()), n, config.continuum_tally, support)
        )
        for (run_mode, run_target, regime), out in zip(runs, rows):
            held = regime is not ReferendumRegime.NO_REFERENDUM
            win_third = False
            y1 = turnout_right = turnout_left = math.nan
            if turnout:
                stake = params.p + np.abs(b_i) if held else params.p
                votes = stake >= cost
                part_right = votes & is_cons
                part_left = votes & ~is_cons
                s_right = params.mu * part_right.mean() + (1.0 - params.mu) * eta
                s_left = params.mu * part_left.mean() + (1.0 - params.mu) * (1.0 - eta)
                win = ahead = s_right > s_left or (s_right == s_left and coin < 0.5)
                y_impl = False
                if held:
                    if config.continuum_tally:
                        yes_cast, no_cast = _cast_rates(target, gamma)
                    else:
                        yes_cast = int((votes & yes).sum())
                        no_cast = int((votes & ~yes).sum())
                    y_impl = yes_cast >= no_cast
                    total = yes_cast + no_cast
                    y1 = yes_cast / total if total else math.nan
                turnout_right = part_right.sum() / n_cons if n_cons else math.nan
                turnout_left = part_left.sum() / (n - n_cons) if n - n_cons else math.nan
            else:
                if held:
                    y1 = tally
                y_right, y_left = (
                    bool(a[0])
                    for a in _two_party_positions(params, regime, np.array([tally]))
                )
                util_right = p_cons + b_i * y_right
                util_left = p_libs + b_i * y_left
                prefers_right = (util_right > util_left) | (
                    (util_right == util_left) & is_cons
                )
                if run_mode == "two_party":
                    share = params.mu * prefers_right.mean() + (1.0 - params.mu) * eta
                    win = ahead = share > 0.5 or (share == 0.5 and coin < 0.5)
                else:
                    util_third = p_cons + b_i + run_target.v
                    vote_third = util_third > np.maximum(util_right, util_left)
                    vote_right = ~vote_third & prefers_right
                    vote_left = ~vote_third & ~prefers_right
                    s_right = params.mu * vote_right.mean() + (1.0 - params.mu) * eta
                    s_left = params.mu * vote_left.mean() + (1.0 - params.mu) * (1.0 - eta)
                    s_third = params.mu * vote_third.mean()
                    ahead = s_right > s_left or (s_right == s_left and coin < 0.5)
                    win_third = s_third > s_right and s_third > s_left
                    win = not win_third and ahead
                y_impl = win_third or (y_right if win else y_left)

            out.append((  # in _RepArrays field order
                win, y_impl == maj_yes, (win or win_third) == maj_right, y1,
                win_third, ahead, turnout_right, turnout_left,
            ))
    return [_RepArrays(*(np.array(col) for col in zip(*out))) for out in rows]


_TARGETS = {  # target type: (mode, validator, counts kernel)
    ElectorateParams: ("two_party", require_valid, _counts_two_party),
    ThirdPartyParams: ("third_party", require_valid_third, _counts_third_party),
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
    win_T = arrays.win_T if arrays.win_T is not None else np.zeros_like(arrays.win_R)
    ahead_R = arrays.ahead_R if arrays.ahead_R is not None else arrays.win_R
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
        win_freq_L=float((~arrays.win_R & ~win_T).mean()),
        win_freq_T=float(win_T.mean()),
        ahead_freq_R=float(ahead_R.mean()),
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
    a flat net benefit honestly widens the interval.
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
