"""Electoral calculus of direct democracy.

Win probabilities, referendum-decision thresholds, and congruence metrics
for a two-party probabilistic-voting model with binary issues, plus the
third-party and costly-turnout extensions. Every analytic quantity has a
finite-agent Monte Carlo counterpart in the oracle module.
"""

from .congruence import (
    CongruenceReport,
    RegionCell,
    classify_congruence_region,
    second_delta,
    second_issue_congruence,
    traditional_delta,
    traditional_issue_congruence,
)
from .distributions import (
    FAMILIES,
    DistributionSpec,
    TruncatedDistribution,
)
from .election import (
    lambda_margin,
    lambda_win,
    net_benefit,
    win_prob,
)
from .errors import (
    InvalidParamsError,
    NumericalError,
    QuadratureError,
    RootFindError,
    ScenarioError,
    UsageError,
)
from .model import (
    REGIMES,
    ElectorateParams,
    PartyPositions,
    ReferendumRegime,
    competitive_band,
    initial_positions,
    referendum_support,
    require_regime,
    require_valid,
    shock_pieces,
    validate,
)
from .oracle import (
    SimConfig,
    SimResult,
    ThresholdEstimate,
    estimate_threshold,
    simulate,
    simulate_runs,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    integrate,
    integrate_shock,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .third_party import (
    DEFAULT_VALENCE,
    PhiThresholds,
    ReferendumPreference,
    ThirdPartyParams,
    classify_referendum_preference,
    net_benefit_third,
    phi,
    phi_thresholds,
    win_prob_third,
    worse_off_condition,
)
from .thresholds import (
    ThresholdReport,
    br_dagger_ddagger,
    delta_at_rbind,
    gamma_star,
    r_bind,
    r_star,
    r_star_star,
)
from .turnout import (
    TurnoutParams,
    intensity,
    net_benefit_turnout,
    r_T,
    require_valid_turnout,
    validate_turnout,
    win_prob_turnout,
)

__version__ = "0.1.0"
