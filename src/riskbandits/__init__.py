"""Risk-criterion multi-armed bandits.

Distributions with exact CDF/quantile/tail computations, risk criteria with
stability and smoothness certificates, optimism policies with
modulus-derived confidence radii, and seeded Monte Carlo estimators for
regret, stationary-proxy regret, and the empirical-vs-proxy horizon gap.
"""

from .criteria import (
    Bad1Criterion,
    Bad2Criterion,
    CVaRCriterion,
    EntropicCriterion,
    MeanCriterion,
    MeanVarianceCriterion,
    NegTSVCriterion,
    NegVarianceCriterion,
    RiskCriterion,
    SecondMomentCriterion,
    SharpeCriterion,
    SmoothnessCertificate,
    SortinoCriterion,
    StabilityCertificate,
    VaRCriterion,
    build_criterion,
)
from .dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    RewardDistribution,
    TwoPoint,
    Uniform,
    proxy_distribution,
)
from .errors import ConfigError, CriterionDomainError, DomainError, UnsupportedOperationError
from .norms import SemiNormFunctional, norm_distance, norm_value, sup_distance
from .oracle import (
    best_single_arm,
    expected_pull_bound,
    lipschitz_constant,
    proxy_regret_bound,
    simplex_grid_argmax,
)
from .policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    Policy,
    PolicyState,
    SimplePolicy,
    UcbPolicy,
    phi,
    phi_inv,
)
from .sim import (
    Episode,
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    estimate_reference_regret,
    geometric_checkpoints,
    run_episode,
    run_replications,
)

__version__ = "0.1.0"
