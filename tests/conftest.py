import numpy as np
import pytest

from riskbandits.criteria import RiskCriterion
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
)
from riskbandits.errors import CriterionDomainError


def bad1_arm_wide():
    """Mass 0.1 uniform on [0,1], flat to 5, mass 0.9 uniform on [5,50]."""
    return PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.1), (5, 0.1), (50, 1.0)])


def bad2_arm_steep():
    """Jump to 0.9 at 0, then linear to 1 at 10."""
    return PiecewiseLinearCDF.from_pairs([(0, 0.0), (0, 0.9), (10, 1.0)])


def bad2_arm_step():
    """Jump to 0.1 at 1, flat to 10, jump to 1 at 10."""
    return PiecewiseLinearCDF.from_pairs([(1, 0.0), (1, 0.1), (10, 0.1), (10, 1.0)])


@pytest.fixture
def bad1_arms():
    return [bad1_arm_wide(), PointMass(5.0)]


@pytest.fixture
def bad2_arms():
    return [bad2_arm_steep(), bad2_arm_step()]


def distribution_catalog():
    """One representative of every kind, for property tests."""
    return [
        Gaussian(0.0, 1.0),
        Gaussian(-1.5, 0.5),
        PointMass(5.0),
        PointMass(-0.25),
        Uniform(-1.0, 2.0),
        TwoPoint(0.3, -2.0, 1.0),
        bad1_arm_wide(),
        bad2_arm_steep(),
        bad2_arm_step(),
        EmpiricalDistribution([-2.0, -2.0, 0.5, 4.0]),
        EmpiricalDistribution(np.linspace(-3, 3, 17)),
    ]


@pytest.fixture
def catalog():
    return distribution_catalog()


def rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


class RefusingCriterion(RiskCriterion):
    """Refuses every distribution, naming the violated constraint."""

    tag = "refusing"

    def evaluate(self, f):
        raise CriterionDomainError("lower tail diverges", constraint="lower-tail finite")
