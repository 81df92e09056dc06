import math

import numpy as np
import pytest

from riskbandits.criteria import (
    Bad1Criterion,
    CVaRCriterion,
    MeanCriterion,
    StabilityCertificate,
)
from riskbandits.dist import Gaussian, PointMass, Uniform
from riskbandits.errors import CriterionDomainError, DomainError, UnsupportedOperationError
from riskbandits.norms import SemiNormFunctional
from riskbandits.oracle import (
    best_single_arm,
    expected_pull_bound,
    lipschitz_constant,
    oracle_report,
    simplex_grid_argmax,
    simplex_lattice,
)

from conftest import RefusingCriterion


def test_best_single_arm_examples():
    idx, value, gaps = best_single_arm(
        MeanCriterion(), [PointMass(1.0), PointMass(2.0), PointMass(3.0)]
    )
    assert (idx, value) == (2, 3.0)
    assert gaps == [2.0, 1.0, 0.0]

    idx, value, _ = best_single_arm(
        CVaRCriterion(0.05), [Gaussian(0, 1), PointMass(-0.5)]
    )
    assert idx == 1 and value == -0.5

    idx, value, gaps = best_single_arm(MeanCriterion(), [PointMass(4.0)])
    assert (idx, value, gaps) == (0, 4.0, [0.0])


def test_best_single_arm_failure_keeps_the_exception():
    with pytest.raises(CriterionDomainError, match="criterion failed on arm 0") as info:
        best_single_arm(RefusingCriterion(), [PointMass(1.0), PointMass(2.0)])
    assert info.value.constraint == "lower-tail finite"


def test_best_single_arm_tie_break_lowest_index():
    idx, _, _ = best_single_arm(MeanCriterion(), [PointMass(2.0), PointMass(2.0)])
    assert idx == 0


def test_gaps_permutation_equivariant():
    arms = [PointMass(1.0), Gaussian(0.5, 1.0), PointMass(2.5)]
    _, _, gaps = best_single_arm(MeanCriterion(), arms)
    perm = [2, 0, 1]
    _, _, gaps_p = best_single_arm(MeanCriterion(), [arms[i] for i in perm])
    assert gaps_p == [gaps[i] for i in perm]


def test_simplex_lattice_counts():
    pts = list(simplex_lattice(3, 4))
    assert len(pts) == math.comb(4 + 2, 2)
    assert all(abs(sum(p) - 1) < 1e-12 for p in pts)


def test_grid_argmax_vertex_for_convex():
    arms = [Gaussian(0, 1), PointMass(-0.5), Gaussian(-1, 0.5)]
    crit = CVaRCriterion(0.1)
    best_idx, best_value, _ = best_single_arm(crit, arms)
    p, value = simplex_grid_argmax(crit, arms, 0.25)
    assert value == pytest.approx(best_value, abs=1e-9)
    assert p[best_idx] == pytest.approx(1.0)


def test_grid_argmax_linear_criterion():
    arms = [PointMass(1.0), PointMass(-2.0)]
    p, value = simplex_grid_argmax(MeanCriterion(), arms, 0.1)
    assert value == pytest.approx(1.0) and p == (1.0, 0.0)


def test_grid_argmax_bad1_unattained_supremum(bad1_arms):
    # refining the lattice pushes the sweep value toward (never onto) 50
    crit = Bad1Criterion()
    values = []
    for n in (10, 30, 90, 270):
        _, value = simplex_grid_argmax(crit, bad1_arms, 1.0 / n)
        values.append(value)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 50.0 for v in values)
    assert values[-1] > 49.5


def test_grid_argmax_guards():
    arms = [PointMass(float(i)) for i in range(5)]
    with pytest.raises(UnsupportedOperationError):
        simplex_grid_argmax(MeanCriterion(), arms, 0.5)
    with pytest.raises(DomainError):
        simplex_grid_argmax(MeanCriterion(), arms[:2], 0.0)
    with pytest.raises(DomainError):
        simplex_grid_argmax(MeanCriterion(), arms[:2], math.nan)


def test_lipschitz_constant_formula():
    sup_only = ()
    arms = [Uniform(0, 1), Uniform(0.5, 1.5)]  # sup distance exactly 0.5
    cert = StabilityCertificate(a=1.0, b=1.0, q=2.0)
    assert lipschitz_constant(cert, arms, sup_only) == pytest.approx(1.5)
    cert_q1 = StabilityCertificate(a=1.0, b=1.0, q=1.0)
    assert lipschitz_constant(cert_q1, arms, sup_only) == pytest.approx(2.0)
    assert lipschitz_constant(cert, [Uniform(0, 1)], sup_only) == 1.0


def test_lipschitz_rejects_infinite_pairwise_norm():
    class HeavyTail(Gaussian):
        def lower_tail(self):
            return -math.inf

    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [HeavyTail(0, 1), Gaussian(1, 1)]
    both_tails = (SemiNormFunctional("lower-tail"), SemiNormFunctional("upper-tail"))
    with pytest.raises(DomainError, match="integrable"):
        lipschitz_constant(cert, arms, both_tails)


def test_expected_pull_bound_hand_arithmetic():
    # gap 2, a=b=1, q=2, exploration exponent 3, log T = 1
    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [PointMass(3.0), PointMass(1.0)]
    bounds, _ = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, math.e)
    assert bounds[0] is None
    assert bounds[1] == pytest.approx(3.0 * 1.0 / 0.25 + 9.0, rel=1e-9)  # 21


def test_expected_pull_bound_t1_and_poles():
    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [PointMass(3.0), PointMass(1.0)]
    bounds, _ = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, 1)
    assert bounds[1] == pytest.approx(9.0)  # log 1 = 0 leaves only the tail term
    near2, _ = expected_pull_bound(MeanCriterion(), arms, cert, 2.0 + 1e-9, 1)
    assert near2[1] > 1e9 and math.isfinite(near2[1])
    with pytest.raises(DomainError):
        expected_pull_bound(MeanCriterion(), arms, cert, 2.0, 10)
    with pytest.raises(DomainError):
        expected_pull_bound(MeanCriterion(), [PointMass(1.0), PointMass(1.0)], cert, 3.0, 10)


def test_pull_bound_regret_side():
    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [Uniform(2.5, 3.5), Uniform(0.5, 1.5)]
    bounds, regret_bound = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, 100)
    spec = MeanCriterion().functionals
    from riskbandits.norms import norm_distance

    L = lipschitz_constant(cert, arms, spec)
    want = L / 100 * bounds[1] * norm_distance(arms[0], arms[1], spec)
    assert regret_bound == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_never_beats_vertex_for_quasiconvex_catalog(seed):
    # vertex optimality: for quasiconvex criteria the sweep cannot exceed the
    # best single arm (mixtures sit below the max of their components)
    from riskbandits.criteria import (
        MeanVarianceCriterion,
        SharpeCriterion,
        SortinoCriterion,
        VaRCriterion,
    )

    r = np.random.default_rng(seed)
    arms = [Gaussian(float(r.normal()), float(r.uniform(0.5, 2.0))) for _ in range(3)]
    criteria = [
        MeanCriterion(),
        CVaRCriterion(0.2),
        VaRCriterion(0.2),
        MeanVarianceCriterion(0.5),
        SharpeCriterion(-5.0, 1.0),
        SortinoCriterion(-5.0, 1.0),
    ]
    for crit in criteria:
        _, best_value, _ = best_single_arm(crit, arms)
        _, grid_value = simplex_grid_argmax(crit, arms, 0.2)
        assert grid_value <= best_value + 1e-9, crit.tag


def test_oracle_report_assembly(bad1_arms):
    crit, arms = MeanCriterion(), [PointMass(1.0), PointMass(0.2)]
    rep = oracle_report(
        crit,
        arms,
        resolution=0.5,
        certificate=crit.stability_certificate(arms),
        ucb_alpha=3.0,
        horizons=(100,),
    )
    assert rep.best_arm == 0
    assert rep.p_star == (1.0, 0.0)
    assert rep.lipschitz is not None
    assert 100 in rep.pull_bounds
    # without a certificate there are no bounds and no stationary-gap constant
    bare = oracle_report(crit, arms, horizons=(100,))
    assert bare.lipschitz is None and bare.pull_bounds == {}
