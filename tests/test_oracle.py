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
from riskbandits import norms
from riskbandits.norms import SemiNormFunctional, norm_distance
from riskbandits.oracle import (
    best_single_arm,
    expected_pull_bound,
    lipschitz_constant,
    proxy_regret_bound,
    simplex_grid_argmax,
    simplex_lattice,
)

from riskbandits.policy import phi

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
    bounds = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, [math.e])[math.e]
    assert bounds[0] is None
    assert bounds[1] == pytest.approx(3.0 * 1.0 / 0.25 + 9.0, rel=1e-9)  # 21


def test_expected_pull_bound_t1_and_poles():
    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [PointMass(3.0), PointMass(1.0)]
    bounds = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, [1])[1]
    assert bounds[1] == pytest.approx(9.0)  # log 1 = 0 leaves only the tail term
    near2 = expected_pull_bound(MeanCriterion(), arms, cert, 2.0 + 1e-9, [1])[1]
    assert near2[1] > 1e9 and math.isfinite(near2[1])
    with pytest.raises(DomainError):
        expected_pull_bound(MeanCriterion(), arms, cert, 2.0, [10])
    with pytest.raises(DomainError):
        expected_pull_bound(MeanCriterion(), [PointMass(1.0), PointMass(1.0)], cert, 3.0, [10])


def test_pull_bound_regret_side():
    cert = StabilityCertificate(1.0, 1.0, 2.0)
    arms = [Uniform(2.5, 3.5), Uniform(0.5, 1.5)]
    bounds = expected_pull_bound(MeanCriterion(), arms, cert, 3.0, [100])[100]
    spec = MeanCriterion().functionals
    L = lipschitz_constant(cert, arms, spec)
    regret_bound = proxy_regret_bound(MeanCriterion(), arms, L, {100: bounds})[100]
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


def one_horizon_reference(criterion, arms, certificate, ucb_alpha, horizon):
    # the bounds and proxy-regret bound of one horizon, every quantity
    # rebuilt for it, in a loop over the arms
    best, _, gaps = best_single_arm(criterion, arms)
    tail = (ucb_alpha + 6.0) / (ucb_alpha - 2.0)
    bounds = [
        None if i == best else ucb_alpha * math.log(horizon) / phi(certificate, gap / 2.0) + tail
        for i, gap in enumerate(gaps)
    ]
    L = lipschitz_constant(certificate, arms, criterion.functionals)
    regret_bound = 0.0
    for i, u in enumerate(bounds):
        if u is None:
            continue
        regret_bound += u * norm_distance(arms[best], arms[i], criterion.functionals)
    regret_bound *= L / horizon
    return bounds, regret_bound


BOUND_CASES = {
    "cvar-gaussians": (
        CVaRCriterion(0.1),
        [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)],
        StabilityCertificate(2.0, 0.45, 2.0),
    ),
    "mean-uniforms": (
        MeanCriterion(),
        [Uniform(0.5, 1.5), Uniform(2.5, 3.5), Uniform(0.0, 2.0)],
        StabilityCertificate(1.0, 1.0, 2.0),
    ),
}


@pytest.mark.parametrize("case", BOUND_CASES.values(), ids=BOUND_CASES.keys())
def test_bounds_of_several_horizons_match_one_horizon_at_a_time(case):
    crit, arms, cert = case
    horizons = [1, 7, 1000, 10_000, 10**6]
    pull_bounds = expected_pull_bound(crit, arms, cert, 3.0, horizons)
    L = lipschitz_constant(cert, arms, crit.functionals)
    regret_bounds = proxy_regret_bound(crit, arms, L, pull_bounds)
    assert list(pull_bounds) == list(regret_bounds) == horizons
    for horizon in horizons:
        bounds, regret_bound = one_horizon_reference(crit, arms, cert, 3.0, horizon)
        assert pull_bounds[horizon] == bounds  # bit for bit
        assert regret_bounds[horizon] == regret_bound


def test_pull_bounds_take_no_norm_distance(monkeypatch):
    calls = []
    sup_distance = norms.sup_distance

    def counting_sup_distance(*args, **kwargs):
        calls.append(args)
        return sup_distance(*args, **kwargs)

    monkeypatch.setattr(norms, "sup_distance", counting_sup_distance)
    crit, arms, cert = BOUND_CASES["cvar-gaussians"]
    pull_bounds = expected_pull_bound(crit, arms, cert, 3.0, [1000, 10_000])
    assert calls == []
    # the regret side takes each best-to-arm distance once for all horizons
    proxy_regret_bound(crit, arms, 1.0, pull_bounds)
    assert len(calls) == 2
    assert proxy_regret_bound(crit, arms, 1.0, {}) == {}
    assert len(calls) == 2
