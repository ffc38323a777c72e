"""Torsion of graph-presented holomorphic distributions.

The torsion values below are cross-checked against a finite-difference
frame-bracket oracle that only ever evaluates a(z), so the exact
polynomial calculus and the circle rule are validated independently.
"""
import numpy as np
import pytest

from acs_verify import distribution
from acs_verify.cxlinalg import ComplexSubspace, subspace_eq
from acs_verify.distribution import (
    CRPolyMap,
    DistributionChart,
    TorsionTensor,
    frame_bracket_oracle,
    is_foliation,
    isotropy_test,
    random_polynomial_chart,
    torsion_at,
    torsion_via_frames,
)
from acs_verify.errors import (
    DimensionMismatch,
    DomainError,
    ShapeMismatch,
    InvalidParams,
    NotASubspaceOfFiber,
    NotNormalized,
)
from acs_verify.rng import SplitMix64
import oracles
from oracles import (
    complex_vector,
    coordinate_plane_subspaces,
    fiber_at,
    frame_vector,
    recenter,
    recenter_callable,
    transform_linear,
)


def monomial_chart(n, big_n, assignments):
    """Chart with entries a[i, j] = coeff * z^powers."""
    entries = {}
    for (i, j), (powers, coeff) in assignments.items():
        entries[(i, j)] = {(tuple(powers), (0,) * big_n): coeff}
    amap = CRPolyMap(big_n, n, big_n - n, entries)
    return DistributionChart(n, big_n, amap)


def example_chart_n1():
    # n=1, N=3, first fiber column a[0,0] = z_2 (the second fiber coord)
    return monomial_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})


def test_zero_chart_torsion_vanishes():
    chart = monomial_chart(1, 3, {})
    theta = torsion_at(chart)
    assert np.all(theta.theta == 0)
    assert is_foliation(chart, [np.zeros(3), 0.3 * np.ones(3)]) == 0.0


def test_example_value_minus_half():
    chart = example_chart_n1()
    theta = torsion_at(chart)
    assert theta.theta.shape == (1, 2, 2)
    assert abs(theta.theta[0, 0, 1] - (-0.5)) < 1e-14
    assert abs(theta.theta[0, 1, 0] - 0.5) < 1e-14
    # independent oracle: FD brackets of the frame fields
    oracle = frame_bracket_oracle(chart)
    assert np.max(np.abs(theta.theta - oracle.theta)) < 1e-9


def test_example_bilinear_apply():
    chart = example_chart_n1()
    theta = torsion_at(chart)
    eta = np.array([1.0 + 2.0j, -0.5j])
    lam = np.array([0.3, 1.0 - 1.0j])
    got = theta.apply(eta, lam)
    expected = eta[1] * lam[0] - eta[0] * lam[1]
    assert abs(got[0] - expected) < 1e-14


def test_apply_matches_jacobian_contraction():
    rng = SplitMix64(29)
    chart = random_polynomial_chart(2, 5, rng)
    theta = torsion_at(chart)
    jac = chart.a_jacobian(chart.center)
    n, m = 2, 3
    for _ in range(5):
        eta = complex_vector(rng, m)
        lam = complex_vector(rng, m)
        # lift a fiber vector eta to (0, eta) at the center and contract
        da_eta = np.einsum("icb,b->ic", jac[:, :, n:], eta)
        da_lam = np.einsum("icb,b->ic", jac[:, :, n:], lam)
        direct = da_eta @ lam - da_lam @ eta
        assert np.max(np.abs(theta.apply(eta, lam) - direct)) < 1e-12


def test_random_seed5_double_entry():
    chart = random_polynomial_chart(2, 5, SplitMix64(5))
    theta = torsion_at(chart)
    assert np.array_equal(theta.theta, -np.transpose(theta.theta, (0, 2, 1)))
    oracle = frame_bracket_oracle(chart)
    scale = max(1.0, theta.norm())
    assert np.max(np.abs(theta.theta - oracle.theta)) / scale < 1e-6


def test_double_entry_ten_random_charts():
    rng = SplitMix64(101)
    for _ in range(10):
        n = rng.integer(1, 2)
        big_n = rng.integer(n + 2, 6)
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.8)
        theta = torsion_at(chart)
        assert np.array_equal(theta.theta, -np.transpose(theta.theta, (0, 2, 1)))
        oracle = frame_bracket_oracle(chart)
        scale = max(1.0, theta.norm())
        assert np.max(np.abs(theta.theta - oracle.theta)) / scale < 1e-6


def test_not_normalized_guard():
    chart = monomial_chart(1, 3, {(0, 1): ((0, 0, 0), 0.7)})
    with pytest.raises(NotNormalized):
        torsion_at(chart)


def test_torsion_at_offcenter_point():
    # a depends only on fiber coords and vanishes on the base axis
    chart = monomial_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    z0 = np.array([0.4, 0.0, 0.0])
    theta = torsion_at(chart, z0)
    assert abs(theta.theta[0, 0, 1] - (-0.5)) < 1e-14


def test_recenter_zeroes_a_and_preserves_fibers():
    rng = SplitMix64(13)
    chart = random_polynomial_chart(2, 5, rng, amplitude=0.6)
    z1 = 0.3 * complex_vector(rng, 5)
    local = recenter(chart, z1)
    assert np.max(np.abs(local.a_value(np.zeros(5)))) < 1e-12

    n = 2
    a1 = chart.a_value(z1)
    shear = np.eye(5, dtype=complex)
    shear[:n, n:] = -a1
    shear_inv = np.eye(5, dtype=complex)
    shear_inv[:n, n:] = a1
    for _ in range(4):
        w = 0.1 * complex_vector(rng, 5)
        z = z1 + shear_inv @ w
        old_cols = np.concatenate(
            [chart.a_value(z), np.eye(3, dtype=complex)], axis=0
        )
        pushed = ComplexSubspace.from_columns(shear @ old_cols)
        assert subspace_eq(fiber_at(local, w), pushed)


def test_recenter_constant_chart():
    chart = monomial_chart(1, 3, {(0, 0): ((0, 0, 0), 0.9 - 0.4j)})
    local = recenter(chart, np.zeros(3))
    assert np.max(np.abs(local.a_value(np.zeros(3)))) < 1e-14
    assert torsion_at(local).norm() < 1e-14


def test_recenter_already_centered_is_identity():
    rng = SplitMix64(31)
    chart = random_polynomial_chart(1, 4, rng)
    local = recenter(chart, np.zeros(4))
    for _ in range(3):
        z = 0.2 * complex_vector(rng, 4)
        assert np.max(np.abs(local.a_value(z) - chart.a_value(z))) < 1e-12


def test_frame_route_matches_recentered_torsion():
    rng = SplitMix64(21)
    chart = random_polynomial_chart(2, 6, rng, amplitude=0.7)
    for _ in range(10):
        z1 = 0.3 * complex_vector(rng, 6)
        via_frames = torsion_via_frames(chart, z1)
        via_recenter = torsion_at(recenter(chart, z1))
        scale = max(1.0, via_frames.norm())
        assert np.max(np.abs(via_frames.theta - via_recenter.theta)) / scale < 1e-10
        oracle = frame_bracket_oracle(chart, z1)
        assert np.max(np.abs(via_frames.theta - oracle.theta)) / scale < 1e-6


@pytest.mark.parametrize("n, big_n", [(1, 3), (1, 5), (2, 4), (2, 6)])
def test_frame_torsion_matches_the_pairwise_loop(n, big_n):
    # == treats 0.0 and -0.0 alike, the one difference the two
    # antisymmetrizations may show
    rng = SplitMix64(60 + 10 * n + big_n)
    nonzero = 0
    for _ in range(4):
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.7)
        for z in (chart.center, 0.3 * complex_vector(rng, big_n)):
            got = torsion_via_frames(chart, z).theta
            want = oracles.torsion_via_frames_loop(chart, z).theta
            assert np.array_equal(got, want)
            nonzero += int(np.count_nonzero(want))
    assert nonzero > 0


def antisymmetrized(frame_deriv):
    return 0.5 * (np.swapaxes(frame_deriv, 1, 2) - frame_deriv)


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5), (3, 6)])
def test_frame_correction_matches_the_column_loop(n, big_n):
    rng = SplitMix64(90 + n)
    for _ in range(4):
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.7)
        for z in (chart.center, 0.3 * complex_vector(rng, big_n)):
            got = torsion_via_frames(chart, z).theta
            want = antisymmetrized(oracles.frame_derivatives_by_column(chart, z))
            assert np.array_equal(got, want)


def test_chart_map_with_a_conj_power_is_refused():
    zero = (0, 0, 0)
    holo = CRPolyMap(3, 1, 2, {(0, 0): {((0, 0, 1), zero): 1.0}})
    assert DistributionChart(1, 3, holo).amap is holo
    mixed = holo + CRPolyMap(3, 1, 2, {(0, 1): {(zero, (1, 0, 0)): 0.5}})
    with pytest.raises(ShapeMismatch):
        DistributionChart(1, 3, mixed)


def test_crpoly_constructor_checks_shapes_and_drops_zero_coefficients():
    one = ((1, 0), (0, 0))
    for index in [(1, 0), (0, 2), (-1, 0)]:
        with pytest.raises(ShapeMismatch):
            CRPolyMap(2, 1, 2, {index: {one: 1.0}})
    for key in [((1,), (0, 0)), ((1, 0), (0, 0, 0))]:
        with pytest.raises(DimensionMismatch):
            CRPolyMap(2, 1, 2, {(0, 0): {key: 1.0}})
    m = CRPolyMap(2, 1, 2, {(0, 0): {one: 0.0, ((0, 1), (1, 0)): 2},
                            (0, 1): {one: 0j}})
    assert m.entries == {(0, 0): {((0, 1), (1, 0)): 2 + 0j}, (0, 1): {}}
    assert type(m.entries[(0, 0)][((0, 1), (1, 0))]) is complex


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5)])
def test_torsion_at_is_the_frame_route_bitwise(n, big_n):
    rng = SplitMix64(80 + n)
    for _ in range(4):
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.7)
        for normalized in (chart, recenter(chart, 0.2 * complex_vector(rng, big_n))):
            got = torsion_at(normalized).theta
            want = torsion_via_frames(normalized, normalized.center).theta
            assert got.tobytes() == want.tobytes()


def foliation_chart_n1():
    # columns of a share one constant direction: a(z) = (z_0^2, 0.5j z_0^2),
    # which keeps every frame bracket inside the distribution
    return monomial_chart(
        1, 3, {(0, 0): ((2, 0, 0), 1.0), (0, 1): ((2, 0, 0), 0.5j)}
    )


def frobenius_defect(chart, z, h=1e-5):
    """Worst residual of frame brackets against the fiber, by plain FD.

    Builds the full frame vector fields, differentiates them by central
    differences, and measures how far each bracket sticks out of the
    span. Zero defect at every point characterizes a foliation, so this
    is an oracle for is_foliation that never reads the torsion.
    """
    big_n, m = chart.big_n, chart.fiber_dim
    frames = [lambda p, j=j: frame_vector(chart, p, j) for j in range(m)]
    jacs = []
    for v in frames:
        jac = np.zeros((big_n, big_n), dtype=complex)
        for b in range(big_n):
            step = np.zeros(big_n, dtype=complex)
            step[b] = h
            jac[:, b] = (v(z + step) - v(z - step)) / (2 * h)
        jacs.append(jac)
    proj = fiber_at(chart, z).projector()
    worst = 0.0
    for j in range(m):
        for k in range(j + 1, m):
            bracket = jacs[k] @ frames[j](z) - jacs[j] @ frames[k](z)
            out = bracket - proj @ bracket
            worst = max(worst, float(np.max(np.abs(out), initial=0.0)))
    return worst


def test_foliation_constant_direction_columns():
    chart = foliation_chart_n1()
    rng = SplitMix64(3)
    points = [np.zeros(3)] + [0.3 * complex_vector(rng, 3) for _ in range(5)]
    assert is_foliation(chart, points) < 1e-12
    for z in points:
        assert frobenius_defect(chart, z) < 1e-8


def test_base_dependent_columns_can_still_twist():
    # a = (z_0^2, -0.5j z_0^3) has no fiber-coordinate dependence yet the
    # bracket [e_0, e_1] = c z_0^4 d/dz_0 leaves the distribution away
    # from the axis, and the torsion sees exactly that
    chart = monomial_chart(
        1, 3, {(0, 0): ((2, 0, 0), 1.0), (0, 1): ((3, 0, 0), -0.5j)}
    )
    z = np.array([0.4, 0.1, -0.2j])
    defect = frobenius_defect(chart, z)
    coeff = -0.5j * 0.4**4  # bracket = coeff * d/dz_0 before reduction
    bracket = np.array([coeff, 0.0, 0.0])
    proj = fiber_at(chart, z).projector()
    expected = np.max(np.abs(bracket - proj @ bracket))
    assert abs(defect - expected) < 1e-6
    theta = torsion_via_frames(chart, z)
    assert abs(2 * theta.theta[0, 0, 1] - coeff) < 1e-12
    assert is_foliation(chart, [np.zeros(3), z]) > 1e-3


def test_example_chart_is_not_foliation():
    chart = example_chart_n1()
    assert is_foliation(chart, [np.zeros(3)]) > 0.4


def test_foliation_survives_linear_frame_change():
    chart = foliation_chart_n1()
    rng = SplitMix64(17)
    l_matrix = np.eye(3, dtype=complex) + 0.25 * rng.complex_matrix(3, 3)
    moved = transform_linear(chart, l_matrix)
    points = [np.zeros(3)] + [0.15 * complex_vector(rng, 3) for _ in range(10)]
    # the moved chart map is a black box, so the oracle recenters it
    norms = [torsion_at(recenter_callable(moved, z)).norm() for z in points]
    assert all(v < 1e-4 for v in norms), f"torsion norms {norms}"
    # control: a genuinely twisted chart stays twisted after the same move
    twisted = transform_linear(example_chart_n1(), l_matrix)
    assert torsion_at(recenter_callable(twisted, np.zeros(3))).norm() > 1e-2


def test_recenter_refuses_a_chart_map_that_is_not_polynomial():
    moved = transform_linear(foliation_chart_n1(), np.eye(3, dtype=complex))
    with pytest.raises(ShapeMismatch):
        recenter(moved, np.zeros(3))


def test_isotropy_rank_one_always_passes():
    chart = example_chart_n1()
    theta = torsion_at(chart)
    s = ComplexSubspace(np.array([[0.0], [1.0], [0.0]], dtype=complex))
    ok, worst = isotropy_test(theta, s, n=1)
    assert ok and worst == 0.0


def test_isotropy_coordinate_plane_scan():
    # n=2, N=6: a[0,1] = z_2 gives theta[0,0,1] = 1/2, all else zero
    chart = monomial_chart(2, 6, {(0, 1): ((0, 0, 1, 0, 0, 0), 1.0)})
    theta = torsion_at(chart)
    assert abs(theta.theta[0, 0, 1] - 0.5) < 1e-14
    verdicts = {}
    for combo, plane in coordinate_plane_subspaces(2, 4):
        ok, _ = isotropy_test(theta, plane, n=2)
        verdicts[combo] = ok
    assert verdicts[(0, 1)] is False
    for combo, ok in verdicts.items():
        if combo != (0, 1):
            assert ok, f"plane {combo} should be null for this torsion"


def test_isotropy_input_guards():
    chart = monomial_chart(2, 6, {(0, 1): ((0, 0, 1, 0, 0, 0), 1.0)})
    theta = torsion_at(chart)
    leaky = np.zeros((6, 2), dtype=complex)
    leaky[0, 0] = 1.0
    leaky[3, 1] = 1.0
    with pytest.raises(NotASubspaceOfFiber):
        isotropy_test(theta, ComplexSubspace(leaky), n=2)
    small = np.zeros((6, 1), dtype=complex)
    small[3, 0] = 1.0
    with pytest.raises(InvalidParams):
        isotropy_test(theta, ComplexSubspace(small), n=2)


def test_domain_radius_enforced():
    chart = example_chart_n1()
    with pytest.raises(DomainError):
        chart.a_value(np.array([1.2, 0.0, 0.0]))


def test_substitute_affine_exact():
    rng = SplitMix64(41)
    amap = random_polynomial_chart(2, 5, rng).amap
    m = rng.complex_matrix(5, 5, scale=0.4) + np.eye(5)
    c = 0.2 * complex_vector(rng, 5)
    zero = (0,) * 5
    affine = {(b, 0): {(zero, zero): c[b], **{
        (zero[:g] + (1,) + zero[g + 1:], zero): m[b, g] for g in range(5)}}
        for b in range(5)}
    composed = amap.substitute(CRPolyMap(5, 5, 1, affine))
    for _ in range(4):
        w = 0.3 * complex_vector(rng, 5)
        z = m @ w + c
        assert np.max(np.abs(composed.value(w) - amap.value(z))) < 1e-12
        chained = np.einsum("ijb,bg->ijg", amap.jacobian(z), m)
        assert np.max(np.abs(composed.jacobian(w) - chained)) < 1e-12


def test_circle_rule_matches_exact_jacobian():
    rng = SplitMix64(47)
    amap = random_polynomial_chart(2, 5, rng).amap
    z = 0.2 * complex_vector(rng, 5)
    rule = distribution.circle_rule_jacobian(amap.value, z, 5, h=0.05)
    assert np.max(np.abs(rule - amap.jacobian(z))) < 1e-12


def test_is_foliation_keeps_a_nan_torsion(monkeypatch):
    # max(0.0, nan) is 0.0: a plain max fold would call this a foliation
    nan_theta = TorsionTensor(np.full((1, 2, 2), np.nan))
    monkeypatch.setattr(distribution, "torsion_via_frames", lambda chart, z: nan_theta)
    assert np.isnan(is_foliation(foliation_chart_n1(), [np.zeros(3), 0.1 * np.ones(3)]))


def test_isotropy_test_keeps_a_nan_pairing():
    theta = TorsionTensor(np.full((2, 2, 2), np.nan))
    fiber = np.zeros((4, 2), dtype=complex)
    fiber[2, 0] = fiber[3, 1] = 1.0
    ok, worst = isotropy_test(theta, ComplexSubspace(fiber), 2)
    assert not ok and np.isnan(worst)
