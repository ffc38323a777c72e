"""The pointwise flag-space model: building the 5-tuple over torus
samples, recovering the input structure through the quotient, graph
charts with their torsion, versality ranks, and the symplectic variant.

All randomness is seeded through SplitMix64 so every value here is
reproducible bit for bit.
"""
import types

import numpy as np
import pytest

import oracles
from acs_verify import universal
from acs_verify.config import DEFAULT
import scipy.linalg

from acs_verify.cxlinalg import (
    ComplexSubspace,
    LinearComplexStructure,
    complexify_vector,
    direct_sum_test,
    eigen_split,
    intersect,
    nullspace,
    realify_vector,
    standard_structure,
    subspace_eq,
)
from acs_verify.distribution import (
    TorsionTensor,
    frame_bracket_oracle,
    isotropy_test,
    torsion_at,
)
from acs_verify.errors import (
    EigenSplitFailure,
    InvalidParams,
    NotCompatible,
    NotTransverse,
    RankDeficientEmbedding,
)
from acs_verify.fields import (
    AlmostComplexField,
    CallableMatrixField,
    TorusChart,
    TrigPolyField,
    nijenhuis_direct,
)
from acs_verify.rng import SplitMix64
from oracles import reconstruction_report
from acs_verify.universal import (
    ChartFrame,
    DistributionFiber,
    PointwiseACManifold,
    _fiber_frame_coords,
    _induced_from_parts,
    build_fiber,
    darboux_transform,
    dbar_embedding,
    default_torus_embedding,
    dimension_symplectic,
    dimension_universal,
    induced_structure_at,
    induced_structure_field,
    isotropy_subspace,
    manifold_from_json,
    manifold_to_json,
    plucker_reality_certificate,
    random_compatible_symplectic,
    symplectic_pointwise_model,
    universal_chart,
    versality_check,
    versality_pairing,
    versality_rank_from_parts,
)


def perturbed_manifold(n, seed=9, eps=0.1):
    """Torus with the product-circle embedding and a conjugated structure."""
    rng = SplitMix64(seed)
    a = TrigPolyField.random(2 * n, (2 * n, 2 * n), rng,
                             max_degree=2, n_terms=3, amplitude=1.0)
    j = AlmostComplexField.conjugated(a, eps)
    return PointwiseACManifold(n, 4 * n, default_torus_embedding(n), j)


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------

def test_dimension_universal_values():
    assert dimension_universal(1, 4) == 46
    assert dimension_universal(2, 8) == 168
    assert dimension_universal(1, 2) == 14


def test_dimension_universal_closed_form_at_k_equals_4n():
    for n in (1, 2, 3):
        assert dimension_universal(n, 4 * n) == 38 * n * n + 8 * n


def test_dimension_universal_rejects_bad_params():
    with pytest.raises(InvalidParams):
        dimension_universal(0, 4)
    with pytest.raises(InvalidParams):
        dimension_universal(2, 2)


def test_dimension_symplectic_values():
    assert dimension_symplectic(1, 1, 3) == 52
    assert dimension_symplectic(1, 2, 3) == 178
    assert dimension_symplectic(2, 1, 5) == 142
    with pytest.raises(InvalidParams):
        dimension_symplectic(2, 1, 4)
    with pytest.raises(InvalidParams):
        dimension_symplectic(0, 1, 3)


# ---------------------------------------------------------------------------
# embeddings and fiber points
# ---------------------------------------------------------------------------

def test_default_torus_embedding_values():
    g = default_torus_embedding(1)
    x = np.array([0.3, 1.2])
    v = g.value(x)[:, 0]
    expect = np.array([np.cos(0.3), np.sin(0.3), np.cos(1.2), np.sin(1.2)])
    assert np.allclose(v, expect, atol=1e-15)
    dg = g.jacobian_value(x)
    assert dg.shape == (4, 2)
    assert np.linalg.matrix_rank(dg) == 2


def test_default_torus_embedding_full_rank_n2():
    g = default_torus_embedding(2)
    for x in TorusChart(4).grid((3, 3, 3, 3)):
        sv = np.linalg.svd(g.jacobian_value(x), compute_uv=False)
        assert sv[-1] > 0.9


def test_build_fiber_flat_dimensions():
    m = PointwiseACManifold.default_torus(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    assert (p.sp.dim, p.spp.dim, p.sigp.dim, p.sigpp.dim) == (3, 3, 4, 4)
    p.validate()


def test_build_fiber_perturbed_is_real_point():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    p.validate()
    assert p.z.shape == (8,)
    assert np.max(np.abs(p.z.imag)) < 1e-12


def test_build_fiber_rejects_rank_deficient_embedding():
    g = TrigPolyField.constant(2, np.ones((4, 1)))
    m = PointwiseACManifold(1, 4, g, AlmostComplexField.standard(1))
    with pytest.raises(RankDeficientEmbedding):
        build_fiber(np.zeros(2), m)


def eigen_split_fiber(x, m):
    """(S', S'', Sig', Sig'') by the generic route: the 2k x 2k doubled
    structure Jt = F B F^-1, SVD kernels of Jt -+ i, intersections with S."""
    n, k = m.n, m.k
    dg = m.g.jacobian_value(x)
    nx = nullspace(dg.T, DEFAULT.rank_rtol).real
    zeros_nx = np.zeros_like(nx)
    anti = np.vstack([dg, -dg])
    n1 = np.vstack([nx, zeros_nx])
    n2 = np.vstack([zeros_nx, nx])
    frame = np.concatenate([np.vstack([dg, dg]), anti, n1, n2], axis=1)
    jx = m.j.value(x)
    blocks = scipy.linalg.block_diag(jx, -jx, standard_structure(k - 2 * n))
    jtilde = frame @ blocks @ np.linalg.inv(frame)
    split = eigen_split(LinearComplexStructure(jtilde))
    s_space = ComplexSubspace.from_columns(np.concatenate([anti, n1, n2], axis=1))
    return (intersect(split.plus_i, s_space), intersect(split.minus_i, s_space),
            split.plus_i, split.minus_i)


@pytest.mark.parametrize("n", [1, 2])
def test_build_fiber_matches_eigen_split_oracle(n):
    m = perturbed_manifold(n)
    rng = SplitMix64(30 + n)
    for _ in range(6):
        x = rng.reals(2 * n, 0.0, 2.0 * np.pi)
        p = build_fiber(x, m)
        assert (p.sp.dim, p.sigp.dim) == (3 * n, 4 * n)
        for got, want in zip((p.sp, p.spp, p.sigp, p.sigpp), eigen_split_fiber(x, m)):
            assert subspace_eq(got, want)


def test_build_fiber_rejects_point_where_j_is_not_complex():
    # J^2 = -Id everywhere except at one sample, which the field's own
    # two-point validation does not visit
    j0 = standard_structure(1)
    bad = np.array([0.5, 0.7])

    def fn(x):
        return 2.0 * j0 if np.array_equal(x, bad) else j0

    j = AlmostComplexField(TorusChart(2), CallableMatrixField(2, (2, 2), fn))
    m = PointwiseACManifold(1, 4, default_torus_embedding(1), j)
    build_fiber(np.array([0.5, 0.8]), m)
    with pytest.raises(EigenSplitFailure):
        build_fiber(bad, m)


def test_universal_point_validate_catches_tampering():
    m = PointwiseACManifold.default_torus(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    p.sigpp = p.sigp  # +i eigenspace twice cannot split the ambient space
    with pytest.raises(EigenSplitFailure):
        p.validate()


def test_distribution_fiber_quotient_frame():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([1.1, 0.2]), m)
    fib = DistributionFiber(p)
    assert fib.horizontal_part.dim == 7
    q = fib.quotient_frame()
    assert q.dim == 1
    ok, _ = direct_sum_test(q, fib.horizontal_part)
    assert ok


# ---------------------------------------------------------------------------
# induced structure through the quotient
# ---------------------------------------------------------------------------

def test_induced_structure_constant_j_is_constant():
    # translation invariance: standard input gives standard output
    m = PointwiseACManifold.default_torus(1)
    j0 = standard_structure(1)
    rng = SplitMix64(21)
    for _ in range(5):
        x = rng.reals(2, 0.0, 2.0 * np.pi)
        assert np.max(np.abs(induced_structure_at(x, m) - j0)) < 1e-12


def test_induced_structure_matches_input_random_points():
    m = perturbed_manifold(1)
    rng = SplitMix64(4)
    for _ in range(20):
        x = rng.reals(2, 0.0, 2.0 * np.pi)
        jf = induced_structure_at(x, m)
        assert np.max(np.abs(jf - m.j.value(x))) < 1e-8
        assert np.max(np.abs(jf @ jf + np.eye(2))) < 1e-10


def test_induced_structure_grid_sweep_n1():
    rep = reconstruction_report(perturbed_manifold(1), (10, 10))
    assert rep["points_checked"] == 100
    assert rep["max_deviation"] <= 1e-8
    assert rep["min_sigma"] > 1e-6


def test_induced_structure_grid_sweep_n2_small():
    rep = reconstruction_report(perturbed_manifold(2), (3, 3, 3, 3))
    assert rep["points_checked"] == 81
    assert rep["max_deviation"] <= 1e-8


def test_not_transverse_when_fiber_swallows_base_direction():
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    p = build_fiber(x, m)
    fib = DistributionFiber(p).horizontal_part
    dg2k = np.vstack([m.g.jacobian_value(x), m.g.jacobian_value(x)])
    bad_cols = np.concatenate(
        [dg2k[:, :1].astype(complex), fib.basis[:, :-1]], axis=1
    )
    bad = ComplexSubspace.from_columns(bad_cols)
    with pytest.raises(NotTransverse):
        _induced_from_parts(dg2k[None], bad.basis[None])


# ---------------------------------------------------------------------------
# reality certificate
# ---------------------------------------------------------------------------

def test_plucker_certificate_on_built_points():
    for m in (PointwiseACManifold.default_torus(1), perturbed_manifold(1)):
        p = build_fiber(np.array([0.5, 0.7]), m)
        assert plucker_reality_certificate(p) > 1.0 - 1e-10


def test_plucker_certificate_rejects_quadric_point():
    # span((1, i, 0, 0)) has wedge coordinates on the null quadric
    iso = ComplexSubspace.from_columns(
        np.array([[1.0], [1.0j], [0.0], [0.0]]) / np.sqrt(2.0)
    )
    other = ComplexSubspace.from_columns(np.array([[0.0], [0.0], [1.0], [0.0]]))
    fake = types.SimpleNamespace(sp=iso, spp=other)
    assert plucker_reality_certificate(fake) < 1e-10


# ---------------------------------------------------------------------------
# graph charts at a fiber point
# ---------------------------------------------------------------------------

def test_universal_chart_centered_with_model_dimension():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    chart = universal_chart(p)
    assert chart.big_n == dimension_universal(1, 4)
    assert chart.fiber_dim == chart.big_n - 1
    a0 = chart.a_value(np.zeros(chart.big_n))
    assert np.max(np.abs(a0)) < 1e-14


def test_universal_chart_small_parameters():
    # k = 2 needs a pointwise-rank-2 embedding of T^2 into R^2... which
    # cannot exist globally; rank holds on a neighborhood of the sample
    terms = {
        (1, 0): (np.array([[1.0], [0.0]]), np.array([[0.0], [0.3]])),
        (0, 1): (np.array([[0.0], [1.0]]), np.array([[0.2], [0.0]])),
    }
    g = TrigPolyField(2, (2, 1), terms)
    m = PointwiseACManifold(1, 2, g, AlmostComplexField.standard(1))
    p = build_fiber(np.array([0.4, 0.3]), m)
    chart = universal_chart(p)
    assert chart.big_n == dimension_universal(1, 2)
    theta = torsion_at(chart)
    assert theta.theta.shape == (1, 13, 13)


def test_universal_chart_torsion_double_entry():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    chart = universal_chart(p)
    direct = torsion_at(chart)
    oracle = frame_bracket_oracle(chart)
    assert direct.norm() > 0.1  # the distribution is nowhere a foliation
    scale = max(direct.norm(), oracle.norm())
    assert np.max(np.abs(direct.theta - oracle.theta)) / scale < 1e-6
    flipped = -np.transpose(direct.theta, (0, 2, 1))
    assert np.array_equal(direct.theta, flipped)


def test_chart_coordinates_vanish_at_center():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    frame = ChartFrame(p)
    z = frame.coordinates(p.z, p.sp, p.spp, p.sigp, p.sigpp)
    assert np.max(np.abs(z)) < 1e-10


def test_chart_coordinates_track_nearby_fibers():
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    frame = ChartFrame(build_fiber(x, m))
    q = build_fiber(x + np.array([1e-3, -2e-3]), m)
    z = frame.coordinates(q.z, q.sp, q.spp, q.sigp, q.sigpp)
    assert 0.0 < np.max(np.abs(z)) < 0.1


# ---------------------------------------------------------------------------
# versality of the construction
# ---------------------------------------------------------------------------

def test_versality_flat_and_perturbed():
    for m in (PointwiseACManifold.default_torus(1), perturbed_manifold(1)):
        for x in (np.array([0.5, 0.7]), np.array([2.0, 1.3]), np.array([4.1, 5.6])):
            rep = versality_check(x, m)
            assert rep["inj"]
            assert rep["surj_rank"] == rep["target_rank"] == 2
            assert rep["sv_gap"] >= 1e-6
            assert rep["fiber_membership_residual"] < 1e-8


def test_versality_rank_invariant_under_chart_rechoice():
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    base = versality_check(x, m)
    mixed = versality_check(x, m, mixer=SplitMix64(5))
    assert mixed["surj_rank"] == base["surj_rank"] == 2
    assert mixed["inj"]
    assert mixed["sv_gap"] >= 1e-6


def test_versality_controls_report_rank_zero():
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    p = build_fiber(x, m)
    frame = ChartFrame(p)
    chart = universal_chart(p)
    jf = induced_structure_at(x, m)
    dbar, _ = dbar_embedding(x, m, frame, jf)
    etas, _ = _fiber_frame_coords(dbar, 1)
    theta = torsion_at(chart)
    fiber_dim = chart.big_n - 1
    assert versality_rank_from_parts(
        TorsionTensor(np.zeros((1, fiber_dim, fiber_dim))), etas
    )["surj_rank"] == 0
    assert versality_rank_from_parts(
        theta, np.zeros_like(etas)
    )["surj_rank"] == 0


def pairing_by_columns(theta, etas, head_map=None):
    """The versality pairing one TorsionTensor.apply at a time."""
    m_dim = theta.theta.shape[1]
    two_n = etas.shape[1]
    cols = []
    for b in range(2 * m_dim):
        u = complexify_vector(np.eye(2 * m_dim)[:, b])
        mat = np.zeros((two_n, two_n))
        for r in range(two_n):
            qr = realify_vector(theta.apply(etas[:, r], u))
            if head_map is not None:
                qr = np.linalg.solve(head_map, qr)
            mat[:, r] = qr
        cols.append(mat.reshape(-1))
    return np.stack(cols, axis=1)


def test_versality_pairing_matches_per_column_apply():
    m = perturbed_manifold(1)
    x = np.array([2.0, 1.3])
    p = build_fiber(x, m)
    frame = ChartFrame(p)
    dbar, df = dbar_embedding(x, m, frame, induced_structure_at(x, m))
    etas, _ = _fiber_frame_coords(dbar, 1)
    theta = torsion_at(universal_chart(p))
    head_map = np.vstack([df[:1, :], df[frame.big_n: frame.big_n + 1, :]])
    for hm in (None, head_map):
        want = pairing_by_columns(theta, etas, hm)
        got = versality_pairing(theta, etas, hm)
        assert got.shape == want.shape == (4, 2 * (frame.big_n - 1))
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# integrable structures land on torsion-isotropic subspaces
# ---------------------------------------------------------------------------

def test_isotropy_constant_j_n1():
    m = PointwiseACManifold.default_torus(1)
    x = np.array([0.5, 0.7])
    p = build_fiber(x, m)
    frame = ChartFrame(p)
    chart = universal_chart(p)
    dbar, _ = dbar_embedding(x, m, frame, induced_structure_at(x, m))
    sub = isotropy_subspace(dbar, chart.big_n)
    assert sub.dim == 1
    ok, worst = isotropy_test(torsion_at(chart), sub, 1)
    assert ok and worst < 1e-9


def test_isotropy_constant_j_n2_nonvacuous():
    # n = 2 exercises a genuine off-diagonal torsion pairing
    m = PointwiseACManifold.default_torus(2)
    x = np.array([0.3, 1.1, 2.0, 0.7])
    p = build_fiber(x, m)
    frame = ChartFrame(p)
    chart = universal_chart(p)
    theta = torsion_at(chart)
    assert theta.norm() > 0.1
    dbar, _ = dbar_embedding(x, m, frame, induced_structure_at(x, m))
    sub = isotropy_subspace(dbar, chart.big_n)
    assert sub.dim == 2
    ok, worst = isotropy_test(theta, sub, 2)
    assert ok and worst < 1e-9


def test_induced_field_nijenhuis_vanishes_for_constant_j():
    m = PointwiseACManifold.default_torus(1)
    jf_field = induced_structure_field(m)
    rng = SplitMix64(11)
    worst = 0.0
    for _ in range(5):
        x = rng.reals(2, 0.0, 2.0 * np.pi)
        zeta = rng.reals(2)
        eta = rng.reals(2)
        val = nijenhuis_direct(jf_field, x, zeta, eta)
        worst = max(worst, float(np.max(np.abs(val))))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# symplectic pointwise model
# ---------------------------------------------------------------------------

def standard_symplectic_inputs():
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    gamma = np.block([
        [np.zeros((2, 2)), np.eye(2)],
        [-np.eye(2), np.zeros((2, 2))],
    ])
    embed = np.zeros((4, 2))
    embed[0, 0] = 1.0
    embed[2, 1] = 1.0
    return omega, j0, gamma, embed


def test_random_compatible_generator_postconditions():
    rng = SplitMix64(41)
    om, jx, gamma, embed = random_compatible_symplectic(rng, 2, 1)
    assert np.max(np.abs(jx @ jx + np.eye(4))) < 1e-12
    assert np.max(np.abs(jx.T @ om @ jx - om)) < 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (om @ jx + (om @ jx).T))) > 0
    assert np.max(np.abs(embed.T @ gamma @ embed - om)) < 1e-12


def test_darboux_transform_normalizes_random_forms():
    rng = SplitMix64(7)
    for m in (1, 2, 3):
        raw = rng.real_matrix(2 * m, 2 * m, 1.0)
        gamma = raw - raw.T
        t = darboux_transform(gamma)
        target = np.block([
            [np.zeros((m, m)), np.eye(m)],
            [-np.eye(m), np.zeros((m, m))],
        ])
        assert np.max(np.abs(t.T @ gamma @ t - target)) < 1e-10


def test_darboux_transform_rejects_bad_forms():
    with pytest.raises(InvalidParams):
        darboux_transform(np.zeros((3, 3)))
    with pytest.raises(InvalidParams):
        darboux_transform(np.eye(4))
    degenerate = np.zeros((4, 4))
    degenerate[0, 1] = 1.0
    degenerate[1, 0] = -1.0
    with pytest.raises(InvalidParams):
        darboux_transform(degenerate)


def test_symplectic_model_standard_inputs_exact():
    omega, j0, gamma, embed = standard_symplectic_inputs()
    rep = symplectic_pointwise_model(omega, j0, {"gamma": gamma, "embed": embed})
    assert rep["compatible"] and rep["pullback_matches"]
    assert rep["max_residual_compatibility"] <= 1e-10
    assert rep["max_residual_pullback"] <= 1e-10
    assert rep["jsq_residual"] <= 1e-10
    assert rep["swap_residual"] > 1e-2  # sign-flipped doubling must fail


def test_symplectic_model_random_compatible_inputs():
    rng = SplitMix64(3)
    for trial in range(3):
        n = 1 + trial % 2
        om, jx, gamma, embed = random_compatible_symplectic(rng, n, 1 + trial)
        rep = symplectic_pointwise_model(om, jx, {"gamma": gamma, "embed": embed})
        assert rep["max_residual_compatibility"] <= 1e-10
        assert rep["max_residual_pullback"] <= 1e-10
        assert rep["jsq_residual"] <= 1e-10
        assert rep["swap_residual"] > 1e-2


def test_symplectic_model_rejects_incompatible_inputs():
    omega, j0, gamma, embed = standard_symplectic_inputs()
    with pytest.raises(NotCompatible):
        symplectic_pointwise_model(-omega, j0, {"gamma": gamma, "embed": embed})
    with pytest.raises(NotCompatible):
        symplectic_pointwise_model(
            omega, j0, {"gamma": gamma, "embed": 2.0 * embed}
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_manifold_json_roundtrip_conjugated():
    m = perturbed_manifold(1)
    back = manifold_from_json(manifold_to_json(m))
    x = np.array([0.9, 2.2])
    assert np.max(np.abs(back.g.value(x) - m.g.value(x))) < 1e-14
    assert np.max(np.abs(back.j.value(x) - m.j.value(x))) < 1e-12


def test_manifold_json_roundtrip_constant():
    m = PointwiseACManifold.default_torus(1)
    back = manifold_from_json(manifold_to_json(m))
    x = np.array([0.9, 2.2])
    assert np.max(np.abs(back.j.value(x) - m.j.value(x))) < 1e-14


def test_fiber_frame_coords_keeps_a_nan_head_component():
    # max(0.0, nan) is 0.0: a plain max fold would certify membership
    cols = np.zeros((6, 2))
    cols[0, 0] = np.nan
    _, head_resid = _fiber_frame_coords(cols, 1)
    assert np.isnan(head_resid)


def test_reconstruction_report_keeps_a_nan_deviation(monkeypatch):
    monkeypatch.setattr(oracles, "induced_at",
                        lambda x, m, tol: (np.full((2, 2), np.nan), 1.0))
    rep = reconstruction_report(PointwiseACManifold.default_torus(1), (2, 2))
    assert np.isnan(rep["max_deviation"])


@pytest.mark.parametrize("n", [1, 2])
def test_induced_structure_at_from_a_built_point_is_bitwise_equal(n):
    m = perturbed_manifold(n)
    for x in TorusChart(2 * n).grid([2] * (2 * n))[:3]:
        point = build_fiber(x, m, DEFAULT)
        assert np.array_equal(
            induced_structure_at(x, m, DEFAULT, point=point),
            induced_structure_at(x, m, DEFAULT))


# ---------------------------------------------------------------------------
# the stacked route against the per-point oracle, bit for bit
# ---------------------------------------------------------------------------

def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_fiber_bits(point, want):
    assert same_bits(point.z, want.z)
    for name in ("sp", "spp", "sigp", "sigpp"):
        assert same_bits(getattr(point, name).basis, getattr(want, name).basis), name


@pytest.mark.parametrize("n, counts", [(1, [6, 7]), (2, [3, 3, 3, 3])])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_fibers_and_jf_match_the_oracle_bitwise(n, counts, seed):
    m = perturbed_manifold(n, seed=seed)
    pts = TorusChart(2 * n).grid(counts)
    assert len(pts) % universal.FIBER_CHUNK != 0
    points = list(universal.build_fibers(pts, m))
    assert len(points) == len(pts)
    for start in range(0, len(pts), universal.FIBER_CHUNK):
        rows = pts[start:start + universal.FIBER_CHUNK]
        chunk = points[start:start + universal.FIBER_CHUNK]
        jfs = universal.induced_structures(rows, chunk, m)
        for x, point, jf in zip(rows, chunk, jfs):
            want = oracles.build_fiber(x, m)
            assert_fiber_bits(point, want)
            assert same_bits(jf, oracles.induced_at(x, m, point=want)[0])


@pytest.mark.parametrize("n", [1, 2])
def test_chunk_of_one_matches_the_oracle_bitwise(n):
    m = perturbed_manifold(n, seed=5)
    for x in TorusChart(2 * n).grid([2] * (2 * n))[:4]:
        assert_fiber_bits(build_fiber(x, m), oracles.build_fiber(x, m))
        assert same_bits(induced_structure_at(x, m), oracles.induced_at(x, m)[0])


def test_reconstruction_check_matches_the_oracle_sweep():
    from acs_verify.checks import build_manifold
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["checks"] = ["universal_reconstruction"]
    [record], _ = run_scenario(doc)
    rep = reconstruction_report(build_manifold(doc["payload"], doc["seed"]),
                                doc["samples"]["counts"])
    assert record["samples_checked"] == rep["points_checked"]
    assert record["max_residual"] == rep["max_deviation"]


def test_validate_fibers_rejects_the_first_tampered_point_of_a_stack():
    m = perturbed_manifold(1)
    points = list(universal.build_fibers(TorusChart(2).grid([2, 2]), m))
    stack = [np.stack([getattr(p, name).basis for p in points])
             for name in ("sp", "spp", "sigp", "sigpp")]
    z = np.stack([p.z for p in points])
    universal.validate_fibers(1, 4, z, *stack)
    z[2, 0] += 1e-3j  # the third base point leaves the real locus
    with pytest.raises(EigenSplitFailure, match="base point is not real"):
        universal.validate_fibers(1, 4, z, *stack)
    stack[3][1] = stack[2][1]  # Sigma'' := Sigma' at the second point
    with pytest.raises(EigenSplitFailure, match="S'' is not contained"):
        universal.validate_fibers(1, 4, z, *stack)
