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
from acs_verify import distribution, universal
from acs_verify.config import DEFAULT, Tolerances
import scipy.linalg

from acs_verify.cxlinalg import (
    ComplexSubspace,
    LinearComplexStructure,
    complexify_vector,
    eigen_split,
    intersect,
    nullspace,
    realify_vector,
    standard_structure,
    subspace_eq,
)
from acs_verify.distribution import (
    TorsionTensor,
    circle_rule_jacobian,
    frame_bracket_oracle,
    isotropy_test,
    torsion_at,
    torsion_via_frames,
)
from acs_verify.errors import (
    ChartDegeneracy,
    DimensionMismatch,
    DomainError,
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
from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario
from acs_verify.universal import (
    ChartFrame,
    PointwiseACManifold,
    UniversalSample,
    _block_diag,
    _induced_from_parts,
    build_fiber,
    darboux_transform,
    default_torus_embedding,
    dimension_symplectic,
    dimension_universal,
    induced_structure_at,
    induced_structure_field,
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
    dg = oracles.jacobian_value(g, x)
    assert dg.shape == (4, 2)
    assert np.linalg.matrix_rank(dg) == 2


def test_default_torus_embedding_full_rank_n2():
    g = default_torus_embedding(2)
    for x in TorusChart(4).grid((3, 3, 3, 3)):
        sv = np.linalg.svd(oracles.jacobian_value(g, x), compute_uv=False)
        assert sv[-1] > 0.9


def test_build_fiber_flat_dimensions():
    m = oracles.default_torus(1)
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
    dg = oracles.jacobian_value(m.g, x)
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
    m = oracles.default_torus(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    p.sigpp = p.sigp  # +i eigenspace twice cannot split the ambient space
    with pytest.raises(EigenSplitFailure):
        p.validate()


# ---------------------------------------------------------------------------
# induced structure through the quotient
# ---------------------------------------------------------------------------

def test_induced_structure_constant_j_is_constant():
    # translation invariance: standard input gives standard output
    m = oracles.default_torus(1)
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
    for n in (1, 2, 3):
        m = perturbed_manifold(n)
        x = np.linspace(0.5, 0.7, 2 * n)
        p = build_fiber(x, m)
        fib = np.concatenate([p.sp.basis, p.sigpp.basis], axis=1)
        dg2k = np.vstack([oracles.jacobian_value(m.g, x)] * 2)
        bad_cols = np.concatenate(
            [dg2k[:, :1].astype(complex), fib[:, :-1]], axis=1
        )
        bad = ComplexSubspace.from_columns(bad_cols)
        with pytest.raises(NotTransverse):
            _induced_from_parts(dg2k[None], bad.basis[None])


@pytest.mark.parametrize("extra", [-1, 1])
def test_fiber_of_the_wrong_width_is_a_dimension_mismatch(extra):
    m = perturbed_manifold(2)
    x = np.linspace(0.5, 0.7, 4)
    p = build_fiber(x, m)
    cols = np.concatenate([p.sp.basis, p.sigpp.basis, p.sigp.basis], axis=1)
    dg2k = np.vstack([oracles.jacobian_value(m.g, x)] * 2)
    with pytest.raises(DimensionMismatch):
        _induced_from_parts(dg2k[None], cols[None, :, :2 * p.k - p.n + extra])


# ---------------------------------------------------------------------------
# reality certificate
# ---------------------------------------------------------------------------

def test_plucker_certificate_on_built_points():
    for m in (oracles.default_torus(1), perturbed_manifold(1)):
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


def unreal_point(n, k, seed):
    """A stand-in point whose S'' is a random subspace, not conj S', so
    its certificate lies strictly between 0 and 1."""
    rng = SplitMix64(seed)
    return types.SimpleNamespace(
        sp=ComplexSubspace.from_columns(rng.complex_matrix(2 * k, k - n)),
        spp=ComplexSubspace.from_columns(rng.complex_matrix(2 * k, k - n)))


def test_plucker_certificate_matches_minor_enumeration():
    points = [build_fiber(x, m)
              for m in (perturbed_manifold(1), perturbed_manifold(2))
              for x in TorusChart(2 * m.n).grid([2] * (2 * m.n))[:3]]
    points += [unreal_point(1, 4, seed) for seed in (1, 2, 3)]
    points += [unreal_point(2, 8, seed) for seed in (1, 2)]
    certs = []
    for p in points:
        cert = plucker_reality_certificate(p)
        assert abs(cert - oracles.plucker_certificate_by_minors(p)) <= 1e-13
        certs.append(cert)
    assert min(certs) < 0.9 and max(certs) > 1.0 - 1e-13


def test_plucker_certificate_at_n3():
    # C(24, 18) = 134596 minors: the enumeration refuses, the
    # determinants do not
    p = build_fiber(np.array([0.3, 1.1, 2.0, 4.5, 0.7, 3.6]), perturbed_manifold(3))
    with pytest.raises(InvalidParams):
        oracles.plucker_certificate_by_minors(p)
    cert = plucker_reality_certificate(p)
    assert np.isfinite(cert) and abs(cert - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# graph charts at a fiber point
# ---------------------------------------------------------------------------

def seeded_frame(n, seed, mixed):
    """A chart frame over a seeded base point of the perturbed torus,
    with a seeded re-choice of complements when mixed."""
    rng = SplitMix64(seed)
    p = build_fiber(rng.reals(2 * n, 0.0, 2.0 * np.pi), perturbed_manifold(n, seed=seed))
    return ChartFrame(oracles.rechosen_point(p, SplitMix64(100 + seed)) if mixed else p)


def off_center(frame, seed):
    return 0.05 * SplitMix64(200 + seed).complex_matrix(frame.big_n, 1, 1.0)[:, 0]


def test_universal_chart_centered_with_model_dimension():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    chart = universal_chart(ChartFrame(p))
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
    chart = universal_chart(ChartFrame(p))
    assert chart.big_n == dimension_universal(1, 2)
    theta = torsion_at(chart)
    assert theta.theta.shape == (1, 13, 13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_universal_chart_torsion_double_entry(n):
    chart = universal_chart(seeded_frame(n, n, True))
    direct = torsion_at(chart)
    oracle = frame_bracket_oracle(chart)
    assert direct.norm() > 0.1  # the distribution is nowhere a foliation
    scale = max(direct.norm(), oracle.norm())
    assert np.max(np.abs(direct.theta - oracle.theta)) / scale < 1e-6
    flipped = -np.transpose(direct.theta, (0, 2, 1))
    assert np.array_equal(direct.theta, flipped)


CIRCLE_H = 0.005


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_jacobian_matches_the_circle_rule(n, seed):
    # Error model of the circle rule. joint(z) is affine in each chart
    # coordinate z_b with a rank-one slope u v^T, so by Sherman-Morrison
    # a(z + t e_b) = a(z) + t c_b / (1 + beta_b t), with c_b the exact
    # partial and beta_b = v^T joint^-1 u, |beta_b| <= |u||v| / sigma_min.
    # The 8-point rule of radius h then has truncation error
    # |c_b| (beta_b h)^8 / (1 - (beta_b h)^8), under 3e-14 relative for
    # beta h <= 0.02, and a rounding error of about
    # kappa eps (|a(z)| / h + |c_b|), kappa the condition number of
    # joint: under 1e-13 relative for kappa <= 10, |z| <= 0.1 and
    # h = 0.005. The bound 1e-12 relative covers both; the test asserts
    # the conditions the model needs.
    for mixed in (False, True):
        frame = seeded_frame(n, seed, mixed)
        for z in (np.zeros(frame.big_n, dtype=complex), off_center(frame, seed)):
            joint, tilted, graph = frame._joint(z)
            sv = np.linalg.svd(joint, compute_uv=False)
            # |u| is a column of tilted, B' or B''; |v| is 1 or a row of graph
            uv = max(np.linalg.norm(b, axis=0).max()
                     for b in (tilted, frame.b_sigp, frame.b_sigpp))
            uv *= max(1.0, np.linalg.norm(graph, axis=1).max())
            assert uv / sv[-1] * CIRCLE_H <= 0.02 and sv[0] / sv[-1] <= 10.0
            assert np.max(np.abs(z)) <= 0.1
            exact = frame.a_jacobian(z)
            rule = circle_rule_jacobian(frame.a_matrix, z, frame.big_n, h=CIRCLE_H)
            scale = np.max(np.abs(exact))
            assert scale > 0.5
            assert np.max(np.abs(exact - rule)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_jacobian_is_exactly_zero_off_the_graph_coordinates(n):
    # joint(z) reads only up, vp and vpp; a is zero past the rest block
    frame = seeded_frame(n, 1, True)
    quot, amb, _, s_upp, _, _ = frame.slices()
    for z in (np.zeros(frame.big_n, dtype=complex), off_center(frame, 1)):
        jac = frame.a_jacobian(z)
        assert jac.shape == (n, frame.big_n - n, frame.big_n)
        for block in (quot, amb, s_upp):
            assert not np.any(jac[:, :, block])
        assert not np.any(jac[:, frame.rest.shape[1]:, :])
        assert np.max(np.abs(jac[:, :frame.rest.shape[1], :])) > 0.5


def test_universal_checks_never_call_the_circle_rule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("circle rule called")

    monkeypatch.setattr(distribution, "circle_rule_jacobian", refuse)
    doc = parse_scenario(find_scenario("universal_n1_k4_const"))
    records, aggregate = run_scenario(doc, sample_cap=2)
    assert aggregate["passed"]
    assert {"universal_versality", "universal_isotropy"} <= {r["name"] for r in records}


def test_chart_coordinates_vanish_at_center():
    m = perturbed_manifold(1)
    p = build_fiber(np.array([0.5, 0.7]), m)
    frame = ChartFrame(p)
    z = frame.coordinates(p)
    assert np.max(np.abs(z)) < 1e-10


def test_chart_coordinates_track_nearby_fibers():
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    frame = ChartFrame(build_fiber(x, m))
    q = build_fiber(x + np.array([1e-3, -2e-3]), m)
    z = frame.coordinates(q)
    assert 0.0 < np.max(np.abs(z)) < 0.1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_quotient_blocks_span_the_projector_complements(n):
    # the frame takes its bases and quotient blocks straight from the
    # fiber's nested QR; the old route extracted each complement by a
    # projector product and an SVD
    frame = seeded_frame(n, n, False)
    p, k = frame.point, frame.k
    assert frame.b_sigp is p.sigp.basis and frame.b_sigpp is p.sigpp.basis
    for small, big in ((p.sp, p.sigp), (p.spp, p.sigpp)):
        got = ComplexSubspace(big.basis[:, k - n:])
        want = oracles.complement_by_projector(small, big)
        assert np.linalg.norm(got.projector() - want.projector(), 2) <= 1e-12
    assert np.array_equal(frame.quot, p.sigp.basis[:, k - n:])


def test_chart_guard_reads_the_frame_rank_rtol():
    # at the centre joint(0) is the ambient frame, a column permutation of
    # [Sigma' | Sigma''], whose singular-value ratio validate_fibers
    # certified above rank_rtol
    p = build_fiber(np.array([0.5, 0.7]), perturbed_manifold(1))
    sv = np.linalg.svd(ChartFrame(p).ambient_frame, compute_uv=False)
    ratio = sv[-1] / sv[0]
    assert 1e-8 < ratio < 1.0
    frame = ChartFrame(p, Tolerances(rank_rtol=0.5 * ratio))
    frame.a_matrix(np.zeros(frame.big_n))
    frame.tol = Tolerances(rank_rtol=2.0 * ratio)
    with pytest.raises(ChartDegeneracy):
        frame.a_matrix(np.zeros(frame.big_n))
    with pytest.raises(ChartDegeneracy):
        frame.a_jacobian(np.zeros(frame.big_n))


def test_singular_ambient_frame_fails_at_the_chart_torsion():
    # a hand-built point with Sigma'' = Sigma' repeats the quotient block
    # in the ambient frame; the frame is built, and the torsion at the
    # centre (which UniversalSample takes before any solve with the frame)
    # raises
    p = build_fiber(np.array([0.5, 0.7]), perturbed_manifold(1))
    bad = universal.UniversalPoint(p.n, p.k, p.z, p.sp, p.sp, p.sigp, p.sigp)
    frame = ChartFrame(bad)
    assert np.linalg.matrix_rank(frame.ambient_frame) < 2 * p.k
    with pytest.raises(ChartDegeneracy):
        torsion_at(universal_chart(frame))


# ---------------------------------------------------------------------------
# versality of the construction
# ---------------------------------------------------------------------------

def test_versality_flat_and_perturbed():
    for m in (oracles.default_torus(1), perturbed_manifold(1)):
        for x in (np.array([0.5, 0.7]), np.array([2.0, 1.3]), np.array([4.1, 5.6])):
            rep = versality_check(UniversalSample(x, m))
            assert rep["inj"]
            assert rep["surj_rank"] == rep["target_rank"] == 2
            assert rep["sv_gap"] >= 1e-6
            assert rep["fiber_membership_residual"] < 1e-8


def rechoose_sample_charts(monkeypatch, seed):
    """Make every UniversalSample build its chart on re-chosen complements
    (oracles.rechosen_point of its fiber)."""
    build = universal.build_fiber
    monkeypatch.setattr(universal, "build_fiber", lambda x, m, tol=DEFAULT:
                        oracles.rechosen_point(build(x, m, tol), SplitMix64(seed)))


def test_versality_rank_invariant_under_chart_rechoice(monkeypatch):
    m = perturbed_manifold(1)
    x = np.array([0.5, 0.7])
    base = versality_check(UniversalSample(x, m))
    rechoose_sample_charts(monkeypatch, 5)
    sample = UniversalSample(x, m)
    k = sample.point.k
    tail = sample.point.sigp.basis[:, k - 1:]
    assert abs(np.linalg.norm(tail) - 1.0) > 1e-3  # not orthonormal
    mixed = versality_check(sample)
    assert mixed["surj_rank"] == base["surj_rank"] == 2
    assert mixed["inj"]
    assert mixed["sv_gap"] >= 1e-6
    assert mixed["fiber_membership_residual"] < 1e-8


def count_inits(monkeypatch, cls):
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_versality_check_builds_one_chart_frame(monkeypatch):
    built = count_inits(monkeypatch, ChartFrame)
    m = perturbed_manifold(1)
    for rechosen in (False, True):
        if rechosen:
            rechoose_sample_charts(monkeypatch, 5)
        built.clear()
        versality_check(UniversalSample(np.array([0.5, 0.7]), m))
        assert len(built) == 1


def test_a_run_builds_one_sample_per_point_for_versality_and_isotropy(monkeypatch):
    # universal_n1_k4_const runs versality and isotropy at the same 3 points
    samples = count_inits(monkeypatch, UniversalSample)
    frames = count_inits(monkeypatch, ChartFrame)
    records, aggregate = run_scenario(parse_scenario(find_scenario("universal_n1_k4_const")))
    assert aggregate["passed"]
    counts = {r["name"]: r["samples_checked"] for r in records}
    assert counts["universal_versality"] == counts["universal_isotropy"] == 3
    assert len(samples) == len(frames) == 3
    assert len({s.x.tobytes() for s in samples}) == 3


def test_injectivity_reads_the_rank_rtol(monkeypatch):
    # df -> df A with A commuting with J_f gives dbar -> dbar A, so a
    # complex-linear A with eigenvalues 1 and 1e-6 makes the singular
    # values of dbar f spread by about 1e-6
    m = perturbed_manifold(2)
    x = np.array([0.3, 1.1, 2.0, 4.5])
    jf = induced_structure_at(x, m)
    vals, vecs = np.linalg.eig(jf)
    plus = vecs[:, vals.imag > 0]
    # J_f maps Re v -> -Im v and Im v -> Re v for each +i eigenvector v
    basis = np.concatenate([plus.real, plus.imag], axis=1)
    warp = basis @ np.diag([1.0, 1e-6, 1.0, 1e-6]) @ np.linalg.inv(basis)
    assert np.max(np.abs(warp @ jf - jf @ warp)) < 1e-9
    differential = universal.embedding_differential
    monkeypatch.setattr(universal, "embedding_differential",
                        lambda *args, **kwargs: differential(*args, **kwargs) @ warp)
    for tol, inj in ((DEFAULT, True), (Tolerances(rank_rtol=1e-5), False)):
        sample = UniversalSample(x, m, tol)
        sv = np.linalg.svd(sample.dbar, compute_uv=False)
        assert 1e-8 < sv[-1] / sv[0] < 1e-5 and sv[-1] > 1e-8
        assert versality_check(sample)["inj"] is inj


def test_frame_torsion_matches_the_loop_on_a_universal_chart():
    p = build_fiber(np.array([0.5, 0.7]), perturbed_manifold(1))
    chart = universal_chart(ChartFrame(p))
    off_center = 0.05 * SplitMix64(8).complex_matrix(chart.big_n, 1, 1.0)[:, 0]
    for z in (chart.center, off_center):
        got = torsion_via_frames(chart, z).theta
        want = oracles.torsion_via_frames_loop(chart, z).theta
        assert np.max(np.abs(want)) > 0.1
        assert np.array_equal(got, want)
    assert same_bits(torsion_at(chart).theta,
                     torsion_via_frames(chart, chart.center).theta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedding_differential_matches_the_per_point_loop(n):
    m = perturbed_manifold(n, seed=n)
    x = SplitMix64(n).reals(2 * n, 0.0, 2.0 * np.pi)
    frame = ChartFrame(oracles.rechosen_point(build_fiber(x, m), SplitMix64(100 + n)))
    got = universal.embedding_differential(x, m, frame)
    want = oracles.embedding_differential_by_points(x, m, frame)
    assert got.shape == (2 * frame.big_n, 2 * n)
    assert np.array_equal(got, want)


def test_embedding_differential_raises_at_the_first_bad_point():
    # J squares to -4 Id at x - h e_1 and x + h/2 e_0; the per-point loop
    # reaches x + h/2 e_0 first (r-major order), so the stack must too
    x, h = np.array([0.5, 0.7]), 1e-4
    e0, e1 = np.array([h, 0.0]), np.array([0.0, h])
    bad = [x - e1, x + 0.5 * e0]
    j0 = standard_structure(1)

    def fn(y):
        return 2.0 * j0 if any(np.array_equal(y, b) for b in bad) else j0

    j = AlmostComplexField(TorusChart(2), CallableMatrixField(2, (2, 2), fn))
    m = PointwiseACManifold(1, 4, default_torus_embedding(1), j)
    frame = ChartFrame(build_fiber(x, m))
    with pytest.raises(EigenSplitFailure) as want:
        oracles.embedding_differential_by_points(x, m, frame, h=h)
    assert f"x={bad[1].tolist()}" in str(want.value)
    with pytest.raises(EigenSplitFailure) as got:
        universal.embedding_differential(x, m, frame, h=h)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x", [[1e13, 1e13], [0.5, 1e12], [-1e12, 0.5]])
def test_embedding_differential_refuses_a_step_that_rounds_away(x):
    # at |x| >= 1e12 a half step of 5e-5 is below half an ulp of x, so
    # x +- h/2 == x and the difference would read 0
    m = perturbed_manifold(1)
    frame = ChartFrame(build_fiber([0.5, 0.5], m))
    with pytest.raises(DomainError, match="rounds away"):
        universal.embedding_differential(x, m, frame)


def test_embedding_differential_still_steps_at_5e11():
    m = perturbed_manifold(1)
    x = np.array([5e11, 5e11])
    df = universal.embedding_differential(x, m, ChartFrame(build_fiber(x, m)))
    assert np.linalg.matrix_rank(df) == 2


def test_embedding_differential_divides_by_the_steps_taken():
    # At a = 1e11 the points x +- h and x +- h/2 round to multiples of
    # u = ulp(a) = 2^-16: the spans taken are 14u and 6u, where the nominal
    # ones are 2h and h, and dividing by those put df 13.5 % off. The
    # reference is df at the angle reduced mod 2 pi in 50-digit arithmetic
    # (x mod fl(2 pi) is itself off by about 4e-6 rad there), on the flat
    # structure, whose fiber reads x only through cos and sin of the exact
    # step points. Error model, with half-spans s1 = 7u and s2 = 3u:
    # - Richardson: (4 D(s2) - D(s1)) / 3 = f' + (4 s2^2 - s1^2) f''' / 18,
    #   not f' + O(s^4), since s1 / s2 is not 2;
    # - rounding: coordinates that err by delta = 1e3 eps give
    #   (4 / s2 + 1 / s1) delta / 3 in the extrapolation, at the test
    #   point and at the reference (there s1 = h, s2 = h / 2).
    # f''' is bounded by twice a third difference of the reference
    # coordinates.
    import mpmath

    mpmath.mp.dps = 50
    a, h = 1e11, 1e-4
    m = PointwiseACManifold(1, 4, default_torus_embedding(1), AlmostComplexField.standard(1))
    reduced = np.full(2, float(mpmath.fmod(mpmath.mpf(a), 2 * mpmath.pi)))
    x = np.array([a, a])
    frame = ChartFrame(build_fiber(x, m))
    got = universal.embedding_differential(x, m, frame, h=h)
    want = universal.embedding_differential(reduced, m, frame, h=h)

    s1, s2 = ((a + h) - (a - h)) / 2, ((a + h / 2) - (a - h / 2)) / 2
    assert (s1, s2) == (7 * 2.0 ** -16, 3 * 2.0 ** -16)
    k, third = 1e-2, 0.0
    for r in range(2):
        pts = reduced + np.outer([2, 1, -1, -2], k * np.eye(2)[r])
        c = [frame.coordinates(build_fiber(p, m)) for p in pts]
        third = max(third, float(np.max(np.abs(c[0] - 2 * c[1] + 2 * c[2] - c[3]))) / (2 * k ** 3))
    delta = 1e3 * np.finfo(float).eps
    richardson = abs(4 * s2 ** 2 - s1 ** 2) / 18 * 2 * third
    rounding = (4 / s2 + 1 / s1 + 4 / (h / 2) + 1 / h) * delta / 3
    assert 0.5 < float(np.max(np.abs(want))) < 2.0
    err = float(np.max(np.abs(got - want)))
    assert err <= richardson + rounding, (err, richardson, rounding)


def test_versality_controls_report_rank_zero():
    sample = UniversalSample(np.array([0.5, 0.7]), perturbed_manifold(1))
    fiber_dim = sample.chart.big_n - 1
    assert versality_rank_from_parts(
        TorsionTensor(np.zeros((1, fiber_dim, fiber_dim))), sample.etas
    )["surj_rank"] == 0
    assert versality_rank_from_parts(
        sample.theta, np.zeros_like(sample.etas)
    )["surj_rank"] == 0


def test_sample_parts_match_their_separate_routes():
    m = perturbed_manifold(2)
    x = np.array([0.3, 1.1, 2.0, 4.5])
    sample = UniversalSample(x, m)
    big_n = sample.frame.big_n
    assert sample.chart.amap.frame is sample.frame
    assert np.array_equal(sample.jf, induced_structure_at(x, m))
    assert np.array_equal(sample.df, universal.embedding_differential(x, m, sample.frame))
    assert np.array_equal(sample.theta.theta, torsion_at(sample.chart).theta)
    # dbar is conjugate-linear: J dbar J_f = dbar
    jstd = standard_structure(big_n)
    assert np.max(np.abs(jstd @ sample.dbar @ sample.jf - sample.dbar)) <= 1e-10
    cols = np.stack([complexify_vector(sample.dbar[:, r]) for r in range(4)], axis=1)
    assert np.array_equal(sample.cols, cols)
    assert np.array_equal(sample.etas, cols[2:])
    assert sample.membership_residual == np.max(np.abs(cols[:2]))
    assert sample.membership_residual < 1e-8


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
    sample = UniversalSample(x, m)
    frame, df, etas, theta = sample.frame, sample.df, sample.etas, sample.theta
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
    m = oracles.default_torus(1)
    sample = UniversalSample(np.array([0.5, 0.7]), m)
    sub = sample.image()
    assert sub.dim == 1 and sub.ambient_dim == sample.chart.big_n
    ok, worst = isotropy_test(sample.theta, sub, 1)
    assert ok and worst < 1e-9


def test_isotropy_constant_j_n2_nonvacuous():
    # n = 2 exercises a genuine off-diagonal torsion pairing
    m = oracles.default_torus(2)
    sample = UniversalSample(np.array([0.3, 1.1, 2.0, 0.7]), m)
    theta = sample.theta
    assert theta.norm() > 0.1
    sub = sample.image()
    assert sub.dim == 2
    ok, worst = isotropy_test(theta, sub, 2)
    assert ok and worst < 1e-9


def test_induced_field_nijenhuis_vanishes_for_constant_j():
    m = oracles.default_torus(1)
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


def test_block_diag_matches_scipy_on_the_symplectic_shapes():
    # the three matrices symplectic_pointwise_model assembles, as scipy
    # built them before the library dropped it
    rng = SplitMix64(11)
    for n, extra in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]:
        om, jx, gamma, embed = random_compatible_symplectic(rng, n, extra)
        taut = standard_structure(2 * extra)
        for blocks in [(jx, -jx, taut), (0.5 * gamma, -0.5 * gamma),
                       (0.5 * gamma, 0.5 * gamma)]:
            ours, ref = _block_diag(*blocks), scipy.linalg.block_diag(*blocks)
            assert ours.dtype == ref.dtype
            assert ours.tobytes() == ref.tobytes()


def test_symplectic_model_rejects_incompatible_inputs():
    omega, j0, gamma, embed = standard_symplectic_inputs()
    with pytest.raises(NotCompatible):
        symplectic_pointwise_model(-omega, j0, {"gamma": gamma, "embed": embed})
    with pytest.raises(NotCompatible):
        symplectic_pointwise_model(
            omega, j0, {"gamma": gamma, "embed": 2.0 * embed}
        )


def test_fiber_frame_coords_keeps_a_nan_head_component(monkeypatch):
    # max(0.0, nan) is 0.0: a plain max fold would certify membership
    differential = universal.embedding_differential

    def with_nan_head(*args, **kwargs):
        df = differential(*args, **kwargs)
        df[0, 0] = np.nan
        return df

    monkeypatch.setattr(universal, "embedding_differential", with_nan_head)
    sample = UniversalSample(np.array([0.5, 0.7]), perturbed_manifold(1))
    assert np.isnan(sample.membership_residual)


def test_reconstruction_report_keeps_a_nan_deviation(monkeypatch):
    monkeypatch.setattr(oracles, "induced_at",
                        lambda x, m, tol: (np.full((2, 2), np.nan), 1.0))
    rep = reconstruction_report(oracles.default_torus(1), (2, 2))
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
    # the library takes the -i side as the conjugate of the +i side, and
    # conj turns a +0.0 imaginary part into -0.0, where the oracle's own
    # SVD and QR of the -i side give +0.0: S'' and Sigma'' agree by value
    assert same_bits(point.z, want.z)
    for name in ("sp", "sigp"):
        assert same_bits(getattr(point, name).basis, getattr(want, name).basis), name
    for name in ("spp", "sigpp"):
        assert np.array_equal(getattr(point, name).basis, getattr(want, name).basis), name


@pytest.mark.parametrize("n, counts", [(1, [6, 7]), (2, [3, 3, 3, 3]),
                                       (3, [3, 3, 2, 2, 2, 2])])
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
        jfs = universal.induced_structures(rows, m)
        for x, point, jf in zip(rows, chunk, jfs):
            want = oracles.build_fiber(x, m)
            assert_fiber_bits(point, want)
            assert same_bits(jf, oracles.induced_reduced_at(x, m, point=want))


@pytest.mark.parametrize("n, counts", [(1, [6, 7]), (2, [3, 3, 3, 3]), (3, [2] * 6)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduced_route_matches_the_joint_solve(n, counts, seed):
    # W^H on the fiber's orthogonal complement and the joint solve on
    # [dG | S' | Sigma''] are two routes to one quotient map
    m = perturbed_manifold(n, seed=seed)
    pts = TorusChart(2 * n).grid(counts)
    points = list(universal.build_fibers(pts, m))
    jfs = universal.induced_structures(pts, m)
    for x, point, jf in zip(pts, points, jfs):
        assert np.max(np.abs(jf - oracles.induced_at(x, m, point=point)[0])) <= 1e-13


@pytest.mark.parametrize("n, counts", [(1, [6, 7]), (2, [3, 3, 3, 3])])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_horizontal_columns_give_the_jf_of_their_pivoted_qr(n, counts, seed):
    # J_f depends on the span of the fiber alone: the library's route on
    # [S' | Sigma''] and the joint solve on its orthonormalization agree
    m = perturbed_manifold(n, seed=seed)
    pts = TorusChart(2 * n).grid(counts)
    points = list(universal.build_fibers(pts, m))
    jfs = universal.induced_structures(pts, m)
    for x, point, jf in zip(pts, points, jfs):
        via_qr, _ = oracles.induced_at(x, m, point=point,
                                       horizontal=oracles.horizontal_qr_basis)
        assert np.max(np.abs(jf - via_qr)) <= 1e-13


def test_fiber_whose_horizontal_columns_drop_rank_never_reaches_jf(monkeypatch):
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    validate = universal.validate_fibers

    def swallow(n, k, z, sp, spp, sigp, sigpp, tol=DEFAULT):
        sigpp[:, :, 0] = sp[:, :, 0]  # Sigma'' takes in a direction of S'
        s = np.linalg.svd(np.concatenate([sp, sigpp], axis=2), compute_uv=False)
        assert np.all(s[:, -1] <= 1e-12 * s[:, 0])
        validate(n, k, z, sp, spp, sigp, sigpp, tol)

    solves = []
    monkeypatch.setattr(universal, "validate_fibers", swallow)
    monkeypatch.setattr(universal, "_induced_from_parts",
                        lambda *args: solves.append(args))
    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["checks"] = ["universal_reconstruction"]
    [record], _ = run_scenario(doc)
    assert record["status"] == "fail"
    assert record["error"].startswith("EigenSplitFailure")
    assert solves == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chunk_of_one_matches_the_oracle_bitwise(n):
    m = perturbed_manifold(n, seed=5)
    for x in TorusChart(2 * n).grid([2] * (2 * n))[:4]:
        assert_fiber_bits(build_fiber(x, m), oracles.build_fiber(x, m))
        assert same_bits(induced_structure_at(x, m), oracles.induced_reduced_at(x, m))


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


def test_reconstruction_fails_a_construction_that_reads_j_at_other_rows(monkeypatch):
    original = universal._fiber_rows

    def mutant(xs, m, tol):
        j = types.SimpleNamespace(values=lambda rows: m.j.values(rows[::-1]))
        return original(xs, types.SimpleNamespace(n=m.n, k=m.k, g=m.g, j=j), tol)

    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["checks"] = ["universal_reconstruction"]
    assert run_scenario(doc)[1]["passed"]
    monkeypatch.setattr(universal, "_fiber_rows", mutant)
    [record], _ = run_scenario(doc)
    assert record["status"] == "fail" and record["max_residual"] > 0.1


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
    with pytest.raises(EigenSplitFailure, match="Sigma'' is not the conjugate of Sigma'"):
        universal.validate_fibers(1, 4, z, *stack)


def test_real_sigma_prime_in_a_stack_does_not_split():
    # a real Sigma' equals its conjugate, so [Sigma' | Sigma''] has rank k:
    # the conjugate test passes and the real split SVD must catch it
    m = perturbed_manifold(1)
    points = list(universal.build_fibers(TorusChart(2).grid([2, 2]), m))
    sp, spp, sigp, sigpp = [np.stack([getattr(p, name).basis for p in points])
                            for name in ("sp", "spp", "sigp", "sigpp")]
    z = np.stack([p.z for p in points])
    sigp[2] = np.linalg.qr(sigp[2].real)[0]
    sigpp[2] = sigp[2].conj()
    sp[2], spp[2] = sigp[2][:, :3], sigpp[2][:, :3]
    with pytest.raises(EigenSplitFailure, match="Sigma' and Sigma'' do not split"):
        universal.validate_fibers(1, 4, z, sp, spp, sigp, sigpp)


@pytest.mark.parametrize("n, counts", [(1, [6, 7]), (2, [3, 3, 3, 3]), (3, [2] * 6)])
def test_real_split_svd_matches_the_complex_one(n, counts):
    # [Sigma' | conj Sigma'] = [Re Sigma' | Im Sigma'] [[I, I], [iI, -iI]],
    # and the right-hand factor is sqrt(2) times a unitary
    m = perturbed_manifold(n, seed=n)
    _, _, sigp = universal._fiber_rows(TorusChart(2 * n).grid(counts), m, DEFAULT)
    complex_sv = np.linalg.svd(np.concatenate([sigp, sigp.conj()], axis=2),
                               compute_uv=False)
    real_sv = np.sqrt(2.0) * np.linalg.svd(
        np.concatenate([sigp.real, sigp.imag], axis=2), compute_uv=False)
    assert np.max(np.abs(real_sv - complex_sv) / complex_sv) <= 1e-13


def test_oracle_validate_rejects_hand_built_points():
    # build_fibers makes containment and conjugation hold by construction,
    # so only the oracle's validator tests them: on points built by hand,
    # one tampered subspace at a time
    p = build_fiber(np.array([0.5, 0.7]), perturbed_manifold(1))
    k, n = p.k, p.n
    oracles.validate(p)

    def tampered(**parts):
        names = ("sp", "spp", "sigp", "sigpp")
        return universal.UniversalPoint(n, k, p.z, *(parts.get(a, getattr(p, a)) for a in names))

    tilted = np.concatenate([p.sigpp.basis[:, :k - n],
                             p.sigpp.basis[:, k - n:] + 0.1 * p.sigp.basis[:, k - n:]], axis=1)
    cases = [
        (tampered(sp=p.spp), "S' is not contained in Sigma'"),
        (tampered(spp=p.sp), "S'' is not contained in Sigma''"),
        (tampered(spp=ComplexSubspace(p.sigpp.basis[:, 1:k - n + 1])),
         "S'' is not the conjugate of S'"),
        (tampered(sigpp=ComplexSubspace.from_columns(tilted)),
         "Sigma'' is not the conjugate of Sigma'"),
    ]
    for point, message in cases:
        with pytest.raises(EigenSplitFailure, match=message):
            oracles.validate(point)


# ---------------------------------------------------------------------------
# the defining equations of a built point, checked locally
# ---------------------------------------------------------------------------

def doubled_structure(m, x):
    """(F, Jt) at x from the input data alone: the frame
    F = [(dg, dg) | (dg, -dg) | (NX, 0) | (0, NX)] of R^{2k} and
    Jt = F (J (+) -J (+) taut) F^-1, taut = [[0, -I], [I, 0]] on NX (+) NX.
    Jt does not depend on the basis of NX."""
    dg = oracles.jacobian_value(m.g, x)
    nx = scipy.linalg.null_space(dg.T)
    zeros = np.zeros_like(nx)
    frame = np.block([[dg, dg, nx, zeros], [dg, -dg, zeros, nx]])
    eye = np.eye(nx.shape[1])
    taut = np.block([[0.0 * eye, -eye], [eye, 0.0 * eye]])
    jx = m.j.value(x)
    return frame, frame @ _block_diag(jx, -jx, taut) @ np.linalg.inv(frame)


def solves_eigen_equations(frame, jt, sigp, n, k) -> bool:
    """For an orthonormal basis sigp of Sigma' whose first k - n columns
    span S': ||(Jt - i) Sigma'|| <= 1e-12 ||Jt||, and the diag-block rows
    of F^-1 S' vanish (S' lies in S = {0} (+) TX (+) NX (+) NX)."""
    eigen = np.linalg.norm(jt @ sigp - 1j * sigp, 2)
    diag = np.max(np.abs(np.linalg.solve(frame, sigp[:, :k - n])[:2 * n]))
    return bool(eigen <= 1e-12 * np.linalg.norm(jt, 2) and diag <= 1e-12)


def mutated(frame, sigp, rows, change):
    """Sigma' rebuilt from its frame coordinates C = F^-1 Sigma' with
    change applied to C[rows], the columns in their nested order."""
    coords = np.linalg.solve(frame, sigp)
    coords[rows] = change(coords[rows])
    return np.linalg.qr(frame @ coords)[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_points_solve_their_eigen_equations(n):
    m = perturbed_manifold(n, seed=4)
    k = m.k
    rng = SplitMix64(60 + n)
    xs = np.array([rng.reals(2 * n, 0.0, 2.0 * np.pi) for _ in range(3)])
    # a point built wrong fails: the S-part kernel ker(J + i) off by 1e-6,
    # the two kernels of J swapped (conjugated), the taut sign flipped
    mutants = [(slice(2 * n, 4 * n), lambda c: c + 1e-6),
               (slice(0, 4 * n), np.conj),
               (slice(4 * n, 2 * k), np.conj)]
    for x, point in zip(xs, universal.build_fibers(xs, m)):
        frame, jt = doubled_structure(m, x)
        sigp = point.sigp.basis
        assert solves_eigen_equations(frame, jt, sigp, n, k)
        for rows, change in mutants:
            wrong = mutated(frame, sigp, rows, change)
            assert not solves_eigen_equations(frame, jt, wrong, n, k)
