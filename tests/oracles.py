"""Reference routes and helpers that only the tests use, kept out of the
library.

`build_fiber` and `induced_reduced_at` are the one-point-at-a-time
forms of the library's stacked route (`universal.build_fibers`,
`universal.induced_structures`). They call only per-point LAPACK and
field evaluations (`value`, `jacobian_value`), so the tests can compare
the stacked route against them bit for bit. `build_fiber` still takes
its own SVD of J + i and its own QR of the -i side, where the library
conjugates the +i side, so the -i side is compared against an
independent build (by value: conjugation gives -0.0 where the oracle
gives +0.0). `induced_at` is the joint
route the library replaced: it solves [dG | S' | Sigma''] x = i dG in
realified coordinates, a 4k x 4k system, where the library solves
2n x 2n through the orthogonal complement of the fiber; the tests hold
the two routes to the same J_f to a stated bound.
`horizontal_qr_basis` is the pivoted-QR orthonormalization of
[S' | Sigma''] that the library dropped, kept so a test can hold the two
fiber bases to the same J_f. `reconstruction_report` sweeps a grid
through `build_fiber` and `induced_at`.
`plucker_certificate_by_minors` is the reality certificate by
enumeration of the wedge coordinates, which
`universal.plucker_reality_certificate` replaced by two Cauchy-Binet
determinants; it stops at C(2k, 2(k - n)) = 100000 minors.
`embedding_differential_by_points` is the Richardson differential of
the chart coordinates with one `build_fiber` per point, which
`universal.embedding_differential` replaced by one stacked build.
`complement_by_projector` is the complement of S' in Sigma' as
`universal.ChartFrame` extracted it before it read the tail of the
fiber's nested QR: a projector product and one SVD. `rechosen_point`
re-chooses that tail, so the tests can build charts on other
complements.
`frame_derivatives_by_column` adds the frame correction to the chart
Jacobian one fiber column at a time, which `torsion_via_frames` replaced
by one einsum; `torsion_via_frames_loop` is the frame route of the chart
torsion on those derivatives with the per-(j, k) antisymmetrization loop
that `torsion_via_frames` replaced by one array subtraction.
`induced_jf_by_column`, `dbar_f_fiber_coords_by_column` and
`variation_djf_by_column` are the induced-layer formulas as they were
before `induced.GraphPoint`: every helper re-evaluates a(F(zp)) and dF,
every projection rebuilds and re-checks the joint matrix [dF | fiber],
and each right-hand side is assembled one realified basis vector at a
time. The tests hold the one-point route to them. `dbar_f` is the
realified dbar f of one `induced.GraphPoint`, the matrix the fiber
coordinates are read from, for tests that look at it whole.
`from_columns_by_pivoted_qr` and `from_spanning_set_by_pivoted_qr` are
the `ComplexSubspace` constructors as they were before the library
dropped scipy: a pivoted QR whose rank counts the R diagonal entries
above rank_rtol times the first, where the library now counts singular
values of one thin SVD.
`deformed_embedding` and `variation_fd_quotient` are the FD
variation oracle as it was before `induced.variation_fd_oracle` took
all its steps in one call: every step rebuilds the deformation, vtilde's
Jacobian and J_f(zp). `crpoly_value_by_numpy_scalars` is
`CRPolyMap.value` reading z as numpy scalars, and
`standard_structure_by_block` and `real_linear_by_block` are the
realification helpers as `np.block` assembled them; the tests hold the
library to each bit for bit.
`simplex_solve_loop` is the Bland simplex as it was before pivot choice
read the tableau as Python floats: it scans the reduced costs and the
ratio column one numpy scalar at a time and eliminates with an outer
product, so the tests can hold `lvmb.simplex_solve` to it bit for bit.

The rest are small constructions the tests build their cases from or
check the library against: subspace containment, realified matrices and
the reassembly of an eigen splitting, chart fibers and frame vectors, a
linear change of chart (a black-box chart map under the circle rule)
and its recentering, coordinate planes, the exact product and Lie
bracket of trig-poly fields, the per-point jacobian of a column field,
the product-of-circles torus with the standard structure, and a seeded
complex vector.
"""
import itertools
import math

import numpy as np
import scipy.linalg

from acs_verify.config import DEFAULT, Tolerances, worst_of
from acs_verify.cxlinalg import (
    ComplexSubspace,
    RealSplitting,
    direct_sum_test,
    nullspace,
    realify_basis,
    realify_vector,
    standard_structure,
    subspace_eq,
)
from acs_verify.distribution import (
    CRPolyMap,
    DistributionChart,
    TorsionTensor,
    circle_rule_jacobian,
    torsion_via_frames,
)
from acs_verify.errors import (
    DimensionMismatch,
    EigenSplitFailure,
    Infeasible,
    InvalidParams,
    NotAComplexStructure,
    NotTransverse,
    RankDeficient,
    RankDeficientEmbedding,
    ShapeMismatch,
)
from acs_verify.fields import AlmostComplexField, TorusChart, TrigPolyField, _canonical
from acs_verify.induced import GraphEmbedding, GraphPoint, VariationData, _real_linear
from acs_verify.lvmb import LvmbData
from acs_verify.universal import (
    ChartFrame,
    PointwiseACManifold,
    UniversalPoint,
    default_torus_embedding,
)


def complex_vector(rng, n: int) -> np.ndarray:
    """n complex entries, the first column of rng.complex_matrix(n, 1)."""
    return rng.complex_matrix(n, 1)[:, 0]


def default_torus(n: int) -> PointwiseACManifold:
    """T^{2n} in R^{4n} by the product-of-circles embedding, with the
    standard structure."""
    return PointwiseACManifold(n, 4 * n, default_torus_embedding(n),
                               AlmostComplexField.standard(n))


def jacobian_value(field: TrigPolyField, x) -> np.ndarray:
    """For a column field (r, 1): the (r, d) matrix of partials at one
    point x (`TrigPolyField.jacobian_values` stacks it over many)."""
    if field.shape[1] != 1:
        raise ShapeMismatch("jacobian_value expects a column field")
    cols = [field.partial_value(i, x)[:, 0] for i in range(field.d)]
    return np.stack(cols, axis=1)


def contains(big: ComplexSubspace, small: ComplexSubspace,
             tol: Tolerances = DEFAULT) -> bool:
    """small lies in big: projecting its basis onto big moves it by at
    most 1e3 alg_atol."""
    if small.ambient_dim != big.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    resid = small.basis - big.projector() @ small.basis
    return bool(np.max(np.abs(resid), initial=0.0) <= 1e3 * tol.alg_atol)


def validate(point: UniversalPoint, tol: Tolerances = DEFAULT) -> None:
    """The per-point tests of a 5-tuple: the library's `validate_fibers`
    tests (shapes, the split, z real) in its order, with the containment
    and conjugation tests between them that the library's construction
    makes hold, kept here for points built by hand."""
    k, n = point.k, point.n
    if point.z.shape[0] != 2 * k:
        raise DimensionMismatch("base point must live in C^{2k}")
    dims = (point.sp.dim, point.spp.dim, point.sigp.dim, point.sigpp.dim)
    if dims != (k - n, k - n, k, k):
        raise EigenSplitFailure(
            f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
        )
    if not contains(point.sigp, point.sp, tol):
        raise EigenSplitFailure("S' is not contained in Sigma'")
    if not contains(point.sigpp, point.spp, tol):
        raise EigenSplitFailure("S'' is not contained in Sigma''")
    ok, sigma = direct_sum_test(point.sigp, point.sigpp, tol)
    if not ok:
        raise EigenSplitFailure(
            f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={sigma:.3e})"
        )
    if not subspace_eq(point.spp, ComplexSubspace(point.sp.basis.conj()), tol):
        raise EigenSplitFailure("S'' is not the conjugate of S'")
    if not subspace_eq(point.sigpp, ComplexSubspace(point.sigp.basis.conj()), tol):
        raise EigenSplitFailure("Sigma'' is not the conjugate of Sigma'")
    if np.max(np.abs(point.z.imag), initial=0.0) > 1e3 * tol.alg_atol:
        raise EigenSplitFailure("base point is not real")


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> UniversalPoint:
    """The 5-tuple over x, one point at a time (see the library's
    `build_fibers` for the block construction it follows)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n, k = m.n, m.k
    dg = jacobian_value(m.g, x)
    sv = np.linalg.svd(dg, compute_uv=False)
    if sv.size < 2 * n or sv[2 * n - 1] <= tol.rank_rtol * sv[0]:
        raise RankDeficientEmbedding(f"dg has rank < {2 * n} at x={x.tolist()}")
    nx = nullspace(dg.T, tol.rank_rtol).real
    if nx.shape[1] != k - 2 * n:
        raise RankDeficientEmbedding("normal complement has wrong dimension")
    jx = m.j.value(x)
    eye = np.eye(2 * n)
    resid = np.max(np.abs(jx @ jx + eye))
    if resid > 1e3 * tol.alg_atol:
        raise EigenSplitFailure(f"||J^2 + Id|| = {resid:.3e} at x={x.tolist()}")
    ker_plus = nullspace(jx - 1j * eye, tol.rank_rtol)
    ker_minus = nullspace(jx + 1j * eye, tol.rank_rtol)
    if ker_plus.shape[1] != n or ker_minus.shape[1] != n:
        raise EigenSplitFailure(
            f"eigenspace dims of J ({ker_plus.shape[1]}, {ker_minus.shape[1]}), "
            f"expected ({n}, {n})"
        )

    zeros_nx = np.zeros_like(nx)
    frame = np.concatenate([
        np.vstack([dg, dg]),
        np.vstack([dg, -dg]),
        np.vstack([nx, zeros_nx]),
        np.vstack([zeros_nx, nx]),
    ], axis=1)
    taut_dim = k - 2 * n

    def nested(s_kernel, quot_kernel, taut_sign):
        cols = np.zeros((2 * k, k), dtype=complex)
        cols[2 * n:4 * n, :n] = s_kernel
        cols[4 * n:4 * n + taut_dim, n:k - n] = np.eye(taut_dim)
        cols[4 * n + taut_dim:, n:k - n] = taut_sign * 1j * np.eye(taut_dim)
        cols[:2 * n, k - n:] = quot_kernel
        q, r = np.linalg.qr(frame @ cols)
        diag = np.abs(np.diag(r))
        if diag.min() <= tol.rank_rtol * diag.max():
            raise EigenSplitFailure("eigenspace columns are numerically dependent")
        return ComplexSubspace(q[:, :k - n]), ComplexSubspace(q)

    sp, sigp = nested(ker_minus, ker_plus, -1.0)
    spp, sigpp = nested(ker_plus, ker_minus, 1.0)
    gx = m.g.value(x)[:, 0]
    point = UniversalPoint(n, k, np.concatenate([gx, gx]).astype(complex),
                           sp, spp, sigp, sigpp)
    validate(point, tol)
    return point


def _pivoted_qr(cols: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int]:
    """Q of a pivoted QR of the columns, and the count of R diagonal
    entries above rank_rtol times the first."""
    q, r, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0:
        return q, 0
    return q, int(np.sum(diag > tol.rank_rtol * diag[0]))


def from_columns_by_pivoted_qr(cols, tol: Tolerances = DEFAULT) -> ComplexSubspace:
    cols = np.atleast_2d(np.asarray(cols, dtype=complex))
    if cols.shape[1] == 0:
        return ComplexSubspace(np.zeros((cols.shape[0], 0), dtype=complex))
    q, rank = _pivoted_qr(cols, tol)
    if rank < cols.shape[1]:
        raise RankDeficient(
            f"columns span only {rank} of {cols.shape[1]} requested dimensions"
        )
    return ComplexSubspace(q)


def from_spanning_set_by_pivoted_qr(cols, tol: Tolerances = DEFAULT) -> ComplexSubspace:
    cols = np.atleast_2d(np.asarray(cols, dtype=complex))
    if cols.shape[1] == 0:
        return ComplexSubspace(np.zeros((cols.shape[0], 0), dtype=complex))
    q, rank = _pivoted_qr(cols, tol)
    return ComplexSubspace(q[:, :rank])


def horizontal_qr_basis(point: UniversalPoint, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal basis of S' (+) Sigma'' by a pivoted QR of [S' | Sigma''],
    with its codimension guard: the route the library took before it read
    the horizontal columns straight from the validated fiber bases."""
    cols = np.concatenate([point.sp.basis, point.sigpp.basis], axis=1)
    part = ComplexSubspace.from_columns(cols, tol)
    if part.dim != 2 * point.k - point.n:
        raise EigenSplitFailure("horizontal part has wrong codimension")
    return part.basis


def induced_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
               point: UniversalPoint | None = None,
               horizontal=None) -> tuple[np.ndarray, float]:
    """(J_f, sigma_min of the joint system) at x through the quotient, one
    point at a time. horizontal(point, tol) gives the columns spanning
    S' (+) Sigma''; by default they are [S' | Sigma''] as the library reads
    them."""
    if point is None:
        point = build_fiber(x, m, tol)
    if horizontal is None:
        fiber = np.concatenate([point.sp.basis, point.sigpp.basis], axis=1)
    else:
        fiber = horizontal(point, tol)
    dg = jacobian_value(m.g, np.asarray(x, dtype=float).reshape(-1))
    dg2k = np.vstack([dg, dg])
    two_n = dg2k.shape[1]
    two_k = dg2k.shape[0]
    dg_real = np.vstack([dg2k, np.zeros_like(dg2k)])
    joint = np.concatenate([dg_real, realify_basis(fiber)], axis=1)
    sv = np.linalg.svd(joint, compute_uv=False)
    sigma = float(sv[-1])
    if sigma <= tol.rank_rtol * sv[0]:
        raise NotTransverse(f"base tangent meets the fiber (sigma_min={sigma:.3e})")
    jf = np.linalg.solve(joint, standard_structure(two_k) @ dg_real)[:two_n, :]
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[0])))
    if resid > 1e3 * tol.alg_atol:
        raise NotAComplexStructure(f"||J_f^2 + Id|| = {resid:.3e}")
    return jf, sigma


def induced_reduced_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                       point: UniversalPoint | None = None) -> np.ndarray:
    """J_f at x through the orthogonal complement of the fiber, one point
    at a time: the library's route (`universal._induced_from_parts`)
    with its guards, on 2-d arrays instead of a stack."""
    if point is None:
        point = build_fiber(x, m, tol)
    fiber = np.concatenate([point.sp.basis, point.sigpp.basis], axis=1)
    dg = jacobian_value(m.g, np.asarray(x, dtype=float).reshape(-1))
    q, _ = np.linalg.qr(fiber, mode="complete")
    c = q[:, fiber.shape[1]:].conj().T @ np.vstack([dg, dg])
    mat = np.vstack([c.real, c.imag])
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= tol.rank_rtol * sv[0]:
        raise NotTransverse(f"base tangent meets the fiber (sigma_min={sv[-1]:.3e})")
    jf = np.linalg.solve(mat, standard_structure(m.n) @ mat)
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[0])))
    if resid > 1e3 * tol.alg_atol:
        raise NotAComplexStructure(f"||J_f^2 + Id|| = {resid:.3e}")
    return jf


def reconstruction_report(m: PointwiseACManifold, counts,
                          tol: Tolerances = DEFAULT) -> dict:
    """Sweep a deterministic grid and compare induced against input
    structures; returns the worst deviation and conditioning floor."""
    pts = TorusChart(2 * m.n).grid(counts)
    worst = 0.0
    min_sigma = float("inf")
    for x in pts:
        jf, sigma = induced_at(x, m, tol)
        worst = worst_of(worst, float(np.max(np.abs(jf - m.j.value(x)))))
        min_sigma = min(min_sigma, sigma)
    return {
        "max_deviation": worst,
        "min_sigma": min_sigma,
        "points_checked": int(pts.shape[0]),
    }


def plucker_certificate_by_minors(point: UniversalPoint,
                                  tol: Tolerances = DEFAULT) -> float:
    """|sum p_I^2| / sum |p_I|^2 over every maximal minor p_I of
    [S' | S''], enumerated one determinant at a time."""
    basis = np.concatenate([point.sp.basis, point.spp.basis], axis=1)
    rows, cols = basis.shape
    if math.comb(rows, cols) > 100000:
        raise InvalidParams("wedge coordinate count too large to enumerate")
    coords = np.array([
        np.linalg.det(basis[list(sel), :])
        for sel in itertools.combinations(range(rows), cols)
    ])
    norm2 = float(np.sum(np.abs(coords) ** 2))
    if norm2 <= tol.alg_atol:
        raise EigenSplitFailure("wedge coordinates vanish; basis degenerate")
    return float(abs(np.sum(coords ** 2)) / norm2)


def realify_matrix(M: np.ndarray) -> np.ndarray:
    """The real block matrix [[P, -Q], [Q, P]] of M = P + iQ."""
    M = np.asarray(M, dtype=complex)
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def standard_structure_by_block(m: int) -> np.ndarray:
    """Multiplication by i on C^m as np.block assembles it."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, -eye], [eye, zero]])


def real_linear_by_block(p, q) -> np.ndarray:
    """Realified zeta -> P zeta + Q conj(zeta) as np.block assembles it."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return np.block([[(p + q).real, -(p - q).imag], [(p + q).imag, (p - q).real]])


def reassemble(split: RealSplitting) -> np.ndarray:
    """Rebuild the complexified matrix i*P_plus + (-i)*P_minus.

    P_plus / P_minus are the projectors onto each eigenspace along the
    other, computed from the joint basis. Round-tripping eigen_split
    through reassemble recovers J up to solver rounding.
    """
    joint = np.concatenate([split.plus_i.basis, split.minus_i.basis], axis=1)
    inv = np.linalg.inv(joint)
    r = split.plus_i.dim
    p_plus = joint[:, :r] @ inv[:r]
    p_minus = joint[:, r:] @ inv[r:]
    return 1j * p_plus - 1j * p_minus


def complement_by_projector(small: ComplexSubspace, big: ComplexSubspace,
                            tol: Tolerances = DEFAULT) -> ComplexSubspace:
    """An orthonormal complement of small in big: the part of big's basis
    orthogonal to small, orthonormalized by one SVD."""
    cols = big.basis - small.projector() @ big.basis
    comp = ComplexSubspace.from_spanning_set(cols, tol)
    if comp.dim != big.dim - small.dim:
        raise InvalidParams("complement extraction lost rank")
    return comp


def rechosen_point(point: UniversalPoint, rng) -> UniversalPoint:
    """The same 5-tuple with the trailing n columns of the Sigma' and
    Sigma'' bases re-chosen: C -> (C + S tilt) mix, with tilt and mix
    drawn from rng (Sigma' first). The new columns still complete S' and
    S'' to Sigma' and Sigma'', but are neither orthonormal nor
    orthogonal to S' and S''."""
    n, k = point.n, point.k
    bases = []
    for small, big in ((point.sp, point.sigp), (point.spp, point.sigpp)):
        tilt = rng.complex_matrix(k - n, n, 0.3)
        mix = rng.complex_matrix(n, n, 0.2) + np.eye(n)
        tail = (big.basis[:, k - n:] + small.basis @ tilt) @ mix
        bases.append(ComplexSubspace(np.concatenate([small.basis, tail], axis=1)))
    return UniversalPoint(n, k, point.z, point.sp, point.spp, *bases)


def embedding_differential_by_points(x, m: PointwiseACManifold, frame: ChartFrame,
                                     h: float = 1e-4,
                                     tol: Tolerances = DEFAULT) -> np.ndarray:
    """The Richardson differential of the chart coordinates, building
    the fiber of each point on its own, in the order the differences
    read them; each difference is divided by the span its two points
    really have."""
    x = np.asarray(x, dtype=float).reshape(-1)

    def quotient(plus, minus, r) -> np.ndarray:
        return ((frame.coordinates(build_fiber(plus, m, tol))
                 - frame.coordinates(build_fiber(minus, m, tol)))
                / (plus[r] - minus[r]))

    cols = []
    for r in range(2 * m.n):
        step = np.zeros_like(x)
        step[r] = h
        d1 = quotient(x + step, x - step, r)
        d2 = quotient(x + 0.5 * step, x - 0.5 * step, r)
        cols.append(realify_vector((4.0 * d2 - d1) / 3.0))
    return np.stack(cols, axis=1)


def frame_derivatives_by_column(chart: DistributionChart, z) -> np.ndarray:
    """D[:, :, j] = e_j(a) at z: the fiber columns of the chart Jacobian
    plus sum_l a[l, j] da/dz_l, added one column j at a time."""
    a = chart.a_value(z)
    jac = chart.a_jacobian(z)
    n = chart.n
    for j in range(chart.fiber_dim):
        jac[:, :, n + j] += np.einsum("icl,l->ic", jac[:, :, :n], a[:, j])
    return jac[:, :, n:]


def torsion_via_frames_loop(chart: DistributionChart, z) -> TorsionTensor:
    """Torsion at z by the frame route, antisymmetrizing the frame
    derivatives one (j, k) pair at a time."""
    frame_deriv = frame_derivatives_by_column(chart, z)
    n, m = chart.n, chart.fiber_dim
    theta = np.zeros((n, m, m), dtype=complex)
    for j in range(m):
        for k in range(j + 1, m):
            val = 0.5 * (frame_deriv[:, k, j] - frame_deriv[:, j, k])
            theta[:, j, k] = val
            theta[:, k, j] = -val
    return TorsionTensor(theta)


def _df_real(emb: GraphEmbedding, zp) -> np.ndarray:
    """Realified differential of F = (id, g), shape (2N, 2n)."""
    eye = np.eye(emb.n, dtype=complex)
    zero = np.zeros((emb.n, emb.n), dtype=complex)
    return _real_linear(np.concatenate([eye, emb._pg.value(zp)], axis=0),
                        np.concatenate([zero, emb._qg.value(zp)], axis=0))


def _joint_solve(emb: GraphEmbedding, chart: DistributionChart, zp, rhs,
                 tol: Tolerances = DEFAULT) -> np.ndarray:
    """Solve [dF | fiber-basis] x = rhs, rebuilding and re-checking the
    joint matrix; the first 2n rows are the chart component."""
    a = chart.a_value(emb.f_value(zp))
    fiber = realify_basis(np.concatenate(
        [a, np.eye(chart.fiber_dim, dtype=complex)], axis=0))
    joint = np.concatenate([_df_real(emb, zp), fiber], axis=1)
    s = np.linalg.svd(joint, compute_uv=False)
    if s[-1] <= tol.rank_rtol * s[0]:
        raise NotTransverse("graph and fiber fail to span the chart")
    return np.linalg.solve(joint, rhs)


def _pullback_by_vector(emb: GraphEmbedding, chart: DistributionChart, zp,
                        q_repr, tol: Tolerances = DEFAULT) -> np.ndarray:
    rhs = realify_vector(np.concatenate(
        [np.asarray(q_repr, dtype=complex).reshape(-1), np.zeros(emb.big_n - emb.n)]))
    return _joint_solve(emb, chart, zp, rhs, tol)[: 2 * emb.n]


def induced_jf_by_column(emb: GraphEmbedding, chart: DistributionChart, zp,
                         tol: Tolerances = DEFAULT) -> np.ndarray:
    """Closed-form J_f, its right-hand side one basis vector at a time."""
    zp = np.asarray(zp, dtype=complex).reshape(-1)
    n = emb.n
    a = chart.a_value(emb.f_value(zp))
    q = emb._qg.value(zp)
    rhs = np.zeros((2 * emb.big_n, 2 * n))
    for r in range(2 * n):
        zeta = np.eye(2 * n)[:n, r] + 1j * np.eye(2 * n)[n:, r]
        head = 1j * (a @ (q @ zeta.conj()))
        rhs[:, r] = realify_vector(np.concatenate([head, np.zeros(emb.big_n - n)]))
    alpha = _joint_solve(emb, chart, zp, rhs, tol)[: 2 * n, :]
    return standard_structure(n) - 2.0 * alpha


def dbar_f_fiber_coords_by_column(emb: GraphEmbedding, chart: DistributionChart,
                                  zp, jf: np.ndarray, tol: Tolerances = DEFAULT):
    """(etas, residual) of dbar f = (dF + J_Z dF J_f) / 2, one column at a
    time."""
    df = _df_real(emb, zp)
    mat = 0.5 * (df + standard_structure(emb.big_n) @ df @ jf)
    a = chart.a_value(emb.f_value(zp))
    n, big_n = emb.n, emb.big_n
    etas = np.zeros((chart.fiber_dim, 2 * n), dtype=complex)
    residual = 0.0
    for r in range(2 * n):
        vec = mat[:big_n, r] + 1j * mat[big_n:, r]
        etas[:, r] = vec[n:]
        residual = worst_of(
            residual, float(np.max(np.abs(vec[:n] - a @ vec[n:]), initial=0.0)))
    return etas, residual


def variation_djf_by_column(emb: GraphEmbedding, chart: DistributionChart,
                            var: VariationData, zp,
                            tol: Tolerances = DEFAULT) -> np.ndarray:
    """dJ_f(w) = 2 J_f (f_*^-1 theta(dbar f ., u) + dbar_{J_f} v) with one
    torsion contraction and one pullback per basis vector."""
    zp = np.asarray(zp, dtype=complex).reshape(-1)
    n = emb.n
    jf = induced_jf_by_column(emb, chart, zp, tol)
    etas, _ = dbar_f_fiber_coords_by_column(emb, chart, zp, jf, tol)
    theta = torsion_via_frames(chart, emb.f_value(zp))
    eta_u = var.eta.value_vector(zp)
    term1 = np.zeros((2 * n, 2 * n))
    for r in range(2 * n):
        term1[:, r] = _pullback_by_vector(
            emb, chart, zp, theta.apply(etas[:, r], eta_u), tol)
    dv = _real_linear(var.v.holo_jacobian_map().value(zp),
                      var.v.anti_jacobian_map().value(zp))
    pg, qg = emb._pg.value(zp), emb._qg.value(zp)
    v0 = var.v.value_vector(zp)
    df_v0 = np.concatenate([v0, pg @ v0 + qg @ v0.conj()])
    da_v0 = np.einsum("icb,b->ic", chart.a_jacobian(emb.f_value(zp)), df_v0)
    djf_v = np.zeros((2 * n, 2 * n))
    for r in range(2 * n):
        zeta = np.eye(2 * n)[:n, r] + 1j * np.eye(2 * n)[n:, r]
        djf_v[:, r] = -2.0 * _pullback_by_vector(
            emb, chart, zp, 1j * (da_v0 @ (qg @ zeta.conj())), tol)
    dbar_v = 0.5 * (dv + jf @ dv @ jf) - 0.5 * jf @ djf_v
    return 2.0 * jf @ (term1 + dbar_v)


def dbar_f(emb: GraphEmbedding, chart: DistributionChart, zp,
           jf: np.ndarray | None = None,
           tol: Tolerances = DEFAULT) -> np.ndarray:
    """Conjugate-linear differential (2N x 2n, realified) at one graph
    point: dbar f = (dF + J_Z dF J_f) / 2, with J_f by the quotient route
    unless given. Its image lies in the fiber of the distribution."""
    pt = GraphPoint(emb, chart, zp, tol)
    return pt.dbar_f(pt.jf_quotient() if jf is None else jf)


def crpoly_value_by_numpy_scalars(cmap: CRPolyMap, z) -> np.ndarray:
    """CRPolyMap.value reading z and conj(z) as numpy scalars, one per
    factor, in the library's multiplication order."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    zc = z.conj()
    out = np.zeros((cmap.rows, cmap.cols), dtype=complex)
    for (i, j), terms in cmap.entries.items():
        acc = 0j
        for (za, zb), coeff in terms.items():
            term = coeff
            for var, p in enumerate(za):
                if p:
                    term *= z[var] ** p
            for var, p in enumerate(zb):
                if p:
                    term *= zc[var] ** p
            acc += term
        out[i, j] = acc
    return out


def deformed_embedding(emb: GraphEmbedding, chart: DistributionChart,
                       var: VariationData,
                       t: float) -> tuple[GraphEmbedding, CRPolyMap]:
    """The deformed graph at one parameter t, built anew: the
    embedding with g_t = g + t(eta - dg . a(F) eta), and vtilde = v +
    a(F) eta."""
    n = emb.n
    zero = (0,) * n
    graph = {(i, 0): {(zero[:i] + (1,) + zero[i + 1:], zero): 1.0} for i in range(n)}
    graph.update({(n + l, 0): terms for (l, _), terms in emb.g.entries.items()})
    a_on_graph = chart.amap.substitute(CRPolyMap(n, emb.big_n, 1, graph))
    a_eta = a_on_graph.matmul(var.eta)
    dg_a_eta = emb._pg.matmul(a_eta) + emb._qg.matmul(a_eta.conjugate())
    g_t = emb.g + (var.eta - dg_a_eta).scale(t)
    vtilde = var.v + a_eta
    return GraphEmbedding(emb.n, emb.big_n, g_t, base=emb.base), vtilde


def variation_fd_quotient(emb: GraphEmbedding, chart: DistributionChart,
                          var: VariationData, zp, t: float,
                          tol: Tolerances = DEFAULT) -> np.ndarray:
    """(J_{f_t}(x) - J_f(x)) / t for one step t, rebuilding the
    deformation, vtilde's Jacobian and J_f(zp) for it."""
    zp = np.asarray(zp, dtype=complex).reshape(-1)
    emb_t, vtilde = deformed_embedding(emb, chart, var, t)
    moved = zp + t * vtilde.value_vector(zp)
    d_vtilde = _real_linear(vtilde.holo_jacobian_map().value(zp),
                            vtilde.anti_jacobian_map().value(zp))
    dphi = np.eye(2 * emb.n) + t * d_vtilde
    j_moved = GraphPoint(emb_t, chart, moved, tol).jf_quotient()
    j_t = np.linalg.solve(dphi, j_moved @ dphi)
    j_0 = GraphPoint(emb, chart, zp, tol).jf_quotient()
    return (j_t - j_0) / t


def fiber_at(chart: DistributionChart, z, tol: Tolerances = DEFAULT) -> ComplexSubspace:
    """The fiber {(a(z) eta, eta)} of a chart at z."""
    a = chart.a_value(z)
    cols = np.concatenate([a, np.eye(chart.fiber_dim, dtype=complex)], axis=0)
    return ComplexSubspace.from_columns(cols, tol)


def frame_vector(chart: DistributionChart, z, j: int) -> np.ndarray:
    """The frame vector e_j(z) = unit_{n+j} + sum_i a[i, j](z) unit_i."""
    a = chart.a_value(z)
    v = np.zeros(chart.big_n, dtype=complex)
    v[chart.n + j] = 1.0
    v[: chart.n] = a[:, j]
    return v


class CallableChartMap:
    """A black-box holomorphic chart map, differentiated by the circle rule."""

    def __init__(self, n_vars: int, rows: int, cols: int, fn, h: float = 0.05):
        self.n_vars = n_vars
        self.rows = rows
        self.cols = cols
        self.fn = fn
        self.h = h

    def value(self, z) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(z, dtype=complex).reshape(-1)), dtype=complex)

    def jacobian(self, z) -> np.ndarray:
        return circle_rule_jacobian(self.fn, z, self.n_vars, self.h)


def recenter_callable(chart: DistributionChart, new_center) -> DistributionChart:
    """distribution.recenter for a callable chart map: the same shear
    w = L (z - z1), L = [[I, -a(z1)], [0, I]], composed numerically, so
    a(z1 + L^-1 w) - a(z1) is differentiated by the circle rule."""
    z1 = chart._check_domain(new_center)
    a1 = chart.a_value(z1)
    n, m, big_n = chart.n, chart.fiber_dim, chart.big_n
    l_inv = np.eye(big_n, dtype=complex)
    l_inv[:n, n:] = a1
    inner = chart.amap

    def fn(w):
        return inner.value(z1 + l_inv @ w) - a1

    return DistributionChart(n, big_n, CallableChartMap(big_n, n, m, fn), radius=chart.radius)


def transform_linear(chart: DistributionChart, l_matrix: np.ndarray) -> DistributionChart:
    """Push the distribution forward through an invertible linear map.

    The new presentation re-graphs L . D_{L^-1 w} over the last N-n
    coordinates; a ValueError surfaces at evaluation points where that
    projection degenerates.
    """
    l_matrix = np.asarray(l_matrix, dtype=complex)
    n, m, big_n = chart.n, chart.fiber_dim, chart.big_n
    l_inverse = np.linalg.inv(l_matrix)
    inner = chart.amap

    def fn(w):
        z = l_inverse @ w
        a = inner.value(z)
        basis = l_matrix @ np.concatenate([a, np.eye(m, dtype=complex)], axis=0)
        lower = basis[n:, :]
        s = np.linalg.svd(lower, compute_uv=False)
        if s[-1] <= 1e-10 * max(1.0, s[0]):
            raise ValueError("transformed fiber loses the graph form")
        return basis[:n, :] @ np.linalg.inv(lower)

    new_map = CallableChartMap(big_n, n, m, fn, h=0.02)
    return DistributionChart(n, big_n, new_map, radius=chart.radius)


def coordinate_plane_subspaces(n: int, m: int):
    """All coordinate n-planes inside the fiber, as subspaces of C^{n+m}."""
    out = []
    for combo in itertools.combinations(range(m), n):
        cols = np.zeros((n + m, n), dtype=complex)
        for idx, j in enumerate(combo):
            cols[n + j, idx] = 1.0
        out.append((combo, ComplexSubspace(cols)))
    return out


def trig_matmul(left: TrigPolyField, right: TrigPolyField) -> TrigPolyField:
    """Exact product field via the product-to-sum identities."""
    if left.d != right.d:
        raise DimensionMismatch("fields live on different tori")
    if left.shape[1] != right.shape[0]:
        raise ShapeMismatch(f"cannot multiply {left.shape} by {right.shape}")
    out_shape = (left.shape[0], right.shape[1])
    acc: dict = {}

    def add(freq, c, s):
        key, sign = _canonical(freq)
        cc, ss = acc.get(key, (np.zeros(out_shape), np.zeros(out_shape)))
        acc[key] = (cc + c, ss + sign * s)

    for f1, (c1, s1) in left.terms.items():
        for f2, (c2, s2) in right.terms.items():
            plus = tuple(a + b for a, b in zip(f1, f2))
            minus = tuple(a - b for a, b in zip(f1, f2))
            cc = c1 @ c2
            csn = c1 @ s2
            sc = s1 @ c2
            ssn = s1 @ s2
            add(minus, 0.5 * (cc + ssn), 0.5 * (sc - csn))
            add(plus, 0.5 * (cc - ssn), 0.5 * (sc + csn))
    return TrigPolyField(left.d, out_shape, acc)


def jacobian_field(v: TrigPolyField) -> TrigPolyField:
    """Matrix field of partials of a column field: column i is d_i v."""
    if v.shape[1] != 1:
        raise ShapeMismatch("jacobian_field expects a column field")
    r = v.shape[0]
    acc: dict = {}
    for i in range(v.d):
        p = v.partial(i)
        for freq, (c, s) in p.terms.items():
            cc, ss = acc.get(freq, (np.zeros((r, v.d)), np.zeros((r, v.d))))
            cc = cc.copy()
            ss = ss.copy()
            cc[:, i] += c[:, 0]
            ss[:, i] += s[:, 0]
            acc[freq] = (cc, ss)
    return TrigPolyField(v.d, (r, v.d), acc)


def lie_bracket(v: TrigPolyField, w: TrigPolyField) -> TrigPolyField:
    """[V, W] = DW . V - DV . W, exact for trig-poly fields."""
    v._binary_shape_check(w)
    if v.shape[1] != 1:
        raise ShapeMismatch("bracket expects column fields")
    return trig_matmul(jacobian_field(w), v) + trig_matmul(jacobian_field(v), w).scale(-1.0)


def _eliminate_outer(tab: np.ndarray, basis: list, leave: int, enter: int) -> None:
    tab[leave] /= tab[leave, enter]
    row = tab[leave].copy()
    tab -= np.outer(tab[:, enter], row)
    tab[leave] = row
    basis[leave] = enter


def simplex_solve_loop(c, a, b, tol: float = 1e-11):
    """Bland-rule two-phase simplex, choosing each pivot by a per-column
    scan of numpy scalars and a tuple ratio test (see the module notes)."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    rows, cols = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1 tableau with one artificial per row
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:rows, :cols] = a
    tab[:rows, cols:cols + rows] = np.eye(rows)
    tab[:rows, -1] = b
    tab[rows, cols:cols + rows] = 1.0
    basis = list(range(cols, cols + rows))
    tab[rows] -= tab[:rows].sum(axis=0)

    def pivot(limit):
        while True:
            reduced = tab[rows, :limit]
            enter = -1
            for j in range(limit):
                if j not in basis and reduced[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return
            ratios = [
                (tab[i, -1] / tab[i, enter], basis[i], i)
                for i in range(rows)
                if tab[i, enter] > tol
            ]
            if not ratios:
                raise InvalidParams("linear program is unbounded")
            _, _, leave = min(ratios)
            _eliminate_outer(tab, basis, leave, enter)

    pivot(cols + rows)
    if tab[rows, -1] < -1e3 * tol:
        raise Infeasible("linear program is infeasible")

    # drive leftover artificials out of the basis where possible
    for i in range(rows):
        if basis[i] >= cols:
            for j in range(cols):
                if abs(tab[i, j]) > tol:
                    _eliminate_outer(tab, basis, i, j)
                    break

    # phase 2 objective row
    tab[rows, :] = 0.0
    tab[rows, :cols] = c
    for i in range(rows):
        if basis[i] < cols:
            tab[rows] -= c[basis[i]] * tab[i]
    tab[:, cols:cols + rows] = 0.0  # retire artificial columns
    pivot(cols)

    x = np.zeros(cols)
    for i in range(rows):
        if basis[i] < cols:
            x[basis[i]] = tab[i, -1]
    return x, float(c @ x)


def common_point_weights_program(data: LvmbData):
    """(c, a, b) of "one point in every hull, every weight at least eps"
    in the weights form: the layout of `lvmb.hull_overlap_lp` extended to
    all |E| blocks. Column 0 is eps and block k holds the slacks s_k of
    the weights eps + s_k of set k; the first (|E| - 1) 2m rows equate the
    point of block 0 with that of block k, the last |E| rows make each
    block's weights sum to 1. The optimum is -eps. The Bland simplex is
    unstable on this form, which `lvmb.common_point` avoids by solving the
    small dual instead."""
    hulls = [data.hull_points(group) for group in data.family]
    count, (size, dim) = len(hulls), hulls[0].shape
    a = np.zeros(((count - 1) * dim + count, 1 + count * size))
    b = np.zeros(a.shape[0])
    first = hulls[0]
    for k, points in enumerate(hulls):
        block = slice(1 + k * size, 1 + (k + 1) * size)
        if k:
            rows = slice((k - 1) * dim, k * dim)
            a[rows, 0] = first.sum(axis=0) - points.sum(axis=0)
            a[rows, 1:1 + size] = first.T
            a[rows, block] = -points.T
        a[(count - 1) * dim + k, 0] = size
        a[(count - 1) * dim + k, block] = 1.0
        b[(count - 1) * dim + k] = 1.0
    c = np.zeros(a.shape[1])
    c[0] = -1.0
    return c, a, b
