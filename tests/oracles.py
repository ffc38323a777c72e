"""Reference routes and helpers that only the tests use, kept out of the
library.

`build_fiber` and `induced_solve_at` are the one-point-at-a-time
forms of the library's stacked route (`universal.build_fibers`,
`universal.induced_structures`). They call only per-point LAPACK and
field evaluations (`value`, `jacobian_value`), so the tests can compare
the stacked route against them bit for bit. `build_fiber` still takes
its own SVD of J + i and its own QR of the -i side, where the library
conjugates the +i side, so the -i side is compared against an
independent build (by value: conjugation gives -0.0 where the oracle
gives +0.0). It returns a `FiberTuple`, the whole 5-tuple with a basis
of each of S', S'', Sigma' and Sigma'', where a library
`UniversalPoint` keeps only z and Sigma'; `validate` keeps, for such
tuples, the containment, conjugation and z-real tests that the
library's point type makes hold by construction. `split_by_svd` is the
real SVD of [Sigma' | conj Sigma'] that the library's split test took
before it read a lower bound off the build (`universal._split_bound`);
the tests hold the bound below it. `induced_reduced_at` is the quotient
map the library took before the solve: the orthogonal complement of the
fiber, from a complete QR. `induced_at` is the joint route before that:
it solves [dG | S' | Sigma''] x = i dG in realified coordinates, a
4k x 4k system. The tests hold both to the library's J_f to a stated
bound.
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
complements. `coordinates_by_graphs` is `ChartFrame.coordinates` as it
was before it read every graph off one solve: a solve and an inverse
per big graph, a least-squares solve and an inverse per small graph,
and a solve of its own for the ambient block.
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
`wirtinger_maps_by_partials` is the pair of Wirtinger maps as
`CRPolyMap` built it before `CRPolyMap.wirtinger_maps` took one pass:
one partial map per variable and side, each copied into the matrix map
column by column.
`darboux_transform_by_pairs` is the Darboux frame as a Python loop over
column pairs, before `universal.darboux_transform` read each step off
one matrix product; the tests hold the two to the same pivots.
`nijenhuis_fd_oracle_by_closures` is `fields.nijenhuis_fd_oracle` as it
was before it shared the values of J between its two difference
quotients: one closure per vector, each evaluating J again, 4d + 1
values of J where the library takes 2d + 1.
`tensoriality_by_trig_modulators` is `fields.verify_tensoriality` as it
was when it took the modulators as scalar trig-poly fields (built by
`trig_modulator`) and read their gradients off their partial fields;
the library now takes the gradients. The tests hold the library to
both bit for bit.
`nijenhuis_from_jet_by_pair` and `nijenhuis_torsion_map_by_pair` are
the two routes of `nijenhuis_identity` as they were before they took
stacks of pairs: one pair per call, one matrix-vector product, sum and
solve at a time. The tests hold the stacked routes to them bit for bit.
`simplex_solve_loop` is the Bland simplex as it was before pivot choice
read the tableau as Python floats: it scans the reduced costs and the
ratio column one numpy scalar at a time and eliminates with an outer
product, so the tests can hold `lvmb.simplex_solve` to it bit for bit.
`hull_overlap_lp` is the pairwise overlap program of
`lvmb.check_condition_i` as it was before every pair took the common
point of its two simplices: the weights form, a block of weights per
hull, which is infeasible when the hulls are apart and on which the
Bland simplex is unstable; the tests hold the pair margins to it where
it returns one.
`full_dimensional_by_set` is the full-dimensionality test of
`lvmb.check_condition_i` as it was before the library classified the
stacked sets by one batched SVD: one SVD per set, with Python's `max`
for the cutoff, in the library's scale-normalised frame.
`check_condition_ii_by_sorted_tuples` is the exchange condition as it
was before it exchanged indices on frozensets: each exchanged set is
rebuilt as a sorted tuple.
`pair_overlaps` reads a `check_condition_i` report back into one verdict
per pair of E, in the polygon route's order, so the two routes can be
compared pair by pair though the report lists only the pairs that the
common point does not cover.

The rest are small constructions the tests build their cases from or
check the library against: subspace containment, realified matrices and
the reassembly of an eigen splitting, chart fibers and frame vectors, a
linear change of chart (a black-box chart map under the circle rule),
the recentering of a polynomial chart by exact substitution (the
reference for the library's off-centre torsion) and of a black-box one,
coordinate planes, the exact product and Lie bracket of trig-poly
fields, the per-point jacobian of a column field, the product-of-circles
torus with the standard structure, and a seeded complex vector.
"""
import itertools
import math
from typing import NamedTuple

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
from acs_verify.fields import (
    AlmostComplexField,
    TorusChart,
    TrigPolyField,
    _canonical,
    nijenhuis_from_jet,
    structure_jet,
)
from acs_verify.induced import GraphEmbedding, GraphPoint, VariationData, _real_linear
from acs_verify.lvmb import MARGIN, LvmbData, simplex_solve
from acs_verify.universal import (
    ChartFrame,
    PointwiseACManifold,
    UniversalPoint,
    default_torus_embedding,
)


class FiberTuple(NamedTuple):
    """The 5-tuple (z, S', S'', Sigma', Sigma'') with a basis array of each
    subspace, for points built or tampered with by hand. It reads as a
    `UniversalPoint` where the library reads one (n, k, z, sigp)."""
    n: int
    k: int
    z: np.ndarray
    sp: np.ndarray
    spp: np.ndarray
    sigp: np.ndarray
    sigpp: np.ndarray


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


def validate(point: FiberTuple, tol: Tolerances = DEFAULT) -> None:
    """The per-point tests of a 5-tuple: the library's shape tests
    (`UniversalPoint.validate`) and the split, in the order the library
    once ran them, with the containment, conjugation and z-real tests
    between and after them that the library's point type makes hold,
    kept here for tuples built by hand."""
    k, n = point.k, point.n
    if point.z.shape[0] != 2 * k:
        raise DimensionMismatch("base point must live in C^{2k}")
    sp, spp, sigp, sigpp = map(ComplexSubspace, (point.sp, point.spp, point.sigp, point.sigpp))
    dims = (sp.dim, spp.dim, sigp.dim, sigpp.dim)
    if dims != (k - n, k - n, k, k):
        raise EigenSplitFailure(
            f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
        )
    if not contains(sigp, sp, tol):
        raise EigenSplitFailure("S' is not contained in Sigma'")
    if not contains(sigpp, spp, tol):
        raise EigenSplitFailure("S'' is not contained in Sigma''")
    ok, sigma = direct_sum_test(sigp, sigpp, tol)
    if not ok:
        raise EigenSplitFailure(
            f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={sigma:.3e})"
        )
    if not subspace_eq(spp, ComplexSubspace(point.sp.conj()), tol):
        raise EigenSplitFailure("S'' is not the conjugate of S'")
    if not subspace_eq(sigpp, ComplexSubspace(point.sigp.conj()), tol):
        raise EigenSplitFailure("Sigma'' is not the conjugate of Sigma'")
    if np.max(np.abs(np.imag(point.z)), initial=0.0) > 1e3 * tol.alg_atol:
        raise EigenSplitFailure("base point is not real")


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> FiberTuple:
    """The 5-tuple over x, one point at a time (see the library's
    `build_fibers` for the block construction it follows), with its own
    build of the -i side."""
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
        return q[:, :k - n], q

    sp, sigp = nested(ker_minus, ker_plus, -1.0)
    spp, sigpp = nested(ker_plus, ker_minus, 1.0)
    gx = m.g.value(x)[:, 0]
    point = FiberTuple(n, k, np.concatenate([gx, gx]), sp, spp, sigp, sigpp)
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


def horizontal_columns(point: UniversalPoint) -> np.ndarray:
    """[S' | Sigma''] as the library reads it off a point's Sigma'."""
    return np.concatenate([point.sigp[:, :point.k - point.n], point.sigp.conj()], axis=1)


def horizontal_qr_basis(point: UniversalPoint, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal basis of S' (+) Sigma'' by a pivoted QR of [S' | Sigma''],
    with its codimension guard: the route the library took before it read
    the horizontal columns straight from the validated fiber bases."""
    cols = horizontal_columns(point)
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
        fiber = horizontal_columns(point)
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
                       point: FiberTuple | None = None) -> np.ndarray:
    """J_f at x through the orthogonal complement of the fiber, one point
    at a time, on the tuple's own S' and Sigma'': the trailing n columns
    W of a complete QR of [S' | Sigma''] give the quotient map W^H, the
    route the library took before it read the quotient off one solve
    against [Sigma' | Sigma'']."""
    if point is None:
        point = build_fiber(x, m, tol)
    fiber = np.concatenate([point.sp, point.sigpp], axis=1)
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


def induced_solve_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                     point: FiberTuple | None = None) -> np.ndarray:
    """J_f at x by the library's route (`universal._induced_from_parts`)
    with its guards, one point at a time on 2-d arrays: one real solve
    [Re Sigma' | Im Sigma'] Y = [dg; dg], M = [Y_A; -Y_B] on the quotient
    rows, J_f = M^-1 J_std M."""
    if point is None:
        point = build_fiber(x, m, tol)
    k, n = m.k, m.n
    dg = jacobian_value(m.g, np.asarray(x, dtype=float).reshape(-1))
    try:
        y = np.linalg.solve(np.hstack([point.sigp.real, point.sigp.imag]), np.vstack([dg, dg]))
    except np.linalg.LinAlgError:
        raise EigenSplitFailure("Sigma' and Sigma'' do not split C^{2k} "
                                "(singular solve)") from None
    mat = np.vstack([y[k - n:k], -y[2 * k - n:]])
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= tol.rank_rtol * sv[0]:
        raise NotTransverse(f"base tangent meets the fiber (sigma_min={sv[-1]:.3e})")
    jf = np.linalg.solve(mat, standard_structure(n) @ mat)
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[0])))
    if resid > 1e3 * tol.alg_atol:
        raise NotAComplexStructure(f"||J_f^2 + Id|| = {resid:.3e}")
    return jf


def split_by_svd(sigp: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """sigma_min / sigma_max of [Sigma' | conj Sigma'] for each stacked
    Sigma' (rows, 2k, k), by the real SVD that the library's stacked
    validator took before `universal._split_bound` replaced it; the
    first point at or below rank_rtol raises as that test did. With
    Sigma' = A + iB, [Sigma' | conj Sigma'] = [A | B] [[I, I], [iI, -iI]],
    whose right factor is sqrt(2) times a unitary."""
    s = np.sqrt(2.0) * np.linalg.svd(np.dstack([sigp.real, sigp.imag]), compute_uv=False)
    bad = ~(s[:, -1] > tol.rank_rtol * s[:, 0])
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EigenSplitFailure(
            f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={s[i, -1]:.3e})")
    return s[:, -1] / s[:, 0]


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
    [S' | S''], enumerated one determinant at a time, S' being the first
    k - n columns of the point's Sigma' and S'' their conjugate."""
    sp = point.sigp[:, :point.k - point.n]
    basis = np.concatenate([sp, sp.conj()], axis=1)
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
    """The same 5-tuple with the trailing n columns of the Sigma' basis
    re-chosen: C -> (C + S' tilt) mix, with tilt and mix drawn from rng
    (Sigma'' follows as the conjugate). The new columns still complete S'
    to Sigma', but are neither orthonormal nor orthogonal to S'."""
    n, k = point.n, point.k
    sp = point.sigp[:, :k - n]
    tilt = rng.complex_matrix(k - n, n, 0.3)
    mix = rng.complex_matrix(n, n, 0.2) + np.eye(n)
    tail = (point.sigp[:, k - n:] + sp @ tilt) @ mix
    return UniversalPoint(n, k, point.z, np.concatenate([sp, tail], axis=1))


def coordinates_by_graphs(frame: ChartFrame, point: UniversalPoint) -> np.ndarray:
    """The chart vector of a nearby point as `ChartFrame.coordinates` read
    it from the four subspaces: each big graph by its own solve against
    the frame's bases and an inverse, each small graph by a least-squares
    solve in the tilted frame and an inverse, and the ambient block by a
    solve against [quot | S' | Sigma''] (S'' = conj S' and Sigma'' =
    conj Sigma' read off the point's Sigma')."""
    k, n = frame.k, frame.n
    b_sigp, b_sigpp = frame.b_sigp, frame.b_sigpp
    sigp = point.sigp
    sp, spp, sigpp = sigp[:, :k - n], sigp[:, :k - n].conj(), sigp.conj()

    def graph_of(big_base_a, big_base_b, space) -> np.ndarray:
        coeff = np.linalg.solve(np.concatenate([big_base_a, big_base_b], axis=1), space)
        return coeff[k:] @ np.linalg.inv(coeff[:k])

    def small_graph(base_a, base_b, vmat, space) -> np.ndarray:
        coeff = np.linalg.lstsq(base_a + base_b @ vmat, space, rcond=None)[0]
        return coeff[k - n:] @ np.linalg.inv(coeff[:k - n])

    vp = graph_of(b_sigp, b_sigpp, sigp)
    vpp = graph_of(b_sigpp, b_sigp, sigpp)
    up = small_graph(b_sigp, b_sigpp, vp, sp)
    upp = small_graph(b_sigpp, b_sigp, vpp, spp)
    ambient = np.concatenate([b_sigp[:, k - n:], b_sigp[:, :k - n], b_sigpp], axis=1)
    w = np.linalg.solve(ambient, point.z - frame.point.z)
    return np.concatenate([
        w, up.reshape(-1), upp.reshape(-1), vp.reshape(-1), vpp.reshape(-1)
    ])


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
    dv_holo, dv_anti = wirtinger_maps_by_partials(var.v)
    dv = _real_linear(dv_holo.value(zp), dv_anti.value(zp))
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


def _partial_map(cmap: CRPolyMap, var: int, side: int) -> CRPolyMap:
    """d/dz_var (side 0) or d/dconj(z_var) (side 1) of every entry."""
    entries: dict = {}
    for key, terms in cmap.entries.items():
        cell: dict = {}
        for powers, coeff in terms.items():
            if powers[side][var] == 0:
                continue
            lowered = list(powers[side])
            lowered[var] -= 1
            k = (tuple(lowered), powers[1]) if side == 0 else (powers[0], tuple(lowered))
            cell[k] = cell.get(k, 0j) + coeff * powers[side][var]
        if cell:
            entries[key] = cell
    return CRPolyMap(cmap.n_vars, cmap.rows, cmap.cols, entries)


def wirtinger_maps_by_partials(cmap: CRPolyMap) -> tuple[CRPolyMap, CRPolyMap]:
    """The (rows x n_vars) dz and dzbar matrix maps of a column map, one
    partial map per variable and side."""
    maps = []
    for side in (0, 1):
        entries: dict = {}
        for var in range(cmap.n_vars):
            for (i, _), terms in _partial_map(cmap, var, side).entries.items():
                entries[(i, var)] = dict(terms)
        maps.append(CRPolyMap(cmap.n_vars, cmap.rows, cmap.n_vars, entries))
    return maps[0], maps[1]


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
    dv_holo, dv_anti = wirtinger_maps_by_partials(vtilde)
    d_vtilde = _real_linear(dv_holo.value(zp), dv_anti.value(zp))
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


def recenter(chart: DistributionChart, new_center) -> DistributionChart:
    """Present the same distribution in a chart centered at new_center.

    Coordinates are sheared so the fiber at the new center becomes the
    last N-n coordinate plane: w = L (z - z1) with L = [[I, -a(z1)], [0, I]]
    and the new matrix map is a(z1 + L^-1 w) - a(z1), which vanishes at
    w = 0. The chart map must be a CRPolyMap, so the substitution is exact.
    torsion_at of the result is the reference that the library's frame
    route (`distribution.torsion_via_frames`) is held to off the centre.
    """
    if not isinstance(chart.amap, CRPolyMap):
        raise ShapeMismatch("recenter needs a polynomial chart map")
    z1 = chart._check_domain(new_center)
    a1 = chart.a_value(z1)
    n, big_n = chart.n, chart.big_n
    l_inv = np.eye(big_n, dtype=complex)
    l_inv[:n, n:] = a1
    # z = L^-1 w + z1; each row lists the constant first, then
    # w_0..w_{N-1}, which fixes the summation order of the new map
    zero = (0,) * big_n
    subs = {}
    for b in range(big_n):
        form = {(zero, zero): z1[b]}
        for g in range(big_n):
            form[(zero[:g] + (1,) + zero[g + 1:], zero)] = l_inv[b, g]
        subs[(b, 0)] = form
    new_map = chart.amap.substitute(CRPolyMap(big_n, big_n, 1, subs)) + \
        CRPolyMap.constant(big_n, -a1)
    return DistributionChart(n, big_n, new_map, radius=chart.radius)


def recenter_callable(chart: DistributionChart, new_center) -> DistributionChart:
    """recenter for a callable chart map: the same shear
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


def darboux_transform_by_pairs(gamma: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """universal.darboux_transform as a loop over column pairs: every
    step forms each |c_a^T gamma c_b| by two vector products and updates
    each remaining column with its own two products."""
    gamma = np.asarray(gamma, dtype=float)
    m2 = gamma.shape[0]
    cols = [np.eye(m2)[:, i] for i in range(m2)]
    es, fs = [], []
    for _ in range(m2 // 2):
        vals = np.array([[abs(float(a @ gamma @ b)) for b in cols] for a in cols])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        pivot = float(cols[i] @ gamma @ cols[j])
        if abs(pivot) <= 1e3 * tol.alg_atol:
            raise InvalidParams("form is degenerate")
        e = cols[i]
        f = cols[j] / pivot
        es.append(e)
        fs.append(f)
        rest = [c for idx, c in enumerate(cols) if idx not in (i, j)]
        cols = [c - float(c @ gamma @ f) * e + float(c @ gamma @ e) * f for c in rest]
    return np.stack(es + fs, axis=1)


def nijenhuis_fd_oracle_by_closures(j: AlmostComplexField, x, zeta, eta,
                                    h: float = 1e-5) -> np.ndarray:
    """The FD Lie-bracket route to N_J(zeta, eta) with one closure per
    vector: each difference quotient evaluates J again, 4d + 1 values of
    J on T^d."""
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.shape[0]

    def jz(u):
        return j.value(u) @ zeta

    def je(u):
        return j.value(u) @ eta

    def fd_jac(f, u):
        cols = []
        for i in range(d):
            step = np.zeros(d)
            step[i] = h
            cols.append((f(u + step) - f(u - step)) / (2 * h))
        return np.stack(cols, axis=1)

    jm = j.value(x)
    d_jz = fd_jac(jz, x)
    d_je = fd_jac(je, x)
    bracket_jj = d_je @ (jm @ zeta) - d_jz @ (jm @ eta)
    bracket_z_je = d_je @ zeta
    bracket_jz_e = -d_jz @ eta
    return -bracket_jj + jm @ bracket_z_je + jm @ bracket_jz_e


def nijenhuis_from_jet_by_pair(jet, zeta, eta) -> np.ndarray:
    """N_J(zeta, eta) from a structure jet, one pair of 2n-vectors: each
    directional derivative is summed into zeros one weight at a time,
    zero weights skipped."""
    jm, partials = jet
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)

    def directional_dj(w):
        out = np.zeros((w.shape[0], w.shape[0]))
        for i, wi in enumerate(w):
            if wi != 0.0:
                out += wi * partials[i]
        return out

    out = -directional_dj(jm @ zeta) @ eta
    out += directional_dj(jm @ eta) @ zeta
    out += jm @ (directional_dj(zeta) @ eta)
    out -= jm @ (directional_dj(eta) @ zeta)
    return out


def nijenhuis_torsion_map_by_pair(emb: GraphEmbedding, chart: DistributionChart, zp,
                                  tol: Tolerances = DEFAULT):
    """The map (zeta_r, eta_r) -> 4 theta(dbar f . zeta, dbar f . eta)
    pulled back to the chart, one pair of realified 2n-vectors per call:
    two matrix-vector products, one contraction "ijk,j,k->i" and a
    one-vector joint solve."""
    pt = GraphPoint(emb, chart, zp, tol)
    etas, _ = pt.fiber_coords(pt.dbar_f(pt.jf()))
    theta = pt.torsion().theta

    def nijenhuis(zeta_r, eta_r) -> np.ndarray:
        eta_1 = etas @ np.asarray(zeta_r, dtype=float).reshape(-1)
        eta_2 = etas @ np.asarray(eta_r, dtype=float).reshape(-1)
        return pt.pullback(4.0 * (2.0 * np.einsum("ijk,j,k->i", theta, eta_1, eta_2)))

    return nijenhuis


def trig_modulator(x, freq, cos: float, sin: float) -> TrigPolyField:
    """The scalar trig-poly field cos cos(freq . y) + sin sin(freq . y)
    plus the constant that makes it 1 at y = x."""
    d = len(freq)
    raw = TrigPolyField(d, (1, 1), {tuple(freq): (np.array([[cos]]), np.array([[sin]]))})
    offset = 1.0 - raw.value(x)[0, 0]
    return raw + TrigPolyField.constant(d, np.array([[offset]]))


def tensoriality_by_trig_modulators(j: AlmostComplexField, x, zeta, eta,
                                    phi: TrigPolyField, psi: TrigPolyField):
    """(N_constant, N_modulated, max_abs_deviation) of the modulated
    extensions V = phi zeta, W = psi eta, with phi and psi scalar
    trig-poly fields equal to 1 at x whose gradients are read off their
    exact partial fields."""
    x = np.asarray(x, dtype=float).reshape(-1)
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    for f in (phi, psi):
        assert f.shape == (1, 1) and abs(f.value(x)[0, 0] - 1.0) <= 1e-12

    def grad(f):
        return np.array([f.partial_value(i, x)[0, 0] for i in range(x.shape[0])])

    jm, partials = structure_jet(j, x)
    dphi = grad(phi)
    dpsi = grad(psi)

    def plain(vec, dscal):
        return vec, np.outer(vec, dscal)

    def through_j(vec, dscal):
        cols = [dscal[i] * (jm @ vec) + partials[i] @ vec for i in range(x.shape[0])]
        return jm @ vec, np.stack(cols, axis=1)

    v_val, v_jac = plain(zeta, dphi)
    w_val, w_jac = plain(eta, dpsi)
    jv_val, jv_jac = through_j(zeta, dphi)
    jw_val, jw_jac = through_j(eta, dpsi)

    def bracket(a_val, a_jac, b_val, b_jac):
        return b_jac @ a_val - a_jac @ b_val

    n_mod = (
        bracket(v_val, v_jac, w_val, w_jac)
        - bracket(jv_val, jv_jac, jw_val, jw_jac)
        + jm @ bracket(v_val, v_jac, jw_val, jw_jac)
        + jm @ bracket(jv_val, jv_jac, w_val, w_jac)
    )
    n_const = nijenhuis_from_jet((jm, partials), zeta, eta)
    return n_const, n_mod, float(np.max(np.abs(n_const - n_mod)))


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


def hull_overlap_lp(p1: np.ndarray, p2: np.ndarray
                    ) -> tuple[bool, float | None, np.ndarray | None]:
    """Maximize eps with sum_i w_i p_i = sum_j v_j q_j, weights >= eps,
    each block summing to 1. Positive optimum certifies open overlap for
    full-dimensional hulls; the witness is the common point. The program
    is infeasible exactly when the closed hulls share no point; the
    margin is then None. Raises LPFailure when the simplex answer fails
    its check."""
    n1, dim = p1.shape
    n2 = p2.shape[0]
    cols = 1 + n1 + n2
    a = np.zeros((dim + 2, cols))
    a[:dim, 0] = p1.sum(axis=0) - p2.sum(axis=0)
    a[:dim, 1:1 + n1] = p1.T
    a[:dim, 1 + n1:] = -p2.T
    a[dim, 0] = n1
    a[dim, 1:1 + n1] = 1.0
    a[dim + 1, 0] = n2
    a[dim + 1, 1 + n1:] = 1.0
    b = np.zeros(dim + 2)
    b[dim] = 1.0
    b[dim + 1] = 1.0
    c = np.zeros(cols)
    c[0] = -1.0
    try:
        x, value, _ = simplex_solve(c, a, b)
    except Infeasible:
        return False, None, None
    eps = -value
    if eps < MARGIN:
        return False, eps, None
    weights = x[0] + x[1:1 + n1]
    return True, eps, weights @ p1


def common_point_weights_program(data: LvmbData):
    """(c, a, b) of "one point in every hull, every weight at least eps"
    in the weights form: the layout of `hull_overlap_lp` extended to
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


def full_dimensional_by_set(data: LvmbData, tol: Tolerances = DEFAULT) -> list[bool]:
    """Per set of E: its hull has nonempty interior, by one SVD of the
    centred points in the frame of `lvmb.check_condition_i` (every form
    divided by the family's largest |coordinate|, then moved by the mean
    point of the stacked sets); degenerate when the least singular value
    is at most max(rank_rtol * largest, alg_atol)."""
    stack = data.hull_points(data.family)
    scale = float(np.abs(stack).max()) or 1.0
    centre = (stack / scale).reshape(-1, stack.shape[-1]).mean(axis=0)
    out = []
    for group in data.family:
        points = data.hull_points(group) / scale - centre
        sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
        dim = points.shape[1]
        out.append(not (sv.size < dim
                        or sv[dim - 1] <= max(tol.rank_rtol * sv[0], tol.alg_atol)))
    return out


def check_condition_ii_by_sorted_tuples(data: LvmbData) -> dict:
    """Exchange condition (ii), first violation reported."""
    members = set(data.family)
    for group in data.family:
        gset = set(group)
        for k in range(data.big_n + 1):
            if k in gset:
                continue
            found = any(
                tuple(sorted((gset - {kp}) | {k})) in members
                for kp in group
            )
            if not found:
                return {"ok": False, "counterexample": {"J": list(group), "k": k}}
    return {"ok": True, "counterexample": None}


def pair_overlaps(data, rep):
    """The overlap verdict of every unordered pair of E (self-pairs
    included) in the order of the polygon route, read from a
    check_condition_i report: True for a pair of two sets of
    common_point.sets, the listed entry's verdict for any other pair.
    Asserts that the two kinds partition the pairs and that the listed
    ones keep that order."""
    certified = {tuple(s["j"]) for s in rep["common_point"]["sets"]} if rep["common_point"] else set()
    listed = [(tuple(p["j1"]), tuple(p["j2"])) for p in rep["pairs"]]
    verdicts = dict(zip(listed, (p["overlap"] for p in rep["pairs"])))
    pairs = list(itertools.combinations_with_replacement(data.family, 2))
    uncovered = [pair for pair in pairs if not (pair[0] in certified and pair[1] in certified)]
    assert listed == uncovered
    return [verdicts.get(pair, True) for pair in pairs]
