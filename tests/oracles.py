"""Per-point reference routes, kept out of the library as test oracles.

`build_fiber` and `induced_at` are the one-point-at-a-time constructions
the library's stacked route (`universal.build_fibers`,
`universal.induced_structures`) replaced. They call only per-point
LAPACK and field evaluations (`value`, `jacobian_value`), so the tests
can compare the stacked route against them bit for bit.
`reconstruction_report` sweeps a grid through them.
"""
import numpy as np

from acs_verify.config import DEFAULT, Tolerances, worst_of
from acs_verify.cxlinalg import (
    ComplexSubspace,
    direct_sum_test,
    nullspace,
    realify_basis,
    standard_structure,
    subspace_eq,
)
from acs_verify.errors import (
    DimensionMismatch,
    EigenSplitFailure,
    NotAComplexStructure,
    NotTransverse,
    RankDeficientEmbedding,
)
from acs_verify.fields import TorusChart
from acs_verify.universal import PointwiseACManifold, UniversalPoint


def validate(point: UniversalPoint, tol: Tolerances = DEFAULT) -> None:
    """The per-point tests of a 5-tuple, in the library's order."""
    k, n = point.k, point.n
    if point.z.shape[0] != 2 * k:
        raise DimensionMismatch("base point must live in C^{2k}")
    dims = (point.sp.dim, point.spp.dim, point.sigp.dim, point.sigpp.dim)
    if dims != (k - n, k - n, k, k):
        raise EigenSplitFailure(
            f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
        )
    if not point.sigp.contains(point.sp, tol):
        raise EigenSplitFailure("S' is not contained in Sigma'")
    if not point.sigpp.contains(point.spp, tol):
        raise EigenSplitFailure("S'' is not contained in Sigma''")
    ok, sigma = direct_sum_test(point.sigp, point.sigpp, tol)
    if not ok:
        raise EigenSplitFailure(
            f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={sigma:.3e})"
        )
    if not subspace_eq(point.spp, point.sp.conjugate(), tol):
        raise EigenSplitFailure("S'' is not the conjugate of S'")
    if not subspace_eq(point.sigpp, point.sigp.conjugate(), tol):
        raise EigenSplitFailure("Sigma'' is not the conjugate of Sigma'")
    if np.max(np.abs(point.z.imag), initial=0.0) > 1e3 * tol.alg_atol:
        raise EigenSplitFailure("base point is not real")


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> UniversalPoint:
    """The 5-tuple over x, one point at a time (see the library's
    `build_fibers` for the block construction it follows)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n, k = m.n, m.k
    dg = m.g.jacobian_value(x)
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


def induced_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
               point: UniversalPoint | None = None) -> tuple[np.ndarray, float]:
    """(J_f, sigma_min of the joint system) at x through the quotient, one
    point at a time."""
    if point is None:
        point = build_fiber(x, m, tol)
    cols = np.concatenate([point.sp.basis, point.sigpp.basis], axis=1)
    fiber = ComplexSubspace.from_columns(cols, tol)
    if fiber.dim != 2 * point.k - point.n:
        raise EigenSplitFailure("horizontal part has wrong codimension")
    dg = m.g.jacobian_value(np.asarray(x, dtype=float).reshape(-1))
    dg2k = np.vstack([dg, dg])
    two_n = dg2k.shape[1]
    two_k = dg2k.shape[0]
    dg_real = np.vstack([dg2k, np.zeros_like(dg2k)])
    joint = np.concatenate([dg_real, realify_basis(fiber.basis)], axis=1)
    sv = np.linalg.svd(joint, compute_uv=False)
    sigma = float(sv[-1])
    if sigma <= tol.rank_rtol * sv[0]:
        raise NotTransverse(f"base tangent meets the fiber (sigma_min={sigma:.3e})")
    jf = np.linalg.solve(joint, standard_structure(two_k) @ dg_real)[:two_n, :]
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[0])))
    if resid > 1e3 * tol.alg_atol:
        raise NotAComplexStructure(f"||J_f^2 + Id|| = {resid:.3e}")
    return jf, sigma


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
