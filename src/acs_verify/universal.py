"""Pointwise model of the flag-bundle space that realizes any almost
complex structure as the transverse structure of a fixed distribution.

Given a torus X = T^{2n}, an embedding g: X -> R^k and a structure field
J(x), the point over x packages the doubled base point (g(x), g(x))
together with the eigenspace data of the doubled endomorphism

    Jt(x) = J(x) (+) (-J(x)) (+) [(u, v) -> (-v, u)]

written against the splitting R^{2k} = TX (+) TX (+) NX (+) NX, where NX
is the Euclidean orthogonal complement of dg(TX) in R^k. The +i / -i
eigenspaces Sig' / Sig'' of the complexification, intersected with the
complexified subspace S = {0} (+) TX (+) NX (+) NX, produce the pair
(S', S''); the 5-tuple (z, S', S'', Sig', Sig'') is a point of the model
space, and the corank-n distribution through ambient velocities in
S' (+) Sig'' induces the original J(x) back on X through the quotient.

Everything here is pointwise linear algebra: subspaces are represented by
orthonormal complex bases, charts on the flag factors use graph
coordinates over fixed complements, and derivatives of the point family
x -> fiber data are taken by Richardson-extrapolated central differences
of basis-independent chart coordinates.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, worst_of
from .cxlinalg import (
    ComplexSubspace,
    complexify_vector,
    direct_sum_test,
    nullspace,
    realify_basis,
    realify_vector,
    standard_structure,
)
from .distribution import (
    CallableHolomorphicMap,
    DistributionChart,
    TorsionTensor,
    torsion_at,
)
from .errors import (
    ChartDegeneracy,
    DimensionMismatch,
    EigenSplitFailure,
    InvalidParams,
    NotAComplexStructure,
    NotCompatible,
    NotTransverse,
    RankDeficientEmbedding,
    ShapeMismatch,
)
from .fields import AlmostComplexField, TorusChart, TrigPolyField
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------

def dimension_universal(n: int, k: int) -> int:
    """Complex dimension of the model space for parameters (n, k).

    2k ambient translations, one k^2 Grassmannian per big eigenspace, and
    one n(k-n) Grassmannian per small subspace inside it.
    """
    n = int(n)
    k = int(k)
    if n < 1 or k <= n:
        raise InvalidParams("need k > n >= 1")
    return 2 * k + 2 * (k * k + n * (k - n))


def dimension_symplectic(n: int, b: int, k: int) -> int:
    """Complex dimension of the symplectic variant with ambient factor
    count b and per-factor dimension k; the twistor block contributes
    2bk(2bk+1) and the subspace choices 2n(2bk-n)."""
    n = int(n)
    b = int(b)
    k = int(k)
    if n < 1 or b < 1:
        raise InvalidParams("need n >= 1 and b >= 1")
    if k < 2 * n + 1:
        raise InvalidParams("need k >= 2n + 1")
    m = 2 * b * k
    return m * (m + 1) + 2 * n * (m - n)


# ---------------------------------------------------------------------------
# input data
# ---------------------------------------------------------------------------

def default_torus_embedding(n: int) -> TrigPolyField:
    """Product-of-circles embedding T^{2n} -> R^{4n}.

    Angle x_i maps to the planar pair (cos x_i, sin x_i) in rows
    (2i, 2i+1); the differential has full rank 2n everywhere.
    """
    if n < 1:
        raise InvalidParams("need n >= 1")
    d = 2 * n
    k = 4 * n
    terms = {}
    for i in range(d):
        freq = tuple(1 if j == i else 0 for j in range(d))
        c = np.zeros((k, 1))
        s = np.zeros((k, 1))
        c[2 * i, 0] = 1.0
        s[2 * i + 1, 0] = 1.0
        terms[freq] = (c, s)
    return TrigPolyField(d, (k, 1), terms)


class PointwiseACManifold:
    """A torus T^{2n} carried into R^k together with a structure field.

    g must expose exact jacobians (trig-poly column field); J is validated
    as a pointwise complex structure by its own constructor.
    """

    def __init__(self, n: int, k: int, g: TrigPolyField, j: AlmostComplexField):
        self.n = int(n)
        self.k = int(k)
        if self.n < 1 or self.k < 2 * self.n:
            raise InvalidParams("need n >= 1 and k >= 2n")
        if g.shape != (self.k, 1):
            raise ShapeMismatch(f"g must be a column field into R^{self.k}")
        if g.d != 2 * self.n:
            raise DimensionMismatch("g must be defined on T^{2n}")
        if j.n != self.n:
            raise DimensionMismatch("J must act on 2n-dimensional tangents")
        self.g = g
        self.j = j

    @classmethod
    def default_torus(cls, n: int, j: AlmostComplexField | None = None) -> "PointwiseACManifold":
        if j is None:
            j = AlmostComplexField.standard(n)
        return cls(n, 4 * n, default_torus_embedding(n), j)


# ---------------------------------------------------------------------------
# fiber points
# ---------------------------------------------------------------------------

class UniversalPoint:
    """The 5-tuple (z, S', S'', Sig', Sig'') over one base sample."""

    def __init__(self, n: int, k: int, z, sp, spp, sigp, sigpp):
        self.n = int(n)
        self.k = int(k)
        self.z = np.asarray(z, dtype=complex).reshape(-1)
        self.sp = sp
        self.spp = spp
        self.sigp = sigp
        self.sigpp = sigpp

    def validate(self, tol: Tolerances = DEFAULT) -> None:
        """validate_fibers on this point alone."""
        validate_fibers(self.n, self.k, self.z[None], self.sp.basis[None],
                        self.spp.basis[None], self.sigp.basis[None],
                        self.sigpp.basis[None], tol)


def _raise_first(bad: np.ndarray, error) -> None:
    """Raise error(i) for the first stacked point i where bad holds."""
    if np.any(bad):
        raise error(int(np.argmax(bad)))


def _projectors(bases: np.ndarray) -> np.ndarray:
    return bases @ np.swapaxes(bases.conj(), 1, 2)


def validate_fibers(n: int, k: int, z, sp, spp, sigp, sigpp,
                    tol: Tolerances = DEFAULT) -> None:
    """Certify stacked 5-tuples (one point per leading index; the subspaces
    as orthonormal bases). The tests, in order: the shapes, S' in Sig' and
    S'' in Sig'', Sig' (+) Sig'' = C^{2k}, S'' = conj S' and
    Sig'' = conj Sig' by projector distance, and z real. Each runs on
    the whole stack; the first point that fails raises EigenSplitFailure
    (DimensionMismatch for a shape), with the message the same test gives
    a stack of one."""
    guard = 1e3 * tol.alg_atol
    if z.shape[1] != 2 * k:
        raise DimensionMismatch("base point must live in C^{2k}")
    dims = (sp.shape[2], spp.shape[2], sigp.shape[2], sigpp.shape[2])
    if dims != (k - n, k - n, k, k):
        raise EigenSplitFailure(
            f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
        )
    if any(b.shape[1] != 2 * k for b in (sp, spp, sigp, sigpp)):
        raise DimensionMismatch("ambient dimensions differ")
    for big, small, name in ((sigp, sp, "S' is not contained in Sigma'"),
                             (sigpp, spp, "S'' is not contained in Sigma''")):
        resid = small - _projectors(big) @ small
        inside = np.max(np.abs(resid), axis=(1, 2), initial=0.0) <= guard
        _raise_first(~inside, lambda i: EigenSplitFailure(name))
    s = np.linalg.svd(np.concatenate([sigp, sigpp], axis=2), compute_uv=False)
    _raise_first(~(s[:, -1] > tol.rank_rtol * s[:, 0]), lambda i: EigenSplitFailure(
        f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={s[i, -1]:.3e})"))
    for a, b, name in ((spp, sp, "S'' is not the conjugate of S'"),
                       (sigpp, sigp, "Sigma'' is not the conjugate of Sigma'")):
        gap = np.linalg.norm(_projectors(a) - _projectors(b.conj()), 2, axis=(1, 2))
        _raise_first(~(gap <= guard), lambda i: EigenSplitFailure(name))
    _raise_first(np.max(np.abs(z.imag), axis=1, initial=0.0) > guard,
                 lambda i: EigenSplitFailure("base point is not real"))


class DistributionFiber:
    """Ambient-velocity part S' (+) Sigma'' of the distribution at a point."""

    def __init__(self, base: UniversalPoint, tol: Tolerances = DEFAULT):
        self.base = base
        cols = np.concatenate([base.sp.basis, base.sigpp.basis], axis=1)
        self.horizontal_part = ComplexSubspace.from_columns(cols, tol)
        if self.horizontal_part.dim != 2 * base.k - base.n:
            raise EigenSplitFailure("horizontal part has wrong codimension")

    def quotient_frame(self, tol: Tolerances = DEFAULT) -> ComplexSubspace:
        """Complement of S' inside Sigma'; maps isomorphically onto the
        quotient C^{2k} / (S' (+) Sigma'')."""
        proj = self.base.sp.projector()
        cols = self.base.sigp.basis - proj @ self.base.sigp.basis
        comp = ComplexSubspace.from_spanning_set(cols, tol)
        ok, _ = direct_sum_test(comp, self.horizontal_part, tol)
        if not ok:
            raise EigenSplitFailure("quotient frame does not complement the fiber")
        return comp


# Rows per stacked call of build_fibers and of the reconstruction sweep.
# Peak memory grows with it: against chunks of one row, the peak RSS of a
# universal_n2_k8 run rose by under 0.1 MB at 32 rows, 0.5 MB at 64,
# 2.3 MB at 128 and 7.2 MB at 256, while the time fell no further.
FIBER_CHUNK = 32


def over_chunks(xs, stacked):
    """Yield stacked(rows)[j] for every row of xs in order, FIBER_CHUNK
    rows per call of stacked.

    When a call raises, its rows are redone one at a time, so the first
    bad row raises exactly what stacked raises for that row alone, and
    every row before it has been yielded; that is the behaviour of a
    loop over the rows. Any exception triggers the redo (a guard's, a
    LAPACK error, or one raised by a callable field), since the redo
    raises it again at the row that caused it.
    """
    for start in range(0, len(xs), FIBER_CHUNK):
        rows = xs[start:start + FIBER_CHUNK]
        try:
            results = stacked(rows)
        except Exception:
            if len(rows) == 1:
                raise
            results = (stacked(rows[j:j + 1])[0] for j in range(len(rows)))
        yield from results


def _kernels(mats: np.ndarray, rtol: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cxlinalg.nullspace of every matrix of a stack: the last dim right
    singular vectors, and the kernel dimension the rank cutoff gives each
    matrix (the bases are the kernels where that equals dim)."""
    _, s, vh = np.linalg.svd(mats)
    found = mats.shape[2] - np.sum(s > rtol * s[:, :1], axis=1)
    return np.swapaxes(vh[:, mats.shape[2] - dim:].conj(), 1, 2), found


def _fiber_rows(xs: np.ndarray, m: PointwiseACManifold,
                tol: Tolerances) -> list[UniversalPoint]:
    """The validated 5-tuples over the rows of xs, every step on the stack;
    the first row at which a guard fires raises."""
    n, k = m.n, m.k
    rtol = tol.rank_rtol
    taut_dim = k - 2 * n
    dg = m.g.jacobian_values(xs)
    sv = np.linalg.svd(dg, compute_uv=False)
    _raise_first(sv[:, 2 * n - 1] <= rtol * sv[:, 0], lambda i: RankDeficientEmbedding(
        f"dg has rank < {2 * n} at x={xs[i].tolist()}"))
    nx, found = _kernels(np.swapaxes(dg, 1, 2), rtol, taut_dim)
    nx = nx.real
    _raise_first(found != taut_dim, lambda i: RankDeficientEmbedding(
        "normal complement has wrong dimension"))
    jx = m.j.values(xs)
    eye = np.eye(2 * n)
    resid = np.max(np.abs(jx @ jx + eye), axis=(1, 2))
    _raise_first(resid > 1e3 * tol.alg_atol, lambda i: EigenSplitFailure(
        f"||J^2 + Id|| = {resid[i]:.3e} at x={xs[i].tolist()}"))
    ker_plus, plus_dim = _kernels(jx - 1j * eye, rtol, n)
    ker_minus, minus_dim = _kernels(jx + 1j * eye, rtol, n)
    _raise_first((plus_dim != n) | (minus_dim != n), lambda i: EigenSplitFailure(
        f"eigenspace dims of J ({plus_dim[i]}, {minus_dim[i]}), expected ({n}, {n})"))

    zeros_nx = np.zeros_like(nx)
    frame = np.concatenate([
        np.concatenate([dg, dg], axis=1),
        np.concatenate([dg, -dg], axis=1),
        np.concatenate([nx, zeros_nx], axis=1),
        np.concatenate([zeros_nx, nx], axis=1),
    ], axis=2)

    def nested(s_kernel, quot_kernel, taut_sign):
        # frame coordinates: S part (anti block kernel, taut eigenvectors)
        # first, then the quotient part in the diag block
        cols = np.zeros((len(xs), 2 * k, k), dtype=complex)
        cols[:, 2 * n:4 * n, :n] = s_kernel
        cols[:, 4 * n:4 * n + taut_dim, n:k - n] = np.eye(taut_dim)
        cols[:, 4 * n + taut_dim:, n:k - n] = taut_sign * 1j * np.eye(taut_dim)
        cols[:, :2 * n, k - n:] = quot_kernel
        q, r = np.linalg.qr(frame @ cols)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        _raise_first(diag.min(axis=1) <= rtol * diag.max(axis=1), lambda i: EigenSplitFailure(
            "eigenspace columns are numerically dependent"))
        return q

    sigp = nested(ker_minus, ker_plus, -1.0)
    sigpp = nested(ker_plus, ker_minus, 1.0)
    gx = m.g.values(xs)[:, :, 0]
    z = np.concatenate([gx, gx], axis=1).astype(complex)
    sp, spp = sigp[:, :, :k - n], sigpp[:, :, :k - n]
    validate_fibers(n, k, z, sp, spp, sigp, sigpp, tol)
    return [
        UniversalPoint(n, k, z[i], ComplexSubspace(sp[i]), ComplexSubspace(spp[i]),
                       ComplexSubspace(sigp[i]), ComplexSubspace(sigpp[i]))
        for i in range(len(xs))
    ]


def build_fibers(xs, m: PointwiseACManifold, tol: Tolerances = DEFAULT):
    """Yield the validated 5-tuple over every row x of xs, in order.

    In the frame F = [diag | anti | n1 | n2] of R^{2k} the doubled
    structure is the block matrix J(x) (+) -J(x) (+) taut, so its
    eigenspaces are read off the blocks instead of a 2k x 2k SVD:

        Sig' = F (ker(J - i) (+) ker(J + i) (+) T+),  T+ = span{(e_j, -i e_j)}
        S'   = F (0 (+) ker(J + i) (+) T+)

    and Sig'' / S'' swap the two kernels and use T- = span{(e_j, i e_j)}.
    One unpivoted QR of F [S part | quotient part] per sign yields nested
    orthonormal bases: the first k - n columns span S', all k span Sig'.
    Each kernel of J(x) -+ i comes from its own SVD, never from
    conjugating the other, so the reality tests of validate_fibers
    compare two independent computations.

    The rows are built FIBER_CHUNK at a time: g, dg and J are evaluated
    for the chunk at once, and every SVD, QR, product and test runs on
    the stacked (chunk, ., .) arrays, each matrix as it would alone. A
    chunk in which a guard fires is rebuilt one row at a time (see
    over_chunks), so the first bad row raises the error a loop over the
    rows raises there: RankDeficientEmbedding when dg(x) loses rank,
    EigenSplitFailure when J(x) is not a complex structure or the
    eigenspace extraction misbehaves.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return over_chunks(xs, lambda rows: _fiber_rows(rows, m, tol))


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> UniversalPoint:
    """The validated 5-tuple over one base sample: build_fibers of one row."""
    return next(build_fibers(x, m, tol))


# ---------------------------------------------------------------------------
# induced structure through the quotient
# ---------------------------------------------------------------------------

def _induced_from_parts(dg2k: np.ndarray, fibers: np.ndarray,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """Solve [dG | fiber] x = i . dG in realified coordinates for each
    stacked point (dg2k: (rows, 2k, 2n); fibers: complex bases
    (rows, 2k, 2k - n)); the head rows of x express multiplication by i of
    the quotient classes back in base coordinates. Returns the stacked J."""
    two_n = dg2k.shape[2]
    two_k = dg2k.shape[1]
    dg_real = np.concatenate([dg2k, np.zeros_like(dg2k)], axis=1)
    joint = np.concatenate([dg_real, realify_basis(fibers)], axis=2)
    if joint.shape[1] != joint.shape[2]:
        raise DimensionMismatch("fiber does not have complementary dimension")
    sv = np.linalg.svd(joint, compute_uv=False)
    _raise_first(sv[:, -1] <= tol.rank_rtol * sv[:, 0], lambda i: NotTransverse(
        f"base tangent meets the fiber (sigma_min={sv[i, -1]:.3e})"))
    rhs = standard_structure(two_k) @ dg_real
    return np.linalg.solve(joint, rhs)[:, :two_n, :]


def induced_structures(xs, points, m: PointwiseACManifold,
                       tol: Tolerances = DEFAULT) -> np.ndarray:
    """induced_structure_at(x, m, tol, point=p) for every row x of xs and
    its fiber p = build_fiber(x, m, tol), stacked (rows, 2n, 2n).

    The horizontal part S' (+) Sigma'' of each fiber is orthonormalized
    by its own pivoted QR; the joint SVD, the solve and the J^2 = -Id
    guard run on the stack. The first row at which a guard fires raises;
    over_chunks turns that into the error of a loop over the rows.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fibers = np.stack([DistributionFiber(p, tol).horizontal_part.basis for p in points])
    dg = m.g.jacobian_values(xs)
    jf = _induced_from_parts(np.concatenate([dg, dg], axis=1), fibers, tol)
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[1])), axis=(1, 2))
    _raise_first(resid > 1e3 * tol.alg_atol, lambda i: NotAComplexStructure(
        f"||J_f^2 + Id|| = {resid[i]:.3e}"))
    return jf


def induced_structure_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                         point: UniversalPoint | None = None) -> np.ndarray:
    """Structure induced on T_x X by the quotient at the fiber point.

    point, when given, must be build_fiber(x, m, tol); a caller that has
    just built it saves building it again. Certifies J^2 = -Id before
    returning; the content of the construction is that the result
    reproduces m.j.value(x).
    """
    if point is None:
        point = build_fiber(x, m, tol)
    return induced_structures(x, [point], m, tol)[0]


def induced_structure_field(m: PointwiseACManifold,
                            tol: Tolerances = DEFAULT) -> AlmostComplexField:
    """The induced structure as a pointwise field on the base torus, for
    feeding into the Nijenhuis calculators; derivatives by central
    differences of the pointwise construction."""
    from .fields import CallableMatrixField

    two_n = 2 * m.n
    field = CallableMatrixField(two_n, (two_n, two_n),
                                lambda x: induced_structure_at(x, m, tol))
    return AlmostComplexField(TorusChart(two_n), field, tol)


# ---------------------------------------------------------------------------
# reality certificate for the subspace data
# ---------------------------------------------------------------------------

def plucker_reality_certificate(point: UniversalPoint,
                                tol: Tolerances = DEFAULT) -> float:
    """|sum p_I^2| / sum |p_I|^2 for the wedge coordinates of S' (+) S''.

    Equals 1 for a genuinely real subspace (coordinates proportional to a
    real vector) and 0 on the quadric that a real point can never meet.
    """
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


# ---------------------------------------------------------------------------
# graph charts around a fiber point
# ---------------------------------------------------------------------------

class ChartFrame:
    """Fixed reference bases at a point, shared by the chart map and the
    coordinate function so both speak the same coordinates.

    Layout of the chart vector in C^N:
      [0, n)                 quotient block (complement of S' in Sigma')
      [n, 2k)                remaining ambient block (S' then Sigma'')
      [2k, 2k+n(k-n))        graph coords of S' inside Sigma'
      [.., +n(k-n))          graph coords of S'' inside Sigma''
      [.., +k^2)             graph coords of Sigma' against Sigma''
      [.., +k^2)             graph coords of Sigma'' against Sigma'
    """

    def __init__(self, point: UniversalPoint, mixer: SplitMix64 | None = None,
                 tol: Tolerances = DEFAULT):
        self.point = point
        k, n = point.k, point.n
        self.k = k
        self.n = n
        self.big_n = dimension_universal(n, k)

        def complement(small: ComplexSubspace, big: ComplexSubspace) -> ComplexSubspace:
            cols = big.basis - small.projector() @ big.basis
            comp = ComplexSubspace.from_spanning_set(cols, tol)
            if comp.dim != big.dim - small.dim:
                raise ChartDegeneracy("complement extraction lost rank")
            return comp

        cp = complement(point.sp, point.sigp)
        cpp = complement(point.spp, point.sigpp)
        if mixer is not None:
            # re-choose both complements: tilt over the small subspace and
            # mix the basis; any such choice is an equally valid chart
            tilt = mixer.complex_matrix(k - n, n, 0.3)
            mix = mixer.complex_matrix(n, n, 0.2) + np.eye(n)
            cp = ComplexSubspace.from_columns(
                (cp.basis + point.sp.basis @ tilt) @ mix, tol
            )
            tilt2 = mixer.complex_matrix(k - n, n, 0.3)
            mix2 = mixer.complex_matrix(n, n, 0.2) + np.eye(n)
            cpp = ComplexSubspace.from_columns(
                (cpp.basis + point.spp.basis @ tilt2) @ mix2, tol
            )
        self.cp = cp
        self.cpp = cpp
        self.b_sigp = np.concatenate([point.sp.basis, cp.basis], axis=1)
        self.b_sigpp = np.concatenate([point.spp.basis, cpp.basis], axis=1)
        self.quot = cp.basis
        self.rest = np.concatenate([point.sp.basis, self.b_sigpp], axis=1)
        self.ambient_frame = np.concatenate([self.quot, self.rest], axis=1)
        sv = np.linalg.svd(self.ambient_frame, compute_uv=False)
        if sv[-1] <= tol.rank_rtol * sv[0]:
            raise ChartDegeneracy("ambient frame is numerically singular")

    # block slices -----------------------------------------------------------
    def slices(self):
        k, n = self.k, self.n
        sizes = [n, 2 * k - n, n * (k - n), n * (k - n), k * k, k * k]
        out = []
        start = 0
        for s in sizes:
            out.append(slice(start, start + s))
            start += s
        return out

    def subspaces_at(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Bases of S'(z) and Sigma''(z) for chart vector z; these span
        the ambient-velocity part of the distribution there."""
        k, n = self.k, self.n
        _, _, s_up, _, s_vp, s_vpp = self.slices()
        up = np.asarray(z[s_up], dtype=complex).reshape(n, k - n)
        vp = np.asarray(z[s_vp], dtype=complex).reshape(k, k)
        vpp = np.asarray(z[s_vpp], dtype=complex).reshape(k, k)
        graph_small = np.concatenate([np.eye(k - n, dtype=complex), up], axis=0)
        sp_basis = (self.b_sigp + self.b_sigpp @ vp) @ graph_small
        sigpp_basis = self.b_sigpp + self.b_sigp @ vpp
        return sp_basis, sigpp_basis

    def a_matrix(self, z) -> np.ndarray:
        """Chart form of the distribution: quotient velocities as a
        function of the remaining ones, zero on the graph directions."""
        n = self.n
        big_n = self.big_n
        sp_basis, sigpp_basis = self.subspaces_at(z)
        bf = np.concatenate([sp_basis, sigpp_basis], axis=1)
        joint = np.concatenate([self.quot, bf], axis=1)
        sv = np.linalg.svd(joint, compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            raise ChartDegeneracy("moved fiber no longer splits the ambient space")
        alpha = np.linalg.solve(joint, self.rest)[:n, :]
        out = np.zeros((n, big_n - n), dtype=complex)
        out[:, : self.rest.shape[1]] = -alpha
        return out

    def coordinates(self, z_amb, sp, spp, sigp, sigpp) -> np.ndarray:
        """Chart vector of a nearby 5-tuple; depends only on the
        subspaces, not on the bases presenting them."""
        k, n = self.k, self.n

        def graph_of(big_base_a, big_base_b, space: ComplexSubspace) -> np.ndarray:
            joint = np.concatenate([big_base_a, big_base_b], axis=1)
            coeff = np.linalg.solve(joint, space.basis)
            head, tail = coeff[: big_base_a.shape[1]], coeff[big_base_a.shape[1]:]
            return tail @ np.linalg.inv(head)

        vp = graph_of(self.b_sigp, self.b_sigpp, sigp)
        vpp = graph_of(self.b_sigpp, self.b_sigp, sigpp)

        def small_graph(base_pair, vmat, space: ComplexSubspace) -> np.ndarray:
            frame = base_pair[0] + base_pair[1] @ vmat
            coeff = np.linalg.lstsq(frame, space.basis, rcond=None)[0]
            head, tail = coeff[: k - n], coeff[k - n:]
            return tail @ np.linalg.inv(head)

        up = small_graph((self.b_sigp, self.b_sigpp), vp, sp)
        upp = small_graph((self.b_sigpp, self.b_sigp), vpp, spp)

        w = np.linalg.solve(self.ambient_frame,
                            np.asarray(z_amb, dtype=complex).reshape(-1) - self.point.z)
        return np.concatenate([
            w, up.reshape(-1), upp.reshape(-1), vp.reshape(-1), vpp.reshape(-1)
        ])


def universal_chart(point: UniversalPoint, mixer: SplitMix64 | None = None,
                    tol: Tolerances = DEFAULT) -> DistributionChart:
    """Corank-n chart of the distribution at the fiber point, centered so
    the chart form vanishes at the origin."""
    frame = ChartFrame(point, mixer, tol)
    amap = CallableHolomorphicMap(frame.big_n, frame.n,
                                  frame.big_n - frame.n, frame.a_matrix)
    return DistributionChart(frame.n, frame.big_n, amap, radius=0.4)


# ---------------------------------------------------------------------------
# embedding differential and versality
# ---------------------------------------------------------------------------

def embedding_differential(x, m: PointwiseACManifold, frame: ChartFrame,
                           h: float = 1e-4, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Realified differential (2N x 2n) of the fiber-point family in the
    chart coordinates of the given frame, by Richardson-extrapolated
    central differences."""
    x = np.asarray(x, dtype=float).reshape(-1)
    two_n = 2 * m.n

    def coords_at(y) -> np.ndarray:
        p = build_fiber(y, m, tol)
        return frame.coordinates(p.z, p.sp, p.spp, p.sigp, p.sigpp)

    cols = []
    for r in range(two_n):
        step = np.zeros_like(x)
        step[r] = h
        d1 = (coords_at(x + step) - coords_at(x - step)) / (2 * h)
        d2 = (coords_at(x + 0.5 * step) - coords_at(x - 0.5 * step)) / h
        cols.append(realify_vector((4.0 * d2 - d1) / 3.0))
    return np.stack(cols, axis=1)


def dbar_embedding(x, m: PointwiseACManifold, frame: ChartFrame,
                   jf: np.ndarray | None = None,
                   tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-linear part (df + i df J_f)/2 of the chart differential,
    realified (2N x 2n); returns (dbar, df)."""
    if jf is None:
        jf = induced_structure_at(x, m, tol)
    df = embedding_differential(x, m, frame, tol=tol)
    return 0.5 * (df + standard_structure(frame.big_n) @ df @ jf), df


def _fiber_frame_coords(cols_real: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Complexify realified chart vectors and read their frame coordinates
    in the centered fiber (tail components); reports the worst head
    residual as a membership certificate."""
    out = []
    worst = 0.0
    for r in range(cols_real.shape[1]):
        vec = complexify_vector(cols_real[:, r])
        worst = worst_of(worst, float(np.max(np.abs(vec[:n]), initial=0.0)))
        out.append(vec[n:])
    return np.stack(out, axis=1), worst


def versality_pairing(theta: TorsionTensor, etas: np.ndarray,
                      head_map: np.ndarray | None = None) -> np.ndarray:
    """Real matrix of u -> theta(dbar f ., u), one column per real fiber
    direction u in (e_1 .. e_m, i e_1 .. i e_m); the row (a, r) holds
    component a of the realified (and, with head_map, pulled back) value
    at tangent direction r.

    etas holds the fiber frame coordinates of dbar f over the realified
    tangent basis (complex (N-n) x 2n). head_map, when given, is the
    realified invertible map through which values are pulled back to the
    base tangent space.
    """
    # theta is complex bilinear, so the i e_j half is i times the e_j half
    half = 2.0 * np.einsum("ijk,jr->irk", theta.theta, etas)
    q = np.concatenate([half, 1j * half], axis=2)
    values = np.concatenate([q.real, q.imag], axis=0)
    if head_map is not None:
        values = np.linalg.solve(
            head_map, values.reshape(values.shape[0], -1)).reshape(values.shape)
    return values.reshape(-1, values.shape[2])


def versality_rank_from_parts(theta: TorsionTensor, etas: np.ndarray,
                              head_map: np.ndarray | None = None,
                              rank_rtol: float = 1e-8) -> dict:
    """Rank data of the pairing u -> theta(dbar f ., u) out of the fiber
    (see versality_pairing); head_map cannot change the rank."""
    two_n = etas.shape[1]
    pairing = versality_pairing(theta, etas, head_map)
    sv = np.linalg.svd(pairing, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > rank_rtol * top)) if top > 0 else 0
    n = two_n // 2
    target = 2 * n * n
    gap = float(sv[target - 1] / top) if top > 0 and sv.size >= target else 0.0
    return {
        "surj_rank": rank,
        "target_rank": target,
        "sv_gap": gap,
        "singular_values": sv,
    }


def versality_check(x, m: PointwiseACManifold, mixer: SplitMix64 | None = None,
                    tol: Tolerances = DEFAULT) -> dict:
    """Injectivity of the conjugate-linear differential and surjectivity
    rank of the torsion pairing at one base sample."""
    point = build_fiber(x, m, tol)
    frame = ChartFrame(point, mixer, tol)
    chart = universal_chart(point, mixer, tol)
    jf = induced_structure_at(x, m, tol, point=point)
    dbar, df = dbar_embedding(x, m, frame, jf, tol)

    sv = np.linalg.svd(dbar, compute_uv=False)
    inj = bool(sv.size == 2 * m.n and sv[-1] > 1e-8 * sv[0] and sv[-1] > 1e-8)

    etas, head_resid = _fiber_frame_coords(dbar, m.n)
    theta = torsion_at(chart, tol=tol)
    head_map = np.vstack([
        df[: m.n, :],
        df[frame.big_n: frame.big_n + m.n, :],
    ])
    report = versality_rank_from_parts(theta, etas, head_map, tol.rank_rtol)
    report.update({
        "inj": inj,
        "dbar_singular_values": sv,
        "fiber_membership_residual": head_resid,
    })
    return report


def isotropy_subspace(dbar_cols: np.ndarray, big_n: int,
                      tol: Tolerances = DEFAULT) -> ComplexSubspace:
    """Complex span of the conjugate-linear image inside the chart's
    centered fiber, ready for the torsion isotropy test."""
    cols = [complexify_vector(dbar_cols[:, r]) for r in range(dbar_cols.shape[1])]
    return ComplexSubspace.from_spanning_set(np.stack(cols, axis=1), tol)


# ---------------------------------------------------------------------------
# symplectic pointwise model
# ---------------------------------------------------------------------------

def _check_compatible(omega: np.ndarray, jx: np.ndarray,
                      tol: Tolerances) -> None:
    guard = 1e3 * tol.alg_atol
    if np.max(np.abs(omega + omega.T)) > guard:
        raise NotCompatible("form is not antisymmetric")
    if np.max(np.abs(jx @ jx + np.eye(jx.shape[0]))) > guard:
        raise NotCompatible("structure does not square to -Id")
    if np.max(np.abs(jx.T @ omega @ jx - omega)) > guard:
        raise NotCompatible("structure does not preserve the form")
    metric = 0.5 * (omega @ jx + (omega @ jx).T)
    if np.min(np.linalg.eigvalsh(metric)) <= 0.0:
        raise NotCompatible("form fails positivity against the structure")


def darboux_transform(gamma: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """T with T^T gamma T = [[0, I], [-I, 0]] by symplectic pivoting."""
    gamma = np.asarray(gamma, dtype=float)
    m2 = gamma.shape[0]
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or m2 % 2:
        raise InvalidParams("form must be square of even size")
    if np.max(np.abs(gamma + gamma.T)) > 1e3 * tol.alg_atol:
        raise InvalidParams("form must be antisymmetric")
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
        cols = [
            c - float(c @ gamma @ f) * e + float(c @ gamma @ e) * f
            for c in rest
        ]
    return np.stack(es + fs, axis=1)


def symplectic_pointwise_model(omega, jx, normal_data,
                               tol: Tolerances = DEFAULT) -> dict:
    """Doubled compatible model over one tangent space.

    normal_data carries the ambient pair: {"gamma": antisymmetric 2m x 2m,
    "embed": 2m x 2n with embed^T gamma embed = omega}. The doubled
    structure uses the conjugation operator C of the ambient form (which
    flips its sign) on the second factor, the doubled form is
    (1/2)(pr1* gamma - pr2* gamma), and the report certifies both the
    compatibility of the pair and that the diagonal pullback returns
    omega. The sign-flipped doubled form is evaluated as a control and
    must fail for generic input.
    """
    omega = np.asarray(omega, dtype=float)
    jx = np.asarray(jx, dtype=float)
    if omega.shape != jx.shape or omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise InvalidParams("structure and form must be square of equal size")
    _check_compatible(omega, jx, tol)
    gamma = np.asarray(normal_data["gamma"], dtype=float)
    embed = np.asarray(normal_data["embed"], dtype=float)
    two_n = omega.shape[0]
    two_m = gamma.shape[0]
    if embed.shape != (two_m, two_n):
        raise InvalidParams("embedding must map the tangent space into the ambient")
    if np.max(np.abs(embed.T @ gamma @ embed - omega)) > 1e3 * tol.alg_atol:
        raise NotCompatible("ambient form does not restrict to the given form")

    t = darboux_transform(gamma, tol)
    half = two_m // 2
    conj = t @ np.diag(np.concatenate([np.ones(half), -np.ones(half)])) @ np.linalg.inv(t)

    nx = nullspace(embed.T @ gamma, tol.rank_rtol).real
    if nx.shape[1] != two_m - two_n:
        raise NotCompatible("symplectic normal complement has wrong dimension")

    ce = conj @ embed
    cn = conj @ nx
    zero_n = np.zeros_like(nx)
    frame = np.concatenate([
        np.vstack([embed, ce]),
        np.vstack([embed, -ce]),
        np.vstack([nx, zero_n]),
        np.vstack([zero_n, cn]),
    ], axis=1)
    taut_dim = two_m - two_n
    taut = np.block([
        [np.zeros((taut_dim, taut_dim)), -np.eye(taut_dim)],
        [np.eye(taut_dim), np.zeros((taut_dim, taut_dim))],
    ])
    blocks = scipy.linalg.block_diag(jx, -jx, taut)
    jtilde = np.linalg.solve(frame.T, (frame @ blocks).T).T

    gamma_tilde = scipy.linalg.block_diag(0.5 * gamma, -0.5 * gamma)
    gamma_swapped = scipy.linalg.block_diag(0.5 * gamma, 0.5 * gamma)
    gstar = np.vstack([embed, ce])

    resid_compat = float(np.max(np.abs(jtilde.T @ gamma_tilde @ jtilde - gamma_tilde)))
    resid_pull = float(np.max(np.abs(gstar.T @ gamma_tilde @ gstar - omega)))
    resid_jsq = float(np.max(np.abs(jtilde @ jtilde + np.eye(2 * two_m))))
    resid_swap = float(np.max(np.abs(jtilde.T @ gamma_swapped @ jtilde - gamma_swapped)))
    guard = 1e3 * tol.alg_atol
    return {
        "compatible": resid_compat <= guard and resid_jsq <= guard,
        "pullback_matches": resid_pull <= guard,
        "max_residual_compatibility": resid_compat,
        "max_residual_pullback": resid_pull,
        "jsq_residual": resid_jsq,
        "swap_residual": resid_swap,
    }


def random_compatible_symplectic(rng: SplitMix64, n: int, extra: int):
    """Seeded quadruple (omega, J, gamma, embed): a conjugate of the
    standard compatible pair on R^{2n}, a random nondegenerate
    antisymmetric ambient form on R^{2(n+extra)}, and a tangent embedding
    matched so embed^T gamma embed = omega (Darboux frames on both
    sides)."""
    a = np.eye(2 * n) + 0.3 * rng.real_matrix(2 * n, 2 * n, 1.0)
    jx = a @ standard_structure(n) @ np.linalg.inv(a)
    om0 = -standard_structure(n)
    om = np.linalg.inv(a).T @ om0 @ np.linalg.inv(a)
    m = n + extra
    raw = rng.real_matrix(2 * m, 2 * m, 1.0)
    gamma = raw - raw.T
    t = darboux_transform(gamma)
    tdb = darboux_transform(om)
    base = np.concatenate([t[:, :n], t[:, m:m + n]], axis=1)
    embed = base @ np.linalg.inv(tdb)
    return om, jx, gamma, embed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def manifold_to_json(m: PointwiseACManifold) -> dict:
    field = m.j.field
    if hasattr(field, "to_json_dict"):
        j_data = field.to_json_dict()
    else:
        raise ShapeMismatch("structure field does not serialize")
    return {"n": m.n, "k": m.k, "g": m.g.to_json_dict(), "J": j_data}


def manifold_from_json(data: dict) -> PointwiseACManifold:
    from .fields import ConjugatedStructureField

    n = int(data["n"])
    k = int(data["k"])
    g = TrigPolyField.from_json_dict(data["g"])
    j_data = data["J"]
    if "conjugation" in j_data:
        spec = j_data["conjugation"]
        field = ConjugatedStructureField(
            TrigPolyField.from_json_dict(spec["A"]), float(spec["epsilon"])
        )
        j = AlmostComplexField(TorusChart(field.d), field)
    else:
        j = AlmostComplexField(TorusChart(2 * n), TrigPolyField.from_json_dict(j_data))
    return PointwiseACManifold(n, k, g, j)
