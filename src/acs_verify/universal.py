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
    subspace_eq,
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

    def g_value(self, x) -> np.ndarray:
        return self.g.value(x)[:, 0]

    def dg(self, x) -> np.ndarray:
        return self.g.jacobian_value(x)

    def doubled_point(self, x) -> np.ndarray:
        gx = self.g_value(x)
        return np.concatenate([gx, gx]).astype(complex)


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

    def validate(self, tol: Tolerances = DEFAULT, real: bool = True) -> None:
        k, n = self.k, self.n
        if self.z.shape[0] != 2 * k:
            raise DimensionMismatch("base point must live in C^{2k}")
        dims = (self.sp.dim, self.spp.dim, self.sigp.dim, self.sigpp.dim)
        if dims != (k - n, k - n, k, k):
            raise EigenSplitFailure(
                f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
            )
        if not self.sigp.contains(self.sp, tol):
            raise EigenSplitFailure("S' is not contained in Sigma'")
        if not self.sigpp.contains(self.spp, tol):
            raise EigenSplitFailure("S'' is not contained in Sigma''")
        ok, sigma = direct_sum_test(self.sigp, self.sigpp, tol)
        if not ok:
            raise EigenSplitFailure(
                f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={sigma:.3e})"
            )
        if real:
            if not subspace_eq(self.spp, self.sp.conjugate(), tol):
                raise EigenSplitFailure("S'' is not the conjugate of S'")
            if not subspace_eq(self.sigpp, self.sigp.conjugate(), tol):
                raise EigenSplitFailure("Sigma'' is not the conjugate of Sigma'")
            if np.max(np.abs(self.z.imag), initial=0.0) > 1e3 * tol.alg_atol:
                raise EigenSplitFailure("base point is not real")


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


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> UniversalPoint:
    """Assemble the 5-tuple over base sample x.

    In the frame F = [diag | anti | n1 | n2] of R^{2k} the doubled
    structure is the block matrix J(x) (+) -J(x) (+) taut, so its
    eigenspaces are read off the blocks instead of a 2k x 2k SVD:

        Sig' = F (ker(J - i) (+) ker(J + i) (+) T+),  T+ = span{(e_j, -i e_j)}
        S'   = F (0 (+) ker(J + i) (+) T+)

    and Sig'' / S'' swap the two kernels and use T- = span{(e_j, i e_j)}.
    One unpivoted QR of F [S part | quotient part] per sign yields nested
    orthonormal bases: the first k - n columns span S', all k span Sig'.
    Each kernel of J(x) -+ i comes from its own SVD, never from
    conjugating the other, so the reality tests in validate compare two
    independent computations.

    Raises RankDeficientEmbedding when dg(x) loses rank and
    EigenSplitFailure when J(x) is not a complex structure or the
    eigenspace extraction misbehaves.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n, k = m.n, m.k
    dg = m.dg(x)
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
        # frame coordinates: S part (anti block kernel, taut eigenvectors)
        # first, then the quotient part in the diag block
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
    point = UniversalPoint(n, k, m.doubled_point(x), sp, spp, sigp, sigpp)
    point.validate(tol)
    return point


# ---------------------------------------------------------------------------
# induced structure through the quotient
# ---------------------------------------------------------------------------

def _induced_from_parts(dg2k: np.ndarray, fiber: ComplexSubspace,
                        tol: Tolerances = DEFAULT) -> tuple[np.ndarray, float]:
    """Solve [dG | fiber] x = i . dG in realified coordinates; the head
    rows of x express multiplication by i of the quotient classes back in
    base coordinates. Returns (J, sigma_min of the joint system)."""
    two_n = dg2k.shape[1]
    two_k = dg2k.shape[0]
    dg_real = np.vstack([dg2k, np.zeros_like(dg2k)])
    joint = np.concatenate([dg_real, realify_basis(fiber.basis)], axis=1)
    if joint.shape[0] != joint.shape[1]:
        raise DimensionMismatch("fiber does not have complementary dimension")
    sv = np.linalg.svd(joint, compute_uv=False)
    sigma_min = float(sv[-1])
    if sigma_min <= tol.rank_rtol * sv[0]:
        raise NotTransverse(
            f"base tangent meets the fiber (sigma_min={sigma_min:.3e})"
        )
    rhs = standard_structure(two_k) @ dg_real
    sol = np.linalg.solve(joint, rhs)
    return sol[:two_n, :], sigma_min


def _induced_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                point: UniversalPoint | None = None) -> tuple[np.ndarray, float]:
    if point is None:
        point = build_fiber(x, m, tol)
    fiber = DistributionFiber(point, tol).horizontal_part
    dg = m.dg(x)
    dg2k = np.vstack([dg, dg])
    jf, sigma = _induced_from_parts(dg2k, fiber, tol)
    resid = np.max(np.abs(jf @ jf + np.eye(jf.shape[0])))
    if resid > 1e3 * tol.alg_atol:
        raise NotAComplexStructure(f"||J_f^2 + Id|| = {resid:.3e}")
    return jf, sigma


def induced_structure_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                         point: UniversalPoint | None = None) -> np.ndarray:
    """Structure induced on T_x X by the quotient at the fiber point.

    point, when given, must be build_fiber(x, m, tol); a caller that has
    just built it saves building it again. Certifies J^2 = -Id before
    returning; the content of the construction is that the result
    reproduces m.j.value(x).
    """
    return _induced_at(x, m, tol, point)[0]


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


def reconstruction_report(m: PointwiseACManifold, counts,
                          tol: Tolerances = DEFAULT) -> dict:
    """Sweep a deterministic grid and compare induced against input
    structures; returns the worst deviation and conditioning floor."""
    chart = TorusChart(2 * m.n)
    pts = chart.grid(counts)
    worst = 0.0
    min_sigma = float("inf")
    for x in pts:
        jf, sigma = _induced_at(x, m, tol)
        worst = worst_of(worst, float(np.max(np.abs(jf - m.j.value(x)))))
        min_sigma = min(min_sigma, sigma)
    return {
        "max_deviation": worst,
        "min_sigma": min_sigma,
        "points_checked": int(pts.shape[0]),
    }


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
