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
of basis-independent chart coordinates. The chart form of the
distribution is rational in the graph coordinates and is differentiated
exactly.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances
from .cxlinalg import (
    ComplexSubspace,
    nullspace,
    realify_vector,
    standard_structure,
)
from .distribution import (
    DistributionChart,
    TorsionTensor,
    torsion_at,
)
from .errors import (
    ChartDegeneracy,
    DimensionMismatch,
    DomainError,
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
        self.check_embedding(self.n, self.k, g)
        if j.n != self.n:
            raise DimensionMismatch("J must act on 2n-dimensional tangents")
        self.g = g
        self.j = j

    @staticmethod
    def check_embedding(n: int, k: int, g: TrigPolyField) -> None:
        """Raise unless g can carry T^{2n} into R^k."""
        if n < 1 or k < 2 * n:
            raise InvalidParams("need n >= 1 and k >= 2n")
        if g.shape != (k, 1):
            raise ShapeMismatch(f"g must be a column field into R^{k}")
        if g.d != 2 * n:
            raise DimensionMismatch("g must be defined on T^{2n}")


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
        parts = (self.sp, self.spp, self.sigp, self.sigpp)
        validate_fibers(self.n, self.k, self.z[None], *(p.basis[None] for p in parts), tol)


def _raise_first(bad: np.ndarray, error) -> None:
    """Raise error(i) for the first stacked point i where bad holds."""
    if np.any(bad):
        raise error(int(np.argmax(bad)))


def validate_fibers(n: int, k: int, z, sp, spp, sigp, sigpp,
                    tol: Tolerances = DEFAULT) -> None:
    """Certify stacked 5-tuples (one point per leading index; the subspaces
    as orthonormal bases) by the tests that can fail on a point of
    build_fibers, in order: the shapes, Sig'' = conj Sig' exactly,
    Sig' (+) Sig'' = C^{2k}, and z real (the rest holds by construction,
    see build_fibers). Each runs on the whole stack; the first point that
    fails raises EigenSplitFailure (DimensionMismatch for a shape), with
    the message the same test gives a stack of one. Given the conjugate
    test, [Sig' | Sig''] = [Re Sig' | Im Sig'] [[I, I], [iI, -iI]], whose
    right factor is sqrt(2) times a unitary: the split test is real."""
    if z.shape[1] != 2 * k:
        raise DimensionMismatch("base point must live in C^{2k}")
    dims = (sp.shape[2], spp.shape[2], sigp.shape[2], sigpp.shape[2])
    if dims != (k - n, k - n, k, k):
        raise EigenSplitFailure(
            f"subspace dimensions {dims}, expected {(k - n, k - n, k, k)}"
        )
    if any(b.shape[1] != 2 * k for b in (sp, spp, sigp, sigpp)):
        raise DimensionMismatch("ambient dimensions differ")
    _raise_first(np.any(sigpp != sigp.conj(), axis=(1, 2)), lambda i: EigenSplitFailure(
        "Sigma'' is not the conjugate of Sigma'"))
    s = np.sqrt(2.0) * np.linalg.svd(np.dstack([sigp.real, sigp.imag]), compute_uv=False)
    _raise_first(~(s[:, -1] > tol.rank_rtol * s[:, 0]), lambda i: EigenSplitFailure(
        f"Sigma' and Sigma'' do not split C^{{2k}} (sigma_min={s[i, -1]:.3e})"))
    _raise_first(np.max(np.abs(z.imag), axis=1, initial=0.0) > 1e3 * tol.alg_atol,
                 lambda i: EigenSplitFailure("base point is not real"))


# Rows per stacked call of build_fibers, of the reconstruction sweep (J_f
# and the J it is compared with) and of the J^2 = -Id check's slices.
# Peak memory grows with it: against chunks of one row, the peak RSS of a
# universal_n2_k8 run rose by under 0.1 MB at 32 rows, 0.5 MB at 64,
# 2.3 MB at 128 and 7.2 MB at 256, while the time fell no further.
FIBER_CHUNK = 32


def over_chunks(xs, stacked):
    """Yield (rows, stacked(rows)) for the chunks of FIBER_CHUNK rows of xs.

    When a call raises, its rows are redone as chunks of one row, so the
    first bad row raises exactly what stacked raises for that row alone,
    and every row before it has been yielded; that is the behaviour of a
    loop over the rows. Any exception triggers the redo (a guard's, a
    LAPACK error, or one raised by a callable field), since the redo
    raises it again at the row that caused it.
    """
    for start in range(0, len(xs), FIBER_CHUNK):
        rows = xs[start:start + FIBER_CHUNK]
        try:
            result = stacked(rows)
        except Exception:
            if len(rows) == 1:
                raise
            yield from ((rows[j:j + 1], stacked(rows[j:j + 1])) for j in range(len(rows)))
        else:
            yield rows, result


def _kernels(mats: np.ndarray, rtol: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cxlinalg.nullspace of every matrix of a stack: the last dim right
    singular vectors, and the kernel dimension the rank cutoff gives each
    matrix (the bases are the kernels where that equals dim)."""
    _, s, vh = np.linalg.svd(mats)
    found = mats.shape[2] - np.sum(s > rtol * s[:, :1], axis=1)
    return np.swapaxes(vh[:, mats.shape[2] - dim:].conj(), 1, 2), found


def _fiber_rows(xs: np.ndarray, m: PointwiseACManifold,
                tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated 5-tuples over the rows of xs as the stack (dg, z, Sig'),
    S' and Sig'' being Sig'[:, :, :k - n] and conj Sig' (see build_fibers);
    the first row at which a guard fires raises."""
    n, k = m.n, m.k
    rtol = tol.rank_rtol
    taut_dim = k - 2 * n
    dg = m.g.jacobian_values(xs)
    # the SVD that gives NX = ker dg^T is the rank test: dim NX = k - rank dg
    nx, found = _kernels(np.swapaxes(dg, 1, 2), rtol, taut_dim)
    nx = nx.real
    _raise_first(found != taut_dim, lambda i: RankDeficientEmbedding(
        f"dg has rank < {2 * n} at x={xs[i].tolist()}"))
    jx = m.j.values(xs)
    eye = np.eye(2 * n)
    resid = np.max(np.abs(jx @ jx + eye), axis=(1, 2))
    _raise_first(resid > 1e3 * tol.alg_atol, lambda i: EigenSplitFailure(
        f"||J^2 + Id|| = {resid[i]:.3e} at x={xs[i].tolist()}"))
    ker_plus, plus_dim = _kernels(jx - 1j * eye, rtol, n)
    _raise_first(plus_dim != n, lambda i: EigenSplitFailure(
        f"eigenspace dims of J ({plus_dim[i]}, {plus_dim[i]}), expected ({n}, {n})"))

    zeros_nx = np.zeros_like(nx)
    frame = np.concatenate([
        np.concatenate([dg, dg], axis=1),
        np.concatenate([dg, -dg], axis=1),
        np.concatenate([nx, zeros_nx], axis=1),
        np.concatenate([zeros_nx, nx], axis=1),
    ], axis=2)
    # frame coordinates: S part (ker(J + i) = conj ker(J - i) in the anti
    # block, T+) first, then the quotient part ker(J - i) in the diag block
    cols = np.zeros((len(xs), 2 * k, k), dtype=complex)
    cols[:, 2 * n:4 * n, :n] = ker_plus.conj()
    cols[:, 4 * n:4 * n + taut_dim, n:k - n] = np.eye(taut_dim)
    cols[:, 4 * n + taut_dim:, n:k - n] = -1j * np.eye(taut_dim)
    cols[:, :2 * n, k - n:] = ker_plus
    sigp, r = np.linalg.qr(frame @ cols)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    _raise_first(diag.min(axis=1) <= rtol * diag.max(axis=1), lambda i: EigenSplitFailure(
        "eigenspace columns are numerically dependent"))
    sigpp = sigp.conj()  # F is real: the -i side is the conjugate
    gx = m.g.values(xs)[:, :, 0]
    z = np.concatenate([gx, gx], axis=1).astype(complex)
    validate_fibers(n, k, z, sigp[:, :, :k - n], sigpp[:, :, :k - n], sigp, sigpp, tol)
    return dg, z, sigp


def build_fibers(xs, m: PointwiseACManifold, tol: Tolerances = DEFAULT):
    """Yield the validated 5-tuple over every row x of xs, in order, as a
    UniversalPoint (induced_structures reads the stack unwrapped).

    In the frame F = [diag | anti | n1 | n2] of R^{2k} the doubled
    structure is the block matrix J(x) (+) -J(x) (+) taut, so its
    eigenspaces are read off the blocks instead of a 2k x 2k SVD:

        Sig' = F (ker(J - i) (+) ker(J + i) (+) T+),  T+ = span{(e_j, -i e_j)}
        S'   = F (0 (+) ker(J + i) (+) T+)

    and Sig'' / S'' swap the two kernels and use T- = span{(e_j, i e_j)}.
    One unpivoted QR of F [S part | quotient part] yields nested
    orthonormal bases: the first k - n columns span S', all k span Sig'.
    J(x) and F are real, so one SVD gives ker(J - i), ker(J + i) is its
    conjugate, and the -i side is the conjugate of the +i side: reality
    (S'' = conj S', Sig'' = conj Sig') and S' in Sig' hold by
    construction, and validate_fibers tests only what can still fail.

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
    n, k = m.n, m.k
    for _, (_, z, sigp) in over_chunks(xs, lambda rows: _fiber_rows(rows, m, tol)):
        for zi, b, bc in zip(z, sigp, sigp.conj()):
            parts = (b[:, :k - n], bc[:, :k - n], b, bc)
            yield UniversalPoint(n, k, zi, *map(ComplexSubspace, parts))


def build_fiber(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT) -> UniversalPoint:
    """The validated 5-tuple over one base sample: build_fibers of one row."""
    return next(build_fibers(x, m, tol))


# ---------------------------------------------------------------------------
# induced structure through the quotient
# ---------------------------------------------------------------------------

def _induced_from_parts(dg2k: np.ndarray, fibers: np.ndarray,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """Multiplication by i on the quotient C^{2k} / fiber, pulled back to
    the base through dG, for each stacked point (dg2k: (rows, 2k, 2n);
    fibers: complex bases (rows, 2k, 2k - n)). Returns the stacked J.

    The trailing n columns W of a complete QR of the fiber are an
    orthonormal basis of its orthogonal complement, so W^H is the
    quotient map. C = W^H dG is n x 2n complex, M = [Re C; Im C] is its
    2n x 2n realification, and J = M^-1 J_std(n) M.
    """
    n = dg2k.shape[2] // 2
    width = fibers.shape[2]
    if width != dg2k.shape[1] - n:
        raise DimensionMismatch("fiber does not have complementary dimension")
    q, _ = np.linalg.qr(fibers, mode="complete")
    c = np.conj(q[:, :, width:]).transpose(0, 2, 1) @ dg2k
    mat = np.concatenate([c.real, c.imag], axis=1)
    # W is orthonormal and its kernel is exactly the fiber (whose columns
    # validate_fibers certified independent), so |M v| is the distance of
    # dG v from the fiber. sigma_min(M) is how close the image of dG comes
    # to the fiber, and sigma_max(M) <= ||dG|| sets the scale, so the
    # ratio does not move when dG is scaled. A ratio at or below
    # rank_rtol, the cut-off of every rank decision in the library, means
    # dG carries some unit tangent to within that relative distance of
    # the fiber: the tangent meets the fiber at the library's tolerance.
    sv = np.linalg.svd(mat, compute_uv=False)
    _raise_first(sv[:, -1] <= tol.rank_rtol * sv[:, 0], lambda i: NotTransverse(
        f"base tangent meets the fiber (sigma_min={sv[i, -1]:.3e})"))
    jf = np.linalg.solve(mat, standard_structure(n) @ mat)
    resid = np.max(np.abs(jf @ jf + np.eye(2 * n)), axis=(1, 2))
    _raise_first(resid > 1e3 * tol.alg_atol, lambda i: NotAComplexStructure(
        f"||J_f^2 + Id|| = {resid[i]:.3e}"))
    return jf


def induced_structures(xs, m: PointwiseACManifold,
                       tol: Tolerances = DEFAULT) -> np.ndarray:
    """J_f at every row x of xs, stacked (rows, 2n, 2n), from one
    _fiber_rows stack and its dg, with no point objects.

    The fiber S' (+) Sigma'' is read as the columns [S' | conj Sigma'].
    They are part of [Sigma' | Sigma''], whose sigma_min validate_fibers
    certified, so they are independent by interlacing, and J_f does not
    depend on the fiber basis: W spans the orthogonal complement of the
    fiber whatever basis spans it. The first row at which a guard fires
    raises; over_chunks turns that into the error of a loop over rows.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    dg, _, sigp = _fiber_rows(xs, m, tol)
    fibers = np.concatenate([sigp[:, :, :m.k - m.n], sigp.conj()], axis=2)
    return _induced_from_parts(np.concatenate([dg, dg], axis=1), fibers, tol)


def induced_structure_at(x, m: PointwiseACManifold, tol: Tolerances = DEFAULT,
                         point: UniversalPoint | None = None) -> np.ndarray:
    """Structure induced on T_x X by the quotient at the fiber point.

    point, when given, must be build_fiber(x, m, tol); a caller that has
    just built it saves building it again. Certifies J^2 = -Id before
    returning; the content of the construction is that the result
    reproduces m.j.value(x).
    """
    if point is None:
        return induced_structures(x, m, tol)[0]
    dg = m.g.jacobian_values(np.atleast_2d(np.asarray(x, dtype=float)))
    fiber = np.concatenate([point.sp.basis, point.sigpp.basis], axis=1)
    return _induced_from_parts(np.concatenate([dg, dg], axis=1), fiber[None], tol)[0]


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
    """|sum p_I^2| / sum |p_I|^2 for the wedge coordinates p_I of S' (+) S''.

    Equals 1 for a genuinely real subspace (coordinates proportional to a
    real vector) and 0 on the quadric that a real point can never meet.
    With B = [S' | S''], p_I is the maximal minor of B on the rows I, so
    by Cauchy-Binet sum p_I^2 = det(B^T B) and sum |p_I|^2 = det(B^H B):
    two determinants of size 2(k - n) instead of C(2k, 2(k - n)) minors.
    """
    basis = np.concatenate([point.sp.basis, point.spp.basis], axis=1)
    norm2 = float(np.linalg.det(basis.conj().T @ basis).real)
    if norm2 <= tol.alg_atol:
        raise EigenSplitFailure("wedge coordinates vanish; basis degenerate")
    return float(abs(np.linalg.det(basis.T @ basis)) / norm2)


# ---------------------------------------------------------------------------
# graph charts around a fiber point
# ---------------------------------------------------------------------------

class ChartFrame:
    """Fixed reference bases at a point, shared by the chart map and the
    coordinate function so both speak the same coordinates.

    The bases are the point's own: B' = Sigma' and B'' = Sigma'', whose
    first k - n columns span S' and S''. The trailing n columns of each
    are the quotient blocks, complements of S' in Sigma' and of S'' in
    Sigma''; build_fibers gives them as the tail of one nested QR, and
    any other complement gives an equally valid chart (nothing here
    needs them orthonormal).

    Layout of the chart vector in C^N:
      [0, n)                 quotient block (complement of S' in Sigma')
      [n, 2k)                remaining ambient block (S' then Sigma'')
      [2k, 2k+n(k-n))        graph coords of S' inside Sigma'
      [.., +n(k-n))          graph coords of S'' inside Sigma''
      [.., +k^2)             graph coords of Sigma' against Sigma''
      [.., +k^2)             graph coords of Sigma'' against Sigma'
    """

    def __init__(self, point: UniversalPoint, tol: Tolerances = DEFAULT):
        self.point = point
        self.tol = tol
        k, n = point.k, point.n
        self.k = k
        self.n = n
        self.big_n = dimension_universal(n, k)
        self.b_sigp = point.sigp.basis
        self.b_sigpp = point.sigpp.basis
        self.quot = self.b_sigp[:, k - n:]
        self.rest = np.concatenate([point.sp.basis, self.b_sigpp], axis=1)
        # [Sigma' | Sigma''] permuted: validate_fibers certified its rank
        self.ambient_frame = np.concatenate([self.quot, self.rest], axis=1)

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

    def _joint(self, z):
        """joint(z) = [quot | S'(z) | Sigma''(z)] at chart vector z, whose
        columns after quot span the ambient-velocity part of the
        distribution there: S'(z) = tilted graph with tilted = B' + B'' vp
        and graph = [I; up], and Sigma''(z) = B'' + B' vpp. Returns
        (joint, tilted, graph)."""
        k, n = self.k, self.n
        _, _, s_up, _, s_vp, s_vpp = self.slices()
        up = np.asarray(z[s_up], dtype=complex).reshape(n, k - n)
        vp = np.asarray(z[s_vp], dtype=complex).reshape(k, k)
        vpp = np.asarray(z[s_vpp], dtype=complex).reshape(k, k)
        tilted = self.b_sigp + self.b_sigpp @ vp
        graph = np.concatenate([np.eye(k - n, dtype=complex), up], axis=0)
        joint = np.concatenate(
            [self.quot, tilted @ graph, self.b_sigpp + self.b_sigp @ vpp], axis=1)
        return joint, tilted, graph

    def _guard(self, sv: np.ndarray) -> None:
        if sv[-1] <= self.tol.rank_rtol * sv[0]:
            raise ChartDegeneracy("moved fiber no longer splits the ambient space")

    def a_matrix(self, z) -> np.ndarray:
        """Chart form of the distribution: quotient velocities as a
        function of the remaining ones, zero on the graph directions."""
        n = self.n
        joint, _, _ = self._joint(z)
        self._guard(np.linalg.svd(joint, compute_uv=False))
        alpha = np.linalg.solve(joint, self.rest)[:n, :]
        out = np.zeros((n, self.big_n - n), dtype=complex)
        out[:, : self.rest.shape[1]] = -alpha
        return out

    def a_jacobian(self, z) -> np.ndarray:
        """Exact holomorphic derivative of a_matrix at chart vector z,
        shape (n, N - n, N).

        a = -(joint^-1 rest)[:n], so with P the first n rows of joint^-1
        and R = joint^-1 rest, d_b a = P (d_b joint) R. joint depends on
        z only through S'(z) = (B' + B'' vp)[I; up] and
        Sigma''(z) = B'' + B' vpp, which are affine in vp and vpp and
        bilinear in (vp, up); so each d_b joint is one column times one
        unit row, and the Jacobian is three outer products. The quotient,
        ambient and upp coordinates do not enter joint: their partials are
        exactly zero. One SVD of joint(z) gives both a_matrix's guard and
        the inverse.
        """
        k, n = self.k, self.n
        _, _, s_up, _, s_vp, s_vpp = self.slices()
        joint, tilted, graph = self._joint(z)
        u, sv, vh = np.linalg.svd(joint)
        self._guard(sv)
        inv = (vh.conj().T / sv) @ u.conj().T
        p = inv[:n]
        r = inv @ self.rest
        cols = self.rest.shape[1]
        jac = np.zeros((n, self.big_n - n, self.big_n), dtype=complex)
        # d/d up[i, j]: column n + j of joint gains tilted[:, k - n + i]
        jac[:, :cols, s_up] = np.einsum(
            "pi,jc->pcij", p @ tilted[:, k - n:], r[n:k]).reshape(n, cols, -1)
        # d/d vp[i, j]: columns n .. k of joint gain B''[:, i] graph[j]
        jac[:, :cols, s_vp] = np.einsum(
            "pi,jc->pcij", p @ self.b_sigpp, graph @ r[n:k]).reshape(n, cols, -1)
        # d/d vpp[i, j]: column k + j of joint gains B'[:, i]
        jac[:, :cols, s_vpp] = np.einsum(
            "pi,jc->pcij", p @ self.b_sigp, r[k:]).reshape(n, cols, -1)
        return jac

    def coordinates(self, point: UniversalPoint) -> np.ndarray:
        """Chart vector of a nearby 5-tuple; depends only on the
        subspaces, not on the bases presenting them."""
        k, n = self.k, self.n

        def graph_of(big_base_a, big_base_b, space: ComplexSubspace) -> np.ndarray:
            joint = np.concatenate([big_base_a, big_base_b], axis=1)
            coeff = np.linalg.solve(joint, space.basis)
            head, tail = coeff[: big_base_a.shape[1]], coeff[big_base_a.shape[1]:]
            return tail @ np.linalg.inv(head)

        vp = graph_of(self.b_sigp, self.b_sigpp, point.sigp)
        vpp = graph_of(self.b_sigpp, self.b_sigp, point.sigpp)

        def small_graph(base_pair, vmat, space: ComplexSubspace) -> np.ndarray:
            frame = base_pair[0] + base_pair[1] @ vmat
            coeff = np.linalg.lstsq(frame, space.basis, rcond=None)[0]
            head, tail = coeff[: k - n], coeff[k - n:]
            return tail @ np.linalg.inv(head)

        up = small_graph((self.b_sigp, self.b_sigpp), vp, point.sp)
        upp = small_graph((self.b_sigpp, self.b_sigp), vpp, point.spp)

        w = np.linalg.solve(self.ambient_frame, point.z - self.point.z)
        return np.concatenate([
            w, up.reshape(-1), upp.reshape(-1), vp.reshape(-1), vpp.reshape(-1)
        ])


class FrameChartMap:
    """The chart form of a ChartFrame as a holomorphic matrix map: value
    is a_matrix, jacobian the exact a_jacobian."""

    def __init__(self, frame: ChartFrame):
        self.frame = frame
        self.n_vars = frame.big_n
        self.rows = frame.n
        self.cols = frame.big_n - frame.n

    def value(self, z) -> np.ndarray:
        return self.frame.a_matrix(z)

    def jacobian(self, z) -> np.ndarray:
        return self.frame.a_jacobian(z)


def universal_chart(frame: ChartFrame) -> DistributionChart:
    """Corank-n chart of the distribution in the frame's coordinates,
    centered so the chart form vanishes at the origin."""
    return DistributionChart(frame.n, frame.big_n, FrameChartMap(frame), radius=0.4)


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
    # where a half step rounds away, a difference reads 0 and df is wrong
    # (versality would solve with a singular pairing)
    if np.any(x + 0.5 * h == x) or np.any(x - 0.5 * h == x):
        raise DomainError(f"a step of {0.5 * h:g} rounds away at x={x.tolist()}")
    # one stack of 4 points per direction r, r-major, in the order the
    # differences read them, so the first bad point raises first; each
    # difference is divided by the span its two points really have, not by
    # the nominal 2h or h, since at large angles x + step rounds (at x =
    # 1e11 the nominal spans are off by 7 % and 8 %)
    ys, spans = [], []
    for r in range(two_n):
        step = np.zeros_like(x)
        step[r] = h
        pts = [x + step, x - step, x + 0.5 * step, x - 0.5 * step]
        ys += pts
        spans.append([pts[0][r] - pts[1][r], pts[2][r] - pts[3][r]])
    coords = np.array([frame.coordinates(p) for p in build_fibers(np.array(ys), m, tol)])
    c = coords.reshape(two_n, 4, -1)
    spans = np.array(spans)
    d1 = (c[:, 0] - c[:, 1]) / spans[:, :1]
    d2 = (c[:, 2] - c[:, 3]) / spans[:, 1:]
    return np.stack([realify_vector(col) for col in (4.0 * d2 - d1) / 3.0], axis=1)


class UniversalSample:
    """What the versality and isotropy checks read at one base sample x,
    each built once: the fiber point, its chart frame and chart, J_f, the
    realified chart differential df of the fiber family (2N x 2n), its
    conjugate-linear part dbar = (df + J df J_f)/2, the complex columns
    of dbar (N x 2n) with their fiber coordinates etas (the last N - n
    components) and the worst head component as a membership residual,
    and the chart torsion theta."""

    def __init__(self, x, m: PointwiseACManifold, tol: Tolerances = DEFAULT):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.n = m.n
        self.tol = tol
        self.point = build_fiber(self.x, m, tol)
        self.frame = ChartFrame(self.point, tol)
        self.chart = universal_chart(self.frame)
        self.jf = induced_structure_at(self.x, m, tol, point=self.point)
        # theta first: its a_matrix(0) guards the ambient frame that
        # embedding_differential solves with
        self.theta = torsion_at(self.chart, tol=tol)
        self.df = embedding_differential(self.x, m, self.frame, tol=tol)
        big_n = self.frame.big_n
        # J_std df by a block swap, not a dense 2N x 2N J_std beside theta
        jdf = np.concatenate([-self.df[big_n:], self.df[:big_n]])
        self.dbar = 0.5 * (self.df + jdf @ self.jf)
        self.cols = self.dbar[:big_n] + 1j * self.dbar[big_n:]
        self.etas = self.cols[m.n:]
        # np.max keeps a NaN, which then fails the membership tolerance
        self.membership_residual = float(np.max(np.abs(self.cols[:m.n]), initial=0.0))

    def image(self) -> ComplexSubspace:
        """Complex span of dbar f inside the chart's centered fiber, for
        the torsion isotropy test."""
        return ComplexSubspace.from_spanning_set(self.cols, self.tol)


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


def versality_check(sample: UniversalSample) -> dict:
    """Injectivity of the conjugate-linear differential and surjectivity
    rank of the torsion pairing at one base sample."""
    n, big_n, tol = sample.n, sample.frame.big_n, sample.tol
    sv = np.linalg.svd(sample.dbar, compute_uv=False)
    inj = bool(sv.size == 2 * n and sv[-1] > tol.rank_rtol * sv[0] and sv[-1] > 1e-8)
    head_map = np.vstack([sample.df[:n], sample.df[big_n: big_n + n]])
    report = versality_rank_from_parts(sample.theta, sample.etas, head_map, tol.rank_rtol)
    report.update({
        "inj": inj,
        "dbar_singular_values": sv,
        "fiber_membership_residual": sample.membership_residual,
    })
    return report


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


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Square blocks placed along the diagonal of a zero matrix."""
    out = np.zeros((sum(b.shape[0] for b in blocks),) * 2,
                   dtype=np.result_type(*blocks))
    start = 0
    for b in blocks:
        out[start:start + b.shape[0], start:start + b.shape[0]] = b
        start += b.shape[0]
    return out


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
    blocks = _block_diag(jx, -jx, standard_structure(two_m - two_n))
    jtilde = np.linalg.solve(frame.T, (frame @ blocks).T).T

    gamma_tilde = _block_diag(0.5 * gamma, -0.5 * gamma)
    gamma_swapped = _block_diag(0.5 * gamma, 0.5 * gamma)
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
