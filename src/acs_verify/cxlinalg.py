"""Complex-linear algebra over realified coordinate spaces.

Conventions used across the library (see README, Conventions):

* A complex vector z in C^m is realified by stacking real over imaginary
  parts: realify(z) = (Re z, Im z) in R^{2m}.
* A complex matrix M = P + iQ acting C^n -> C^m realifies to the block
  matrix [[P, -Q], [Q, P]] acting R^{2n} -> R^{2m}.
* Multiplication by i on C^m realifies to [[0, -I_m], [I_m, 0]], which is
  also the "standard structure" used for flat tori.

Subspaces are stored with orthonormal bases (the leading left singular
vectors of a thin SVD on construction); equality of subspaces is decided
by comparing orthogonal projectors, never bases.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    DimensionMismatch,
    NotAComplexStructure,
    RankDeficient,
    UnbalancedEigenspaces,
)


# ---------------------------------------------------------------------------
# realification helpers
# ---------------------------------------------------------------------------

def realify_vector(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex).reshape(-1)
    return np.concatenate([z.real, z.imag])


def complexify_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    m = v.shape[0] // 2
    return v[:m] + 1j * v[m:]


def standard_structure(m: int) -> np.ndarray:
    """Multiplication by i on C^m in realified coordinates (2m x 2m)."""
    out = np.zeros((2 * m, 2 * m))
    eye = np.eye(m)
    out[:m, m:] = -eye
    out[m:, :m] = eye
    return out


def realify_basis(cols: np.ndarray) -> np.ndarray:
    """Real basis of the realified span of complex columns.

    Each complex column u contributes realify(u) and realify(i*u), so a
    complex r-dimensional span yields 2r real columns. A stack of column
    sets (..., d, r) realifies matrix by matrix.
    """
    cols = np.asarray(cols, dtype=complex)
    icols = 1j * cols
    rows, width = cols.shape[-2:]
    out = np.empty(cols.shape[:-2] + (2 * rows, 2 * width))
    out[..., 0::2] = np.concatenate([cols.real, cols.imag], axis=-2)
    out[..., 1::2] = np.concatenate([icols.real, icols.imag], axis=-2)
    return out


def nullspace(M: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis of ker M via SVD, cutoff relative to sigma_max."""
    M = np.atleast_2d(M)
    u, s, vh = np.linalg.svd(M)
    if s.size == 0:
        return np.eye(M.shape[1], dtype=M.dtype)
    cutoff = rtol * s[0]
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class ComplexSubspace:
    """A linear subspace of C^d held as an orthonormal column basis.

    Parameters
    ----------
    basis : (d, r) complex ndarray with orthonormal columns.

    Use the classmethods to construct from raw spanning sets; the raw
    constructor trusts its input.
    """

    def __init__(self, basis: np.ndarray):
        self.basis = np.asarray(basis, dtype=complex)
        if self.basis.ndim != 2:
            raise DimensionMismatch("basis must be a 2-d array")
        self.ambient_dim = self.basis.shape[0]
        self.dim = self.basis.shape[1]

    @classmethod
    def from_columns(cls, cols: np.ndarray, tol: Tolerances = DEFAULT) -> "ComplexSubspace":
        """Orthonormalize independent columns; raise RankDeficient otherwise."""
        cols = np.atleast_2d(np.asarray(cols, dtype=complex))
        space = cls.from_spanning_set(cols, tol)
        if space.dim < cols.shape[1]:
            raise RankDeficient(
                f"columns span only {space.dim} of {cols.shape[1]} requested dimensions"
            )
        return space

    @classmethod
    def from_spanning_set(cls, cols: np.ndarray, tol: Tolerances = DEFAULT) -> "ComplexSubspace":
        """Orthonormalize, silently dropping dependent directions.

        The basis is the leading left singular vectors of one thin SVD;
        the rank counts the singular values s > rank_rtol * s_0.
        """
        cols = np.atleast_2d(np.asarray(cols, dtype=complex))
        if cols.shape[1] == 0:
            return cls(np.zeros((cols.shape[0], 0), dtype=complex))
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(s > tol.rank_rtol * s[0])) if s.size else 0
        return cls(u[:, :rank])

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def subspace_eq(a: ComplexSubspace, b: ComplexSubspace, tol: Tolerances = DEFAULT) -> bool:
    """Projector comparison: equal iff ||P_a - P_b||_2 <= tolerance."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim != b.dim:
        return False
    gap = np.linalg.norm(a.projector() - b.projector(), 2)
    return bool(gap <= 1e3 * tol.alg_atol)


def direct_sum_test(
    a: ComplexSubspace, b: ComplexSubspace, tol: Tolerances = DEFAULT
) -> tuple[bool, float]:
    """Decide whether a + b = ambient space as a direct sum.

    Returns
    -------
    ok : bool
        True iff dim a + dim b equals the ambient dimension and the stacked
        orthonormal bases have full numerical rank.
    sigma_min : float
        Smallest singular value of the stacked basis matrix, a conditioning
        diagnostic in (0, sqrt(2)] for orthonormal blocks.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    stacked = np.concatenate([a.basis, b.basis], axis=1)
    s = np.linalg.svd(stacked, compute_uv=False)
    sigma_min = float(s[-1]) if s.size else 0.0
    dims_ok = a.dim + b.dim == a.ambient_dim
    rank_ok = s.size > 0 and sigma_min > tol.rank_rtol * s[0]
    return dims_ok and rank_ok, sigma_min


def intersect(
    a: ComplexSubspace, b: ComplexSubspace, tol: Tolerances = DEFAULT
) -> ComplexSubspace:
    """Intersection of two subspaces via the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return ComplexSubspace(np.zeros((a.ambient_dim, 0), dtype=complex))
    ker = nullspace(np.concatenate([a.basis, -b.basis], axis=1), tol.rank_rtol)
    cols = a.basis @ ker[: a.dim]
    return ComplexSubspace.from_spanning_set(cols, tol)


# ---------------------------------------------------------------------------
# linear complex structures
# ---------------------------------------------------------------------------

class LinearComplexStructure:
    """A real endomorphism J of R^{2m} with J^2 = -Id."""

    def __init__(self, matrix: np.ndarray, tol: Tolerances = DEFAULT):
        J = np.asarray(matrix, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise DimensionMismatch("J must be square")
        if J.shape[0] % 2 != 0:
            raise DimensionMismatch("J must act on an even-dimensional space")
        resid = np.max(np.abs(J @ J + np.eye(J.shape[0])))
        if resid > 1e3 * tol.alg_atol:
            raise NotAComplexStructure(f"||J^2 + Id|| = {resid:.3e}")
        self.matrix = J
        self.dim = J.shape[0]

    @property
    def half_dim(self) -> int:
        return self.dim // 2


class RealSplitting:
    """Eigenspace pair of a complexified structure: the +i and -i parts."""

    def __init__(self, plus_i: ComplexSubspace, minus_i: ComplexSubspace,
                 tol: Tolerances = DEFAULT):
        ok, sigma = direct_sum_test(plus_i, minus_i, tol)
        if not ok:
            raise UnbalancedEigenspaces(
                f"eigenspaces do not split the complexified space (sigma_min={sigma:.3e})"
            )
        self.plus_i = plus_i
        self.minus_i = minus_i


def eigen_split(J: LinearComplexStructure, tol: Tolerances = DEFAULT) -> RealSplitting:
    """Split the complexification of J into +i and -i eigenspaces.

    Kernels of (J -+ i Id) on C^{2m} are extracted by SVD. For a genuine
    complex structure both kernels have complex dimension m and the -i
    space is the conjugate of the +i space; UnbalancedEigenspaces is
    raised otherwise.
    """
    m = J.half_dim
    Jc = J.matrix.astype(complex)
    eye = np.eye(J.dim, dtype=complex)
    plus = nullspace(Jc - 1j * eye, tol.rank_rtol)
    minus = nullspace(Jc + 1j * eye, tol.rank_rtol)
    if plus.shape[1] != m or minus.shape[1] != m:
        raise UnbalancedEigenspaces(
            f"eigenspace dims ({plus.shape[1]}, {minus.shape[1]}), expected ({m}, {m})"
        )
    return RealSplitting(ComplexSubspace(plus), ComplexSubspace(minus), tol)
