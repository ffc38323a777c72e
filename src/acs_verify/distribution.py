"""Holomorphic distributions presented by graph charts, and their torsion.

A distribution of complex codimension n is presented on a chart centered
at the origin by a holomorphic matrix map a(z) with a(0) = 0: the fiber
at z is spanned by the frame

    e_j(z) = unit_{n+j} + sum_i a[i, j](z) unit_i,      j = 0..N-n-1,

equivalently D_z = {(a(z) eta, eta)}. The torsion stores

    theta[i, j, k] = (d a[i,k]/dz_{n+j} - d a[i,j]/dz_{n+k}) / 2

at the center, antisymmetric in (j, k) by construction; the associated
bilinear map is theta(eta, lambda) = da(eta) lambda - da(lambda) eta with
values in the quotient C^n.

All polynomial data is one type, CRPolyMap, a matrix of polynomials in
z and conj(z); a polynomial chart map is one with no conj powers, so it
carries an exact holomorphic derivative. CRPolyMap.substitute gives the
pullback of the chart form to a graph z'' = g(z', conj z') exactly.
Torsion off the centre is read through the frame fields
(torsion_via_frames), not by recentering the chart. Other chart maps (the
universal model's frame charts) supply their own exact jacobian; the
m-point circle rule, which keeps the step size large and avoids the
cancellation of plain small-h differencing, stays as an independent
derivative for cross-checks.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances, worst_of
from .cxlinalg import ComplexSubspace
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidParams,
    NotASubspaceOfFiber,
    NotNormalized,
    ShapeMismatch,
)
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# polynomials in (z, conj z)
# ---------------------------------------------------------------------------

def _term_mult(p: dict, q: dict) -> dict:
    out: dict = {}
    for (pa, pb), pc in p.items():
        for (qa, qb), qc in q.items():
            key = (
                tuple(x + y for x, y in zip(pa, qa)),
                tuple(x + y for x, y in zip(pb, qb)),
            )
            out[key] = out.get(key, 0j) + pc * qc
    return out


class CRPolyMap:
    """Matrix of polynomials in z and conj(z) over C^n.

    entries[(i, j)] maps a pair (z-powers, conj-powers) to a complex
    coefficient. Closed under +, scalar multiple, matrix product,
    conjugation, substitution and the Wirtinger derivatives, all of
    which are exact. A chart map of a distribution is one with no conj
    powers.
    """

    def __init__(self, n_vars: int, rows: int, cols: int, entries: dict):
        self.n_vars = int(n_vars)
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries: dict = {}
        for (i, j), terms in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry index ({i}, {j}) out of range")
            for za, zb in terms:
                if len(za) != n_vars or len(zb) != n_vars:
                    raise DimensionMismatch("exponent length must equal n_vars")
            self.entries[(i, j)] = {
                key: complex(coeff) for key, coeff in terms.items() if coeff != 0}

    @classmethod
    def constant(cls, n_vars: int, array) -> "CRPolyMap":
        array = np.atleast_2d(np.asarray(array, dtype=complex))
        zero = (tuple([0] * n_vars), tuple([0] * n_vars))
        entries = {}
        for i in range(array.shape[0]):
            for j in range(array.shape[1]):
                if array[i, j] != 0:
                    entries[(i, j)] = {zero: array[i, j]}
        return cls(n_vars, array.shape[0], array.shape[1], entries)

    def value(self, z) -> np.ndarray:
        """Every monomial starts at its coefficient and is multiplied by
        z_var ** p, then conj(z_var) ** p, in variable order, on Python
        complex numbers."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        zc = z.conj().tolist()
        z = z.tolist()
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), terms in self.entries.items():
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

    def value_vector(self, z) -> np.ndarray:
        if self.cols != 1:
            raise ShapeMismatch("value_vector needs a column map")
        return self.value(z)[:, 0]

    def jacobian(self, z) -> np.ndarray:
        """Exact holomorphic derivative of a chart map (no conj powers),
        shape (rows, cols, n_vars)."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        out = np.zeros((self.rows, self.cols, self.n_vars), dtype=complex)
        for (i, j), terms in self.entries.items():
            for (za, _), coeff in terms.items():
                for var, p in enumerate(za):
                    if p == 0:
                        continue
                    term = coeff * p
                    for var2, p2 in enumerate(za):
                        pw = p2 - 1 if var2 == var else p2
                        if pw:
                            term *= z[var2] ** pw
                    out[i, j, var] += term
        return out

    def substitute(self, subs: "CRPolyMap") -> "CRPolyMap":
        """Exact substitution z = subs(w) into a chart map (no conj
        powers), for a column map subs of height n_vars; the result lives
        over the variables w of subs and may hold conj(w) powers.

        Each monomial starts at its coefficient and is multiplied by
        subs[b] once per power of z_b, in variable order.
        """
        if subs.rows != self.n_vars or subs.cols != 1:
            raise ShapeMismatch("subs must be a column of height n_vars")
        forms = [subs.entries.get((b, 0), {}) for b in range(self.n_vars)]
        one = (tuple([0] * subs.n_vars), tuple([0] * subs.n_vars))
        entries: dict = {}
        for key, terms in self.entries.items():
            cell = entries.setdefault(key, {})
            for (za, _), coeff in terms.items():
                prod = {one: complex(coeff)}
                for b, p in enumerate(za):
                    for _ in range(p):
                        prod = _term_mult(prod, forms[b])
                for t, c in prod.items():
                    cell[t] = cell.get(t, 0j) + c
        return CRPolyMap(subs.n_vars, self.rows, self.cols, entries)

    def conjugate(self) -> "CRPolyMap":
        entries = {}
        for key, terms in self.entries.items():
            entries[key] = {(zb, za): c.conjugate() for (za, zb), c in terms.items()}
        return CRPolyMap(self.n_vars, self.rows, self.cols, entries)

    def wirtinger_maps(self) -> tuple["CRPolyMap", "CRPolyMap"]:
        """For a column map, the (rows x n_vars) matrices of its dz and
        dzbar derivatives, built in one pass over the terms. Entry
        (i, var) holds row i's terms with a power of z_var (of conj z_var)
        in their order, each lowered by one with coefficient
        0j + coeff * power."""
        if self.cols != 1:
            raise ShapeMismatch("Wirtinger maps need a column map")
        n = self.n_vars
        cells = []  # (row, dz cell per variable, dzbar cell per variable)
        for (i, _), terms in self.entries.items():
            holo, anti = [{} for _ in range(n)], [{} for _ in range(n)]
            for (za, zb), coeff in terms.items():
                for var in range(n):
                    p = za[var]
                    if p:
                        holo[var][za[:var] + (p - 1,) + za[var + 1:], zb] = 0j + coeff * p
                    p = zb[var]
                    if p:
                        anti[var][za, zb[:var] + (p - 1,) + zb[var + 1:]] = 0j + coeff * p
            cells.append((i, holo, anti))
        # column-major entries, the order one partial map per variable gave:
        # matmul adds a row's products in entry order, so this keeps them bitwise
        holo = {(i, var): h[var] for var in range(n) for i, h, _ in cells if h[var]}
        anti = {(i, var): a[var] for var in range(n) for i, _, a in cells if a[var]}
        return CRPolyMap(n, self.rows, n, holo), CRPolyMap(n, self.rows, n, anti)

    def __add__(self, other: "CRPolyMap") -> "CRPolyMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shapes differ")
        entries = {k: dict(v) for k, v in self.entries.items()}
        for key, terms in other.entries.items():
            cell = entries.setdefault(key, {})
            for t, c in terms.items():
                cell[t] = cell.get(t, 0j) + c
        return CRPolyMap(self.n_vars, self.rows, self.cols, entries)

    def scale(self, c) -> "CRPolyMap":
        entries = {
            key: {t: complex(c) * v for t, v in terms.items()}
            for key, terms in self.entries.items()
        }
        return CRPolyMap(self.n_vars, self.rows, self.cols, entries)

    def __sub__(self, other: "CRPolyMap") -> "CRPolyMap":
        return self + other.scale(-1.0)

    def matmul(self, other: "CRPolyMap") -> "CRPolyMap":
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        entries: dict = {}
        for (i, j), left in self.entries.items():
            for k in range(other.cols):
                right = other.entries.get((j, k))
                if not right:
                    continue
                cell = entries.setdefault((i, k), {})
                for t, c in _term_mult(left, right).items():
                    val = cell.get(t, 0j) + c
                    if val == 0:
                        cell.pop(t, None)
                    else:
                        cell[t] = val
        return CRPolyMap(self.n_vars, self.rows, other.cols, entries)


def circle_rule_jacobian(fn, z, n_vars: int, h: float = 0.05, points: int = 8) -> np.ndarray:
    """Holomorphic derivative of a matrix-valued callable by the circle rule.

    f'(z) along e_b is (1/(points*h)) sum_k w^-k f(z + h w^k e_b) with
    w = exp(2 pi i / points); exact for polynomial degree < points and
    stable because h stays large.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    base = np.asarray(fn(z), dtype=complex)
    out = np.zeros(base.shape + (n_vars,), dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(points) / points)
    for b in range(n_vars):
        acc = np.zeros(base.shape, dtype=complex)
        for w in roots:
            zp = z.copy()
            zp[b] += h * w
            acc += np.asarray(fn(zp), dtype=complex) / w
        out[..., b] = acc / (points * h)
    return out


# ---------------------------------------------------------------------------
# distribution charts
# ---------------------------------------------------------------------------

class DistributionChart:
    """Codimension-n holomorphic distribution on a chart of C^N centered
    at the origin."""

    def __init__(self, n: int, big_n: int, amap, radius: float = 0.5):
        if not (1 <= n < big_n):
            raise InvalidParams("need 1 <= n < N")
        if amap.rows != n or amap.cols != big_n - n or amap.n_vars != big_n:
            raise ShapeMismatch("a must map C^N to C^{n x (N-n)}")
        if isinstance(amap, CRPolyMap) and any(
                any(zb) for terms in amap.entries.values() for _, zb in terms):
            raise ShapeMismatch("a chart map has no conj(z) powers")
        self.n = n
        self.big_n = big_n
        self.amap = amap
        self.center = np.zeros(big_n, dtype=complex)
        self.radius = float(radius)

    @property
    def fiber_dim(self) -> int:
        return self.big_n - self.n

    def _check_domain(self, z):
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.shape[0] != self.big_n:
            raise DimensionMismatch("point must live in C^N")
        if np.max(np.abs(z - self.center)) > self.radius + 1e-12:
            raise DomainError("point outside chart validity radius")
        return z

    def a_value(self, z) -> np.ndarray:
        return self.amap.value(self._check_domain(z))

    def a_jacobian(self, z) -> np.ndarray:
        return self.amap.jacobian(self._check_domain(z))


class TorsionTensor:
    """theta[i, j, k] at a chart center; antisymmetric in (j, k)."""

    def __init__(self, theta: np.ndarray):
        self.theta = np.asarray(theta, dtype=complex)
        if self.theta.ndim != 3 or self.theta.shape[1] != self.theta.shape[2]:
            raise ShapeMismatch("torsion tensor must have shape (n, m, m)")

    def apply(self, eta, lam) -> np.ndarray:
        """Bilinear map value in the quotient C^n: da(eta)lam - da(lam)eta,
        for one pair of m-vectors or for each row of two (P, m) stacks."""
        eta = np.asarray(eta, dtype=complex)
        lam = np.asarray(lam, dtype=complex)
        return 2.0 * np.einsum("ijk,...j,...k->...i", self.theta, eta, lam)

    def norm(self) -> float:
        return float(np.max(np.abs(self.theta), initial=0.0))


def torsion_at(
    chart: DistributionChart, z0=None, tol: Tolerances = DEFAULT
) -> TorsionTensor:
    """Torsion tensor at a normalized point (requires a(z0) = 0): the
    frame route of torsion_via_frames, whose frame fields reduce to
    coordinate fields at z0."""
    z0 = chart.center if z0 is None else z0
    a0 = chart.a_value(z0)
    if np.max(np.abs(a0), initial=0.0) > 1e3 * tol.alg_atol:
        raise NotNormalized("a(z0) != 0; re-center the chart first")
    return _frame_torsion(chart, z0, a0)


def torsion_via_frames(chart: DistributionChart, z) -> TorsionTensor:
    """Torsion at an arbitrary chart point through the frame route.

    theta[i,j,k] = (e_j(a[i,k]) - e_k(a[i,j])) / 2 with the directional
    derivative taken along the full frame vector; values land in the
    quotient representative v' - a(z) v'' (the frame brackets are already
    purely vertical, so no correction is needed).
    """
    return _frame_torsion(chart, z, chart.a_value(z))


def _frame_torsion(chart: DistributionChart, z, a: np.ndarray) -> TorsionTensor:
    """torsion_via_frames at z, given a = a(z)."""
    jac = chart.a_jacobian(z)
    n = chart.n
    # e_j(h) = dh/dz_{n+j} + sum_l a[l, j] dh/dz_l, written over the fresh
    # jacobian's fiber columns, which become the frame derivatives D
    jac[:, :, n:] += np.einsum("icl,lj->icj", jac[:, :, :n], a)
    frame_deriv = jac[:, :, n:]
    # theta = (D^T - D) / 2, halved in place: no array beside jac and theta
    theta = np.subtract(np.swapaxes(frame_deriv, 1, 2), frame_deriv)
    theta *= 0.5
    return TorsionTensor(theta)


def frame_bracket_oracle(chart: DistributionChart, z=None, h: float = 1e-4) -> TorsionTensor:
    """Independent torsion evaluation from finite-difference frame brackets.

    Uses only values of a (plain central differences per coordinate), so
    it cross-checks both the exact-polynomial and circle-rule routes.
    """
    z = chart.center if z is None else np.asarray(z, dtype=complex).reshape(-1)
    a = chart.a_value(z)
    n, m, big_n = chart.n, chart.fiber_dim, chart.big_n
    jac = np.zeros((n, m, big_n), dtype=complex)
    for b in range(big_n):
        step = np.zeros(big_n, dtype=complex)
        step[b] = h
        jac[:, :, b] = (chart.a_value(z + step) - chart.a_value(z - step)) / (2 * h)
    theta = np.zeros((n, m, m), dtype=complex)
    for j in range(m):
        for k in range(j + 1, m):
            ej_aik = jac[:, k, n + j] + jac[:, k, :n] @ a[:, j]
            ek_aij = jac[:, j, n + k] + jac[:, j, :n] @ a[:, k]
            val = 0.5 * (ej_aik - ek_aij)
            theta[:, j, k] = val
            theta[:, k, j] = -val
    return TorsionTensor(theta)


# ---------------------------------------------------------------------------
# foliation and isotropy
# ---------------------------------------------------------------------------

def is_foliation(chart: DistributionChart, sample_points) -> float:
    """The largest norm of the torsion (torsion_via_frames) over the
    sample points; 0 at every one where the distribution is a foliation."""
    worst = 0.0
    for z in sample_points:
        worst = worst_of(worst, torsion_via_frames(chart, z).norm())
    return worst


def isotropy_test(
    theta: TorsionTensor,
    subspace: ComplexSubspace,
    n: int,
    tol: Tolerances = DEFAULT,
) -> tuple[bool, float]:
    """Does theta vanish on the given n-dimensional subspace of the fiber?

    The subspace lives in C^N with its first n components (numerically)
    zero, i.e. inside the fiber at the chart center.
    """
    m = theta.theta.shape[1]
    big_n = n + m
    if subspace.ambient_dim != big_n:
        raise DimensionMismatch("subspace must live in C^N")
    if subspace.dim != n:
        raise InvalidParams(f"subspace dimension must be n = {n}")
    head = np.max(np.abs(subspace.basis[:n, :]), initial=0.0)
    if head > 1e-6:
        raise NotASubspaceOfFiber("subspace has components outside the fiber")
    worst = 0.0
    cols = subspace.basis[n:, :]
    for p in range(subspace.dim):
        for q in range(p + 1, subspace.dim):
            val = theta.apply(cols[:, p], cols[:, q])
            worst = worst_of(worst, float(np.max(np.abs(val), initial=0.0)))
    return worst <= 1e3 * tol.alg_atol, worst


# ---------------------------------------------------------------------------
# random charts
# ---------------------------------------------------------------------------

def random_polynomial_chart(
    n: int,
    big_n: int,
    rng: SplitMix64,
    degree: int = 3,
    terms_per_entry: int = 2,
    amplitude: float = 1.0,
) -> DistributionChart:
    """Random polynomial presentation with a(0) = 0 (no constant terms)."""
    entries: dict = {}
    for i in range(n):
        for j in range(big_n - n):
            cell: dict = {}
            while len(cell) < terms_per_entry:
                deg = rng.integer(1, degree)
                powers = [0] * big_n
                for _ in range(deg):
                    powers[rng.integer(0, big_n - 1)] += 1
                coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * amplitude
                key = (tuple(powers), (0,) * big_n)
                cell[key] = cell.get(key, 0j) + coeff
            entries[(i, j)] = cell
    amap = CRPolyMap(big_n, n, big_n - n, entries)
    return DistributionChart(n, big_n, amap)
