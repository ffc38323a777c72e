"""Holomorphic distributions presented by graph charts, and their torsion.

A distribution of complex codimension n near a base point is presented by
a holomorphic matrix map a(z) with a(center) = 0: the fiber at z is
spanned by the frame

    e_j(z) = unit_{n+j} + sum_i a[i, j](z) unit_i,      j = 0..N-n-1,

equivalently D_z = {(a(z) eta, eta)}. The torsion stores

    theta[i, j, k] = (d a[i,k]/dz_{n+j} - d a[i,j]/dz_{n+k}) / 2

at the center, antisymmetric in (j, k) by construction; the associated
bilinear map is theta(eta, lambda) = da(eta) lambda - da(lambda) eta with
values in the quotient C^n.

Polynomial maps carry exact derivatives (and exact recentering through
affine substitution); black-box holomorphic callables are differentiated
by an m-point circle rule, which keeps the step size large and avoids the
cancellation of plain small-h differencing.
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
# exact polynomial maps
# ---------------------------------------------------------------------------

def _poly_mult(p: dict, q: dict) -> dict:
    out: dict = {}
    for pa, pc in p.items():
        for qa, qc in q.items():
            key = tuple(x + y for x, y in zip(pa, qa))
            out[key] = out.get(key, 0.0 + 0.0j) + pc * qc
    return out


class PolynomialMatrixMap:
    """Matrix of polynomials C^N -> C^{rows x cols}, exact calculus.

    entries[(i, j)] maps an exponent tuple of length N to a complex
    coefficient.
    """

    def __init__(self, n_vars: int, rows: int, cols: int, entries: dict):
        self.n_vars = int(n_vars)
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries: dict = {}
        for (i, j), mono in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry index ({i}, {j}) out of range")
            cell = self.entries.setdefault((i, j), {})
            for powers, coeff in mono.items():
                if len(powers) != n_vars:
                    raise DimensionMismatch("exponent length must equal n_vars")
                key = tuple(int(p) for p in powers)
                val = cell.get(key, 0.0 + 0.0j) + complex(coeff)
                if val == 0:
                    cell.pop(key, None)
                else:
                    cell[key] = val

    def value(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex).reshape(-1)
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), mono in self.entries.items():
            acc = 0.0 + 0.0j
            for powers, coeff in mono.items():
                term = coeff
                for var, p in enumerate(powers):
                    if p:
                        term *= z[var] ** p
                acc += term
            out[i, j] = acc
        return out

    def jacobian(self, z) -> np.ndarray:
        """Exact holomorphic derivative, shape (rows, cols, n_vars)."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        out = np.zeros((self.rows, self.cols, self.n_vars), dtype=complex)
        for (i, j), mono in self.entries.items():
            for powers, coeff in mono.items():
                for var, p in enumerate(powers):
                    if p == 0:
                        continue
                    term = coeff * p
                    for var2, p2 in enumerate(powers):
                        pw = p2 - 1 if var2 == var else p2
                        if pw:
                            term *= z[var2] ** pw
                    out[i, j, var] += term
        return out

    def compose_affine(self, m: np.ndarray, c: np.ndarray) -> "PolynomialMatrixMap":
        """Exact substitution z = M w + c."""
        m = np.asarray(m, dtype=complex)
        c = np.asarray(c, dtype=complex).reshape(-1)
        lin = []
        zero = tuple([0] * self.n_vars)
        for beta in range(self.n_vars):
            form = {}
            if c[beta] != 0:
                form[zero] = complex(c[beta])
            for gamma in range(self.n_vars):
                if m[beta, gamma] != 0:
                    key = tuple(1 if g == gamma else 0 for g in range(self.n_vars))
                    form[key] = complex(m[beta, gamma])
            lin.append(form if form else {zero: 0.0 + 0.0j})
        new_entries: dict = {}
        for (i, j), mono in self.entries.items():
            cell: dict = {}
            for powers, coeff in mono.items():
                prod = {zero: complex(coeff)}
                for beta, p in enumerate(powers):
                    for _ in range(p):
                        prod = _poly_mult(prod, lin[beta])
                for key, val in prod.items():
                    cell[key] = cell.get(key, 0.0 + 0.0j) + val
            new_entries[(i, j)] = cell
        return PolynomialMatrixMap(self.n_vars, self.rows, self.cols, new_entries)

    def shift_constant(self, delta: np.ndarray) -> "PolynomialMatrixMap":
        """Add a constant matrix to the map."""
        delta = np.asarray(delta, dtype=complex)
        zero = tuple([0] * self.n_vars)
        entries = {k: dict(v) for k, v in self.entries.items()}
        for i in range(self.rows):
            for j in range(self.cols):
                if delta[i, j] != 0:
                    cell = entries.setdefault((i, j), {})
                    cell[zero] = cell.get(zero, 0.0 + 0.0j) + delta[i, j]
        return PolynomialMatrixMap(self.n_vars, self.rows, self.cols, entries)


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


class CallableHolomorphicMap:
    """Black-box holomorphic matrix map; derivatives via the circle rule."""

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


# ---------------------------------------------------------------------------
# distribution charts
# ---------------------------------------------------------------------------

class DistributionChart:
    """Codimension-n holomorphic distribution on a chart of C^N."""

    def __init__(self, n: int, big_n: int, amap, center=None, radius: float = 0.5):
        if not (1 <= n < big_n):
            raise InvalidParams("need 1 <= n < N")
        if amap.rows != n or amap.cols != big_n - n or amap.n_vars != big_n:
            raise ShapeMismatch("a must map C^N to C^{n x (N-n)}")
        self.n = n
        self.big_n = big_n
        self.amap = amap
        self.center = (
            np.zeros(big_n, dtype=complex)
            if center is None
            else np.asarray(center, dtype=complex).reshape(-1)
        )
        if self.center.shape[0] != big_n:
            raise DimensionMismatch("center must live in C^N")
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
        """Bilinear map value in the quotient C^n: da(eta)lam - da(lam)eta."""
        eta = np.asarray(eta, dtype=complex).reshape(-1)
        lam = np.asarray(lam, dtype=complex).reshape(-1)
        return 2.0 * np.einsum("ijk,j,k->i", self.theta, eta, lam)

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
    for j in range(chart.fiber_dim):
        jac[:, :, n + j] += np.einsum("icl,l->ic", jac[:, :, :n], a[:, j])
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
# recentering
# ---------------------------------------------------------------------------

def recenter(chart: DistributionChart, new_center) -> DistributionChart:
    """Present the same distribution in a chart centered at new_center.

    Coordinates are sheared so the fiber at the new center becomes the
    last N-n coordinate plane: w = L (z - z1) with L = [[I, -a(z1)], [0, I]]
    and the new matrix map is a(z1 + L^-1 w) - a(z1), which vanishes at
    w = 0.
    """
    z1 = chart._check_domain(new_center)
    a1 = chart.a_value(z1)
    n, m, big_n = chart.n, chart.fiber_dim, chart.big_n
    l_inv = np.eye(big_n, dtype=complex)
    l_inv[:n, n:] = a1
    if isinstance(chart.amap, PolynomialMatrixMap):
        composed = chart.amap.compose_affine(l_inv, z1).shift_constant(-a1)
        new_map = composed
    else:
        inner = chart.amap

        def fn(w):
            return inner.value(z1 + l_inv @ w) - a1

        new_map = CallableHolomorphicMap(big_n, n, m, fn)
    return DistributionChart(n, big_n, new_map, center=None, radius=chart.radius)


# ---------------------------------------------------------------------------
# foliation and isotropy
# ---------------------------------------------------------------------------

def is_foliation(
    chart: DistributionChart, sample_points, tol: Tolerances = DEFAULT
) -> tuple[bool, float]:
    """True iff the torsion vanishes (within fd tolerance) at every sample."""
    worst = 0.0
    for z in sample_points:
        local = recenter(chart, z)
        worst = worst_of(worst, torsion_at(local, tol=tol).norm())
    return worst <= tol.fd_rtol, worst


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
                cell[tuple(powers)] = cell.get(tuple(powers), 0j) + coeff
            entries[(i, j)] = cell
    amap = PolynomialMatrixMap(big_n, n, big_n - n, entries)
    return DistributionChart(n, big_n, amap)
