"""Tensor calculus on flat tori with exact trigonometric arithmetic.

A trigonometric polynomial field on T^d stores matrix coefficients per
integer frequency:

    value(x) = sum_nu  C_nu cos(nu . x) + S_nu sin(nu . x)

Frequencies are canonicalized so the first nonzero component is positive
(sin picks up the sign flip) and the zero frequency carries no sin part.
Derivatives act frequency-wise, so partials of trig-poly fields are
again trig-poly fields with no approximation beyond float rounding.

Almost complex structure fields J(x) only need pointwise values, the same
values stacked over many points (`values`), and first partials, which a
small protocol captures; perturbed structures built by
conjugation (Id + eps A(x)) J0 (Id + eps A(x))^-1 are not trig polynomials
but still evaluate and differentiate exactly through the product rule.

Bracket convention: [V, W] = DW . V - DV . W.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances, worst_of
from .errors import DimensionMismatch, NotAComplexStructure, ShapeMismatch
from .rng import SplitMix64

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusChart:
    """Angular coordinates on T^dim, period 2*pi in every axis."""

    dim: int

    def grid(self, counts, phase: float = 0.37, rows: int | None = None) -> np.ndarray:
        """Deterministic sample grid, row-major over the axis counts. When
        rows is given, only the first rows points are built, point r from
        its axis indices np.unravel_index(r, counts).

        The fixed fractional phase keeps samples off symmetry points such
        as x = 0 or x = pi.
        """
        if len(counts) != self.dim:
            raise DimensionMismatch("one count per axis required")
        axes = [TWO_PI * (np.arange(c) + phase) / c for c in counts]
        total = math.prod(counts)
        built = total if rows is None else min(rows, total)
        index = np.unravel_index(np.arange(built), counts)
        return np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


def _rows(xs, d: int) -> np.ndarray:
    """Points as the rows of a float array (one point may come alone)."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1:] != (d,):
        raise DimensionMismatch(f"points must have {d} coordinates")
    return xs.reshape(-1, d)


def _canonical(freq):
    freq = tuple(int(f) for f in freq)
    for f in freq:
        if f > 0:
            return freq, 1.0
        if f < 0:
            return tuple(-g for g in freq), -1.0
    return freq, 1.0


class TrigPolyField:
    """Matrix-valued trigonometric polynomial on T^d.

    Parameters
    ----------
    d : int
        Number of torus coordinates.
    shape : (rows, cols)
    terms : dict mapping frequency tuple -> (C, S) coefficient arrays.
        Input need not be canonical; the constructor canonicalizes.
    """

    def __init__(self, d: int, shape, terms):
        self.d = int(d)
        self.shape = (int(shape[0]), int(shape[1]))
        clean: dict = {}
        for freq, (c, s) in terms.items():
            c = np.asarray(c, dtype=float)
            s = np.asarray(s, dtype=float)
            if c.shape != self.shape or s.shape != self.shape:
                raise ShapeMismatch(f"term coefficients must have shape {self.shape}")
            if len(freq) != self.d:
                raise DimensionMismatch("frequency length must equal chart dim")
            key, sign = _canonical(freq)
            cc, ss = clean.get(key, (np.zeros(self.shape), np.zeros(self.shape)))
            clean[key] = (cc + c, ss + sign * s)
        zero = tuple([0] * self.d)
        if zero in clean:
            c, s = clean[zero]
            clean[zero] = (c, np.zeros(self.shape))
        self.terms = {
            k: v
            for k, v in sorted(clean.items())
            if np.any(v[0]) or np.any(v[1]) or k == zero
        }
        if not self.terms:
            self.terms = {zero: (np.zeros(self.shape), np.zeros(self.shape))}

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, d: int, matrix) -> "TrigPolyField":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        zero = tuple([0] * d)
        return cls(d, matrix.shape, {zero: (matrix, np.zeros(matrix.shape))})

    @classmethod
    def random(
        cls,
        d: int,
        shape,
        rng: SplitMix64,
        max_degree: int = 4,
        n_terms: int = 3,
        amplitude: float = 1.0,
    ) -> "TrigPolyField":
        """Random field with n_terms distinct nonzero frequencies."""
        terms = {}
        attempts = 0
        while len(terms) < n_terms and attempts < 20 * n_terms:
            attempts += 1
            freq = tuple(rng.integer(-max_degree, max_degree) for _ in range(d))
            key, _ = _canonical(freq)
            if all(f == 0 for f in key) or key in terms:
                continue
            c = rng.real_matrix(shape[0], shape[1], amplitude)
            s = rng.real_matrix(shape[0], shape[1], amplitude)
            terms[key] = (c, s)
        return cls(d, shape, terms)

    # -- evaluation and calculus ------------------------------------------

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        out = np.zeros(self.shape)
        for freq, (c, s) in self.terms.items():
            ang = float(np.dot(freq, x))
            out += c * np.cos(ang) + s * np.sin(ang)
        return out

    def values(self, xs) -> np.ndarray:
        """value(x) for every row x of xs, stacked (rows, *shape).

        Each entry is bitwise equal to value(x): np.vecdot takes every
        angle with the dot kernel np.dot uses (the summation order and
        any fused multiply-add of the BLAS build carry over), and the
        terms are added in the same order.
        """
        xs = _rows(xs, self.d)
        out = np.zeros((xs.shape[0],) + self.shape)
        for freq, (c, s) in self.terms.items():
            ang = np.vecdot(np.asarray(freq, dtype=float), xs)[:, None, None]
            out += c * np.cos(ang) + s * np.sin(ang)
        return out

    def partial(self, i: int) -> "TrigPolyField":
        """Exact partial derivative along coordinate i."""
        terms = {}
        for freq, (c, s) in self.terms.items():
            ni = freq[i]
            if ni == 0:
                continue
            terms[freq] = (ni * s, -ni * c)
        return TrigPolyField(self.d, self.shape, terms)

    def partial_value(self, i: int, x) -> np.ndarray:
        return self._partials()[i].value(x)

    def _partials(self):
        cached = getattr(self, "_partial_fields", None)
        if cached is None:
            cached = [self.partial(i) for i in range(self.d)]
            object.__setattr__(self, "_partial_fields", cached)
        return cached

    def jacobian_values(self, xs) -> np.ndarray:
        """For column fields (r, 1): the (r, d) matrix of partials at every
        row x of xs, stacked (rows, r, d)."""
        if self.shape[1] != 1:
            raise ShapeMismatch("jacobian_values expects a column field")
        cols = [p.values(xs)[:, :, 0] for p in self._partials()]
        return np.stack(cols, axis=2)

    # -- exact arithmetic --------------------------------------------------

    def _binary_shape_check(self, other: "TrigPolyField"):
        if self.d != other.d:
            raise DimensionMismatch("fields live on different tori")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")

    def __add__(self, other: "TrigPolyField") -> "TrigPolyField":
        self._binary_shape_check(other)
        terms = {k: (c.copy(), s.copy()) for k, (c, s) in self.terms.items()}
        for k, (c, s) in other.terms.items():
            cc, ss = terms.get(k, (np.zeros(self.shape), np.zeros(self.shape)))
            terms[k] = (cc + c, ss + s)
        return TrigPolyField(self.d, self.shape, terms)

    def scale(self, factor: float) -> "TrigPolyField":
        return TrigPolyField(
            self.d,
            self.shape,
            {k: (factor * c, factor * s) for k, (c, s) in self.terms.items()},
        )

    # -- reading scenario payloads ----------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPolyField":
        shape = tuple(data["shape"])
        terms = {}
        d = None
        for t in data["terms"]:
            freq = tuple(int(f) for f in t["freq"])
            d = len(freq)
            try:  # ragged rows make numpy raise ValueError
                c = np.asarray(t["cos"], dtype=float)
                s = np.asarray(t["sin"], dtype=float)
                ok = c.shape == shape and s.shape == shape
            except ValueError:
                ok = False
            if not ok:
                raise ShapeMismatch(f"term coefficients must have shape {shape}")
            key, sign = _canonical(freq)
            cc, ss = terms.get(key, (np.zeros(shape), np.zeros(shape)))
            terms[key] = (cc + c, ss + sign * s)
        if d is None:
            raise ShapeMismatch("field must carry at least one term")
        return cls(d, shape, terms)


# ---------------------------------------------------------------------------
# matrix fields beyond trig polynomials
# ---------------------------------------------------------------------------

class ConjugatedStructureField:
    """J(x) = T(x) J0 T(x)^-1 with T = Id + eps A, A a trig-poly matrix.

    Conjugation preserves J^2 = -Id exactly; values and partials are exact
    up to the pointwise linear solves:

        d_i J = (d_i T  J0 - J  d_i T) T^-1
    """

    def __init__(self, a_field: TrigPolyField, eps: float, j0=None):
        if a_field.shape[0] != a_field.shape[1]:
            raise ShapeMismatch("conjugator must be square")
        n2 = a_field.shape[0]
        if n2 % 2:
            raise DimensionMismatch("structure dimension must be even")
        self.d = a_field.d
        self.shape = a_field.shape
        from .cxlinalg import standard_structure

        self.j0 = np.asarray(j0, dtype=float) if j0 is not None else standard_structure(n2 // 2)
        self.t_field = TrigPolyField.constant(a_field.d, np.eye(n2)) + a_field.scale(eps)

    def value(self, x) -> np.ndarray:
        t = self.t_field.value(x)
        return np.linalg.solve(t.T, (t @ self.j0).T).T

    def values(self, xs) -> np.ndarray:
        """value(x) for every row x of xs, stacked; the products and
        solves run on the stack, one matrix at a time as in value."""
        t = self.t_field.values(xs)
        tt = np.swapaxes(t, 1, 2)
        return np.swapaxes(np.linalg.solve(tt, np.swapaxes(t @ self.j0, 1, 2)), 1, 2)

    def partial_value(self, i: int, x) -> np.ndarray:
        j = self.value(x)
        t = self.t_field.value(x)
        ti = self.t_field.partial_value(i, x)
        return np.linalg.solve(t.T, (ti @ self.j0 - j @ ti).T).T


class CallableMatrixField:
    """Matrix field from a plain callable; partials by central differences."""

    def __init__(self, d: int, shape, fn, h: float = 1e-5):
        self.d = d
        self.shape = tuple(shape)
        self.fn = fn
        self.h = float(h)

    def value(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)))

    def values(self, xs) -> np.ndarray:
        return np.stack([self.value(x) for x in _rows(xs, self.d)])

    def partial_value(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        step = np.zeros_like(x)
        step[i] = self.h
        return (self.value(x + step) - self.value(x - step)) / (2.0 * self.h)


class AlmostComplexField:
    """A pointwise complex structure J(x) on a torus chart."""

    def __init__(self, chart: TorusChart, field, tol: Tolerances = DEFAULT):
        if field.shape[0] != field.shape[1] or field.shape[0] != 2 * (field.shape[0] // 2):
            raise DimensionMismatch("J must be square of even size")
        if field.d != chart.dim:
            raise DimensionMismatch("field and chart dimensions differ")
        self.chart = chart
        self.field = field
        self.n = field.shape[0] // 2
        self.tol = tol
        self.validate([np.zeros(chart.dim), 0.1 + np.arange(chart.dim, dtype=float)])

    @classmethod
    def standard(cls, n: int) -> "AlmostComplexField":
        from .cxlinalg import standard_structure

        return cls(TorusChart(2 * n), TrigPolyField.constant(2 * n, standard_structure(n)))

    @classmethod
    def conjugated(cls, a_field: TrigPolyField, eps: float) -> "AlmostComplexField":
        return cls(TorusChart(a_field.d), ConjugatedStructureField(a_field, eps))

    def value(self, x) -> np.ndarray:
        return self.field.value(x)

    def values(self, xs) -> np.ndarray:
        """J at every row of xs, stacked (rows, 2n, 2n)."""
        return self.field.values(xs)

    def partial_value(self, i: int, x) -> np.ndarray:
        return self.field.partial_value(i, x)

    def validate(self, points) -> float:
        worst = 0.0
        eye = np.eye(2 * self.n)
        for x in points:
            j = self.value(x)
            worst = worst_of(worst, float(np.max(np.abs(j @ j + eye))))
        if not worst <= 1e3 * self.tol.alg_atol:  # NaN fails too
            raise NotAComplexStructure(f"||J(x)^2 + Id|| = {worst:.3e}")
        return worst


# ---------------------------------------------------------------------------
# Nijenhuis tensor
# ---------------------------------------------------------------------------

def structure_jet(j, x):
    """(J(x), dJ(x)): every value the four-bracket formula reads at x,
    each evaluated once; dJ[i] = d_i J(x), stacked (2n, 2n, 2n), each
    slice in the memory order of its partial."""
    jm = j.value(x)
    return jm, np.stack([j.partial_value(i, x) for i in range(jm.shape[0])])


def _directional_dj(partials, w):
    """sum_i w_i d_i J(x) from the partials of a jet, for each row of w
    (..., 2n). The products w_i d_i J are added in the order of i, so a
    row of a stack gets the bits it gets alone. The sum is C-ordered
    whatever the order of the partials, so its matrix-vector products
    take the BLAS kernel of a C array, as the sum of one pair always did."""
    return np.add.reduce(np.multiply(w[..., :, None, None], partials, order="C"), axis=-3)


def nijenhuis_from_jet(jet, zeta, eta) -> np.ndarray:
    """N_J(zeta, eta) at the point of a structure_jet, from the
    four-bracket definition, for one pair of 2n-vectors or for each row
    of two (P, 2n) stacks.

    For constant extensions of the input vectors the brackets collapse to
    directional derivatives of J:

        N = -dJ(J zeta) eta + dJ(J eta) zeta + J dJ(zeta) eta - J dJ(eta) zeta
    """
    jm, partials = jet
    # as (..., 2n, 1) columns every product is a matrix-vector one, per
    # row, as for a single pair
    zeta = np.asarray(zeta, dtype=float)[..., None]
    eta = np.asarray(eta, dtype=float)[..., None]
    out = -_directional_dj(partials, (jm @ zeta)[..., 0]) @ eta
    out += _directional_dj(partials, (jm @ eta)[..., 0]) @ zeta
    out += jm @ (_directional_dj(partials, zeta[..., 0]) @ eta)
    out -= jm @ (_directional_dj(partials, eta[..., 0]) @ zeta)
    return out[..., 0]


def nijenhuis_direct(j: AlmostComplexField, x, zeta, eta) -> np.ndarray:
    """N_J(zeta, eta) at x from the four-bracket definition; to evaluate
    many pairs at one point, build the jet once and call
    nijenhuis_from_jet on stacks of them."""
    return nijenhuis_from_jet(structure_jet(j, x), zeta, eta)


def nijenhuis_fd_oracle(j: AlmostComplexField, x, zeta, eta, h: float = 1e-5) -> np.ndarray:
    """Independent evaluation through finite-difference Lie brackets.

    Uses only values of J, never its partials, so it cross-checks the
    exact-derivative route. J is evaluated once at x and once at each
    x +- h e_i: 2d + 1 evaluations on T^d.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.shape[0]
    # central differences of u -> J(u) zeta and u -> J(u) eta, column i
    # from the two values of J at x +- h e_i
    d_jz, d_je = np.empty((d, d)), np.empty((d, d))
    for i in range(d):
        step = np.zeros(d)
        step[i] = h
        j_plus, j_minus = j.value(x + step), j.value(x - step)
        d_jz[:, i] = (j_plus @ zeta - j_minus @ zeta) / (2 * h)
        d_je[:, i] = (j_plus @ eta - j_minus @ eta) / (2 * h)

    jm = j.value(x)
    bracket_jj = d_je @ (jm @ zeta) - d_jz @ (jm @ eta)
    bracket_z_je = d_je @ zeta
    bracket_jz_e = -d_jz @ eta
    return -bracket_jj + jm @ bracket_z_je + jm @ bracket_jz_e


def verify_tensoriality(j: AlmostComplexField, x, zeta, eta, dphi, dpsi
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Recompute N_J with modulated extensions V = phi*zeta, W = psi*eta.

    phi and psi are scalar fields equal to 1 at x, given by their
    gradients dphi and dpsi at x, which is all the bracket expansion
    reads of them. The jacobians are exact product-rule ones, so
    agreement with the constant extension certifies tensoriality rather
    than rounding luck.

    Returns (N_constant, N_modulated, max_abs_deviation).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    dphi = np.asarray(dphi, dtype=float)
    dpsi = np.asarray(dpsi, dtype=float)
    if dphi.shape != x.shape or dpsi.shape != x.shape:
        raise DimensionMismatch(f"modulator gradients must have {x.shape[0]} entries")

    jm, partials = structure_jet(j, x)

    # value and jacobian at x of the four composite fields
    def plain(vec, dscal):
        return vec, np.outer(vec, dscal)

    def through_j(vec, dscal):
        cols = [
            dscal[i] * (jm @ vec) + partials[i] @ vec
            for i in range(x.shape[0])
        ]
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
