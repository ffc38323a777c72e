"""Structures induced on graph submanifolds transverse to a distribution.

A submanifold M = {z'' = g(z')} of chart C^N meets a codimension-n
distribution D transversally; the quotient identification T M = T Z / D
then drags multiplication by i back to an almost complex structure J_F
on the z'-chart. This module computes J_F two independent ways, the
conjugate-linear differential dbar f, the first variation of J_f under a
deformation of the embedding, and the Nijenhuis tensor of J_F through
the torsion of D.

g and all deformation data are polynomials in (z', conj z'), the
CRPolyMap of the distribution module, so every derivative used by the
closed-form routes is exact, and the chart form pulls back to the graph
exactly as a(F(z')) = a.substitute(z = (z', g(z'))).

Each call builds one GraphPoint, which holds everything the formulas
read at zp, the joint matrix [dF | fiber] included, and handles all 2n
basis vectors in one matrix expression and one solve. The finite
difference oracles build their own points at their own arguments,
re-run the geometric construction on deformed data and never reuse the
closed forms.
"""
from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .config import DEFAULT, Tolerances
from .cxlinalg import complexify_vector, realify_basis, standard_structure
from .distribution import (
    CRPolyMap,
    DistributionChart,
    TorsionTensor,
    _frame_torsion,
)
from .errors import (
    DimensionMismatch,
    NotNormalized,
    NotTransverse,
    ShapeMismatch,
)
from .fields import CallableMatrixField
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# random graph data
# ---------------------------------------------------------------------------

def random_crpoly(rows: int, cols: int, n_vars: int, rng: SplitMix64,
                  degree: int = 2, terms_per_entry: int = 2,
                  amplitude: float = 1.0) -> CRPolyMap:
    entries: dict = {}
    for i in range(rows):
        for j in range(cols):
            cell: dict = {}
            for _ in range(terms_per_entry):
                deg = rng.integer(1, degree)
                za, zb = [0] * n_vars, [0] * n_vars
                for _ in range(deg):
                    if rng.integer(0, 1):
                        za[rng.integer(0, n_vars - 1)] += 1
                    else:
                        zb[rng.integer(0, n_vars - 1)] += 1
                key = (tuple(za), tuple(zb))
                coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * amplitude
                cell[key] = cell.get(key, 0j) + coeff
            entries[(i, j)] = cell
    return CRPolyMap(n_vars, rows, cols, entries)


def _real_linear(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Realified matrix of the map zeta -> P zeta + Q conj(zeta):
    [[Re(P + Q), -Im(P - Q)], [Im(P + Q), Re(P - Q)]]."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    s, d = p + q, p - q
    return np.concatenate([np.concatenate([s.real, s.imag]),
                           np.concatenate([-d.imag, d.real])], axis=1)


# ---------------------------------------------------------------------------
# graph embeddings
# ---------------------------------------------------------------------------

class GraphEmbedding:
    """M = {z'' = g(z')} with g a CRPolyMap column of height N - n."""

    def __init__(self, n: int, big_n: int, g: CRPolyMap, base=None):
        if g.rows != big_n - n or g.cols != 1 or g.n_vars != n:
            raise ShapeMismatch("g must map C^n to C^{N-n}")
        self.n = n
        self.big_n = big_n
        self.g = g
        self.base = (
            np.zeros(n, dtype=complex)
            if base is None
            else np.asarray(base, dtype=complex).reshape(-1)
        )
        if self.base.shape[0] != n:
            raise DimensionMismatch("base point must live in C^n")
        self._pg = g.holo_jacobian_map()
        self._qg = g.anti_jacobian_map()

    def f_value(self, zp) -> np.ndarray:
        zp = np.asarray(zp, dtype=complex).reshape(-1)
        return np.concatenate([zp, self.g.value_vector(zp)])


def centered_chart(emb: GraphEmbedding, chart: DistributionChart) -> DistributionChart:
    """chart plus the constant that makes a(F(base)) = 0."""
    shift = chart.a_value(emb.f_value(emb.base))
    return DistributionChart(chart.n, chart.big_n,
                             chart.amap + CRPolyMap.constant(chart.big_n, -shift),
                             chart.radius)


def _check_normalized(a: np.ndarray, tol: Tolerances):
    if np.max(np.abs(a), initial=0.0) > 1e3 * tol.alg_atol:
        raise NotNormalized("chart is not centered on the embedded point")


class GraphPoint:
    """What every formula below reads at one point zp of a graph.

    Built once: z = F(zp), a(z), the dz and dzbar parts pg, qg of dg,
    dbar g on the 2n realified basis vectors (zeta = e_r, then i e_r) and
    the realified dF (2N x 2n). The joint matrix [dF | fiber] is built on
    first use, so a caller that never projects along the fiber takes no
    SVD and never sees its NotTransverse guard.
    """

    def __init__(self, emb: GraphEmbedding, chart: DistributionChart, zp,
                 tol: Tolerances = DEFAULT):
        self.emb = emb
        self.chart = chart
        self.tol = tol
        self.zp = np.asarray(zp, dtype=complex).reshape(-1)
        self.z = emb.f_value(self.zp)
        self.a = chart.a_value(self.z)
        self.pg = emb._pg.value(self.zp)
        self.qg = emb._qg.value(self.zp)
        self.dbar_g_basis = np.concatenate([self.qg, -1j * self.qg], axis=1)
        n = emb.n
        self.df = _real_linear(np.concatenate([np.eye(n), self.pg]),
                               np.concatenate([np.zeros((n, n)), self.qg]))

    @cached_property
    def joint(self) -> np.ndarray:
        """[dF | fiber-basis], square of size 2N; raises NotTransverse
        when the graph and the fiber fail to span the chart."""
        fiber = realify_basis(
            np.concatenate([self.a, np.eye(self.chart.fiber_dim)], axis=0))
        joint = np.concatenate([self.df, fiber], axis=1)
        s = np.linalg.svd(joint, compute_uv=False)
        if s[-1] <= self.tol.rank_rtol * s[0]:
            raise NotTransverse(
                f"graph and fiber fail to span the chart (sigma_min={s[-1]:.3e})"
            )
        return joint

    def pullback(self, q) -> np.ndarray:
        """Realified chart vectors xi with dF(xi) = (q, 0) mod fiber: one
        per column of the complex n x k matrix q, or one for a vector q."""
        n, big_n = self.emb.n, self.emb.big_n
        q = np.asarray(q, dtype=complex)
        rhs = np.zeros((2 * big_n,) + q.shape[1:])
        rhs[:n] = q.real
        rhs[big_n:big_n + n] = q.imag
        return np.linalg.solve(self.joint, rhs)[: 2 * n]

    def jf(self) -> np.ndarray:
        """Closed form J_F zeta = i zeta - 2 dF^{-1} pi(i a(F) dbar-g(zeta), 0)."""
        correction = self.pullback(1j * (self.a @ self.dbar_g_basis))
        return standard_structure(self.emb.n) - 2.0 * correction

    def jf_quotient(self) -> np.ndarray:
        """dF(zeta) through multiplication by i in the quotient by the
        fiber, solved back."""
        rhs = standard_structure(self.emb.big_n) @ self.df
        return np.linalg.solve(self.joint, rhs)[: 2 * self.emb.n]

    def dbar_f(self, jf: np.ndarray) -> np.ndarray:
        """(dF + J_Z dF J_f) / 2, realified 2N x 2n."""
        return 0.5 * (self.df + standard_structure(self.emb.big_n) @ self.df @ jf)

    def fiber_coords(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """Complex frame coefficients (N - n x 2n) of the columns of a
        realified 2N x 2n matrix, and how far those columns stick out of
        the fiber."""
        n, big_n = self.emb.n, self.emb.big_n
        etas = mat[n:big_n] + 1j * mat[big_n + n:]
        head = mat[:n] + 1j * mat[big_n:big_n + n]
        return etas, float(np.max(np.abs(head - self.a @ etas)))

    def torsion(self) -> TorsionTensor:
        return _frame_torsion(self.chart, self.z, self.a)


def induced_jf(emb: GraphEmbedding, chart: DistributionChart, zp,
               tol: Tolerances = DEFAULT,
               require_normalized: bool = True) -> np.ndarray:
    """Induced structure on the z'-chart, closed form.

    J_F zeta = i zeta - 2 dF^{-1} pi(i a(F) dbar-g(zeta), 0) with pi the
    projection to TM along the fiber; returns the realified 2n x 2n
    matrix. The correction term vanishes at the centered base point.
    """
    if require_normalized:
        _check_normalized(chart.a_value(emb.f_value(emb.base)), tol)
    return GraphPoint(emb, chart, zp, tol).jf()


def induced_jf_quotient(emb: GraphEmbedding, chart: DistributionChart, zp,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """Independent route: push dF(zeta) through multiplication by i in the
    quotient by the fiber and solve back. Shares no algebra with the
    closed form beyond a, dF and the joint solve."""
    return GraphPoint(emb, chart, zp, tol).jf_quotient()


def induced_jf_field(emb: GraphEmbedding, chart: DistributionChart):
    """J_f as a duck-typed field on the realified z'-chart (value and
    field.partial_value), for the four-bracket Nijenhuis evaluation:
    partials are central differences of induced_jf, so that route never
    sees theta or dbar f."""
    n = emb.n

    def fn(x):
        return induced_jf(emb, chart, complexify_vector(x),
                          require_normalized=False)

    field = CallableMatrixField(2 * n, (2 * n, 2 * n), fn, h=1e-5)
    return SimpleNamespace(value=field.value, field=field)


def dbar_f_fiber_coords(emb: GraphEmbedding, chart: DistributionChart, zp,
                        jf: np.ndarray | None = None,
                        tol: Tolerances = DEFAULT) -> tuple[np.ndarray, float]:
    """dbar f expressed in the frame coordinates of the fiber.

    Returns (eta_matrix, residual): eta_matrix[:, r] are the complex
    frame coefficients of dbar f applied to the r-th realified basis
    vector, and residual measures how far the image sticks out of the
    fiber (zero in exact arithmetic).
    """
    pt = GraphPoint(emb, chart, zp, tol)
    return pt.fiber_coords(pt.dbar_f(pt.jf_quotient() if jf is None else jf))


def pullback_quotient(emb: GraphEmbedding, chart: DistributionChart, zp,
                      q_repr: np.ndarray,
                      tol: Tolerances = DEFAULT) -> np.ndarray:
    """Chart vector xi with dF(xi) = (q, 0) mod fiber (realified output)."""
    return GraphPoint(emb, chart, zp, tol).pullback(np.asarray(q_repr).reshape(-1))


# ---------------------------------------------------------------------------
# variation of the induced structure
# ---------------------------------------------------------------------------

class VariationData:
    """Deformation w = u + f_* v of a graph embedding.

    eta is the fiber-frame coefficient field of the distribution part u,
    so u(z') = (a(F(z')) eta(z'), eta(z')); v is a chart vector field.
    """

    def __init__(self, eta: CRPolyMap, v: CRPolyMap):
        if eta.cols != 1 or v.cols != 1:
            raise ShapeMismatch("eta and v must be column maps")
        if eta.n_vars != v.n_vars:
            raise DimensionMismatch("eta and v live over different charts")
        self.eta = eta
        self.v = v


def variation_djf(emb: GraphEmbedding, chart: DistributionChart,
                  var: VariationData, zp,
                  tol: Tolerances = DEFAULT) -> np.ndarray:
    """Closed-form first variation dJ_f(w), realified 2n x 2n.

    dJ_f(w) = 2 J_f ( f_*^{-1} theta(dbar f ., u) + dbar_{J_f} v ).

    dbar_{J_f} is the genuine conjugate-linear half of the covariant
    derivative on vector fields: on top of (Dv + J Dv J) / 2 it carries
    the transport term -(1/2) J dJ_f(v), without which 2 J dbar v would
    miss the spatial drift of J_f along v. The point must be normalized
    (a(F(zp)) = 0); the transport term is closed-form only there.
    """
    pt = GraphPoint(emb, chart, zp, tol)
    _check_normalized(pt.a, tol)
    jf = pt.jf()
    etas, _ = pt.fiber_coords(pt.dbar_f(jf))
    # TorsionTensor.apply(dbar f e_r, u) for every basis vector e_r at once
    theta_u = pt.torsion().theta @ var.eta.value_vector(pt.zp)
    term1 = pt.pullback(2.0 * theta_u @ etas)
    dv = _real_linear(var.v.holo_jacobian_map().value(pt.zp),
                      var.v.anti_jacobian_map().value(pt.zp))
    # spatial derivative of the J_f field along v on the basis vectors:
    # dJ_f(w) zeta = -2 dF^{-1} pi ( i (da(z0) dF w) dbar g zeta )
    v0 = var.v.value_vector(pt.zp)
    df_v0 = np.concatenate([v0, pt.pg @ v0 + pt.qg @ v0.conj()])
    da_v0 = np.einsum("icb,b->ic", chart.a_jacobian(pt.z), df_v0)
    djf_v = -2.0 * pt.pullback(1j * (da_v0 @ pt.dbar_g_basis))
    dbar_v = 0.5 * (dv + jf @ dv @ jf) - 0.5 * jf @ djf_v
    return 2.0 * jf @ (term1 + dbar_v)


def deformation(emb: GraphEmbedding, chart: DistributionChart,
                var: VariationData) -> tuple[CRPolyMap, CRPolyMap]:
    """Exact t-independent data of the deformed graph.

    Returns (direction, vtilde): the deformed graph is g_t = g +
    direction.scale(t) with direction = eta - dg . a(F) eta, and vtilde
    = v + a(F) eta is the chart flow that re-graphs the moved
    submanifold over z'.
    """
    if not isinstance(chart.amap, CRPolyMap):
        raise ShapeMismatch("deformations need a polynomial chart")
    # z = F(w) = (w, g(w))
    n = emb.n
    zero = (0,) * n
    graph = {(i, 0): {(zero[:i] + (1,) + zero[i + 1:], zero): 1.0} for i in range(n)}
    graph.update({(n + l, 0): terms for (l, _), terms in emb.g.entries.items()})
    a_on_graph = chart.amap.substitute(CRPolyMap(n, emb.big_n, 1, graph))
    a_eta = a_on_graph.matmul(var.eta)
    dg_a_eta = emb._pg.matmul(a_eta) + emb._qg.matmul(a_eta.conjugate())
    return var.eta - dg_a_eta, var.v + a_eta


def variation_fd_oracle(emb: GraphEmbedding, chart: DistributionChart,
                        var: VariationData, zp, steps: tuple[float, ...],
                        tol: Tolerances = DEFAULT) -> list[np.ndarray]:
    """Finite-difference variations (J_{f_t}(x) - J_f(x)) / t, one per
    step t of steps.

    Re-runs the induced-structure construction on each deformed graph
    and pulls back along the re-graphing flow phi_t = id + t vtilde;
    uses no torsion and no closed-form variation algebra. The deformation,
    vtilde and its Jacobian at zp, and J_f(zp) do not depend on t and are
    built once per call.
    """
    zp = np.asarray(zp, dtype=complex).reshape(-1)
    direction, vtilde = deformation(emb, chart, var)
    v0 = vtilde.value_vector(zp)
    d_vtilde = _real_linear(vtilde.holo_jacobian_map().value(zp),
                            vtilde.anti_jacobian_map().value(zp))
    j_0 = induced_jf_quotient(emb, chart, zp, tol)
    quotients = []
    for t in steps:
        emb_t = GraphEmbedding(emb.n, emb.big_n, emb.g + direction.scale(t),
                               base=emb.base)
        dphi = np.eye(2 * emb.n) + t * d_vtilde
        # quotient route only: the moved point is not normalized for the chart
        j_moved = induced_jf_quotient(emb_t, chart, zp + t * v0, tol)
        j_t = np.linalg.solve(dphi, j_moved @ dphi)
        quotients.append((j_t - j_0) / t)
    return quotients


# ---------------------------------------------------------------------------
# Nijenhuis tensor through the torsion
# ---------------------------------------------------------------------------

def nijenhuis_torsion_map(emb: GraphEmbedding, chart: DistributionChart, zp,
                          tol: Tolerances = DEFAULT):
    """The map (zeta_r, eta_r) -> N_{J_f}(zeta, eta) at one point zp.

    J_f, dbar f in fiber coordinates and theta depend on zp only, so
    they are built here once on one GraphPoint, whose joint matrix the
    J_f solve and every pair share. Each call is one torsion contraction
    and one solve: the operations of pullback_quotient(4 theta(dbar f .
    zeta, dbar f . eta)), in its order, so the result is bitwise the same.
    """
    pt = GraphPoint(emb, chart, zp, tol)
    etas, _ = pt.fiber_coords(pt.dbar_f(pt.jf()))
    theta = pt.torsion()

    def nijenhuis(zeta_r, eta_r) -> np.ndarray:
        eta_1 = etas @ np.asarray(zeta_r, dtype=float).reshape(-1)
        eta_2 = etas @ np.asarray(eta_r, dtype=float).reshape(-1)
        return pt.pullback(4.0 * theta.apply(eta_1, eta_2))

    return nijenhuis


def nijenhuis_via_torsion(emb: GraphEmbedding, chart: DistributionChart, zp,
                          zeta_r: np.ndarray, eta_r: np.ndarray,
                          tol: Tolerances = DEFAULT) -> np.ndarray:
    """N_{J_f}(zeta, eta) = 4 theta(dbar f . zeta, dbar f . eta), pulled
    back to the chart; realified 2n-vector."""
    return nijenhuis_torsion_map(emb, chart, zp, tol)(zeta_r, eta_r)
