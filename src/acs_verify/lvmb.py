"""Combinatorial admissibility checks for LVMB data.

The input is a family E of index sets of size 2m+1 drawn from {0..N}
together with N+1 complex linear forms on C^m. Two conditions are
decided: (i) for any two members of E the convex hulls of their forms,
viewed as point sets in R^{2m}, overlap on a nonempty open set; (ii) the
family is stable under single-index exchanges. The diagonal holomorphic
vector fields built from the form coefficients are also assembled, with
their pairwise commutators certified both exactly and by finite
differences.

Condition (i) is decided by an in-house dense two-phase simplex: maximize
the margin eps subject to a common point being a convex combination of
each hull's vertices with all weights >= eps. For full-dimensional hulls
a positive optimal margin is equivalent to interior intersection. The
2-D case has an independent exact-geometry oracle (convex hull, polygon
clipping, shoelace area) used to cross-check the LP.
"""
from __future__ import annotations

import itertools

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DegenerateHull, Infeasible, InvalidParams

MARGIN = 1e-9


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

class LvmbData:
    """Validated family (m, N, E, ell).

    E is stored as a sorted tuple of sorted index tuples; ell as a complex
    (N+1) x m array, one row of coefficients per linear form.
    """

    def __init__(self, m: int, big_n: int, family, ell):
        self.m = int(m)
        self.big_n = int(big_n)
        if self.m < 1:
            raise InvalidParams("m must be positive")
        if self.big_n < 2 * self.m:
            raise InvalidParams("N must be at least 2m")
        sets = sorted({tuple(sorted(int(i) for i in group)) for group in family})
        if not sets:
            raise InvalidParams("E must be nonempty")
        size = 2 * self.m + 1
        for group in sets:
            if len(group) != size or len(set(group)) != size:
                raise InvalidParams(f"every member of E must have {size} distinct indices")
            if group[0] < 0 or group[-1] > self.big_n:
                raise InvalidParams(f"indices must lie in 0..{self.big_n}")
        self.family = tuple(sets)
        ell = np.asarray(ell, dtype=complex)
        if ell.shape != (self.big_n + 1, self.m):
            raise InvalidParams(f"ell must supply {self.big_n + 1} forms with {self.m} coefficients each")
        self.ell = ell

    def hull_points(self, group) -> np.ndarray:
        """Forms of one index set as rows of real 2m-vectors (Re, Im)."""
        pts = self.ell[list(group), :]
        return np.concatenate([pts.real, pts.imag], axis=1)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "N": self.big_n,
            "E": [list(group) for group in self.family],
            "ell": [[[float(c.real), float(c.imag)] for c in row] for row in self.ell],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LvmbData":
        ell = [
            [complex(pair[0], pair[1]) for pair in row]
            for row in data["ell"]
        ]
        return cls(data["m"], data["N"], data["E"], ell)


# ---------------------------------------------------------------------------
# dense two-phase simplex (min c.x, A x = b, x >= 0)
# ---------------------------------------------------------------------------

def simplex_solve(c, a, b, tol: float = 1e-11):
    """Bland-rule two-phase simplex for small dense problems.

    Returns (x, value). Raises Infeasible when no x satisfies the
    constraints and InvalidParams when the objective is unbounded; the
    callers never build unbounded programs (the margin variable is boxed
    by the convexity rows).
    """
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
            tab[leave] /= tab[leave, enter]
            for i in range(rows + 1):
                if i != leave:
                    tab[i] -= tab[i, enter] * tab[leave]
            basis[leave] = enter

    pivot(cols + rows)
    if tab[rows, -1] < -1e3 * tol:
        raise Infeasible("linear program is infeasible")

    # drive leftover artificials out of the basis where possible
    for i in range(rows):
        if basis[i] >= cols:
            for j in range(cols):
                if abs(tab[i, j]) > tol:
                    tab[i] /= tab[i, j]
                    for r in range(rows + 1):
                        if r != i:
                            tab[r] -= tab[r, j] * tab[i]
                    basis[i] = j
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


# ---------------------------------------------------------------------------
# condition (i): open overlap of convex hulls
# ---------------------------------------------------------------------------

def _require_full_dimensional(points: np.ndarray, group, tol: Tolerances) -> None:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    dim = points.shape[1]
    if sv.size < dim or sv[dim - 1] <= max(tol.rank_rtol * sv[0], tol.alg_atol):
        raise DegenerateHull(f"hull of {list(group)} has empty interior")


def hull_overlap_lp(p1: np.ndarray, p2: np.ndarray
                    ) -> tuple[bool, float | None, np.ndarray | None]:
    """Maximize eps with sum_i w_i p_i = sum_j v_j q_j, weights >= eps,
    each block summing to 1. Positive optimum certifies open overlap for
    full-dimensional hulls; the witness is the common point. The program
    is infeasible exactly when the closed hulls share no point; the
    margin is then None."""
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
        x, value = simplex_solve(c, a, b)
    except Infeasible:
        return False, None, None
    eps = -value
    if eps < MARGIN:
        return False, eps, None
    weights = x[0] + x[1:1 + n1]
    witness = weights @ p1
    return True, eps, witness


def check_condition_i(data: LvmbData, tol: Tolerances = DEFAULT) -> dict:
    """Open-overlap condition over all unordered pairs from E, self-pairs
    included (a set must overlap itself, which is exactly the requirement
    that its hull has nonempty interior). Degenerate hulls are recorded
    and count as failure, and so do disjoint hulls (margin None, note
    "hulls are disjoint")."""
    pairs = []
    ok = True
    for i1, i2 in itertools.combinations_with_replacement(range(len(data.family)), 2):
        g1, g2 = data.family[i1], data.family[i2]
        entry = {"j1": list(g1), "j2": list(g2)}
        try:
            p1 = data.hull_points(g1)
            p2 = data.hull_points(g2)
            _require_full_dimensional(p1, g1, tol)
            _require_full_dimensional(p2, g2, tol)
            overlap, eps, witness = hull_overlap_lp(p1, p2)
            entry["overlap"] = overlap
            entry["margin"] = eps
            entry["witness"] = None if witness is None else [float(v) for v in witness]
            entry["degenerate"] = False
            if eps is None:
                entry["note"] = "hulls are disjoint"
        except DegenerateHull as exc:
            entry["overlap"] = False
            entry["margin"] = 0.0
            entry["witness"] = None
            entry["degenerate"] = True
            entry["note"] = str(exc)
        ok = ok and entry["overlap"]
        pairs.append(entry)
    return {"ok": ok, "pairs": pairs}


# ---------------------------------------------------------------------------
# exact 2-D polygon oracle
# ---------------------------------------------------------------------------

def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, counterclockwise, no repeated endpoint."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 3:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of one counterclockwise polygon by another."""
    output = [tuple(p) for p in subject]
    m = clip.shape[0]
    for i in range(m):
        a = clip[i]
        b = clip[(i + 1) % m]
        if not output:
            return np.zeros((0, 2))
        polygon = output
        output = []

        def inside(p):
            return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0.0

        def intersection(p, q):
            d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            d2 = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            t = d1 / (d1 - d2)
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

        for j, p in enumerate(polygon):
            q = polygon[(j + 1) % len(polygon)]
            if inside(p):
                output.append(p)
                if not inside(q):
                    output.append(intersection(p, q))
            elif inside(q):
                output.append(intersection(p, q))
    return np.asarray(output, dtype=float)


def polygon_area(polygon: np.ndarray) -> float:
    if polygon.shape[0] < 3:
        return 0.0
    x = polygon[:, 0]
    y = polygon[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def polygon_overlap_oracle(p1: np.ndarray, p2: np.ndarray,
                           area_tol: float = 1e-12) -> tuple[bool, float]:
    """Exact-geometry verdict for dim 2: hulls overlap openly iff the
    clipped intersection has positive area."""
    if p1.shape[1] != 2 or p2.shape[1] != 2:
        raise InvalidParams("polygon oracle only covers m = 1")
    h1 = convex_hull_2d(p1)
    h2 = convex_hull_2d(p2)
    if h1.shape[0] < 3 or h2.shape[0] < 3:
        raise DegenerateHull("hull has empty interior")
    area = polygon_area(clip_convex(h1, h2))
    return area > area_tol, area


def check_condition_i_polygon(data: LvmbData) -> dict:
    """Condition (i) by the 2-D oracle; m = 1 only. Same pair order as the
    LP route so reports can be compared entrywise."""
    if data.m != 1:
        raise InvalidParams("polygon oracle only covers m = 1")
    pairs = []
    ok = True
    for i1, i2 in itertools.combinations_with_replacement(range(len(data.family)), 2):
        g1, g2 = data.family[i1], data.family[i2]
        entry = {"j1": list(g1), "j2": list(g2)}
        try:
            overlap, area = polygon_overlap_oracle(
                data.hull_points(g1), data.hull_points(g2)
            )
            entry["overlap"] = overlap
            entry["area"] = area
            entry["degenerate"] = False
        except DegenerateHull as exc:
            entry["overlap"] = False
            entry["area"] = 0.0
            entry["degenerate"] = True
            entry["note"] = str(exc)
        ok = ok and entry["overlap"]
        pairs.append(entry)
    return {"ok": ok, "pairs": pairs}


# ---------------------------------------------------------------------------
# condition (ii): exchange stability
# ---------------------------------------------------------------------------

def check_condition_ii(data: LvmbData) -> dict:
    """For every J in E and every index k, some k' in J must make the
    exchanged set (J - k') + k a member of E; k inside J is witnessed by
    k' = k. Brute force, first violation reported."""
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


def exchange_closure(data: LvmbData) -> LvmbData:
    """Smallest family containing E and closed under all single-index
    exchanges; the exchange condition holds on the closure by
    construction."""
    members = set(data.family)
    frontier = list(members)
    while frontier:
        group = frontier.pop()
        gset = set(group)
        for k in range(data.big_n + 1):
            if k in gset:
                continue
            for kp in group:
                swapped = tuple(sorted((gset - {kp}) | {k}))
                if swapped not in members:
                    members.add(swapped)
                    frontier.append(swapped)
    return LvmbData(data.m, data.big_n, sorted(members), data.ell)


# ---------------------------------------------------------------------------
# diagonal holomorphic vector fields
# ---------------------------------------------------------------------------

class KillingField:
    """The m commuting diagonal fields z -> (lam[j,0] z_0, ..., lam[j,N] z_N)."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.asarray(lam, dtype=complex)
        if self.lam.ndim != 2:
            raise InvalidParams("coefficient matrix must be 2-d")

    def value(self, j: int, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex).reshape(-1)
        return self.lam[j, :] * z

    def bracket_exact(self, j: int, l: int) -> float:
        """Commutator of two diagonal linear fields via their coefficient
        matrices; identically zero because diagonals commute."""
        a = np.diag(self.lam[j, :])
        b = np.diag(self.lam[l, :])
        return float(np.max(np.abs(a @ b - b @ a), initial=0.0))

    def bracket_fd(self, j: int, l: int, z, h: float = 1e-6) -> np.ndarray:
        """[V, W] = DW.V - DV.W by central differences on C^{N+1}; an
        independent check that never touches the diagonal shortcut. The
        fields are holomorphic, so one complex difference per coordinate
        direction captures the full jacobian."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        dim = z.shape[0]

        def jac_times(field_j, at, vec):
            out = np.zeros(dim, dtype=complex)
            for r in range(dim):
                step = np.zeros(dim, dtype=complex)
                step[r] = h
                out += vec[r] * (
                    self.value(field_j, at + step) - self.value(field_j, at - step)
                ) / (2.0 * h)
            return out

        vj = self.value(j, z)
        vl = self.value(l, z)
        return jac_times(l, z, vj) - jac_times(j, z, vl)


def killing_fields(data: LvmbData) -> KillingField:
    """Coefficient matrix lam[j, k] = d ell_k / d w_j, rows bitwise equal
    to the stored form coefficients."""
    return KillingField(data.ell.T.copy())
