"""Combinatorial admissibility checks for LVMB data.

The input is a family E of index sets of size 2m+1 drawn from {0..N}
together with N+1 complex linear forms on C^m. Two conditions are
decided: (i) for any two members of E the convex hulls of their forms,
viewed as point sets in R^{2m}, overlap on a nonempty open set; (ii) the
family is stable under single-index exchanges.

Each member of E is a simplex (2m+1 points in R^{2m}); condition (i)
reads the family as one stack of them, (|E|, 2m+1, 2m), put in one
frame (divided by its largest |coordinate|, centred on its mean point),
so that its verdicts do not depend on the scale or position of the
forms. It classifies every set as full-dimensional or not by one
batched SVD and goes over the pairs by index into that stack. For LVM
data the members are exactly the simplices that hold one point in their
interior (Meersseman 2000, Bosio 2001). So condition (i) proposes one
common interior point, by one small dual LP, and certifies it set by set
from its barycentric weights; the report records the point once with
each certified set's least weight, which covers every pair of certified
sets, so its size grows with |E|, not |E|^2. Each pair it does not cover
gets the same program on its own two simplices: the best common point
of the pair, whose least barycentric weight is the pair's margin
(negative when the hulls are apart). For full-dimensional hulls a
positive margin is equivalent to interior intersection. The LP goes to
an in-house dense two-phase simplex, which checks its own answer. The
2-D case has an independent exact-geometry oracle (convex hull, polygon
clipping, shoelace area) in a frame of its own, used to cross-check the
LP. Condition (ii) reads the family as a set of frozensets.
"""
from __future__ import annotations

import itertools

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DegenerateHull, Infeasible, InvalidParams, LPFailure

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
        try:
            ell = np.asarray(ell, dtype=complex)
        except ValueError:  # ragged rows
            ell = None
        if ell is None or ell.shape != (self.big_n + 1, self.m):
            raise InvalidParams(f"ell must supply {self.big_n + 1} forms with {self.m} coefficients each")
        if not np.isfinite(ell).all():
            raise InvalidParams("every coefficient of ell must be finite")
        self.ell = ell

    def hull_points(self, groups) -> np.ndarray:
        """Forms of one index set as rows of real 2m-vectors (Re, Im); of a
        list of index sets, their stack, one (2m+1) x 2m block per set."""
        pts = self.ell[list(groups), :]
        return np.concatenate([pts.real, pts.imag], axis=-1)

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

def _eliminate(tab: np.ndarray, basis: list, leave: int, enter: int) -> None:
    """Pivot the tableau in place on (leave, enter): scale the leaving
    row, then clear the entering column of every other row.

    All rows are cleared with one broadcast product and the leaving row
    is then put back, so every other row gets exactly the row-by-row
    update tab[i] -= tab[i, enter] * tab[leave], and the leaving row keeps
    its -0.0 entries, which x - 0 * x would turn into 0.0.
    """
    tab[leave] /= tab[leave, enter]
    row = tab[leave].copy()
    tab -= tab[:, enter, None] * row
    tab[leave] = row
    basis[leave] = enter


def _residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |A x - b| of each of a stack of systems (the last axes)."""
    return np.abs(np.einsum("...ij,...j->...i", a, x) - b).max(axis=-1, initial=0.0)


def _checks_out(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x is finite and A x - b is at most 1e-9 (1 + max|A| max(1, max|x|)
    + max|b|), for each of a stack of systems."""
    scale = (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
             * np.maximum(1.0, np.abs(x).max(axis=-1, initial=0.0))
             + np.abs(b).max(axis=-1, initial=0.0))
    return np.isfinite(x).all(axis=-1) & (_residual(a, x, b) <= 1e-9 * scale)


def simplex_solve(c, a, b, tol: float = 1e-11):
    """Bland-rule two-phase simplex for small dense problems.

    Returns (x, value, u), u the multipliers of the final basis B:
    B^T u = c_B, so u is an optimum of the dual program, max b.u s.t.
    A^T u <= c. Raises Infeasible when no x satisfies the constraints and
    InvalidParams when the objective is unbounded; the caller never
    builds unbounded programs (common_point's lives on the simplex
    sum lam = 1). Raises LPFailure when the answer fails its own check:
    an entry of x below -tol, or A x - b off by more than 1e-9 (1 +
    max|A| max(1, max|x|) + max|b|) in some row.
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

    # Pivot choice reads the tableau as Python floats, one .tolist() per
    # row or column: IEEE division and comparison give the same choices
    # as numpy scalars, without a numpy scalar read per entry.
    def pivot(limit):
        while True:
            basic = set(basis)
            enter = -1
            for j, reduced in enumerate(tab[rows, :limit].tolist()):
                if reduced < -tol and j not in basic:
                    enter = j
                    break
            if enter < 0:
                return
            column = tab[:rows, enter].tolist()
            rhs = tab[:rows, -1].tolist()
            ratios = [
                (rhs[i] / column[i], basis[i], i)
                for i in range(rows)
                if column[i] > tol
            ]
            if not ratios:
                raise InvalidParams("linear program is unbounded")
            _, _, leave = min(ratios)
            _eliminate(tab, basis, leave, enter)

    pivot(cols + rows)
    if tab[rows, -1] < -1e3 * tol:
        raise Infeasible("linear program is infeasible")

    # drive leftover artificials out of the basis where possible
    for i in range(rows):
        if basis[i] >= cols:
            for j, entry in enumerate(tab[i, :cols].tolist()):
                if abs(entry) > tol:
                    _eliminate(tab, basis, i, j)
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
    if x.min(initial=0.0) < -tol or not _checks_out(a, x, b):
        raise LPFailure(f"simplex answer fails its check (min x {x.min(initial=0.0):.3g}, "
                        f"residual {float(_residual(a, x, b)):.3g})")
    # a basic artificial has column e_i and cost 0; a flipped row flips u_i
    u = np.linalg.solve(np.hstack([a, np.eye(rows)])[:, basis].T,
                        np.append(c, np.zeros(rows))[basis])
    return x, float(c @ x), np.where(flip, -u, u)


# ---------------------------------------------------------------------------
# condition (i): open overlap of convex hulls
# ---------------------------------------------------------------------------

def _vertex_matrices(simplices: np.ndarray) -> np.ndarray:
    """B_P = [P^T; 1^T] for each simplex P (rows of a K x (d+1) x d stack),
    so that B_P w = [y; 1] says w are the barycentric weights of y."""
    k, size, _ = simplices.shape
    return np.concatenate([simplices.transpose(0, 2, 1), np.ones((k, 1, size))], axis=1)


def common_point(simplices: np.ndarray) -> np.ndarray | None:
    """A point proposed inside every simplex of the stack: the optimum y of
    max eps s.t. w_P(y) = G_P y + h_P >= eps for every P, [G_P | h_P] =
    B_P^-1. That program has a row per vertex of every simplex; its dual,
    min h.lam s.t. lam >= 0, sum lam = 1, G^T lam = 0, has d + 1 rows,
    and the simplex multipliers u of its optimal basis are [eps; -y], a
    vertex of the optimal set: the tight rows alone (lam > 0) do not fix
    y where that set is more than a point. None when a solve fails; the
    caller certifies the point itself."""
    dim = simplices.shape[2]
    try:
        inverse = np.linalg.inv(_vertex_matrices(simplices))
        g = inverse[:, :, :dim].reshape(-1, dim)
        h = inverse[:, :, dim].reshape(-1)
        _, _, u = simplex_solve(h, np.vstack([np.ones(h.size), g.T]), np.eye(dim + 1)[0])
    except (np.linalg.LinAlgError, Infeasible, LPFailure):
        return None
    return -u[1:]


def barycentric_margins(simplices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least barycentric weight of y in each simplex, by one batched solve;
    -inf where the weights do not check out (see _checks_out)."""
    mats = _vertex_matrices(simplices)
    target = np.append(y, 1.0)
    weights = np.linalg.solve(mats, np.broadcast_to(target, mats.shape[:2])[..., None])[..., 0]
    return np.where(_checks_out(mats, weights, target), weights.min(axis=1), -np.inf)


def _over_pairs(data: LvmbData, verdict, degenerate: dict, covered=frozenset()) -> dict:
    """Condition (i) over all unordered pairs from E, self-pairs included
    (a set must overlap itself, which is exactly the requirement that its
    hull has nonempty interior), in one fixed order so two routes can be
    compared entrywise. verdict(i1, i2) gives the fields of the pair of
    sets i1 <= i2 (indices into E and into its stack of hull points); a
    DegenerateHull it raises is recorded with the degenerate fields and
    counts as failure. A pair of two indices in covered is known to
    overlap and is left out of the list."""
    pairs = []
    for i1, i2 in itertools.combinations_with_replacement(range(len(data.family)), 2):
        if i1 in covered and i2 in covered:
            continue
        entry = {"j1": list(data.family[i1]), "j2": list(data.family[i2]), "degenerate": False}
        try:
            entry.update(verdict(i1, i2))
        except DegenerateHull as exc:
            entry.update(degenerate, overlap=False, degenerate=True, note=str(exc))
        pairs.append(entry)
    return {"ok": all(entry["overlap"] for entry in pairs), "pairs": pairs}


def check_condition_i(data: LvmbData, tol: Tolerances = DEFAULT) -> dict:
    """Open-overlap condition: {"ok", "pairs", "common_point"}.

    The sets' points are stacked once per call and put in one frame:
    divided by their largest |coordinate| (unless all are zero), then
    centred on their mean point. Barycentric weights, and so the
    verdicts, do not change under that map; points are reported in the
    input's coordinates. One batched SVD of the centred simplices decides
    which sets are full-dimensional: a set is degenerate when its least
    singular value is at most max(rank_rtol * its largest, alg_atol).
    The common_point y of the full-dimensional sets certifies each set in
    which its every barycentric weight is at least MARGIN; "common_point"
    is {"point": y, "sets": [{"j": J, "margin": eps_J}, ...]}, the
    certified sets in family order with y's least weight in each, or None
    when no set is certified. A pair of two certified sets overlaps with
    margin min(eps_J1, eps_J2) and witness y, a certified lower bound on
    the pair's best margin. Such pairs are not listed; "pairs" holds every
    other pair, in the order of _over_pairs. A degenerate set fails each
    of its pairs with its message, g1 before g2, and margin 0. Every
    other pair takes the common point of its own two simplices: its
    margin is that point's least weight in the two (negative when the
    hulls are apart), and it overlaps, with that point as witness, when
    the margin is at least MARGIN. A pair whose program or weights fail
    their check fails with margin None.
    """
    points = data.hull_points(data.family)
    scale = np.abs(points).max() or 1.0
    points = points / scale
    centre = points.reshape(-1, points.shape[-1]).mean(axis=0)
    points = points - centre
    sv = np.linalg.svd(points - points.mean(axis=1, keepdims=True), compute_uv=False)
    # not "sv > cutoff": a NaN singular value leaves its set full-dimensional
    solid = ~(sv[:, -1] <= np.maximum(tol.rank_rtol * sv[:, 0], tol.alg_atol))

    def certify(simplices):
        """(y in input coordinates, y's least weight per simplex), or
        (None, None) when the program fails."""
        y = common_point(simplices)
        if y is None:
            return None, None
        return [float(v) for v in (y + centre) * scale], barycentric_margins(simplices, y).tolist()

    margins, certified = {}, None
    if solid.any():
        point, eps = certify(points[solid])
        if point is not None:
            margins = {i: e for i, e in zip(np.flatnonzero(solid).tolist(), eps) if e >= MARGIN}
            if margins:
                certified = {"point": point,
                             "sets": [{"j": list(data.family[i]), "margin": e}
                                      for i, e in margins.items()]}

    def verdict(i1, i2) -> dict:
        for i in (i1, i2):
            if not solid[i]:
                raise DegenerateHull(f"hull of {list(data.family[i])} has empty interior")
        point, eps = certify(points[[i1, i2]])
        if point is None or -np.inf in eps:
            return {"overlap": False, "margin": None, "witness": None,
                    "note": "linear program failed"}
        overlap = min(eps) >= MARGIN
        return {"overlap": overlap, "margin": min(eps), "witness": point if overlap else None}

    rep = _over_pairs(data, verdict, {"margin": 0.0, "witness": None}, margins)
    rep["common_point"] = certified
    return rep


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
    clipped intersection has area above area_tol times the smaller hull's
    area."""
    if p1.shape[1] != 2 or p2.shape[1] != 2:
        raise InvalidParams("polygon oracle only covers m = 1")
    h1 = convex_hull_2d(p1)
    h2 = convex_hull_2d(p2)
    if h1.shape[0] < 3 or h2.shape[0] < 3:
        raise DegenerateHull("hull has empty interior")
    area = polygon_area(clip_convex(h1, h2))
    return area > area_tol * min(polygon_area(h1), polygon_area(h2)), area


def check_condition_i_polygon(data: LvmbData) -> dict:
    """Condition (i) by the 2-D oracle; m = 1 only. Same pairs, in the
    same order, as the LP route; degenerate hulls fail with area 0. The
    points are first scaled by the power of two that brings their largest
    |coordinate| into [1/2, 1), which is exact, and the areas are those
    of the scaled points."""
    if data.m != 1:
        raise InvalidParams("polygon oracle only covers m = 1")

    points = data.hull_points(data.family)
    _, exponent = np.frexp(np.abs(points).max())
    points = np.ldexp(points, -exponent)

    def verdict(i1, i2) -> dict:
        overlap, area = polygon_overlap_oracle(points[i1], points[i2])
        return {"overlap": overlap, "area": area}

    return _over_pairs(data, verdict, {"area": 0.0})


# ---------------------------------------------------------------------------
# condition (ii): exchange stability
# ---------------------------------------------------------------------------

def check_condition_ii(data: LvmbData) -> dict:
    """For every J in E and every index k, some k' in J must make the
    exchanged set (J - k') + k a member of E; k inside J is witnessed by
    k' = k. Brute force, first violation reported."""
    members = {frozenset(group) for group in data.family}
    for group in data.family:
        gset = frozenset(group)
        for k in range(data.big_n + 1):
            if k in gset:
                continue
            if not any(gset - {kp} | {k} in members for kp in group):
                return {"ok": False, "counterexample": {"J": list(group), "k": k}}
    return {"ok": True, "counterexample": None}


def exchange_closure(data: LvmbData) -> LvmbData:
    """Smallest family containing E and closed under all single-index
    exchanges; the exchange condition holds on the closure by
    construction."""
    members = {frozenset(group) for group in data.family}
    frontier = list(members)
    while frontier:
        gset = frontier.pop()
        for k in range(data.big_n + 1):
            if k in gset:
                continue
            for kp in gset:
                swapped = gset - {kp} | {k}
                if swapped not in members:
                    members.add(swapped)
                    frontier.append(swapped)
    return LvmbData(data.m, data.big_n, members, data.ell)
