"""Overlap and exchange conditions for LVMB index families.

The LP route for the overlap condition is cross-checked against an exact
2-D polygon oracle on every m = 1 instance here, including 20 seeded
random families.
"""
import numpy as np
import pytest

from acs_verify.errors import DegenerateHull, Infeasible, InvalidParams
from acs_verify.lvmb import (
    LvmbData,
    check_condition_i,
    check_condition_i_polygon,
    check_condition_ii,
    convex_hull_2d,
    exchange_closure,
    hull_overlap_lp,
    killing_fields,
    polygon_area,
    polygon_overlap_oracle,
    simplex_solve,
)
from acs_verify.rng import SplitMix64


def data_m1(ell, family, big_n=None):
    ell = [[complex(v)] for v in ell]
    if big_n is None:
        big_n = len(ell) - 1
    return LvmbData(1, big_n, family, ell)


# ---------------------------------------------------------------------------
# data validation
# ---------------------------------------------------------------------------

def test_lvmb_data_validation():
    with pytest.raises(InvalidParams):
        LvmbData(0, 2, [[0, 1, 2]], [[0], [1], [2]])
    with pytest.raises(InvalidParams):
        LvmbData(1, 1, [[0, 1]], [[0], [1]])
    with pytest.raises(InvalidParams):
        data_m1([0, 1, 1j], [])
    with pytest.raises(InvalidParams):
        data_m1([0, 1, 1j], [[0, 1]])
    with pytest.raises(InvalidParams):
        data_m1([0, 1, 1j], [[0, 1, 3]])
    with pytest.raises(InvalidParams):
        LvmbData(1, 2, [[0, 1, 2]], [[0], [1]])


def test_lvmb_data_canonicalizes_family():
    d = data_m1([0, 1, 1j, 1 + 1j], [[3, 1, 2], [2, 1, 0], [0, 1, 2]])
    assert d.family == ((0, 1, 2), (1, 2, 3))


def test_lvmb_json_roundtrip():
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])
    back = LvmbData.from_json_dict(d.to_json_dict())
    assert back.family == d.family
    assert np.array_equal(back.ell, d.ell)


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

def test_simplex_small_known_optimum():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    x, value = simplex_solve(c, a, b)
    assert abs(value + 4.0) < 1e-12
    assert np.max(np.abs(a @ x - b)) < 1e-12


def test_simplex_detects_infeasible():
    # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 3.0])
    with pytest.raises(Infeasible):
        simplex_solve(c, a, b)


def test_simplex_unbounded_program_is_an_error_but_not_infeasible():
    # min -x  s.t.  x - y = 0: feasible, and x grows without bound
    with pytest.raises(InvalidParams) as raised:
        simplex_solve(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert not isinstance(raised.value, Infeasible)


def test_simplex_agrees_with_scipy_on_random_programs():
    from scipy.optimize import linprog

    rng = SplitMix64(31)
    hits = 0
    while hits < 10:
        rows = rng.integer(2, 3)
        cols = rows + rng.integer(2, 4)
        a = rng.real_matrix(rows, cols, 1.0)
        x_feas = np.abs(rng.reals(cols)) + 0.1
        b = a @ x_feas  # guarantees feasibility
        c = rng.reals(cols)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if not ref.success:
            continue  # unbounded draw; irrelevant here
        x, value = simplex_solve(c, a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-9
        assert abs(value - ref.fun) < 1e-8
        hits += 1


# ---------------------------------------------------------------------------
# condition (i)
# ---------------------------------------------------------------------------

def test_condition_i_single_set_passes_via_self_pair():
    d = data_m1([0, 1, 1j], [[0, 1, 2]], big_n=2)
    rep = check_condition_i(d)
    assert rep["ok"]
    assert len(rep["pairs"]) == 1
    assert rep["pairs"][0]["margin"] > 0.01


def test_condition_i_edge_sharing_hulls_fail():
    # hull{0,1,i} and hull{1,i,1+i} meet exactly in the segment x+y=1
    d = data_m1([0, 1, 1j, 1 + 1j], [[0, 1, 2], [1, 2, 3]])
    rep = check_condition_i(d)
    assert not rep["ok"]
    cross = [p for p in rep["pairs"] if p["j1"] != p["j2"]][0]
    assert not cross["overlap"]
    poly = check_condition_i_polygon(d)
    assert not poly["ok"]


def test_condition_i_disjoint_hulls_fail_without_witness():
    far = 10 + 10j
    d = data_m1([0, 1, 1j, far, far + 1, far + 1j], [[0, 1, 2], [3, 4, 5]], big_n=5)
    rep = check_condition_i(d)
    assert not rep["ok"]
    cross = [p for p in rep["pairs"] if p["j1"] != p["j2"]]
    assert cross == [{"j1": [0, 1, 2], "j2": [3, 4, 5], "overlap": False,
                      "margin": None, "witness": None, "degenerate": False,
                      "note": "hulls are disjoint"}]
    assert [p["overlap"] for p in check_condition_i_polygon(d)["pairs"]] == [
        p["overlap"] for p in rep["pairs"]]


def test_condition_i_overlapping_variant_passes():
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])
    rep = check_condition_i(d)
    assert rep["ok"]
    cross = [p for p in rep["pairs"] if p["j1"] != p["j2"]][0]
    assert cross["overlap"] and cross["margin"] >= 1e-9
    w = np.array(cross["witness"])
    for group in d.family:
        ok, area = polygon_overlap_oracle(d.hull_points(group), d.hull_points(group))
        assert ok and area > 0.0
    # witness lies strictly inside both triangles
    assert w[0] > 0 and w[1] > 0 and w[0] + w[1] < 1.0


def test_condition_i_degenerate_hull_flagged():
    d = data_m1([0, 1, 2, 5], [[0, 1, 2]], big_n=3)  # collinear forms
    rep = check_condition_i(d)
    assert not rep["ok"]
    assert rep["pairs"][0]["degenerate"]
    with pytest.raises(DegenerateHull):
        polygon_overlap_oracle(d.hull_points((0, 1, 2)), d.hull_points((0, 1, 2)))


def test_condition_i_lp_agrees_with_polygon_oracle_random():
    rng = SplitMix64(23)
    for _ in range(20):
        n_sets = rng.integer(1, 3)
        big_n = 2 + rng.integer(0, 3)
        forms = rng.complex_matrix(big_n + 1, 1, 1.0)[:, 0]
        family = []
        for _ in range(n_sets):
            idx = []
            while len(idx) < 3:
                cand = rng.integer(0, big_n)
                if cand not in idx:
                    idx.append(cand)
            family.append(idx)
        d = data_m1(list(forms), family, big_n=big_n)
        lp = check_condition_i(d)
        poly = check_condition_i_polygon(d)
        assert lp["ok"] == poly["ok"]
        for a, b in zip(lp["pairs"], poly["pairs"]):
            assert a["overlap"] == b["overlap"], (a, b)


def test_hull_overlap_lp_witness_is_common_point():
    p1 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    p2 = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    ok, eps, witness = hull_overlap_lp(p1, p2)
    assert ok and eps > 0.01
    # witness must be expressible as interior combinations of both
    for pts in (p1, p2):
        hull = convex_hull_2d(pts)
        assert polygon_area(hull) > 0
        # all hull edges keep the witness strictly on the inner side
        m = hull.shape[0]
        for i in range(m):
            a, b = hull[i], hull[(i + 1) % m]
            cross = (b[0] - a[0]) * (witness[1] - a[1]) - (b[1] - a[1]) * (witness[0] - a[0])
            assert cross > 1e-9


# ---------------------------------------------------------------------------
# condition (ii)
# ---------------------------------------------------------------------------

def test_condition_ii_all_indices_inside():
    d = data_m1([0, 1, 1j], [[0, 1, 2]], big_n=2)
    rep = check_condition_ii(d)
    assert rep["ok"] and rep["counterexample"] is None


def test_condition_ii_missing_exchange_reported():
    d = data_m1([0, 1, 1j, 1 + 1j], [[0, 1, 2]], big_n=3)
    rep = check_condition_ii(d)
    assert not rep["ok"]
    assert rep["counterexample"] == {"J": [0, 1, 2], "k": 3}


def test_condition_ii_closure_always_passes():
    d = data_m1([0, 1, 1j, 1 + 1j, 2], [[0, 1, 2]], big_n=4)
    closed = exchange_closure(d)
    assert check_condition_ii(closed)["ok"]
    assert len(closed.family) == 10  # all 3-subsets of {0..4}


def test_condition_ii_union_of_passing_families_passes():
    rng = SplitMix64(29)
    ell = list(rng.complex_matrix(6, 1, 1.0)[:, 0])
    for _ in range(5):
        seed1 = [sorted({rng.integer(0, 5), rng.integer(0, 5), rng.integer(0, 5)})]
        seed2 = [sorted({rng.integer(0, 5), rng.integer(0, 5), rng.integer(0, 5)})]
        fams = []
        for seed in (seed1, seed2):
            if len(seed[0]) != 3:
                continue
            fams.append(exchange_closure(data_m1(ell, seed, big_n=5)).family)
        if len(fams) != 2:
            continue
        merged = data_m1(ell, [list(g) for f in fams for g in f], big_n=5)
        assert check_condition_ii(merged)["ok"]


def test_condition_ii_not_monotone_under_arbitrary_additions():
    # a passing family can be broken by adding one set whose own exchange
    # demands are unmet, so "enlarging preserves truth" would be wrong
    ell = [0, 1, 1j, 1 + 1j, 2]
    star = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    d = data_m1(ell, star, big_n=4)
    assert check_condition_ii(d)["ok"]
    enlarged = data_m1(ell, star + [[2, 3, 4]], big_n=4)
    rep = check_condition_ii(enlarged)
    assert not rep["ok"]
    assert rep["counterexample"]["J"] == [2, 3, 4]


# ---------------------------------------------------------------------------
# diagonal fields
# ---------------------------------------------------------------------------

def test_killing_field_coefficients_match_forms():
    ell = [[1 + 2j, 0.5j], [3.0, -1j], [0.25, 2.0], [1j, 1.0], [0.0, -2j]]
    d = LvmbData(2, 4, [[0, 1, 2, 3, 4]], ell)
    kf = killing_fields(d)
    assert kf.lam.shape == (2, 5)
    for k in range(5):
        for j in range(2):
            assert kf.lam[j, k] == complex(ell[k][j])


def test_killing_field_values_are_diagonal():
    d = data_m1([2.0, 1j, -1.0], [[0, 1, 2]], big_n=2)
    kf = killing_fields(d)
    z = np.array([1.0 + 1j, 2.0, -1j])
    assert np.allclose(kf.value(0, z), np.array([2.0 + 2j, 2j, 1j]), atol=1e-15)


def test_killing_field_brackets_vanish():
    rng = SplitMix64(23)
    ell = rng.complex_matrix(6, 2, 1.0)
    d = LvmbData(2, 5, [[0, 1, 2, 3, 4]], ell)
    kf = killing_fields(d)
    assert kf.bracket_exact(0, 1) == 0.0
    worst = 0.0
    for _ in range(5):
        z = rng.complex_matrix(6, 1, 1.0)[:, 0]
        worst = max(worst, float(np.max(np.abs(kf.bracket_fd(0, 1, z)))))
    assert worst <= 1e-8
