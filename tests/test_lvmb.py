"""Overlap and exchange conditions for LVMB index families.

The LP route for the overlap condition is cross-checked against an exact
2-D polygon oracle on every m = 1 instance here, including 20 seeded
random families. The common-interior-point route is held to the
pairwise LP route, pair by pair, on seeded LVM-like families; a pair of
two sets that the common point certifies is not listed, so the tests
read its verdict through pair_overlaps.
"""
import itertools
import json
import os
from collections import Counter

import numpy as np
import pytest

from acs_verify import lvmb
from acs_verify.errors import DegenerateHull, Infeasible, InvalidParams, LPFailure
from acs_verify.lvmb import (
    MARGIN,
    LvmbData,
    _eliminate,
    check_condition_i,
    check_condition_i_polygon,
    check_condition_ii,
    convex_hull_2d,
    exchange_closure,
    polygon_area,
    polygon_overlap_oracle,
    simplex_solve,
)
from acs_verify.rng import SplitMix64
from oracles import (
    check_condition_ii_by_sorted_tuples,
    common_point_weights_program,
    full_dimensional_by_set,
    hull_overlap_lp,
    pair_overlaps,
    simplex_solve_loop,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


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


def test_lvmb_from_json_dict_reads_a_literal_document():
    doc = {"m": 1, "N": 3, "E": [[2, 1, 0], [1, 2, 3]],
           "ell": [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[0.25, -0.5]]]}
    d = LvmbData.from_json_dict(doc)
    assert (d.m, d.big_n) == (1, 3)
    assert d.family == ((0, 1, 2), (1, 2, 3))
    assert np.array_equal(d.ell, np.array([[0], [1], [1j], [0.25 - 0.5j]]))


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

def test_simplex_small_known_optimum():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    x, value, _ = simplex_solve(c, a, b)
    assert abs(value + 4.0) < 1e-12
    assert np.max(np.abs(a @ x - b)) < 1e-12


def eliminate_row_by_row(tab, leave, enter):
    tab[leave] /= tab[leave, enter]
    for i in range(tab.shape[0]):
        if i != leave:
            tab[i] -= tab[i, enter] * tab[leave]


def test_eliminate_matches_the_row_by_row_update_bitwise():
    rng = SplitMix64(61)
    for _ in range(300):
        rows, cols = rng.integer(2, 7), rng.integer(2, 9)
        tab = rng.real_matrix(rows, cols, 3.0)
        # exact and signed zeros, which the tableaus of common_point carry
        tab[tab > 2.0] = 0.0
        tab[tab < -2.0] = -0.0
        leave, enter = rng.integer(0, rows - 1), rng.integer(0, cols - 1)
        if tab[leave, enter] == 0.0:
            tab[leave, enter] = -0.75
        expected = tab.copy()
        eliminate_row_by_row(expected, leave, enter)
        basis = list(range(rows))
        _eliminate(tab, basis, leave, enter)
        assert tab.tobytes() == expected.tobytes()
        assert basis[leave] == enter


def test_simplex_pivot_leaves_the_leaving_row_bitwise_alone():
    # x0 = b0 = -0.0 stays basic from the first pivot on; the row-by-row
    # elimination never touches the pivot row, so the sign bit survives,
    # where subtracting 0 * row from it would give +0.0
    x, value, _ = simplex_solve([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-0.0, 1.0])
    assert x.tolist() == [0.0, 1.0] and value == 1.0
    assert np.signbit(x[0])


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
        x, value, u = simplex_solve(c, a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-9
        assert abs(value - ref.fun) < 1e-8
        # u is dual feasible and attains the optimum
        assert np.max(a.T @ u - c) < 1e-9 and abs(b @ u - value) < 1e-9
        hits += 1


def solver_outcome(solve, c, a, b):
    """x and value as bytes (signed zeros count), or the error class."""
    try:
        x, value = solve(c, a, b)[:2]
    except (Infeasible, InvalidParams) as exc:
        return type(exc)
    return x.tobytes(), np.float64(value).tobytes()


def random_family(rng, m, big_n, n_sets):
    forms = rng.complex_matrix(big_n + 1, m, 1.0)
    family = []
    for _ in range(n_sets):
        idx = set()
        while len(idx) < 2 * m + 1:
            idx.add(rng.integer(0, big_n))
        family.append(idx)
    return LvmbData(m, big_n, family, forms)


def overlap_programs(monkeypatch, point_pairs):
    """The (c, a, b) that common_point hands the simplex for the stack of
    two simplices of each pair, as check_condition_i does for a pair."""
    programs = []

    def record(c, a, b):
        programs.append((c.copy(), a.copy(), b.copy()))
        return simplex_solve(c, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(lvmb, "simplex_solve", record)
        for p1, p2 in point_pairs:
            lvmb.common_point(np.stack([p1, p2]))
    return programs


def test_simplex_matches_the_scalar_loop_oracle_bitwise(monkeypatch):
    rng = SplitMix64(47)
    point_pairs = []
    for m, big_n in ((1, 4), (1, 6), (2, 6), (2, 8)):
        for _ in range(3):
            d = random_family(rng, m, big_n, 4)
            point_pairs += [
                (d.hull_points(g1), d.hull_points(g2))
                for g1, g2 in itertools.combinations_with_replacement(d.family, 2)
            ]
    far = data_m1([0, 1, 1j, 10, 11, 10 + 1j], [[0, 1, 2], [3, 4, 5]], big_n=5)
    point_pairs.append((far.hull_points((0, 1, 2)), far.hull_points((3, 4, 5))))
    programs = overlap_programs(monkeypatch, point_pairs)
    # Bland's leaving rule breaks the ratio tie at 1.0 between row 0
    # (basic column 4) and row 2 (basic column 1) on the basis index; the
    # second program ties at 0 and returns a signed zero
    programs.append(([0.0, 1.0, 1.0, -1.0],
                     [[-1.0, 0.0, 2.0, 2.0], [1.0, 2.0, 1.0, 0.0], [0.0, 2.0, 1.0, -1.0]],
                     [2.0, 2.0, 1.0]))
    programs.append(([0.0, -1.0], [[-1.0, 0.0], [2.0, 1.0]], [0.0, 0.0]))
    for _ in range(200):
        rows = rng.integer(1, 4)
        cols = rows + rng.integer(0, 4)
        a = rng.real_matrix(rows, cols, 1.0)
        a[np.abs(a) < 0.3] = 0.0
        # half of them feasible by construction, the rest as drawn
        b = a @ np.abs(rng.reals(cols)) if rng.integer(0, 1) else rng.reals(rows)
        programs.append((rng.reals(cols), a, b))
    outcomes = []
    for c, a, b in programs:
        expected = solver_outcome(simplex_solve_loop, c, a, b)
        assert solver_outcome(simplex_solve, c, a, b) == expected, (c, a, b)
        outcomes.append(expected if isinstance(expected, type) else "solved")
    kinds = Counter(outcomes)
    assert kinds["solved"] >= 150 and kinds[Infeasible] >= 1 and kinds[InvalidParams] >= 1


def test_simplex_refuses_an_answer_that_fails_its_check():
    # benchmark lvmb generator, seed 83, the (m, N) = (1, 10) family: in
    # the weights form of its common-point program the pivots blow up and
    # the solver used to return x with entries near -1321 and a residual
    # near 2e3 (HiGHS: optimum -0.0720), without raising
    with open(os.path.join(DATA, "lvm_m1_N10_weights_form_unstable.json"),
              encoding="utf-8") as fh:
        d = LvmbData.from_json_dict(json.load(fh))
    assert (d.m, d.big_n, len(d.family)) == (1, 10, 55)
    c, a, b = common_point_weights_program(d)
    x, _ = simplex_solve_loop(c, a, b)
    assert x.min() < -1.0 and np.max(np.abs(a @ x - b)) > 1.0
    with pytest.raises(LPFailure):
        simplex_solve(c, a, b)
    # the dual form of the same family has one certified common point
    rep = check_condition_i(d)
    assert rep["ok"] and rep["pairs"] == []
    assert [s["j"] for s in rep["common_point"]["sets"]] == [list(g) for g in d.family]


def test_a_failed_lp_fails_its_pair_and_drops_the_common_point(monkeypatch):
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])

    def failing(c, a, b):
        raise LPFailure("simplex answer fails its check")

    monkeypatch.setattr(lvmb, "simplex_solve", failing)
    rep = check_condition_i(d)
    assert not rep["ok"] and rep["common_point"] is None
    assert [(p["overlap"], p["margin"], p["witness"], p["degenerate"], p["note"])
            for p in rep["pairs"]] == [(False, None, None, False, "linear program failed")] * 3


def test_weights_that_fail_their_check_read_as_a_failed_program(monkeypatch):
    # barycentric_margins gives -inf for weights that fail their check;
    # no set is certified on them, and no infinite margin reaches a pair
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])
    monkeypatch.setattr(lvmb, "barycentric_margins",
                        lambda simplices, y: np.full(len(simplices), -np.inf))
    rep = check_condition_i(d)
    assert not rep["ok"] and rep["common_point"] is None
    assert [(p["overlap"], p["margin"], p["witness"], p["note"]) for p in rep["pairs"]] == [
        (False, None, None, "linear program failed")] * 3
    json.dumps(rep, allow_nan=False)


# ---------------------------------------------------------------------------
# condition (i)
# ---------------------------------------------------------------------------

def test_condition_i_single_set_passes_via_self_pair():
    d = data_m1([0, 1, 1j], [[0, 1, 2]], big_n=2)
    rep = check_condition_i(d)
    assert rep["ok"] and rep["pairs"] == []
    [certified] = rep["common_point"]["sets"]
    assert certified["j"] == [0, 1, 2] and certified["margin"] > 0.01


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
    # the best common point, 19/3 + 19/3 i, has weight -19/3 in both
    assert cross == [{"j1": [0, 1, 2], "j2": [3, 4, 5], "overlap": False,
                      "margin": pytest.approx(-19.0 / 3.0, rel=1e-12), "witness": None,
                      "degenerate": False}]
    assert [p["overlap"] for p in check_condition_i_polygon(d)["pairs"]] == [
        p["overlap"] for p in rep["pairs"]]


def test_condition_i_overlapping_variant_passes():
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])
    rep = check_condition_i(d)
    assert rep["ok"] and rep["pairs"] == []
    # the cross pair's margin is the least of the two sets' margins
    certified = rep["common_point"]["sets"]
    assert [c["j"] for c in certified] == [[0, 1, 2], [1, 2, 3]]
    assert min(c["margin"] for c in certified) >= 1e-9
    w = np.array(rep["common_point"]["point"])
    for group in d.family:
        ok, area = polygon_overlap_oracle(d.hull_points(group), d.hull_points(group))
        assert ok and area > 0.0
    # witness lies strictly inside both triangles
    assert w[0] > 0 and w[1] > 0 and w[0] + w[1] < 1.0


def test_a_pair_whose_best_points_form_a_segment_overlaps():
    # two long triangles, apexes up and down, overlap in a band where only
    # the two apex weights bind: every point of a segment on y = 1/2 is a
    # best common point, with margin 1/4, and the tight rows alone leave x
    # free; the far third set moves the frame's centre off that segment
    d = data_m1([-10, 10, 2j, -10 + 1j, 10 + 1j, -1j, 105, 106, 105 + 1j],
                [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    rep = check_condition_i(d)
    assert rep["common_point"] is None
    [pair] = [p for p in rep["pairs"] if (p["j1"], p["j2"]) == ([0, 1, 2], [3, 4, 5])]
    assert pair["overlap"] and pair["margin"] == pytest.approx(0.25, abs=1e-12)
    assert pair["witness"][1] == pytest.approx(0.5, abs=1e-12)
    assert pair_overlaps(d, rep) == [p["overlap"] for p in check_condition_i_polygon(d)["pairs"]]


def test_condition_i_degenerate_hull_flagged():
    d = data_m1([0, 1, 2, 5], [[0, 1, 2]], big_n=3)  # collinear forms
    rep = check_condition_i(d)
    assert not rep["ok"]
    assert rep["pairs"][0]["degenerate"]
    with pytest.raises(DegenerateHull):
        polygon_overlap_oracle(d.hull_points((0, 1, 2)), d.hull_points((0, 1, 2)))


def test_both_routes_record_a_degenerate_hull_in_the_same_pair_order():
    # forms 0, 1, 2 are collinear; (1, 2, 3) is a genuine triangle
    d = data_m1([0, 1, 2, 1j], [[0, 1, 2], [1, 2, 3]], big_n=3)
    lp = check_condition_i(d)
    poly = check_condition_i_polygon(d)
    assert not lp["ok"] and not poly["ok"]
    assert lp["pairs"][0] == {
        "j1": [0, 1, 2], "j2": [0, 1, 2], "overlap": False, "margin": 0.0,
        "witness": None, "degenerate": True,
        "note": "hull of [0, 1, 2] has empty interior"}
    assert poly["pairs"][0] == {
        "j1": [0, 1, 2], "j2": [0, 1, 2], "overlap": False, "area": 0.0,
        "degenerate": True, "note": "hull has empty interior"}
    # the LP route lists every pair the polygon route does but the self
    # pair of (1, 2, 3), which the common point certifies
    assert [s["j"] for s in lp["common_point"]["sets"]] == [[1, 2, 3]]
    keys = [(p["j1"], p["j2"], p["overlap"], p["degenerate"]) for p in poly["pairs"]]
    assert keys[-1] == ([1, 2, 3], [1, 2, 3], True, False)
    assert [(p["j1"], p["j2"], p["overlap"], p["degenerate"]) for p in lp["pairs"]] == keys[:-1]
    assert pair_overlaps(d, lp) == [p["overlap"] for p in poly["pairs"]]


def test_condition_i_checks_each_hull_once_and_keeps_degenerate_records(monkeypatch):
    # (1, 2, 3) and (2, 3, 5) are collinear; each is in pairs as g1, as g2
    # and, in one pair, together, where the note names g1
    d = data_m1([1j, 0, 1, 2, 1 - 1j, 3], [[0, 1, 2], [1, 2, 3], [2, 3, 4], [2, 3, 5]])
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)

    def flat(j1, j2, note):
        return {"j1": j1, "j2": j2, "overlap": False, "margin": 0.0, "witness": None,
                "degenerate": True, "note": f"hull of {note} has empty interior"}

    third = pytest.approx(1.0 / 3.0, rel=1e-14)
    expected = [
        {"j1": [0, 1, 2], "j2": [0, 1, 2], "overlap": True, "margin": third,
         "witness": [third, third], "degenerate": False},
        flat([0, 1, 2], [1, 2, 3], [1, 2, 3]),
        {"j1": [0, 1, 2], "j2": [2, 3, 4], "overlap": False, "margin": -0.0,
         "witness": None, "degenerate": False},
        flat([0, 1, 2], [2, 3, 5], [2, 3, 5]),
        flat([1, 2, 3], [1, 2, 3], [1, 2, 3]),
        flat([1, 2, 3], [2, 3, 4], [1, 2, 3]),
        flat([1, 2, 3], [2, 3, 5], [1, 2, 3]),
        {"j1": [2, 3, 4], "j2": [2, 3, 4], "overlap": True, "margin": third,
         "witness": pytest.approx([4.0 / 3.0, -1.0 / 3.0], rel=1e-14), "degenerate": False},
        flat([2, 3, 4], [2, 3, 5], [2, 3, 5]),
        flat([2, 3, 5], [2, 3, 5], [2, 3, 5]),
    ]
    for _ in range(2):
        shapes.clear()
        rep = check_condition_i(d)
        assert not rep["ok"] and rep["common_point"] is None
        assert rep["pairs"] == expected
        # every hull is classified once, all of them in one batched SVD
        assert shapes == [(len(d.family), 3, 2)]
    # the polygon route decides degeneracy by its own hulls
    shapes.clear()
    poly = check_condition_i_polygon(d)
    assert not shapes
    assert [p["degenerate"] for p in poly["pairs"]] == [p["degenerate"] for p in expected]


def hull_is_full_dimensional(data, rep):
    """Per set of E, read from a check_condition_i report: a degenerate
    set's self-pair is always listed, with "degenerate": true."""
    flagged = {tuple(p["j1"]) for p in rep["pairs"] if p["j1"] == p["j2"] and p["degenerate"]}
    return [group not in flagged for group in data.family]


def family_with_flat_sets(rng, m, big_n, offset, scale=1.0):
    """A random family with one injected set whose last form is a real
    affine combination of its other forms plus offset times a random
    complex vector (flat for offset 0), and one set holding a form and
    its repeat; every form is then multiplied by scale."""
    size = 2 * m + 1
    forms = rng.complex_matrix(big_n + 1, m, 1.0)
    groups = [sorted({rng.integer(0, big_n) for _ in range(size)}) for _ in range(3)]
    start = rng.integer(0, big_n + 1 - size)
    flat = list(range(start, start + size))
    weights = rng.reals(size - 1, -1.0, 2.0)
    weights[-1] = 1.0 - weights[:-1].sum()
    forms[flat[-1]] = weights @ forms[flat[:-1]] + offset * rng.complex_matrix(1, m, 1.0)[0]
    outside = [i for i in range(big_n + 1) if i not in flat]
    twin = outside[rng.integer(0, len(outside) - 1)]
    forms[twin] = forms[flat[0]]
    rest = [i for i in range(big_n + 1) if i not in (flat[0], twin)]
    family = [g for g in groups if len(g) == size] + [flat, [flat[0], twin] + rest[:size - 2]]
    return LvmbData(m, big_n, family, scale * forms)


@pytest.mark.parametrize("m, big_n", [(1, 5), (1, 7), (2, 6), (2, 8)])
def test_batched_full_dimensionality_matches_the_per_set_svd(m, big_n):
    rng = SplitMix64(89 + 10 * m + big_n)
    kinds = Counter()
    # at scale 1e-3 the absolute floor alg_atol is the larger cutoff
    for offset, scale in itertools.product((0.0, 1e-11, 1e-9, 1e-8, 1e-7, 1e-3), (1.0, 1e-3)):
        for _ in range(4):
            d = family_with_flat_sets(rng, m, big_n, offset, scale)
            want = full_dimensional_by_set(d)
            assert hull_is_full_dimensional(d, check_condition_i(d)) == want
            kinds.update(want)
    assert kinds[True] > 0 and kinds[False] > 0


def test_forms_near_the_largest_double_are_classified_without_overflow():
    # in the family's frame the forms of (0, 1, 2) are (1, 0), (1, 7e-309)
    # and (-7e-309, 1): nothing overflows, and the relative test reads the
    # set as flat, since its least singular value is 1e-308 of its largest
    doc = {"m": 1, "N": 3, "E": [[0, 1, 2], [1, 2, 3]],
           "ell": [[[1.5e308, 0.0]], [[1.5e308, 1.0]], [[-1.0, 1.5e308]], [[0.25, 0.25]]]}
    d = LvmbData.from_json_dict(doc)
    with np.errstate(all="raise", under="ignore"):
        assert full_dimensional_by_set(d) == [False, True]
        rep = check_condition_i(d)
    assert hull_is_full_dimensional(d, rep) == [False, True]
    assert not rep["ok"]
    assert rep["pairs"][0]["note"] == "hull of [0, 1, 2] has empty interior"


def test_a_nan_singular_value_leaves_its_set_full_dimensional(monkeypatch):
    # NaN <= cutoff is false, so a set whose singular values come out NaN
    # is not called degenerate, as in the per-set test, where NaN > cutoff
    # would flip it; its pairs go to the program, which names the failure
    d = data_m1([0, 1, 1j, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])
    svd = np.linalg.svd

    def nan_first(a, *args, **kwargs):
        sv = svd(a, *args, **kwargs)
        sv[0] = np.nan
        return sv

    monkeypatch.setattr(np.linalg, "svd", nan_first)
    monkeypatch.setattr(lvmb, "common_point", lambda simplices: None)
    rep = check_condition_i(d)
    assert hull_is_full_dimensional(d, rep) == [True, True]
    assert not rep["ok"] and rep["pairs"][0]["note"] == "linear program failed"


def test_non_finite_forms_are_refused():
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        with pytest.raises(InvalidParams, match="finite"):
            data_m1([0, 1, bad, 0.25 + 0.25j], [[0, 1, 2], [1, 2, 3]])


def test_hull_points_of_a_list_of_sets_stacks_the_single_sets():
    d = random_family(SplitMix64(97), 2, 7, 5)
    stack = d.hull_points(d.family)
    assert stack.shape == (len(d.family), 5, 4)
    for group, block in zip(d.family, stack):
        assert block.tobytes() == d.hull_points(group).tobytes()


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
        assert pair_overlaps(d, lp) == [b["overlap"] for b in poly["pairs"]], (lp, poly)


def test_pair_witness_is_interior_to_both_hulls(monkeypatch):
    d = data_m1([0, 2, 2j, 1 + 1j, -1 + 1j, 1 - 1j], [[0, 1, 2], [3, 4, 5]])
    p1, p2 = d.hull_points((0, 1, 2)), d.hull_points((3, 4, 5))
    [cross] = [p for p in pairwise_route(monkeypatch, d)["pairs"] if p["j1"] != p["j2"]]
    assert cross["overlap"] and cross["margin"] > 0.01
    witness = cross["witness"]
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


def lvm_like_family(rng, m, big_n):
    """Forms drawn by SplitMix64 and E = every (2m+1)-subset whose simplex
    holds the origin well inside, as in Meersseman's LVM data; draws with
    a simplex too close to the origin are redrawn."""
    dim = 2 * m
    while True:
        data = LvmbData(m, big_n, [range(dim + 1)], rng.complex_matrix(big_n + 1, m, 1.0))
        family, clear = [], True
        for group in itertools.combinations(range(big_n + 1), dim + 1):
            mat = np.vstack([data.hull_points(group).T, np.ones(dim + 1)])
            weights = np.linalg.solve(mat, np.eye(dim + 1)[dim])
            clear = clear and abs(float(weights.min())) > 1e-6
            if weights.min() > 0.0:
                family.append(group)
        if clear and family:
            return LvmbData(m, big_n, family, data.ell)


def family_variants(rng, data):
    """The family as drawn, with one extra random set, and with every form
    moved by one random complex constant."""
    size = 2 * data.m + 1
    extra = list(data.family)
    while len(extra) == len(data.family):
        group = tuple(sorted(set(rng.integer(0, data.big_n) for _ in range(size))))
        if len(group) == size and group not in data.family:
            extra.append(group)
    shift = rng.complex_matrix(1, data.m, 2.0)
    return [data, LvmbData(data.m, data.big_n, extra, data.ell),
            LvmbData(data.m, data.big_n, data.family, data.ell + shift)]


def no_family_point(patch):
    """Make common_point fail on its first call, which is the family's;
    every pair then takes its own, as when the family point certifies no
    set."""
    calls = Counter()
    solve = lvmb.common_point

    def first_fails(simplices):
        calls["common_point"] += 1
        return None if calls["common_point"] == 1 else solve(simplices)

    patch.setattr(lvmb, "common_point", first_fails)


def pairwise_route(monkeypatch, data):
    """check_condition_i with no family point: every pair by the common
    point of its own two simplices."""
    with monkeypatch.context() as patch:
        no_family_point(patch)
        return check_condition_i(data)


def count_lps(monkeypatch, data):
    calls = Counter()
    solve = lvmb.simplex_solve

    def counted(c, a, b):
        calls["lp"] += 1
        return solve(c, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(lvmb, "simplex_solve", counted)
        rep = check_condition_i(data)
    return rep, calls["lp"]


@pytest.mark.parametrize("m, big_n", [(1, 5), (1, 7), (2, 6)])
def test_common_point_route_agrees_with_the_pairwise_route(monkeypatch, m, big_n):
    rng = SplitMix64(71 + 10 * m + big_n)
    certified = 0
    for _ in range(2):
        for d in family_variants(rng, lvm_like_family(rng, m, big_n)):
            rep = check_condition_i(d)
            ref = pairwise_route(monkeypatch, d)
            assert ref["common_point"] is None
            assert rep["ok"] == ref["ok"]
            eps = {tuple(s["j"]): s["margin"]
                   for s in (rep["common_point"] or {"sets": []})["sets"]}
            listed = iter(rep["pairs"])
            for want in ref["pairs"]:
                g1, g2 = tuple(want["j1"]), tuple(want["j2"])
                if g1 in eps and g2 in eps:
                    # the pair reads as overlapping with margin
                    # min(eps_J1, eps_J2), a lower bound on its LP optimum
                    certified += 1
                    assert want["overlap"], want
                    assert MARGIN <= min(eps[g1], eps[g2]) <= want["margin"] + 1e-12
                else:
                    assert next(listed) == want
            assert next(listed, None) is None
            if m == 1:
                poly = check_condition_i_polygon(d)
                assert pair_overlaps(d, rep) == [p["overlap"] for p in poly["pairs"]]
    assert certified > 0


@pytest.mark.parametrize("m, big_n", [(1, 5), (1, 7), (2, 6), (2, 7)])
def test_pair_margins_agree_with_the_weights_form_reference(monkeypatch, m, big_n):
    # the pair's margin is its best common point's least weight, which is
    # the optimum of the weights form where that form does not fail; the
    # reference is infeasible (margin None) where the hulls are apart, and
    # then the margin is negative
    rng = SplitMix64(113 + 10 * m + big_n)
    kinds = Counter()
    for _ in range(2):
        for d in family_variants(rng, lvm_like_family(rng, m, big_n)):
            for p in pairwise_route(monkeypatch, d)["pairs"]:
                try:
                    overlap, eps, _ = hull_overlap_lp(d.hull_points(p["j1"]), d.hull_points(p["j2"]))
                except LPFailure:
                    kinds["reference failed"] += 1
                    continue
                if eps is None:
                    assert not p["overlap"] and p["margin"] < 0.0, p
                    kinds["apart"] += 1
                else:
                    assert abs(p["margin"] - eps) <= 1e-11, (p, eps)
                    assert p["overlap"] == overlap
                    kinds[overlap] += 1
    assert kinds[True] > 0 and kinds[False] > 0


@pytest.mark.parametrize("m, big_n, seed", [(1, 5, 61), (1, 7, 62), (2, 6, 63), (2, 7, 64)])
def test_listed_pairs_and_common_point_sets_partition_the_pairs(m, big_n, seed):
    rng = SplitMix64(seed)
    listed = covered = 0
    for d in family_variants(rng, lvm_like_family(rng, m, big_n)):
        rep = check_condition_i(d)
        pair_overlaps(d, rep)  # asserts the partition
        listed += len(rep["pairs"])
        covered += len(d.family) * (len(d.family) + 1) // 2 - len(rep["pairs"])
    assert listed > 0 and covered > 0


def test_common_point_witness_is_interior_to_every_certified_set():
    d = lvm_like_family(SplitMix64(73), 2, 6)
    rep = check_condition_i(d)
    assert rep["pairs"] == []
    certified = rep["common_point"]["sets"]
    assert [s["j"] for s in certified] == [list(g) for g in d.family]
    y = np.array(rep["common_point"]["point"])
    for group, s in zip(d.family, certified):
        mat = np.vstack([d.hull_points(group).T, np.ones(5)])
        weights = np.linalg.solve(mat, np.append(y, 1.0))
        assert weights.min() >= MARGIN
        assert abs(weights.min() - s["margin"]) <= 1e-12


def test_common_point_takes_one_lp_where_the_pairs_took_one_each(monkeypatch):
    d = lvm_like_family(SplitMix64(79), 1, 6)
    count = len(d.family)
    rep, lps = count_lps(monkeypatch, d)
    assert rep["ok"] and rep["pairs"] == [] and len(rep["common_point"]["sets"]) == count
    assert lps == 1
    with monkeypatch.context() as patch:
        no_family_point(patch)
        rep, lps = count_lps(patch, d)
    assert rep["ok"] and len(rep["pairs"]) == count * (count + 1) // 2
    assert lps == count * (count + 1) // 2


def test_translated_lvm_family_is_certified_by_one_common_point():
    d = lvm_like_family(SplitMix64(83), 2, 6)
    moved = LvmbData(2, 6, d.family, d.ell + np.array([[3.0 - 2.0j, -1.5 + 4.0j]]))
    for data in (d, moved):
        rep = check_condition_i(data)
        assert rep["ok"] and rep["pairs"] == []
        assert [s["j"] for s in rep["common_point"]["sets"]] == [list(g) for g in data.family]
    shift = np.array([3.0, -1.5, -2.0, 4.0])
    assert np.allclose(np.array(check_condition_i(moved)["common_point"]["point"]),
                       np.array(check_condition_i(d)["common_point"]["point"]) + shift)


def test_condition_i_check_fails_when_the_oracle_rejects_a_certified_pair(monkeypatch):
    # lvmb_pass lists no pair: the common point certifies both sets, and
    # the check must still hold every pair to the polygon oracle
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    doc = parse_scenario(find_scenario("lvmb_pass"))
    doc["checks"] = ["lvmb_condition_i"]
    data = LvmbData.from_json_dict(doc["payload"]["data"])
    rep = check_condition_i(data)
    assert rep["pairs"] == [] and len(rep["common_point"]["sets"]) == 2
    [record], _ = run_scenario(doc)
    assert (record["status"], record["samples_checked"]) == ("pass", 3)
    oracle = lvmb.polygon_overlap_oracle

    def rejecting(p1, p2):
        return (False, 0.0) if not np.array_equal(p1, p2) else oracle(p1, p2)

    monkeypatch.setattr(lvmb, "polygon_overlap_oracle", rejecting)
    [record], _ = run_scenario(doc)
    assert (record["status"], record["max_residual"], record["samples_checked"]) == (
        "fail", 1.0, 3)


def test_edge_sharing_hulls_fail_through_the_pairwise_fallback(monkeypatch):
    d = data_m1([0, 1, 1j, 1 + 1j], [[0, 1, 2], [1, 2, 3]])
    rep, lps = count_lps(monkeypatch, d)
    assert not rep["ok"]
    # the best common point lies on the shared edge, so no set is
    # certified and all three pairs take their own LP
    assert lps == 1 + 3
    assert rep["common_point"] is None
    assert [p["overlap"] for p in rep["pairs"]] == [True, False, True]


def scaled_scenario(name, scale):
    """A bundled lvmb scenario with every form multiplied by scale."""
    from acs_verify.scenarios import find_scenario, parse_scenario

    doc = parse_scenario(find_scenario(name))
    data = doc["payload"]["data"]
    data["ell"] = [[[v * scale for v in pair] for pair in row] for row in data["ell"]]
    return doc


@pytest.mark.parametrize("name, holds", [("lvmb_pass", True), ("lvmb_fail", False)])
def test_condition_i_does_not_depend_on_the_scale_of_the_forms(name, holds):
    # the condition is affine-invariant; an absolute floor once made every
    # lvmb_pass hull flat at scale 1e-12, and its cross pair read apart at
    # 1e100, and the polygon oracle's absolute area test read every
    # lvmb_pass pair as apart at 1e-300, 1e-12 and 1e300
    from acs_verify.scenarios import run_scenario

    base = LvmbData.from_json_dict(scaled_scenario(name, 1.0)["payload"]["data"])
    want = check_condition_i(base)
    verdicts = pair_overlaps(base, want)
    assert want["ok"] is holds
    for scale in (1e-300, 1e-12, 1e12, 1e100, 1e300):
        doc = scaled_scenario(name, scale)
        d = LvmbData.from_json_dict(doc["payload"]["data"])
        rep = check_condition_i(d)
        assert rep["ok"] is holds, scale
        assert pair_overlaps(d, rep) == verdicts, scale
        # margins are barycentric weights, which do not scale
        assert [p["margin"] for p in rep["pairs"]] == pytest.approx(
            [p["margin"] for p in want["pairs"]], abs=1e-12)
        if want["common_point"] is not None:
            assert [s["margin"] for s in rep["common_point"]["sets"]] == pytest.approx(
                [s["margin"] for s in want["common_point"]["sets"]], abs=1e-12)
            assert rep["common_point"]["point"] == pytest.approx(
                [scale * v for v in want["common_point"]["point"]], rel=1e-12)
        assert [p["overlap"] for p in check_condition_i_polygon(d)["pairs"]] == verdicts, scale
        records, aggregate = run_scenario(doc)
        assert aggregate["passed"], (scale, records)


def test_polygon_oracle_reads_small_hulls_of_a_large_family_by_their_own_area():
    # lvmb_pass's forms times 1e-5 with a unit triangle near 1000 + 0i:
    # scaled into [1/2, 1), the small triangles have area about 5e-17,
    # below an absolute floor of 1e-12, while their overlap is a fixed
    # share of each
    small = [0, 1e-5, 1e-5j, 0.25e-5 + 0.25e-5j]
    d = data_m1(small + [1000, 1001, 1000 + 1j], [[0, 1, 2], [1, 2, 3], [4, 5, 6]])
    rep = check_condition_i(d)
    poly = check_condition_i_polygon(d)
    assert [p["overlap"] for p in poly["pairs"]] == pair_overlaps(d, rep) == [
        True, True, False, True, False, True]


def test_a_pair_the_weights_form_failed_on_reads_as_overlapping():
    # sets (0, 2, 5, 6, 9) and (0, 3, 5, 6, 7) of the benchmark
    # generator's seed-9 lvm_m2_N10 family, and a third set on the forms
    # of the first moved by 50 + 50i, so that the family point certifies
    # no set; the weights form's answer on the first two fails its check
    with open(os.path.join(DATA, "lvm_m2_N10_weights_form_lp_failure.json"),
              encoding="utf-8") as fh:
        d = LvmbData.from_json_dict(json.load(fh))
    one, two, far = d.family
    with pytest.raises(LPFailure):
        hull_overlap_lp(d.hull_points(one), d.hull_points(two))
    rep = check_condition_i(d)
    assert not rep["ok"] and rep["common_point"] is None
    by_pair = {(tuple(p["j1"]), tuple(p["j2"])): p for p in rep["pairs"]}
    assert len(by_pair) == 6
    pair = by_pair[one, two]
    assert pair["overlap"] and pair["margin"] >= MARGIN and "note" not in pair
    y = np.append(pair["witness"], 1.0)
    for group in (one, two):
        weights = np.linalg.solve(np.vstack([d.hull_points(group).T, np.ones(5)]), y)
        assert weights.min() == pytest.approx(pair["margin"], abs=1e-12)
    for group in (one, two):
        assert not by_pair[group, far]["overlap"] and by_pair[group, far]["margin"] < -1.0
    assert all(by_pair[g, g]["overlap"] for g in d.family)


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


@pytest.mark.parametrize("m, big_n", [(1, 4), (1, 6), (2, 5), (2, 6)])
def test_condition_ii_matches_the_sorted_tuple_reference(m, big_n):
    # passing families (an exchange closure, which is every (2m+1)-subset,
    # and LVM-like families), each also with one or another set removed,
    # and random families
    rng = SplitMix64(101 + 10 * m + big_n)
    seed = LvmbData(m, big_n, [range(2 * m + 1)], rng.complex_matrix(big_n + 1, m, 1.0))
    closed = exchange_closure(seed)
    assert closed.family == tuple(itertools.combinations(range(big_n + 1), 2 * m + 1))
    passing = [closed] + [lvm_like_family(rng, m, big_n) for _ in range(2)]
    cases = list(passing)
    for d in passing:
        for _ in range(2 if len(d.family) > 1 else 0):
            drop = rng.integer(0, len(d.family) - 1)
            cases.append(LvmbData(m, big_n, d.family[:drop] + d.family[drop + 1:], d.ell))
    cases += [random_family(rng, m, big_n, rng.integer(1, 6)) for _ in range(6)]
    verdicts = Counter()
    for d in cases:
        want = check_condition_ii_by_sorted_tuples(d)
        assert check_condition_ii(d) == want
        verdicts[want["ok"]] += 1
    assert verdicts[True] >= len(passing) and verdicts[False] > 0
