import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from acs_verify import checks, fields as fl, universal
from acs_verify.config import DEFAULT, worst_of
from acs_verify.errors import NotAComplexStructure, ShapeMismatch
from acs_verify.rng import SplitMix64
from acs_verify.scenarios import run_check
import oracles
from oracles import jacobian_value, lie_bracket, trig_matmul


def test_declared_numpy_floor_provides_vecdot():
    # TrigPolyField.values calls np.vecdot, which numpy added in 2.0
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    [spec] = [d for d in deps if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", spec)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)
    assert hasattr(np, "vecdot")


def test_grid_is_deterministic_and_sized():
    chart = fl.TorusChart(2)
    g = chart.grid([3, 4])
    assert g.shape == (12, 2)
    assert np.array_equal(g, chart.grid([3, 4]))


@pytest.mark.parametrize("counts", [[6] * 4, [3] * 6, [4, 4], [10, 10], [7, 10]])
def test_grid_rows_are_the_rows_of_the_product_of_the_axes(counts):
    # the reference: the row-major product of the per-axis angles
    axes = [fl.TWO_PI * (np.arange(c) + 0.37) / c for c in counts]
    want = np.array(list(itertools.product(*axes)))
    chart = fl.TorusChart(len(counts))
    assert chart.grid(counts).tobytes() == want.tobytes()
    for rows in (1, 5, len(want), len(want) + 3):
        assert chart.grid(counts, rows=rows).tobytes() == want[:rows].tobytes()


def test_value_is_periodic():
    rng = SplitMix64(21)
    f = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=4, n_terms=4)
    x = np.array([0.7, 2.1])
    for i in range(2):
        shift = np.zeros(2)
        shift[i] = 2 * np.pi
        assert np.max(np.abs(f.value(x) - f.value(x + shift))) < 1e-10


def test_partial_matches_fd_with_quadratic_rate():
    rng = SplitMix64(22)
    f = fl.TrigPolyField.random(2, (3, 1), rng, max_degree=4, n_terms=4)
    x = np.array([0.9, 1.3])
    # third-derivative bound gives an a priori constant for the FD error
    for i in range(2):
        bound = sum(
            abs(freq[i]) ** 3 * (np.max(np.abs(c)) + np.max(np.abs(s)))
            for freq, (c, s) in f.terms.items()
        )
        exact = f.partial_value(i, x)
        for h in (1e-3, 1e-4):
            step = np.zeros(2)
            step[i] = h
            fd = (f.value(x + step) - f.value(x - step)) / (2 * h)
            err = np.max(np.abs(exact - fd))
            assert err <= bound / 6 * h**2 * 1.5 + 1e-11


def test_matmul_is_pointwise_product():
    rng = SplitMix64(23)
    a = fl.TrigPolyField.random(2, (2, 3), rng, n_terms=3)
    b = fl.TrigPolyField.random(2, (3, 2), rng, n_terms=3)
    prod = trig_matmul(a, b)
    for x in fl.TorusChart(2).grid([3, 3]):
        assert np.allclose(prod.value(x), a.value(x) @ b.value(x), atol=1e-12)


def test_product_rule_holds_exactly():
    rng = SplitMix64(24)
    a = fl.TrigPolyField.random(2, (2, 2), rng, n_terms=2)
    b = fl.TrigPolyField.random(2, (2, 2), rng, n_terms=2)
    lhs = trig_matmul(a, b).partial(0)
    rhs = trig_matmul(a.partial(0), b) + trig_matmul(a, b.partial(0))
    for x in fl.TorusChart(2).grid([4, 2]):
        assert np.allclose(lhs.value(x), rhs.value(x), atol=1e-12)


def test_lie_bracket_sine_example():
    # V = e1, W = sin(x1) e2, so [V, W] = cos(x1) e2
    v = fl.TrigPolyField.constant(2, np.array([[1.0], [0.0]]))
    s = np.array([[0.0], [1.0]])
    w = fl.TrigPolyField(2, (2, 1), {(1, 0): (np.zeros((2, 1)), s)})
    bracket = lie_bracket(v, w)
    expected = fl.TrigPolyField(2, (2, 1), {(1, 0): (s, np.zeros((2, 1)))})
    for x in fl.TorusChart(2).grid([5, 1]):
        assert np.allclose(bracket.value(x), expected.value(x), atol=1e-14)


def test_lie_bracket_antisymmetry_seed3():
    rng = SplitMix64(3)
    v = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=3)
    w = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=3)
    lhs = lie_bracket(v, w)
    rhs = lie_bracket(w, v)
    for x in fl.TorusChart(2).grid([4, 4]):
        assert np.allclose(lhs.value(x), -rhs.value(x), atol=1e-12)


def test_lie_bracket_jacobi():
    rng = SplitMix64(31)
    v = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    w = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    z = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    total = (
        lie_bracket(lie_bracket(v, w), z)
        + lie_bracket(lie_bracket(w, z), v)
        + lie_bracket(lie_bracket(z, v), w)
    )
    for x in fl.TorusChart(2).grid([3, 3]):
        assert np.max(np.abs(total.value(x))) < 1e-10


def test_lie_bracket_shape_errors():
    v = fl.TrigPolyField.constant(2, np.eye(2))
    with pytest.raises(ShapeMismatch):
        lie_bracket(v, v)


def test_from_json_dict_reads_a_literal_document():
    doc = {"shape": [2, 1], "terms": [
        {"freq": [0, 0], "cos": [[1.0], [0.0]], "sin": [[5.0], [0.0]]},
        {"freq": [-1, 2], "cos": [[0.5], [0.0]], "sin": [[0.0], [2.0]]},
        {"freq": [1, -2], "cos": [[0.25], [0.0]], "sin": [[0.0], [1.0]]},
    ]}
    f = fl.TrigPolyField.from_json_dict(doc)
    assert (f.d, f.shape) == (2, (2, 1))
    assert list(f.terms) == [(0, 0), (1, -2)]
    # the zero frequency carries no sin part; (-1, 2) folds onto (1, -2)
    # with its sin part negated
    assert np.array_equal(f.terms[(0, 0)][1], np.zeros((2, 1)))
    assert np.array_equal(f.terms[(1, -2)][0], [[0.75], [0.0]])
    assert np.array_equal(f.terms[(1, -2)][1], [[0.0], [-1.0]])
    x = np.array([0.3, 1.1])
    ang = x[0] - 2 * x[1]
    expected = np.array([[1.0 + 0.75 * np.cos(ang)], [-np.sin(ang)]])
    assert np.allclose(f.value(x), expected, atol=1e-15)
    with pytest.raises(ShapeMismatch):
        fl.TrigPolyField.from_json_dict({"shape": [1, 1], "terms": []})


def test_canonicalization_merges_negated_frequencies():
    c = np.array([[1.0]])
    s = np.array([[0.5]])
    f = fl.TrigPolyField(2, (1, 1), {(-1, 2): (c, s)})
    (key,) = list(f.terms)
    assert key == (1, -2)
    x = np.array([0.4, 1.7])
    expected = c * np.cos(-x[0] + 2 * x[1]) + s * np.sin(-x[0] + 2 * x[1])
    assert np.allclose(f.value(x), expected)


def test_conjugated_structure_squares_to_minus_id():
    rng = SplitMix64(26)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.AlmostComplexField.conjugated(a, eps=0.2)
    worst = j.validate(fl.TorusChart(2).grid([5, 5]))
    assert worst < 1e-12


def test_almost_complex_field_rejects_non_structure():
    bad = fl.TrigPolyField.constant(2, np.eye(2))
    with pytest.raises(NotAComplexStructure):
        fl.AlmostComplexField(fl.TorusChart(2), bad)


def test_conjugated_partials_match_fd():
    rng = SplitMix64(27)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.ConjugatedStructureField(a, eps=0.1)
    x = np.array([0.3, 1.1])
    for i in range(2):
        step = np.zeros(2)
        step[i] = 1e-6
        fd = (j.value(x + step) - j.value(x - step)) / 2e-6
        assert np.max(np.abs(j.partial_value(i, x) - fd)) < 1e-8


def test_nijenhuis_constant_structure_vanishes():
    j = fl.AlmostComplexField.standard(2)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    n = fl.nijenhuis_direct(j, x, np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    assert np.max(np.abs(n)) == 0.0


def test_nijenhuis_direct_vs_fd_oracle_seed11():
    rng = SplitMix64(11)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.AlmostComplexField.conjugated(a, eps=0.1)
    x = np.array([0.3, 1.1])
    worst = 0.0
    for _ in range(10):
        zeta = rng.reals(2)
        eta = rng.reals(2)
        direct = fl.nijenhuis_direct(j, x, zeta, eta)
        oracle = fl.nijenhuis_fd_oracle(j, x, zeta, eta)
        scale = max(1.0, float(np.max(np.abs(direct))))
        worst = max(worst, float(np.max(np.abs(direct - oracle))) / scale)
    assert worst < 1e-4


def test_nijenhuis_antilinearity_in_first_slot():
    rng = SplitMix64(33)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.AlmostComplexField.conjugated(a, eps=0.1)
    x = np.array([1.9, 0.4])
    zeta = rng.reals(2)
    eta = rng.reals(2)
    jm = j.value(x)
    lhs = fl.nijenhuis_direct(j, x, jm @ zeta, eta)
    rhs = -jm @ fl.nijenhuis_direct(j, x, zeta, eta)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_tensoriality_modulated_extensions():
    rng = SplitMix64(28)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.AlmostComplexField.conjugated(a, eps=0.1)
    x = np.array([0.8, 0.5])

    def modulator_gradient(axis, amp):
        # of amp cos(y_axis) + (amp/2) sin(y_axis) + const, equal to 1 at x
        grad = np.zeros(2)
        grad[axis] = -amp * np.sin(x[axis]) + amp / 2 * np.cos(x[axis])
        return grad

    dphi = modulator_gradient(0, 0.7)
    dpsi = modulator_gradient(1, 0.4)
    zeta = rng.reals(2)
    eta = rng.reals(2)
    n_const, n_mod, dev = fl.verify_tensoriality(j, x, zeta, eta, dphi, dpsi)
    assert dev < 1e-10
    assert np.array_equal(n_const, fl.nijenhuis_direct(j, x, zeta, eta))
    # doubling the modulation gradient must not change the result either
    _, n_mod2, dev2 = fl.verify_tensoriality(j, x, zeta, eta, 2 * dphi, dpsi)
    assert dev2 < 1e-10
    assert np.max(np.abs(n_mod - n_mod2)) < 1e-10
    with pytest.raises(fl.DimensionMismatch):
        fl.verify_tensoriality(j, x, zeta, eta, dphi[:1], dpsi)


def conjugated_structure(n, seed):
    a = fl.TrigPolyField.random(2 * n, (2 * n, 2 * n), SplitMix64(seed),
                                max_degree=2, n_terms=3, amplitude=0.5)
    return fl.AlmostComplexField.conjugated(a, eps=0.3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_oracle_evaluates_j_2d_plus_1_times_bitwise_as_the_closure_route(
        monkeypatch, n):
    d = 2 * n
    for seed in range(1, 6):
        j = conjugated_structure(n, seed)
        rng = SplitMix64(100 + seed)
        x = rng.reals(d, 0.0, 2.0 * np.pi)
        zeta = rng.reals(d)
        eta = rng.reals(d)
        want = oracles.nijenhuis_fd_oracle_by_closures(j, x, zeta, eta)
        calls = []
        value = j.value
        monkeypatch.setattr(j, "value", lambda u: calls.append(u) or value(u))
        got = fl.nijenhuis_fd_oracle(j, x, zeta, eta)
        assert len(calls) == 2 * d + 1
        assert got.tobytes() == want.tobytes()


def tensoriality_record(monkeypatch, j, seed):
    monkeypatch.setattr(checks, "build_structure", lambda payload, n, seed: j)
    check = checks.REGISTRY["nijenhuis_tensoriality"]
    run = checks.Run("fields", {"n": j.n, "probes": 4}, DEFAULT, seed)
    return run_check(check, run, SplitMix64(seed), check.tolerance, timings=False)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensoriality_check_reads_bitwise_as_the_trig_modulator_route(monkeypatch, n):
    d = 2 * n
    for seed in range(1, 6):
        j = conjugated_structure(n, seed)
        record = tensoriality_record(monkeypatch, j, seed)
        # the check's draws, each probe through the trig-poly modulators
        rng = SplitMix64(seed)
        want = 0.0
        for _ in range(4):
            x = rng.reals(d, 0.0, 2.0 * np.pi)
            phi = oracles.trig_modulator(x, np.eye(d, dtype=int)[0], 0.7, 0.0)
            psi = oracles.trig_modulator(x, np.eye(d, dtype=int)[d - 1], 0.4, 0.0)
            zeta = rng.reals(d)
            eta = rng.reals(d)
            want = worst_of(want, oracles.tensoriality_by_trig_modulators(
                j, x, zeta, eta, phi, psi)[2])
        assert record["status"] == "pass" and record["samples_checked"] == 4
        assert same_bits(np.float64(record["max_residual"]), np.float64(want))


def _nijenhuis_per_direction(j, x, zeta, eta):
    """Reference copy of the four-bracket evaluation before jets: every
    directional derivative calls partial_value again, skipping zero
    weights."""

    def directional_dj(w):
        out = np.zeros((w.shape[0], w.shape[0]))
        for i, wi in enumerate(w):
            if wi != 0.0:
                out += wi * j.field.partial_value(i, x)
        return out

    jm = j.value(x)
    out = -directional_dj(jm @ zeta) @ eta
    out += directional_dj(jm @ eta) @ zeta
    out += jm @ (directional_dj(zeta) @ eta)
    out -= jm @ (directional_dj(eta) @ zeta)
    return out


@pytest.mark.parametrize("kind", ["conjugated", "callable"])
def test_nijenhuis_from_jet_matches_per_direction_loop_bitwise(kind):
    rng = SplitMix64(35)
    a = fl.TrigPolyField.random(4, (4, 4), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.AlmostComplexField.conjugated(a, eps=0.1)
    if kind == "callable":
        j = fl.AlmostComplexField(fl.TorusChart(4),
                                  fl.CallableMatrixField(4, (4, 4), j.value))
    x = rng.reals(4, 0.0, 2.0 * np.pi)
    jet = fl.structure_jet(j, x)
    probes = [(rng.reals(4), rng.reals(4)) for _ in range(5)]
    probes.append((np.array([1.0, 0.0, 0.0, -0.5]), np.array([0.0, 2.0, 0.0, 0.0])))
    for zeta, eta in probes:
        ref = _nijenhuis_per_direction(j, x, zeta, eta)
        assert np.array_equal(fl.nijenhuis_from_jet(jet, zeta, eta), ref)
        assert np.array_equal(fl.nijenhuis_direct(j, x, zeta, eta), ref)


def test_conjugated_partial_value_is_unchanged_bitwise():
    rng = SplitMix64(36)
    a = fl.TrigPolyField.random(2, (2, 2), rng, max_degree=2, n_terms=3, amplitude=0.5)
    j = fl.ConjugatedStructureField(a, eps=0.1)
    x = np.array([0.3, 1.1])
    t = j.t_field.value(x)
    jm = np.linalg.solve(t.T, (t @ j.j0).T).T
    for i in range(2):
        ti = j.t_field.partial_value(i, x)
        ref = np.linalg.solve(t.T, (ti @ j.j0 - jm @ ti).T).T
        assert np.array_equal(j.partial_value(i, x), ref)


def test_validate_rejects_a_nan_structure():
    # max(0.0, nan) is 0.0, and nan > tolerance is False: both let NaN pass
    nan_field = fl.CallableMatrixField(2, (2, 2), lambda x: np.full((2, 2), np.nan))
    with pytest.raises(NotAComplexStructure):
        fl.AlmostComplexField(fl.TorusChart(2), nan_field)
    j = fl.AlmostComplexField.standard(1)
    j.field = nan_field
    with pytest.raises(NotAComplexStructure):
        j.validate([np.zeros(2)])


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------

def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def four_frequency_field(rng, shape):
    # every frequency has four nonzero entries, so each angle sums four
    # products and its rounding depends on the summation
    terms = {}
    for freq in ((1, -2, 3, 1), (2, 1, -1, 3), (3, 3, 2, -4)):
        terms[freq] = (rng.real_matrix(*shape, 1.0), rng.real_matrix(*shape, 1.0))
    return fl.TrigPolyField(4, shape, terms)


def test_trig_values_and_jacobian_values_match_pointwise_bitwise():
    rng = SplitMix64(41)
    fields = [four_frequency_field(rng, (3, 2)),
              fl.TrigPolyField.random(4, (5, 1), rng, max_degree=4, n_terms=4)]
    column = four_frequency_field(rng, (6, 1))
    xs = np.array([rng.reals(4, -7.0, 7.0) for _ in range(40)])
    for f in fields + [column]:
        got = f.values(xs)
        for x, row in zip(xs, got):
            assert same_bits(row, f.value(x))
    for f in (fields[1], column):
        got = f.jacobian_values(xs)
        for x, row in zip(xs, got):
            assert same_bits(row, jacobian_value(f, x))


@pytest.mark.parametrize("n", [1, 2])
def test_conjugated_values_match_pointwise_bitwise(n):
    rng = SplitMix64(43 + n)
    a = fl.TrigPolyField.random(2 * n, (2 * n, 2 * n), rng, max_degree=3, n_terms=4)
    j = fl.AlmostComplexField.conjugated(a, 0.2)
    xs = fl.TorusChart(2 * n).grid([5] * (2 * n))
    for x, row in zip(xs, j.values(xs)):
        assert same_bits(row, j.value(x))


def test_values_reject_points_of_the_wrong_dimension():
    f = fl.TrigPolyField.constant(2, np.eye(2))
    with pytest.raises(fl.DimensionMismatch):
        f.values(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# the J^2 = -Id check over a grid
# ---------------------------------------------------------------------------

def squares_check(monkeypatch, j, pts):
    """The structure_squares_to_minus_id record on the rows of pts, with
    the scenario's structure replaced by j."""
    monkeypatch.setattr(checks, "build_structure", lambda payload, n, seed: j)
    check = checks.REGISTRY["structure_squares_to_minus_id"]
    run = checks.Run("fields", {"n": j.n}, DEFAULT, 0, {"points": pts.tolist()})
    return run_check(check, run, SplitMix64(0), check.tolerance, timings=False)


# rows per slice while a test crosses slice boundaries, whatever the
# shipped FIBER_CHUNK: each grid below is two or more full slices and a
# ragged last one
TEST_CHUNK = 11


@pytest.mark.parametrize("n, counts", [(1, [7, 10]), (2, [3, 3, 3, 4]), (3, [2, 2, 2, 2, 3, 3])])
def test_squares_check_folds_the_per_point_residuals_bitwise(monkeypatch, n, counts):
    monkeypatch.setattr(universal, "FIBER_CHUNK", TEST_CHUNK)
    pts = fl.TorusChart(2 * n).grid(counts)
    assert len(pts) // TEST_CHUNK >= 2 and len(pts) % TEST_CHUNK
    eye = np.eye(2 * n)
    for seed in range(1, 6):
        a = fl.TrigPolyField.random(2 * n, (2 * n, 2 * n), SplitMix64(seed),
                                    max_degree=2, n_terms=3)
        j = fl.AlmostComplexField.conjugated(a, 0.5)
        want = 0.0
        for x in pts:
            jm = j.value(x)
            want = worst_of(want, float(np.max(np.abs(jm @ jm + eye))))
        record = squares_check(monkeypatch, j, pts)
        assert record["samples_checked"] == len(pts)
        assert same_bits(np.float64(record["max_residual"]), np.float64(want))


def test_squares_check_fails_a_nan_at_one_point(monkeypatch):
    # the NaN sits in the second slice, so a fold that dropped it would pass
    monkeypatch.setattr(universal, "FIBER_CHUNK", TEST_CHUNK)
    pts = fl.TorusChart(2).grid([7, 10])
    row = TEST_CHUNK + 7
    assert len(pts) // TEST_CHUNK >= 2 and len(pts) % TEST_CHUNK
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])

    def fn(x):
        return np.full((2, 2), np.nan) if np.array_equal(x, pts[row]) else j0

    j = fl.AlmostComplexField(fl.TorusChart(2), fl.CallableMatrixField(2, (2, 2), fn))
    record = squares_check(monkeypatch, j, pts)
    assert record["status"] == "fail" and record["max_residual"] is None
    assert squares_check(monkeypatch, j, np.delete(pts, row, axis=0))["status"] == "pass"


def two_routes_records(monkeypatch, mutant):
    """The nijenhuis_two_routes record of fields_basic and fields_n2, with
    checks.nijenhuis_direct replaced by mutant(direct) when one is given."""
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    if mutant is not None:
        direct = checks.nijenhuis_direct
        monkeypatch.setattr(checks, "nijenhuis_direct",
                            lambda *args: mutant(direct(*args)))
    records = {}
    for name in ("fields_basic", "fields_n2"):
        doc = parse_scenario(find_scenario(name))
        doc["checks"] = ["nijenhuis_two_routes"]
        [records[name]], _ = run_scenario(doc)
    return records


@pytest.mark.parametrize("mutant, floor", [(lambda n: -n, 1.0), (lambda n: 0.0 * n, 0.5)])
def test_fields_n2_fails_a_wrong_direct_nijenhuis_route(monkeypatch, mutant, floor):
    # N_J vanishes at n = 1, so fields_basic cannot tell a wrong route
    # from the right one; at n = 2 it is of order one
    clean = two_routes_records(monkeypatch, None)
    assert {r["status"] for r in clean.values()} == {"pass"}
    records = two_routes_records(monkeypatch, mutant)
    assert records["fields_basic"]["status"] == "pass"
    assert records["fields_n2"]["status"] == "fail"
    assert records["fields_n2"]["max_residual"] > floor
