import numpy as np
import pytest

from acs_verify import fields as fl
from acs_verify.errors import NotAComplexStructure, ShapeMismatch
from acs_verify.rng import SplitMix64


def test_grid_is_deterministic_and_sized():
    chart = fl.TorusChart(2)
    g = chart.grid([3, 4])
    assert g.shape == (12, 2)
    assert np.array_equal(g, chart.grid([3, 4]))


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
    prod = a.matmul(b)
    for x in fl.TorusChart(2).grid([3, 3]):
        assert np.allclose(prod.value(x), a.value(x) @ b.value(x), atol=1e-12)


def test_product_rule_holds_exactly():
    rng = SplitMix64(24)
    a = fl.TrigPolyField.random(2, (2, 2), rng, n_terms=2)
    b = fl.TrigPolyField.random(2, (2, 2), rng, n_terms=2)
    lhs = a.matmul(b).partial(0)
    rhs = a.partial(0).matmul(b) + a.matmul(b.partial(0))
    for x in fl.TorusChart(2).grid([4, 2]):
        assert np.allclose(lhs.value(x), rhs.value(x), atol=1e-12)


def test_lie_bracket_sine_example():
    # V = e1, W = sin(x1) e2, so [V, W] = cos(x1) e2
    v = fl.TrigPolyField.constant(2, np.array([[1.0], [0.0]]))
    s = np.array([[0.0], [1.0]])
    w = fl.TrigPolyField(2, (2, 1), {(1, 0): (np.zeros((2, 1)), s)})
    bracket = fl.lie_bracket(v, w)
    expected = fl.TrigPolyField(2, (2, 1), {(1, 0): (s, np.zeros((2, 1)))})
    for x in fl.TorusChart(2).grid([5, 1]):
        assert np.allclose(bracket.value(x), expected.value(x), atol=1e-14)


def test_lie_bracket_antisymmetry_seed3():
    rng = SplitMix64(3)
    v = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=3)
    w = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=3)
    lhs = fl.lie_bracket(v, w)
    rhs = fl.lie_bracket(w, v)
    for x in fl.TorusChart(2).grid([4, 4]):
        assert np.allclose(lhs.value(x), -rhs.value(x), atol=1e-12)


def test_lie_bracket_jacobi():
    rng = SplitMix64(31)
    v = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    w = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    z = fl.TrigPolyField.random(2, (2, 1), rng, n_terms=2, max_degree=2)
    total = (
        fl.lie_bracket(fl.lie_bracket(v, w), z)
        + fl.lie_bracket(fl.lie_bracket(w, z), v)
        + fl.lie_bracket(fl.lie_bracket(z, v), w)
    )
    for x in fl.TorusChart(2).grid([3, 3]):
        assert np.max(np.abs(total.value(x))) < 1e-10


def test_lie_bracket_shape_errors():
    v = fl.TrigPolyField.constant(2, np.eye(2))
    with pytest.raises(ShapeMismatch):
        fl.lie_bracket(v, v)


def test_serialization_roundtrip():
    rng = SplitMix64(25)
    f = fl.TrigPolyField.random(3, (2, 2), rng, n_terms=4)
    g = fl.TrigPolyField.from_json_dict(f.to_json_dict())
    assert set(f.terms) == set(g.terms)
    for k in f.terms:
        assert np.array_equal(f.terms[k][0], g.terms[k][0])
        assert np.array_equal(f.terms[k][1], g.terms[k][1])


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

    def modulator(freq, amp):
        # 1 + amp*(cos(freq.x) - cos(freq.x0)) style bump equal to 1 at x
        raw = fl.TrigPolyField(
            2, (1, 1), {freq: (np.array([[amp]]), np.array([[amp / 2]]))}
        )
        offset = 1.0 - raw.value(x)[0, 0]
        return raw + fl.TrigPolyField.constant(2, np.array([[offset]]))

    phi = modulator((1, 0), 0.7)
    psi = modulator((0, 1), 0.4)
    zeta = rng.reals(2)
    eta = rng.reals(2)
    n_const, n_mod, dev = fl.verify_tensoriality(j, x, zeta, eta, phi, psi)
    assert dev < 1e-10
    # doubling the modulation gradient must not change the result either
    phi2 = modulator((1, 0), 1.4)
    _, n_mod2, dev2 = fl.verify_tensoriality(j, x, zeta, eta, phi2, psi)
    assert dev2 < 1e-10
    assert np.max(np.abs(n_mod - n_mod2)) < 1e-10


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
            assert same_bits(row, f.jacobian_value(x))


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
