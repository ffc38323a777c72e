"""Induced structures on graphs, their variation, and Nijenhuis identity.

Every closed form here is checked against an independent route: the
quotient construction for J_F, deformed-graph finite differences for the
variation, and the four-bracket Nijenhuis evaluation on the realified
chart for the torsion identity.
"""
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from oracles import complex_vector
from acs_verify import induced
from acs_verify.checks import REGISTRY, Run, _graph_params, build_graph_scenario
from acs_verify.config import DEFAULT, worst_of
from acs_verify.cxlinalg import complexify_vector, realify_vector, standard_structure
from acs_verify.distribution import (
    CRPolyMap,
    DistributionChart,
    random_polynomial_chart,
    torsion_via_frames,
)
from acs_verify.errors import NotNormalized, NotTransverse, ShapeMismatch
from acs_verify.fields import nijenhuis_direct, nijenhuis_from_jet, structure_jet
from acs_verify.induced import (
    GraphEmbedding,
    VariationData,
    centered_chart,
    dbar_f_fiber_coords,
    deformation,
    induced_jf,
    induced_jf_field,
    induced_jf_quotient,
    nijenhuis_torsion_map,
    nijenhuis_via_torsion,
    pullback_quotient,
    random_crpoly,
    variation_djf,
    variation_fd_oracle,
)
from acs_verify.rng import SplitMix64
from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario


def poly_chart(n, big_n, assignments):
    entries = {}
    for (i, j), (powers, coeff) in assignments.items():
        entries[(i, j)] = {(tuple(powers), (0,) * big_n): coeff}
    return DistributionChart(n, big_n, CRPolyMap(big_n, n, big_n - n, entries))


def column(n_vars, assignments):
    """CRPolyMap column: assignments[i] = list of (pz, pzb, coeff)."""
    entries = {}
    for i, terms in assignments.items():
        cell = {}
        for pz, pzb, coeff in terms:
            cell[(tuple(pz), tuple(pzb))] = coeff
        entries[(i, 0)] = cell
    rows = max(assignments) + 1 if assignments else 1
    return CRPolyMap(n_vars, rows, 1, entries)


def graph_with(n, big_n, assignments):
    g = column(n, assignments) if assignments else CRPolyMap.constant(
        n, np.zeros((big_n - n, 1))
    )
    if g.rows != big_n - n:
        g = CRPolyMap(n, big_n - n, 1, g.entries)
    return GraphEmbedding(n, big_n, g)


def test_crpoly_calculus():
    # scalar map z^2 conj(z): dz -> 2 z conj(z), dzbar -> z^2
    f = CRPolyMap(1, 1, 1, {(0, 0): {((2,), (1,)): 1.0}})
    z = np.array([0.4 + 0.3j])
    assert abs(f.value(z)[0, 0] - z[0] ** 2 * z[0].conj()) < 1e-15
    dz, dzbar = f.wirtinger_maps()
    assert abs(dz.value(z)[0, 0] - 2 * z[0] * z[0].conj()) < 1e-15
    assert abs(dzbar.value(z)[0, 0] - z[0] ** 2) < 1e-15
    conj = f.conjugate()
    assert abs(conj.value(z)[0, 0] - (z[0] ** 2 * z[0].conj()).conjugate()) < 1e-15


def test_crpoly_matmul_matches_numeric_product():
    rng = SplitMix64(71)
    a = random_crpoly(2, 3, 2, rng)
    b = random_crpoly(3, 2, 2, rng)
    prod = a.matmul(b)
    for _ in range(4):
        z = 0.5 * complex_vector(rng, 2)
        assert np.max(np.abs(prod.value(z) - a.value(z) @ b.value(z))) < 1e-12


def test_substitute_graph_exact():
    rng = SplitMix64(73)
    chart = random_polynomial_chart(1, 3, rng)
    g = random_crpoly(2, 1, 1, rng, degree=2)
    graph = {(0, 0): {((1,), (0,)): 1.0}}
    graph.update({(1 + l, 0): terms for (l, _), terms in g.entries.items()})
    pulled = chart.amap.substitute(CRPolyMap(1, 3, 1, graph))
    for _ in range(5):
        zp = 0.3 * complex_vector(rng, 1)
        direct = chart.amap.value(np.concatenate([zp, g.value_vector(zp)]))
        assert np.max(np.abs(pulled.value(zp) - direct)) < 1e-13


def test_jf_zero_chart_is_standard():
    emb = graph_with(1, 3, {0: [((0,), (1,), 0.4)], 1: [((2,), (0,), 0.3)]})
    chart = poly_chart(1, 3, {})
    for zp in [np.zeros(1), np.array([0.2 - 0.1j])]:
        jf = induced_jf(emb, chart, zp)
        assert np.max(np.abs(jf - standard_structure(1))) < 1e-12
        assert np.max(np.abs(induced_jf_quotient(emb, chart, zp) - jf)) < 1e-12


def test_jf_constant_graph_is_standard():
    # dbar g = 0 kills the correction even over a twisted chart
    emb = graph_with(1, 3, {})
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    zp = np.array([0.25 + 0.2j])
    jf = induced_jf(emb, chart, zp)
    assert np.max(np.abs(jf - standard_structure(1))) < 1e-12


def test_jf_literal_example_double_entry():
    # g = (0.3 conj z', 0) keeps a(F) = 0 along the graph: J_F stays i
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    emb = graph_with(1, 3, {0: [((0,), (1,), 0.3)]})
    zp = np.array([0.2 + 0.1j])
    jf = induced_jf(emb, chart, zp)
    assert np.max(np.abs(jf - induced_jf_quotient(emb, chart, zp))) < 1e-8
    assert np.max(np.abs(jf - standard_structure(1))) < 1e-12

    # mixing the components makes the correction term bite
    emb2 = graph_with(1, 3, {0: [((0,), (1,), 0.3)], 1: [((0,), (1,), 0.2)]})
    jf2 = induced_jf(emb2, chart, zp)
    assert np.max(np.abs(jf2 - standard_structure(1))) > 1e-3
    assert np.max(np.abs(jf2 - induced_jf_quotient(emb2, chart, zp))) < 1e-10
    assert np.max(np.abs(jf2 @ jf2 + np.eye(2))) < 1e-10
    # at the centered base point the structure is standard again
    assert np.max(np.abs(induced_jf(emb2, chart, np.zeros(1))
                         - standard_structure(1))) < 1e-12


def test_jf_double_entry_random_scenarios():
    rng = SplitMix64(83)
    for _ in range(3):
        n = rng.integer(1, 2)
        big_n = rng.integer(n + 1, 5)
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.5)
        g = random_crpoly(big_n - n, 1, n, rng, degree=2, amplitude=0.3)
        emb = GraphEmbedding(n, big_n, g)
        base_val = chart.a_value(emb.f_value(emb.base))
        if np.max(np.abs(base_val)) > 1e-9:
            # normalization depends on g(0); re-anchor the chart exactly
            chart = DistributionChart(
                n, big_n, chart.amap + CRPolyMap.constant(big_n, -base_val)
            )
        for _ in range(3):
            zp = 0.1 * complex_vector(rng, n)
            jf = induced_jf(emb, chart, zp)
            assert np.max(np.abs(jf - induced_jf_quotient(emb, chart, zp))) < 1e-8
            assert np.max(np.abs(jf @ jf + np.eye(2 * n))) < 1e-8


def test_not_normalized_guard():
    # the transport term of the variation is closed-form only where
    # a(F(zp)) = 0
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 0), 0.5)})
    emb = graph_with(1, 3, {})
    eta = column(1, {0: [((1,), (0,), 0.3)], 1: [((0,), (1,), 0.2)]})
    v = CRPolyMap.constant(1, np.ones((1, 1)))
    with pytest.raises(NotNormalized):
        variation_djf(emb, chart, VariationData(eta, v), np.zeros(1))


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5)])
def test_jf_closed_form_holds_on_uncentered_charts(n, big_n):
    # the closed form needs no centred chart: off the graph's base point a
    # is far from 0, and J_F still equals the quotient route
    rng = SplitMix64(97 + n)
    for _ in range(4):
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.5)
        chart = DistributionChart(
            n, big_n, chart.amap + CRPolyMap.constant(big_n, rng.complex_matrix(n, big_n - n, 0.3)))
        emb = GraphEmbedding(n, big_n, random_crpoly(big_n - n, 1, n, rng, degree=2, amplitude=0.3))
        assert np.max(np.abs(chart.a_value(emb.f_value(emb.base)))) > 1e-2
        for _ in range(3):
            zp = 0.1 * complex_vector(rng, n)
            jf = induced_jf(emb, chart, zp)
            assert np.max(np.abs(jf - standard_structure(n))) > 1e-3
            assert np.max(np.abs(jf - induced_jf_quotient(emb, chart, zp))) < 1e-12


def test_dbar_f_holomorphic_graph_vanishes():
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    emb = graph_with(1, 3, {0: [((2,), (0,), 0.4)], 1: [((1,), (0,), -0.2j)]})
    for zp in [np.zeros(1), np.array([0.2 - 0.15j])]:
        mat = oracles.dbar_f(emb, chart, zp)
        assert np.max(np.abs(mat)) < 1e-12


def test_dbar_f_antiholomorphic_rank_and_value():
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    emb = graph_with(1, 3, {0: [((0,), (1,), 0.3)], 1: [((0,), (1,), 0.2)]})
    mat = oracles.dbar_f(emb, chart, np.zeros(1))
    assert np.linalg.matrix_rank(mat, tol=1e-10) == 2
    # at the base point dbar F(zeta) = (0, dbar g(zeta))
    for r in range(2):
        zeta = complexify_vector(np.eye(2)[:, r])
        expected = realify_vector(
            np.concatenate([[0.0], emb._qg.value(np.zeros(1)) @ zeta.conj()])
        )
        assert np.max(np.abs(mat[:, r] - expected)) < 1e-12


def test_dbar_image_in_fiber_seed13():
    rng = SplitMix64(13)
    chart = random_polynomial_chart(2, 5, rng, amplitude=0.6)
    g = random_crpoly(3, 1, 2, rng, degree=2, amplitude=0.4)
    emb = GraphEmbedding(2, 5, g)
    shift = chart.a_value(emb.f_value(emb.base))
    chart = DistributionChart(2, 5, chart.amap + CRPolyMap.constant(5, -shift))
    for _ in range(5):
        zp = 0.1 * complex_vector(rng, 2)
        _, residual = dbar_f_fiber_coords(emb, chart, zp)
        assert residual < 1e-8


def test_dbar_fiber_residual_keeps_a_nan(monkeypatch):
    # the membership residual is folded over the 2n basis vectors; a NaN
    # from the chart must reach the caller, not vanish in the fold
    rng = SplitMix64(13)
    chart = random_polynomial_chart(2, 5, rng, amplitude=0.6)
    g = random_crpoly(3, 1, 2, rng, degree=2, amplitude=0.4)
    emb = GraphEmbedding(2, 5, g)
    zp = 0.1 * complex_vector(rng, 2)
    jf = induced_jf_quotient(emb, chart, zp)
    etas, residual = dbar_f_fiber_coords(emb, chart, zp, jf)
    assert np.isfinite(residual)
    a_value = chart.a_value
    monkeypatch.setattr(chart, "a_value", lambda z: a_value(z) * np.nan)
    tampered, residual = dbar_f_fiber_coords(emb, chart, zp, jf)
    assert np.isnan(residual)
    assert tampered.tobytes() == etas.tobytes()


def scenario_seed(seed, n=1, big_n=3):
    # constant terms keep eta and v nonzero at the base point, where the
    # closed-form variation lives; random_crpoly alone vanishes there
    rng = SplitMix64(seed)
    chart = random_polynomial_chart(n, big_n, rng, amplitude=0.8)
    g = random_crpoly(big_n - n, 1, n, rng, degree=2, amplitude=0.4)
    emb = GraphEmbedding(n, big_n, g)
    shift = chart.a_value(emb.f_value(emb.base))
    chart = DistributionChart(n, big_n, chart.amap + CRPolyMap.constant(big_n, -shift))
    eta = random_crpoly(big_n - n, 1, n, rng, degree=2, amplitude=0.5)
    eta = eta + CRPolyMap.constant(n, rng.complex_matrix(big_n - n, 1, 0.4))
    v = random_crpoly(n, 1, n, rng, degree=2, amplitude=0.5)
    v = v + CRPolyMap.constant(n, rng.complex_matrix(n, 1, 0.4))
    return chart, emb, VariationData(eta, v), rng


def test_variation_zero_data_is_zero():
    chart = poly_chart(1, 3, {})
    emb = graph_with(1, 3, {0: [((0,), (1,), 0.4)]})
    eta = column(1, {0: [((1,), (0,), 0.3)], 1: [((0,), (1,), 0.2)]})
    v = CRPolyMap.constant(1, np.zeros((1, 1)))
    djf = variation_djf(emb, chart, VariationData(eta, v), np.zeros(1))
    assert np.max(np.abs(djf)) < 1e-13
    [fd] = variation_fd_oracle(emb, chart, VariationData(eta, v), np.zeros(1), (1e-3,))
    assert np.max(np.abs(fd)) < 1e-9


def test_variation_reparametrization_only():
    chart, emb, var, _ = scenario_seed(59)
    zero_eta = CRPolyMap.constant(1, np.zeros((2, 1)))
    var_v = VariationData(zero_eta, var.v)
    zp = emb.base
    closed = variation_djf(emb, chart, var_v, zp)
    jf = induced_jf(emb, chart, zp)
    assert np.max(np.abs(jf @ closed + closed @ jf)) < 1e-9
    steps = (1e-3, 1e-4)
    errs = {t: np.max(np.abs(fd - closed))
            for t, fd in zip(steps, variation_fd_oracle(emb, chart, var_v, zp, steps))}
    assert errs[1e-3] < 1e-3
    assert 7.0 < errs[1e-3] / errs[1e-4] < 13.0


def test_variation_full_seed17():
    chart, emb, var, _ = scenario_seed(17)
    zp = emb.base
    closed = variation_djf(emb, chart, var, zp)
    jf = induced_jf(emb, chart, zp)
    assert np.max(np.abs(jf @ closed + closed @ jf)) < 1e-9
    steps = (1e-3, 1e-4)
    errs = [np.max(np.abs(fd - closed))
            for fd in variation_fd_oracle(emb, chart, var, zp, steps)]
    assert errs[0] < 1e-3
    slope = (np.log10(errs[0]) - np.log10(errs[1])) / (
        np.log10(steps[0]) - np.log10(steps[1])
    )
    assert slope > 0.9, f"convergence slope {slope:.3f}"


def test_variation_transport_term_is_load_bearing():
    # drop the -J dJ_f(v)/2 transport piece from the conjugate-linear
    # operator and the closed form stops matching the finite difference
    def z(*powers):
        return (powers, (0, 0, 0))

    chart = DistributionChart(1, 3, CRPolyMap(3, 1, 2, {
        (0, 0): {z(1, 0, 0): 0.7, z(0, 1, 0): 0.3},
        (0, 1): {z(0, 0, 1): 0.4j, z(2, 0, 0): 0.2},
    }))
    g = column(1, {0: [((0,), (1,), 0.5), ((2,), (0,), 0.3)],
                   1: [((0,), (1,), -0.2j), ((1,), (1,), 0.25)]})
    emb = GraphEmbedding(1, 3, g)
    eta = column(1, {0: [((0,), (0,), 0.3 - 0.2j), ((1,), (0,), 0.15)],
                     1: [((0,), (0,), 0.1 + 0.4j)]})
    v = column(1, {0: [((0,), (0,), 0.25 + 0.15j), ((0,), (1,), 0.2)]})
    var = VariationData(eta, v)
    zp = emb.base
    closed = variation_djf(emb, chart, var, zp)
    # reconstruct the transport piece and strip it off
    jf = induced_jf(emb, chart, zp)
    pg = emb._pg.value(zp)
    qg = emb._qg.value(zp)
    jac = chart.a_jacobian(emb.f_value(zp))
    v0 = v.value_vector(zp)
    df_v0 = np.concatenate([v0, pg @ v0 + qg @ v0.conj()])
    da_v0 = np.einsum("icb,b->ic", jac, df_v0)
    djf_v = np.zeros((2, 2))
    for r in range(2):
        zeta = complexify_vector(np.eye(2)[:, r])
        djf_v[:, r] = -2.0 * pullback_quotient(
            emb, chart, zp, 1j * (da_v0 @ (qg @ zeta.conj()))
        )
    without_transport = closed - 2.0 * jf @ (-0.5 * jf @ djf_v)
    assert np.max(np.abs(djf_v)) > 0.05
    errs = []
    for fd in variation_fd_oracle(emb, chart, var, zp, (1e-3, 1e-4)):
        errs.append(np.max(np.abs(fd - closed)))
        # truncated operator misses by an amount that does not shrink
        assert np.max(np.abs(fd - without_transport)) > 0.01
    assert errs[0] < 1e-3
    assert 7.0 < errs[0] / errs[1] < 13.0


def test_nijenhuis_identity_seed19():
    chart, emb, _, rng = scenario_seed(19)
    struct = induced_jf_field(emb, chart)
    for zp in [np.array([0.0 + 0.0j]), np.array([0.08 - 0.05j])]:
        x = realify_vector(zp)
        for _ in range(12):
            zeta = rng.reals(2)
            eta = rng.reals(2)
            via_theta = nijenhuis_via_torsion(emb, chart, zp, zeta, eta)
            direct = nijenhuis_direct(struct, x, zeta, eta)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(via_theta - direct)) / scale < 1e-4


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5)])
def test_nijenhuis_torsion_map_matches_per_pair_route_bitwise(n, big_n):
    rng = SplitMix64(83 + n)
    for _ in range(2):
        chart, emb, _ = build_graph_scenario(rng, n, big_n)
        zp = emb.base
        via_map = nijenhuis_torsion_map(emb, chart, zp)
        # the per-pair route as it reads without the map: every point
        # quantity rebuilt, then one pullback through the joint solve
        jf = induced_jf(emb, chart, zp)
        etas, _ = dbar_f_fiber_coords(emb, chart, zp, jf)
        theta = torsion_via_frames(chart, emb.f_value(zp))
        for _ in range(6):
            zeta = rng.reals(2 * n)
            eta = rng.reals(2 * n)
            got = via_map(zeta, eta)
            q_repr = 4.0 * theta.apply(etas @ zeta, etas @ eta)
            assert np.array_equal(got, nijenhuis_via_torsion(emb, chart, zp, zeta, eta))
            assert np.array_equal(got, pullback_quotient(emb, chart, zp, q_repr))


# the payload of the benchmark's induced_nijenhuis operation
BENCHMARK_NIJENHUIS = {"charts": 10, "instances": 5, "pairs": 25, "n": 2, "N": 5}


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5), (2, 6)])
def test_stacked_nijenhuis_routes_match_the_per_pair_routes_bitwise(n, big_n):
    rng = SplitMix64(91 + big_n)
    for _ in range(3):
        chart, emb, _ = build_graph_scenario(rng, n, big_n)
        zp = emb.base
        via_map = nijenhuis_torsion_map(emb, chart, zp)
        by_pair = oracles.nijenhuis_torsion_map_by_pair(emb, chart, zp)
        jet = structure_jet(induced_jf_field(emb, chart), realify_vector(zp))
        zetas, etas = rng.reals(2 * n * 9).reshape(9, 2 * n), rng.reals(2 * n * 9).reshape(9, 2 * n)
        stacks = [(zetas, etas), (zetas[:1], etas[:1]), (zetas[-1:], etas[-1:])]
        for zs, es in stacks:
            via_theta, direct = via_map(zs, es), nijenhuis_from_jet(jet, zs, es)
            assert via_theta.shape == direct.shape == zs.shape
            for zeta, eta, got_theta, got_direct in zip(zs, es, via_theta, direct):
                assert np.array_equal(got_theta, by_pair(zeta, eta))
                assert np.array_equal(got_direct, oracles.nijenhuis_from_jet_by_pair(jet, zeta, eta))
                # one pair, as nijenhuis_direct and nijenhuis_via_torsion call them
                assert np.array_equal(via_map(zeta, eta), got_theta)
                assert np.array_equal(nijenhuis_from_jet(jet, zeta, eta), got_direct)


def nijenhuis_identity_by_pair(run: Run, rng: SplitMix64) -> tuple[float, int]:
    """The nijenhuis_identity check as a loop over its pairs, each drawn
    zeta then eta and taken through the per-pair routes of the oracles."""
    instances = run.count(int(run.payload.get("instances", 5)))
    pairs = int(run.payload.get("pairs", 25))
    worst = 0.0
    for _ in range(instances):
        chart, emb, _ = build_graph_scenario(rng, *_graph_params(run.payload, rng))
        via_torsion = oracles.nijenhuis_torsion_map_by_pair(emb, chart, emb.base, run.tol)
        jet = structure_jet(induced_jf_field(emb, chart), realify_vector(emb.base))
        for _ in range(pairs):
            zeta = rng.reals(2 * emb.n)
            eta = rng.reals(2 * emb.n)
            direct = oracles.nijenhuis_from_jet_by_pair(jet, zeta, eta)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = worst_of(worst, float(np.max(np.abs(via_torsion(zeta, eta) - direct))) / scale)
    return worst, instances * pairs


@pytest.mark.parametrize("payload, seed", [
    (None, None),
    (BENCHMARK_NIJENHUIS, 1), (BENCHMARK_NIJENHUIS, 2), (BENCHMARK_NIJENHUIS, 3),
    ({"instances": 2, "pairs": 300}, 4),
], ids=["bundled", "benchmark-1", "benchmark-2", "benchmark-3", "three-blocks"])
def test_nijenhuis_identity_record_matches_a_per_pair_loop(payload, seed):
    # both sides run on this machine's BLAS kernel, so the bits agree on any
    doc = parse_scenario(find_scenario("induced_nijenhuis"))
    if payload is not None:
        doc["payload"] = payload
    doc["checks"] = ["nijenhuis_identity"]
    [record], aggregate = run_scenario(doc, seed=seed)
    run = Run("induced", doc["payload"], DEFAULT, aggregate["seed"])
    worst, samples = nijenhuis_identity_by_pair(
        run, SplitMix64(aggregate["seed"] ^ zlib.crc32(b"nijenhuis_identity")))
    assert record["status"] == "pass" and record["samples_checked"] == samples
    assert np.float64(record["max_residual"]).tobytes() == np.float64(worst).tobytes()


def _nijenhuis_identity_peak(payload) -> int:
    run = Run("induced", payload, DEFAULT, 5)
    tracemalloc.start()
    try:
        REGISTRY["nijenhuis_identity"].runner(run, SplitMix64(5))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nijenhuis_identity_memory_stays_flat_in_the_pair_count(monkeypatch):
    # pairs go through the routes FIBER_CHUNK = 128 at a time: a block
    # peaks at about 4 times the 25-pair run (64 KB), and 2000 pairs in
    # one stack at about 60 times
    from acs_verify import checks

    payload = {"instances": 1, "n": 2, "N": 5}
    few = _nijenhuis_identity_peak(dict(payload, pairs=25))
    assert _nijenhuis_identity_peak(dict(payload, pairs=2000)) <= 8 * few
    monkeypatch.setattr(checks, "FIBER_CHUNK", 2000)
    assert _nijenhuis_identity_peak(dict(payload, pairs=2000)) > 8 * few


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("pairs", [1, 9])
def test_nijenhuis_identity_differentiates_jf_once_per_instance(monkeypatch, n, pairs):
    calls = []
    original = induced.induced_jf

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(induced, "induced_jf", counted)
    run = Run("induced", {"instances": 1, "pairs": pairs, "n": n, "N": n + 2}, DEFAULT, 5)
    result = REGISTRY["nijenhuis_identity"].runner(run, SplitMix64(5))
    assert result.samples_checked == pairs and result.max_residual < 1e-4
    # one J_f for the torsion map, one value and two per partial for the jet
    assert 0 < len(calls) <= 2 + 2 * (2 * n)


def _counted(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_variation_and_torsion_map_build_one_graph_point(monkeypatch, seed):
    # one a(F(zp)) and one SVD of the joint matrix per call, shared by
    # J_f, dbar f, theta and every pullback
    rng = SplitMix64(seed)
    chart, emb, var = build_graph_scenario(rng, 2, 5)
    a_calls = _counted(monkeypatch, DistributionChart, "a_value")
    svd_calls = _counted(monkeypatch, np.linalg, "svd")
    variation_djf(emb, chart, var, emb.base)
    assert len(a_calls) <= 2 and len(svd_calls) == 1
    a_calls.clear()
    svd_calls.clear()
    via_map = nijenhuis_torsion_map(emb, chart, emb.base)
    for _ in range(3):
        via_map(rng.reals(4), rng.reals(4))
    assert len(a_calls) == 1 and len(svd_calls) == 1


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_point_route_matches_the_per_column_oracles(n, seed):
    chart, emb, var = build_graph_scenario(SplitMix64(seed), n, n + 2)
    off = 0.1 * complex_vector(SplitMix64(seed + 100), n)
    # a(F(off)) != 0, so the correction term of the closed form is live
    assert np.max(np.abs(induced_jf(emb, chart, off) - standard_structure(n))) > 1e-4
    for zp in [emb.base, off]:
        jf = induced_jf(emb, chart, zp)
        _assert_close(jf, oracles.induced_jf_by_column(emb, chart, zp))
        quotient = induced_jf_quotient(emb, chart, zp)
        for given, used in [(jf, jf), (None, quotient)]:
            etas, residual = dbar_f_fiber_coords(emb, chart, zp, given)
            want, want_residual = oracles.dbar_f_fiber_coords_by_column(
                emb, chart, zp, used)
            _assert_close(etas, want)
            assert residual < 1e-12 and want_residual < 1e-12
    # the variation needs a(F(zp)) = 0: re-centre the chart at the
    # off-base point for the second comparison
    emb_off = GraphEmbedding(n, n + 2, emb.g, base=off)
    for e, c in [(emb, chart), (emb_off, centered_chart(emb_off, chart))]:
        _assert_close(variation_djf(e, c, var, e.base),
                      oracles.variation_djf_by_column(e, c, var, e.base))


def test_nijenhuis_torsion_map_rejects_non_transverse_graph():
    # a = 4 z_1 with g = conj(z') is tangent to the fiber at z' = 0.25
    chart = poly_chart(1, 2, {(0, 0): ((1, 0), 4.0)})
    emb = graph_with(1, 2, {0: [((0,), (1,), 1.0)]})
    with pytest.raises(NotTransverse):
        nijenhuis_torsion_map(emb, chart, np.array([0.25 + 0j]))


def test_nijenhuis_vanishes_for_integrable_cases():
    rng = SplitMix64(61)
    # holomorphic graph: dbar f = 0, so both routes must return zero
    chart = poly_chart(1, 3, {(0, 0): ((0, 0, 1), 1.0)})
    emb = graph_with(1, 3, {0: [((2,), (0,), 0.4)]})
    zp = np.array([0.1 + 0.1j])
    out = nijenhuis_via_torsion(emb, chart, zp, rng.reals(2), rng.reals(2))
    assert np.max(np.abs(out)) < 1e-12

    # constant-direction foliation: theta = 0 but J_F is a nonconstant
    # field; its direct Nijenhuis tensor must vanish too
    foliation = poly_chart(
        1, 3, {(0, 0): ((2, 0, 0), 1.0), (0, 1): ((2, 0, 0), 0.5j)}
    )
    emb2 = graph_with(1, 3, {0: [((0,), (1,), 0.3)], 1: [((0,), (1,), 0.2)]})
    out2 = nijenhuis_via_torsion(emb2, foliation, zp, rng.reals(2), rng.reals(2))
    assert np.max(np.abs(out2)) < 1e-12
    struct = induced_jf_field(emb2, foliation)
    direct = nijenhuis_direct(struct, realify_vector(zp), rng.reals(2), rng.reals(2))
    assert np.max(np.abs(direct)) < 1e-6


def test_induced_jf_not_transverse_at_constructed_tangency():
    # a = 4 z_1 with g = conj(z') makes the graph tangent to the fiber at 0.25
    chart = poly_chart(1, 2, {(0, 0): ((1, 0), 4.0)})
    emb = graph_with(1, 2, {0: [((0,), (1,), 1.0)]})
    with pytest.raises(NotTransverse):
        induced_jf(emb, chart, np.array([0.25 + 0j]))


def test_deformation_at_zero_t_is_identity():
    chart, emb, var, rng = scenario_seed(67)
    direction, vtilde = deformation(emb, chart, var)
    zp = 0.1 * complex_vector(rng, 1)
    g0 = emb.g + direction.scale(0.0)
    assert np.max(np.abs(g0.value(zp) - emb.g.value(zp))) < 1e-15
    # vtilde = v + a(F) eta, and a(F(base)) = 0 by normalization
    assert np.max(np.abs(
        vtilde.value_vector(emb.base) - var.v.value_vector(emb.base)
    )) < 1e-12


@pytest.mark.parametrize("n, big_n", [(1, 3), (2, 5)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fd_oracle_matches_one_deformation_per_step_bit_for_bit(n, big_n, seed):
    chart, emb, var = build_graph_scenario(SplitMix64(seed), n, big_n)
    off = 0.05 * complex_vector(SplitMix64(seed + 100), n)
    steps = (1e-3, 1e-4, 1e-2)
    for zp in (emb.base, off):
        got = variation_fd_oracle(emb, chart, var, zp, steps)
        assert len(got) == len(steps)
        for t, fd in zip(steps, got):
            want = oracles.variation_fd_quotient(emb, chart, var, zp, t)
            assert fd.tobytes() == want.tobytes()


def test_fd_oracle_builds_the_deformation_once_per_call(monkeypatch):
    chart, emb, var = build_graph_scenario(SplitMix64(5), 2, 5)
    substitutions = _counted(monkeypatch, CRPolyMap, "substitute")
    svds = _counted(monkeypatch, np.linalg, "svd")
    variation_fd_oracle(emb, chart, var, emb.base, (1e-3, 1e-4, 1e-5))
    # one a(F) substitution; one joint SVD at zp and one per step
    assert len(substitutions) == 1 and len(svds) == 4


def _max_degree(cmap: CRPolyMap) -> int:
    return max(sum(za) + sum(zb) for terms in cmap.entries.values() for za, zb in terms)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crpoly_value_matches_the_numpy_scalar_loop_bit_for_bit(seed):
    rng = SplitMix64(seed)
    chart, emb, var = build_graph_scenario(rng, 2, 5)
    direction, vtilde = deformation(emb, chart, var)
    maps = [random_crpoly(3, 2, 2, rng, degree=d, terms_per_entry=4) for d in (1, 3, 5)]
    maps += [direction, vtilde, direction.wirtinger_maps()[0], vtilde.wirtinger_maps()[1],
             emb.g + direction.scale(1e-4), chart.amap]
    assert max(_max_degree(cmap) for cmap in maps) >= 6
    for cmap in maps:
        zs = [np.zeros(cmap.n_vars), np.eye(cmap.n_vars)[0] * (0.3 - 0.2j)]
        zs += [0.5 * complex_vector(rng, cmap.n_vars) for _ in range(5)]
        for z in zs:
            got = cmap.value(z)
            assert got.tobytes() == oracles.crpoly_value_by_numpy_scalars(cmap, z).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wirtinger_maps_match_the_partial_maps_bit_for_bit(seed):
    rng = SplitMix64(seed)
    chart, emb, var = build_graph_scenario(rng, 2, 5)
    direction, vtilde = deformation(emb, chart, var)
    maps = [random_crpoly(3, 1, n_vars, rng, degree=d, terms_per_entry=4)
            for n_vars in (1, 2, 3) for d in (1, 2, 3, 4, 5)]
    maps += [emb.g, var.eta, var.v, direction, vtilde, emb.g + direction.scale(1e-4)]
    for cmap in maps:
        for got, want in zip(cmap.wirtinger_maps(), oracles.wirtinger_maps_by_partials(cmap)):
            assert (got.n_vars, got.rows, got.cols) == (want.n_vars, want.rows, want.cols)
            # same cells in the same order, each with its terms in order
            assert [(key, list(cell.items())) for key, cell in got.entries.items()] == \
                [(key, list(cell.items())) for key, cell in want.entries.items()]
            for z in [np.zeros(cmap.n_vars)] + [0.5 * complex_vector(rng, cmap.n_vars)
                                                for _ in range(3)]:
                assert got.value(z).tobytes() == want.value(z).tobytes()
    with pytest.raises(ShapeMismatch):
        random_crpoly(2, 2, 1, rng).wirtinger_maps()


def _variation_formula_record(seed, payload=None):
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    doc = parse_scenario(find_scenario("induced_variation"))
    doc["checks"] = ["variation_formula"]
    if payload is not None:
        doc["payload"] = payload
    [record], _ = run_scenario(doc, seed=seed)
    return record


# the payload of the benchmark's induced_variation operation
FIXED_DIMENSIONS = {"instances": 3, "n": 2, "N": 5}


# seeds at which, before every graph draw had a conj-linear part, two
# instances of the first and one of the second had dJ_f = 0 at the base
# point, and 1260075293, at which all three had
VANISHING_SEEDS = [1064514170, 496500247, 1260075293]


@pytest.mark.parametrize("seed", VANISHING_SEEDS)
def test_variation_formula_has_a_variation_at_every_instance(monkeypatch, seed):
    from acs_verify import checks

    djf = checks.variation_djf
    norms = []

    def recorded(*args, **kwargs):
        value = djf(*args, **kwargs)
        norms.append(float(np.max(np.abs(value))))
        return value

    monkeypatch.setattr(checks, "variation_djf", recorded)
    record = _variation_formula_record(seed, FIXED_DIMENSIONS)
    assert record["status"] == "pass"
    assert record["max_residual"] < 1e-3
    assert len(norms) == 3 and min(norms) > 1e-2
    assert record["samples_checked"] == 6


@pytest.mark.parametrize("seed", VANISHING_SEEDS + [None])
def test_variation_formula_draws_exactly_the_requested_instances(monkeypatch, seed):
    from acs_verify import checks

    build = checks.build_graph_scenario
    calls = []
    monkeypatch.setattr(checks, "build_graph_scenario",
                        lambda *args: calls.append(args) or build(*args))
    record = _variation_formula_record(seed, FIXED_DIMENSIONS)
    assert record["status"] == "pass"
    assert len(calls) == 3 and record["samples_checked"] == 6


# Scaled by 0, the closed form leaves the whole variation as FD error, and
# a decade of t no longer divides that error by ten.
@pytest.mark.parametrize("scale, seed, payload", [
    (1 + 1e-4, None, None),
    (1 + 1e-4, 1, None),
    (0.0, None, None),
    (0.0, 1064514170, FIXED_DIMENSIONS),
])
def test_scaled_variation_fails_variation_formula(monkeypatch, scale, seed, payload):
    from acs_verify import checks

    djf = checks.variation_djf
    monkeypatch.setattr(checks, "variation_djf",
                        lambda *args, **kwargs: scale * djf(*args, **kwargs))
    record = _variation_formula_record(seed, payload)
    assert record["status"] == "fail"
    if scale == 0.0:
        assert record["max_residual"] > 1e-2
        assert record["samples_checked"] == 2 * (payload or {}).get("instances", 3)


GRAPH_DIMENSIONS = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("n, big_n", GRAPH_DIMENSIONS + [(3, 5)])
def test_graph_draws_have_full_rank_conj_linear_parts(n, big_n):
    # every (n, N) that _graph_params draws, and one with N - n < n
    def rank(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(s > 1e-8 * s[0]))

    for seed in range(1, 2001):
        _, emb, var = build_graph_scenario(SplitMix64(seed), n, big_n)
        assert rank(emb.g.wirtinger_maps()[1].value(emb.base)) == min(n, big_n - n)
        assert rank(var.v.wirtinger_maps()[1].value(emb.base)) == n


def test_graph_params_draw_only_the_tested_dimensions():
    from acs_verify import checks

    drawn = set()
    for seed in range(200):
        drawn.add(checks._graph_params({}, SplitMix64(seed))[:2])
    assert drawn == set(GRAPH_DIMENSIONS)


# ---------------------------------------------------------------------------
# torsion_double_entry on the bundled induced_nijenhuis
# ---------------------------------------------------------------------------

def _induced_nijenhuis_records(seed=None):
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    records, _ = run_scenario(parse_scenario(find_scenario("induced_nijenhuis")),
                              seed=seed)
    return {r["name"]: r for r in records}


@pytest.mark.parametrize("seed", [4, 6, 9])
def test_torsion_double_entry_passes_where_the_torsion_is_zero(seed):
    # the oracle's truncation error, about 4e-9, once set the scale of a
    # zero torsion and read as residual 1.0
    record = _induced_nijenhuis_records(seed)["torsion_double_entry"]
    assert record["status"] == "pass"
    assert record["max_residual"] < 1e-8


@pytest.mark.parametrize("mutate", [
    lambda theta: np.transpose(theta, (0, 2, 1)),
    lambda theta: 1.01 * theta,
], ids=["transposed", "scaled"])
def test_torsion_at_mutants_fail_induced_nijenhuis(monkeypatch, mutate):
    from acs_verify import checks
    from acs_verify.distribution import TorsionTensor

    torsion_at = checks.torsion_at
    monkeypatch.setattr(checks, "torsion_at", lambda chart, tol=DEFAULT:
                        TorsionTensor(mutate(torsion_at(chart, tol=tol).theta)))
    assert _induced_nijenhuis_records()["torsion_double_entry"]["status"] == "fail"


def _last_row_scaled(stack):
    out = np.array(stack)
    out[-1] *= 1 + 1e-3
    return out


@pytest.mark.parametrize("route", ["direct", "torsion"])
def test_one_route_off_in_the_last_row_of_its_stack_fails_nijenhuis_identity(
        monkeypatch, route):
    # a relative error of 1e-3 in the last pair of each stack only, one
    # route at a time: a reduction that dropped a row, or that read the
    # rows of one route in another order, would pass
    from acs_verify import checks

    if route == "direct":
        direct = checks.nijenhuis_from_jet
        monkeypatch.setattr(checks, "nijenhuis_from_jet",
                            lambda jet, zeta, eta: _last_row_scaled(direct(jet, zeta, eta)))
    else:
        torsion_map = checks.nijenhuis_torsion_map

        def corrupted(emb, chart, zp, tol=DEFAULT):
            via = torsion_map(emb, chart, zp, tol)
            return lambda zeta, eta: _last_row_scaled(via(zeta, eta))

        monkeypatch.setattr(checks, "nijenhuis_torsion_map", corrupted)
    record = _induced_nijenhuis_records()["nijenhuis_identity"]
    assert record["status"] == "fail" and record["max_residual"] > 1e-4


def test_zero_torsion_route_fails_nijenhuis_identity(monkeypatch):
    # a route that returns N = 0 passed wherever dbar f had rank < 2 at
    # every instance's base point, the bundled seed among them
    from acs_verify import checks
    from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario

    monkeypatch.setattr(checks, "nijenhuis_torsion_map", lambda emb, chart, zp, tol=DEFAULT:
                        lambda zeta, eta: np.zeros(2 * emb.n))
    assert _induced_nijenhuis_records()["nijenhuis_identity"]["status"] == "fail"
    doc = parse_scenario(find_scenario("induced_nijenhuis"))
    doc["payload"] = BENCHMARK_NIJENHUIS
    doc["checks"] = ["nijenhuis_identity"]
    for seed in range(1, 11):
        [record], _ = run_scenario(doc, seed=seed)
        assert record["status"] == "fail", seed
