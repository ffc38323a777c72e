"""Acceptance gate: ten end-to-end certifications with pinned tolerances
and runtime budgets. Each test prints one PASS/FAIL verdict line through
the capture bypass so the gate summary is visible in any run.
"""
import time

import numpy as np

from acs_verify.checks import build_graph_scenario
from acs_verify.cxlinalg import realify_vector
from acs_verify.distribution import (
    CRPolyMap,
    DistributionChart,
    frame_bracket_oracle,
    isotropy_test,
    random_polynomial_chart,
    torsion_at,
)
from acs_verify.fields import (
    AlmostComplexField,
    TorusChart,
    TrigPolyField,
    nijenhuis_direct,
)
from acs_verify.induced import (
    induced_jf,
    induced_jf_field,
    nijenhuis_via_torsion,
    variation_djf,
    variation_fd_oracle,
)
from acs_verify.lvmb import (
    LvmbData,
    check_condition_i,
    check_condition_i_polygon,
    check_condition_ii,
)
from acs_verify.rng import SplitMix64
from acs_verify.scenarios import (
    bundled_scenario_names,
    find_scenario,
    parse_scenario,
    run_scenario,
    serialize_report,
)
from acs_verify.universal import (
    PointwiseACManifold,
    UniversalSample,
    default_torus_embedding,
    dimension_symplectic,
    dimension_universal,
    induced_structure_at,
    induced_structure_field,
    random_compatible_symplectic,
    symplectic_pointwise_model,
    versality_check,
    versality_rank_from_parts,
)


def report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {num:>2}: {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def perturbed_manifold(n, k, seed=9, eps=0.1):
    rng = SplitMix64(seed)
    a = TrigPolyField.random(2 * n, (2 * n, 2 * n), rng,
                             max_degree=2, n_terms=3, amplitude=1.0)
    j = AlmostComplexField.conjugated(a, eps)
    return PointwiseACManifold(n, k, default_torus_embedding(n), j)


def test_criterion_01_dimension_formulas(capsys):
    t0 = time.perf_counter()
    ok = dimension_universal(1, 4) == 46
    for n in (1, 2, 3):
        ok = ok and dimension_universal(n, 4 * n) == 38 * n * n + 8 * n
    symplectic_table = {(1, 1, 3): 52, (1, 2, 3): 178, (2, 1, 5): 142}
    for (n, b, k), want in symplectic_table.items():
        ok = ok and dimension_symplectic(n, b, k) == want
    dt = time.perf_counter() - t0
    ok = ok and dt < 1e-3
    report(capsys, 1, ok,
           f"dimension tables exact, {dt * 1e6:.0f} us (< 1 ms)")


def test_criterion_02_universal_reconstruction(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    n_pts = 0
    for n, k, counts in ((1, 4, [10, 10]), (2, 8, [6, 6, 6, 6])):
        m = perturbed_manifold(n, k)
        for x in TorusChart(2 * n).grid(counts):
            jf = induced_structure_at(x, m)
            worst = max(worst, float(np.max(np.abs(jf - m.j.value(x)))))
            n_pts += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 30.0
    report(capsys, 2, ok,
           f"max |J_f - J_X| = {worst:.3e} <= 1e-8 over {n_pts} grid points, "
           f"{dt:.1f} s (< 30 s)")


def test_criterion_03_torsion_double_entry(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(77)
    worst = 0.0
    antisym = True
    for _ in range(10):
        n = rng.integer(1, 2)
        big_n = n + rng.integer(2, 6 - n)
        chart = random_polynomial_chart(n, big_n, rng, amplitude=0.8)
        direct = torsion_at(chart)
        oracle = frame_bracket_oracle(chart)
        scale = max(direct.norm(), oracle.norm(), 1e-12)
        worst = max(worst,
                    float(np.max(np.abs(direct.theta - oracle.theta))) / scale)
        antisym = antisym and np.array_equal(
            direct.theta, -np.transpose(direct.theta, (0, 2, 1)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and antisym and dt < 5.0
    report(capsys, 3, ok,
           f"10 charts, relative deviation {worst:.3e} <= 1e-6, "
           f"antisymmetry exact: {antisym}, {dt:.2f} s (< 5 s)")


def test_criterion_04_nijenhuis_identity(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(41)
    worst = 0.0
    for _ in range(5):
        n = rng.integer(1, 2)
        big_n = n + rng.integer(2, 6 - n)
        chart, emb, _ = build_graph_scenario(rng, n, big_n)
        struct = induced_jf_field(emb, chart)
        zp = emb.base
        x = realify_vector(zp)
        for _ in range(25):
            zeta = rng.reals(2 * n)
            eta = rng.reals(2 * n)
            via = nijenhuis_via_torsion(emb, chart, zp, zeta, eta)
            direct = nijenhuis_direct(struct, x, zeta, eta)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, float(np.max(np.abs(via - direct))) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 20.0
    report(capsys, 4, ok,
           f"5 scenarios x 25 pairs, four-bracket vs torsion route "
           f"{worst:.3e} <= 1e-4, {dt:.1f} s (< 20 s)")


def test_criterion_05_variation_formula(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(21)
    ratios = []
    terminal = 0.0
    anti = 0.0
    for _ in range(3):
        chart, emb, var = build_graph_scenario(rng)
        zp = emb.base
        closed = variation_djf(emb, chart, var, zp)
        errs = [float(np.max(np.abs(fd - closed)))
                for fd in variation_fd_oracle(emb, chart, var, zp, (1e-3, 1e-4))]
        ratios.append(errs[0] / max(errs[1], 1e-15))
        terminal = max(terminal, errs[1])
        jf = induced_jf(emb, chart, zp)
        anti = max(anti, float(np.max(np.abs(jf @ closed + closed @ jf))))
    dt = time.perf_counter() - t0
    in_band = all(8.0 <= r <= 12.0 for r in ratios)
    ok = in_band and terminal <= 1e-3 and anti <= 1e-9 and dt < 20.0
    report(capsys, 5, ok,
           f"error ratios {[f'{r:.1f}' for r in ratios]} in [8,12], "
           f"terminal {terminal:.2e} <= 1e-3, anticommutation {anti:.2e} "
           f"<= 1e-9, {dt:.1f} s (< 20 s)")


def test_criterion_06_versality_ranks(capsys):
    m = perturbed_manifold(1, 4)
    gaps = []
    ok = True
    pts = TorusChart(2).grid([3, 3])[:5]
    for x in pts:
        rep = versality_check(UniversalSample(x, m))
        # inj certifies full realified rank 2 of dbar f, i.e. complex rank 1
        ok = ok and rep["inj"]
        ok = ok and rep["surj_rank"] == rep["target_rank"] == 2
        gaps.append(rep["sv_gap"])
    ok = ok and min(gaps) >= 1e-6
    # foliation control: theta = 0 chart, so the pairing rank drops to 0
    z1_squared = ((2, 0, 0), (0, 0, 0))
    amap = CRPolyMap(3, 1, 2, {
        (0, 0): {z1_squared: 1.0},
        (0, 1): {z1_squared: 0.5j},
    })
    control_chart = DistributionChart(1, 3, amap)
    theta = torsion_at(control_chart)
    control = versality_rank_from_parts(
        theta, SplitMix64(3).complex_matrix(2, 2, 1.0))
    ok = ok and control["surj_rank"] == 0
    report(capsys, 6, ok,
           f"dbar complex rank 1 and pairing rank 2 at {len(pts)} samples, "
           f"sv gap {min(gaps):.2e} >= 1e-6, foliation control rank "
           f"{control['surj_rank']}")


def test_criterion_07_integrable_isotropy(capsys):
    worst_pair = 0.0
    nij = 0.0
    ok = True
    samples = 0
    for n, k, counts, probes in ((1, 4, [3, 3], 5), (2, 8, [2, 1, 1, 1], 3)):
        m = PointwiseACManifold(n, k, default_torus_embedding(n),
                                AlmostComplexField.standard(n))
        for x in TorusChart(2 * n).grid(counts):
            sample = UniversalSample(x, m)
            good, pairing = isotropy_test(sample.theta, sample.image(), m.n)
            ok = ok and good
            worst_pair = max(worst_pair, pairing)
            samples += 1
        jf_field = induced_structure_field(m)
        rng = SplitMix64(11)
        for _ in range(probes):
            x = rng.reals(2 * n, 0.0, 2.0 * np.pi)
            val = nijenhuis_direct(jf_field, x, rng.reals(2 * n),
                                   rng.reals(2 * n))
            nij = max(nij, float(np.max(np.abs(val))))
    ok = ok and nij <= 1e-8
    report(capsys, 7, ok,
           f"isotropy holds at {samples} constant-J samples "
           f"(worst pairing {worst_pair:.2e}), N_Jf residual {nij:.2e} <= 1e-8")


def test_criterion_08_symplectic_compatibility(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(29)
    worst = 0.0
    min_swap = np.inf
    for trial in range(3):
        n = 1 + trial % 2
        om, jx, gam, emb = random_compatible_symplectic(rng, n, 1 + trial % 2)
        rep = symplectic_pointwise_model(om, jx, {"gamma": gam, "embed": emb})
        worst = max(worst, rep["max_residual_compatibility"],
                    rep["max_residual_pullback"], rep["jsq_residual"])
        min_swap = min(min_swap, rep["swap_residual"])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and min_swap > 1e-2 and dt < 1.0
    report(capsys, 8, ok,
           f"3 random compatible inputs, residuals {worst:.2e} <= 1e-10, "
           f"sign-flip control residual {min_swap:.2f} > 1e-2, "
           f"{dt * 1e3:.0f} ms (< 1 s)")


def test_criterion_09_lvmb_conditions(capsys):
    t0 = time.perf_counter()
    closed = LvmbData(1, 2, [[0, 1, 2]], [[0], [1], [1j]])
    rep_closed = check_condition_ii(closed)
    open_fam = LvmbData(1, 3, [[0, 1, 2]], [[0], [1], [1j], [1 + 1j]])
    rep_open = check_condition_ii(open_fam)
    verdicts = (rep_closed["ok"] and rep_closed["counterexample"] is None
                and not rep_open["ok"]
                and rep_open["counterexample"] == {"J": [0, 1, 2], "k": 3})
    rng = SplitMix64(23)
    agree = True
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
        d = LvmbData(1, big_n, family, [[v] for v in forms])
        lp = check_condition_i(d)
        poly = check_condition_i_polygon(d)
        agree = agree and lp["ok"] == poly["ok"]
        agree = agree and all(a["overlap"] == b["overlap"]
                              for a, b in zip(lp["pairs"], poly["pairs"]))
    dt = time.perf_counter() - t0
    ok = verdicts and agree and dt < 5.0
    report(capsys, 9, ok,
           f"exchange verdicts with counterexample (J=[0,1,2], k=3) exact, "
           f"LP vs polygon oracle agree on 20 instances, {dt:.2f} s (< 5 s)")


def test_criterion_10_byte_deterministic_reports(capsys):
    names = bundled_scenario_names()
    ok = len(names) >= 10
    for name in names:
        doc = parse_scenario(find_scenario(name))
        first = serialize_report(*run_scenario(doc))
        second = serialize_report(*run_scenario(doc))
        ok = ok and first.encode() == second.encode()
    report(capsys, 10, ok,
           f"{len(names)} bundled scenarios re-run byte-identical")
