"""Named verification checks with formula anchors.

Every check certifies one identity; the anchor field states that identity
as a formula so reports are self-describing. A check runner receives the
run (`Run`: the scenario payload, numeric tolerances, the scenario seed,
the samples spec and the --samples cap) and a per-check random stream.
The manifold, fields structure, LVMB data and symplectic models come from
the payload and the seed: the run builds each on first use, so every
check sees the same one; all else a check draws (probes, the induced
checks' charts and graphs) comes from its own stream. Pass/fail is
uniform: a check passes when it saw at least one sample and its
max_residual is finite and <= tolerance, with indicator residuals (0 or
1) for verdict-match and control checks. Runners fold residuals with
worst_of, which keeps a NaN that max would drop.

A check that reads sample points asks the run for them with
`Run.points(limit)`: the first rows of the scenario's samples, or of the
kind's one default grid when it gives none, capped by --samples, and only
those rows are built. Fibers are not shared: reconstruction sweeps every
point, and fiber reality builds only the points it certifies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .config import Tolerances, worst_of
from .cxlinalg import realify_vector, standard_structure
from .distribution import (
    CRPolyMap,
    DistributionChart,
    frame_bracket_oracle,
    is_foliation,
    isotropy_test,
    random_polynomial_chart,
    torsion_at,
)
from .errors import SchemaError
from .fields import (
    AlmostComplexField,
    TorusChart,
    TrigPolyField,
    nijenhuis_direct,
    nijenhuis_fd_oracle,
    nijenhuis_from_jet,
    structure_jet,
    verify_tensoriality,
)
from .induced import (
    GraphEmbedding,
    GraphPoint,
    VariationData,
    centered_chart,
    induced_jf,
    induced_jf_field,
    nijenhuis_torsion_map,
    random_crpoly,
    variation_djf,
    variation_fd_oracle,
)
from .lvmb import (
    LvmbData,
    check_condition_i,
    check_condition_i_polygon,
    check_condition_ii,
)
from .rng import SplitMix64
# build_fiber is not called here; it stays importable as checks.build_fiber,
# the binding perfbench/test_perfbench.py checks its tracer against
from .universal import (
    FIBER_CHUNK,
    PointwiseACManifold,
    UniversalSample,
    build_fiber,  # noqa: F401
    build_fibers,
    default_torus_embedding,
    dimension_symplectic,
    dimension_universal,
    induced_structure_field,
    induced_structures,
    over_chunks,
    plucker_reality_certificate,
    symplectic_pointwise_model,
    random_compatible_symplectic,
    versality_check,
    versality_rank_from_parts,
)


@dataclass(frozen=True)
class CheckResult:
    max_residual: float
    samples_checked: int


# Points per axis of the one grid a kind reads on T^{2n} when a scenario
# gives no samples; validation holds it to scenarios.MAX_GRID_POINTS
DEFAULT_GRID_COUNTS = {"universal": 10, "fields": 8}


@dataclass
class Run:
    """One scenario run: its payload, tolerances, seed, samples spec and
    --samples cap, and the constructions its checks share, each built on
    first use (the LVMB data while the payload is validated) and dropped
    with the run.

    The constructions are those the payload and the seed determine, so a
    check sees the object it would have built itself: the manifold, the
    fields structure, the LVMB data, the symplectic model set and the
    universal samples of the versality and isotropy checks. Fibers are not
    held: they cost about 5.8 KB each, and a point is cheap to rebuild. A
    sample is held: a run builds only a few, and each carries a chart
    torsion and a differential that cost far more than its fiber. A build
    that raises stores nothing, so the next check to need it raises the
    same error.
    """

    kind: str
    payload: dict
    tol: Tolerances
    seed: int
    samples: dict | None = None
    sample_cap: int | None = None
    lvmb_data: LvmbData | None = None  # built by validation of an lvmb payload
    _universal: dict[bytes, UniversalSample] = field(
        default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return int(self.payload.get("n", 1))

    @cached_property
    def manifold(self) -> PointwiseACManifold:
        return build_manifold(self.payload, self.seed)

    @cached_property
    def structure(self) -> AlmostComplexField:
        return build_structure(self.payload, self.n, self.seed)

    @cached_property
    def symplectic_models(self) -> list[dict]:
        draws = self.count(int(self.payload.get("draws", 3)))
        return build_symplectic_models(draws, self.seed, self.tol)

    def sample(self, x) -> UniversalSample:
        """UniversalSample(x, manifold, tol), built on first use."""
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self._universal:
            self._universal[key] = UniversalSample(x, self.manifold, self.tol)
        return self._universal[key]

    def count(self, default: int) -> int:
        """default, capped by --samples."""
        return default if self.sample_cap is None else min(default, self.sample_cap)

    def points(self, limit: int | None = None) -> np.ndarray:
        """The first min(limit, --samples) rows of samples.points, else of
        the samples.counts grid, else of the kind's default grid
        ([DEFAULT_GRID_COUNTS]^2n); only those rows are built."""
        rows = self.sample_cap if limit is None else self.count(limit)
        spec = self.samples or {}
        if "points" in spec:
            return np.asarray(spec["points"][:rows], dtype=float)
        default = [DEFAULT_GRID_COUNTS[self.kind]] * (2 * self.n)
        counts = [int(c) for c in spec.get("counts", default)]
        return TorusChart(len(counts)).grid(counts, rows=rows)


@dataclass(frozen=True)
class Check:
    name: str
    kind: str
    anchor: str
    tolerance: float
    runner: Callable[[Run, SplitMix64], CheckResult]
    opt_in: bool = False


REGISTRY: dict[str, Check] = {}


def register(name: str, kind: str, anchor: str, tolerance: float,
             opt_in: bool = False):
    if not anchor:
        raise SchemaError("checks must carry a formula anchor")

    def deco(fn):
        REGISTRY[name] = Check(name, kind, anchor, tolerance, fn, opt_in)
        return fn

    return deco


def checks_for(kind: str, names=None) -> list[Check]:
    """Checks of one kind in registration order; explicit names may pull
    in opt-in checks and subselect."""
    if names is not None:
        out = []
        for name in names:
            if name not in REGISTRY:
                raise SchemaError(f"unknown check {name!r}")
            check = REGISTRY[name]
            if check.kind != kind:
                raise SchemaError(f"check {name!r} does not apply to kind {kind!r}")
            out.append(check)
        return out
    return [c for c in REGISTRY.values() if c.kind == kind and not c.opt_in]


def all_checks() -> list[Check]:
    return list(REGISTRY.values())


# ---------------------------------------------------------------------------
# payload builders (from the seed) and graph scenarios (from a check's rng)
# ---------------------------------------------------------------------------

def build_structure(payload: dict, n: int, seed: int) -> AlmostComplexField:
    spec = payload.get("structure", {"standard": True})
    if "standard" in spec:
        return AlmostComplexField.standard(n)
    if "conjugation" in spec:
        conf = spec["conjugation"]
        rng = SplitMix64(seed)
        a = TrigPolyField.random(
            2 * n, (2 * n, 2 * n), rng,
            max_degree=int(conf.get("degree", 2)),
            n_terms=int(conf.get("terms", 3)),
            amplitude=float(conf.get("amplitude", 1.0)),
        )
        return AlmostComplexField.conjugated(a, float(conf["epsilon"]))
    if "trig" in spec:
        return AlmostComplexField(TorusChart(2 * n),
                                  TrigPolyField.from_json_dict(spec["trig"]))
    raise SchemaError("unknown structure specification")


def build_symplectic_models(draws: int, seed: int, tol: Tolerances) -> list[dict]:
    """The symplectic_pointwise_model reports of the standard pair on R^2,
    embedded in the standard R^4, and of `draws` random compatible
    quadruples drawn from the seed, whose n and number of extra ambient
    pairs alternate between 1 and 2."""
    j0 = standard_structure(1)
    embed = np.zeros((4, 2))
    embed[0, 0] = embed[2, 1] = 1.0
    reports = [symplectic_pointwise_model(
        -j0, j0, {"gamma": -standard_structure(2), "embed": embed}, tol)]
    rng = SplitMix64(seed)
    for trial in range(draws):
        om, jx, gam, emb = random_compatible_symplectic(rng, 1 + trial % 2, 1 + trial % 2)
        reports.append(symplectic_pointwise_model(
            om, jx, {"gamma": gam, "embed": emb}, tol))
    return reports


def build_embedding(payload: dict) -> tuple[int, int, TrigPolyField]:
    """(n, k, g) of a universal payload, g not yet checked against n, k."""
    n = int(payload["n"])
    k = int(payload.get("k", 4 * n))
    emb_spec = payload.get("embedding", {"default_torus": True})
    if "default_torus" in emb_spec:
        return n, k, default_torus_embedding(n)
    if "trig" in emb_spec:
        return n, k, TrigPolyField.from_json_dict(emb_spec["trig"])
    raise SchemaError("unknown embedding specification")


def build_manifold(payload: dict, seed: int) -> PointwiseACManifold:
    n, k, g = build_embedding(payload)
    return PointwiseACManifold(n, k, g, build_structure(payload, n, seed))


def _conj_linear(rows: int, n: int, rng: SplitMix64, amplitude: float) -> CRPolyMap:
    """The column map with c_i conj(z_{i mod n}) in row i, each c_i drawn
    as random_crpoly draws a coefficient."""
    zero = (0,) * n
    entries = {}
    for i in range(rows):
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * amplitude
        entries[(i, 0)] = {(zero, zero[:i % n] + (1,) + zero[i % n + 1:]): coeff}
    return CRPolyMap(n, rows, 1, entries)


def build_graph_scenario(rng: SplitMix64, n: int = 1, big_n: int = 3,
                         amplitude: float = 0.8):
    """Random normalized chart + graph embedding + variation data; the
    chart constant is shifted so a(F(base)) = 0. Constant terms keep the
    variation fields nonzero at the base point. One of the two terms of
    each entry of g and v is conj-linear, c conj(z_{i mod n}) in row i,
    so dbar g(base) has rank min(n, N - n) and dbar v(base) rank n, and
    neither dJ_f nor N_{J_f} (n >= 2) vanishes there for want of them."""
    chart = random_polynomial_chart(n, big_n, rng, amplitude=amplitude)
    g = random_crpoly(big_n - n, 1, n, rng, degree=2, terms_per_entry=1, amplitude=0.4)
    g = g + _conj_linear(big_n - n, n, rng, 0.4)
    emb = GraphEmbedding(n, big_n, g)
    chart = centered_chart(emb, chart)
    eta = random_crpoly(big_n - n, 1, n, rng, degree=2, amplitude=0.5)
    eta = eta + CRPolyMap.constant(n, rng.complex_matrix(big_n - n, 1, 0.4))
    v = random_crpoly(n, 1, n, rng, degree=2, terms_per_entry=1, amplitude=0.5)
    v = v + _conj_linear(n, n, rng, 0.5)
    v = v + CRPolyMap.constant(n, rng.complex_matrix(n, 1, 0.4))
    return chart, emb, VariationData(eta, v)


def _graph_params(payload: dict, rng: SplitMix64):
    """Per-instance (n, N, amplitude) for random graph scenarios; absent
    payload entries vary the dimensions draw by draw within n <= 2,
    N <= 6."""
    n = payload.get("n")
    big_n = payload.get("N")
    if n is None:
        n = rng.integer(1, 2)
    else:
        n = int(n)
    if big_n is None:
        big_n = n + rng.integer(2, 6 - n)
    else:
        big_n = int(big_n)
    return n, big_n, float(payload.get("amplitude", 0.8))


# ---------------------------------------------------------------------------
# universal checks
# ---------------------------------------------------------------------------

@register(
    "universal_dimension_tables", "universal",
    "dim Z(n,k) = 2k + 2(k^2 + n(k-n)); dim Zs(n,b,k) = 2bk(2bk+1) + 2n(2bk-n)",
    0.0,
)
def _check_dimension_tables(run: Run, rng: SplitMix64) -> CheckResult:
    worst = 0
    table = {(1, 4): 46, (2, 8): 168, (1, 2): 14}
    for (n, k), expect in table.items():
        worst = worst_of(worst, abs(dimension_universal(n, k) - expect))
    for n in (1, 2, 3):
        worst = worst_of(worst, abs(dimension_universal(n, 4 * n) - (38 * n * n + 8 * n)))
    sym = {(1, 1, 3): 52, (1, 2, 3): 178, (2, 1, 5): 142}
    for (n, b, k), expect in sym.items():
        worst = worst_of(worst, abs(dimension_symplectic(n, b, k) - expect))
    return CheckResult(float(worst), len(table) + 3 + len(sym))


@register(
    "universal_reconstruction", "universal",
    "J_f(x) = J_X(x) through the quotient T_z/(S' (+) Sigma'') at the built 5-tuple",
    1e-8,
)
def _check_reconstruction(run: Run, rng: SplitMix64) -> CheckResult:
    m = run.manifold
    pts = run.points()

    worst = 0.0
    # J_f comes from the construction; the J it must reproduce is evaluated
    # again at the chunk's rows, so a construction that read J at the wrong
    # rows still fails (README, "Stacked chunks"); the two sides share only
    # the input evaluator values. np.max keeps a NaN
    for rows, jf in over_chunks(pts, lambda rows: induced_structures(rows, m, run.tol)):
        worst = worst_of(worst, float(np.max(np.abs(jf - m.j.values(rows)))))
    return CheckResult(worst, int(len(pts)))


@register(
    "universal_fiber_reality", "universal",
    "every reality point builds; |det(B^T B)| / det(B^H B) = 1 for B = [S' | conj S']",
    1e-9,
)
def _check_fiber_reality(run: Run, rng: SplitMix64) -> CheckResult:
    m = run.manifold
    pts = run.points(int(run.payload.get("reality_samples", 5)))
    worst = 0.0
    # |sum p_I^2| <= sum |p_I|^2, so a certificate above 1 is as wrong as
    # one below it; the count is of the points certified, not of the grid
    # (reconstruction sweeps that)
    for point in build_fibers(pts, m, run.tol):
        worst = worst_of(worst, abs(1.0 - plucker_reality_certificate(point, run.tol)))
    return CheckResult(worst, int(len(pts)))


@register(
    "universal_versality", "universal",
    "rank_R dbar f = 2n and rank_R (u -> theta(dbar f ., u)) = 2n^2",
    1e-8,
)
def _check_versality(run: Run, rng: SplitMix64) -> CheckResult:
    explicit = run.payload.get("versality_samples")
    if explicit is None:
        pts = run.points(3)
    else:  # --samples caps these rows as it caps the run's samples
        pts = np.asarray(explicit[: run.sample_cap], dtype=float)
    worst = 0.0
    for x in pts:
        rep = versality_check(run.sample(x))
        worst = worst_of(worst, float(rep["fiber_membership_residual"]))
        worst = worst_of(worst, float(abs(rep["surj_rank"] - rep["target_rank"])))
        if not rep["inj"]:
            worst = worst_of(worst, 1.0)
        if rep["sv_gap"] < 1e-6:
            worst = worst_of(worst, 1.0)
    return CheckResult(worst, int(len(pts)))


@register(
    "universal_isotropy", "universal",
    "integrable J: theta(dbar f u, dbar f v) = 0 on the image subspace",
    1e-9, opt_in=True,
)
def _check_isotropy(run: Run, rng: SplitMix64) -> CheckResult:
    pts = run.points(3)
    worst = 0.0
    for x in pts:
        sample = run.sample(x)
        ok, pairing = isotropy_test(sample.theta, sample.image(), run.n, run.tol)
        worst = worst_of(worst, pairing if ok else max(pairing, 1.0))
    return CheckResult(worst, int(len(pts)))


@register(
    "universal_nijenhuis_flat", "universal",
    "constant J: N_{J_f} = 0 for the induced field",
    1e-8, opt_in=True,
)
def _check_nijenhuis_flat(run: Run, rng: SplitMix64) -> CheckResult:
    m = run.manifold
    jf_field = induced_structure_field(m, run.tol)
    probes = run.count(int(run.payload.get("probes", 5)))
    worst = 0.0
    for _ in range(probes):
        x = rng.reals(2 * m.n, 0.0, 2.0 * np.pi)
        zeta = rng.reals(2 * m.n)
        eta = rng.reals(2 * m.n)
        val = nijenhuis_direct(jf_field, x, zeta, eta)
        worst = worst_of(worst, float(np.max(np.abs(val))))
    return CheckResult(worst, probes)


# ---------------------------------------------------------------------------
# induced / torsion checks
# ---------------------------------------------------------------------------

def _random_chart_draws(rng: SplitMix64, count: int):
    for _ in range(count):
        n = rng.integer(1, 2)
        big_n = n + rng.integer(2, 6 - n)
        yield random_polynomial_chart(n, big_n, rng, amplitude=0.8)


@register(
    "torsion_double_entry", "induced",
    "theta_ijk = (d_j a_ik - d_k a_ij)/2 agrees with FD frame brackets",
    1e-6,
)
def _check_torsion_double_entry(run: Run, rng: SplitMix64) -> CheckResult:
    count = run.count(int(run.payload.get("charts", 10)))
    worst = 0.0
    for chart in _random_chart_draws(rng, count):
        direct = torsion_at(chart, tol=run.tol)
        oracle = frame_bracket_oracle(chart)
        # floor 1: the oracle's error h^2/6 |d^3 a| does not shrink with theta
        scale = max(1.0, direct.norm(), oracle.norm())
        worst = worst_of(worst, float(np.max(np.abs(direct.theta - oracle.theta))) / scale)
    return CheckResult(worst, count)


@register(
    "torsion_antisymmetry", "induced",
    "theta(., u, v) = -theta(., v, u) bitwise",
    0.0,
)
def _check_torsion_antisymmetry(run: Run, rng: SplitMix64) -> CheckResult:
    count = run.count(int(run.payload.get("charts", 10)))
    worst = 0.0
    for chart in _random_chart_draws(rng, count):
        theta = torsion_at(chart, tol=run.tol).theta
        worst = worst_of(worst, float(np.max(
            np.abs(theta + np.transpose(theta, (0, 2, 1))), initial=0.0)))
    return CheckResult(worst, count)


@register(
    "nijenhuis_identity", "induced",
    "N_{J_f}(u, v) = 4 theta(dbar_f u, dbar_f v)",
    1e-4,
)
def _check_nijenhuis_identity(run: Run, rng: SplitMix64) -> CheckResult:
    instances = run.count(int(run.payload.get("instances", 5)))
    pairs = int(run.payload.get("pairs", 25))
    worst = 0.0
    for _ in range(instances):
        chart, emb, _ = build_graph_scenario(rng, *_graph_params(run.payload, rng))
        zp = emb.base
        # both routes depend on the pair only through a last cheap step:
        # build each once per instance, then evaluate each on stacks of
        # pairs, FIBER_CHUNK at a time
        via_torsion = nijenhuis_torsion_map(emb, chart, zp, run.tol)
        jet = structure_jet(induced_jf_field(emb, chart), realify_vector(zp))
        for start in range(0, pairs, FIBER_CHUNK):
            # zeta then eta for each pair, in the order of the stream
            draws = rng.reals(4 * emb.n * min(FIBER_CHUNK, pairs - start))
            draws = draws.reshape(-1, 2, 2 * emb.n)
            zetas, etas = draws[:, 0], draws[:, 1]
            via_theta = via_torsion(zetas, etas)
            direct = nijenhuis_from_jet(jet, zetas, etas)
            # fmax(1, nan) is 1, as max(1.0, nan) is; the quotient keeps the NaN
            scales = np.fmax(1.0, np.max(np.abs(direct), axis=-1))
            worst = worst_of(worst, *(np.max(np.abs(via_theta - direct), axis=-1) / scales).tolist())
    return CheckResult(worst, instances * pairs)


@register(
    "variation_formula", "induced",
    "dJ_f/dt = 2 J_f (f_*^{-1} theta(dbar f ., eta) + dbar_{J_f} v), FD ratio in [8,12]",
    1e-3,
)
def _check_variation_formula(run: Run, rng: SplitMix64) -> CheckResult:
    instances = run.count(int(run.payload.get("instances", 3)))
    worst = 0.0
    for _ in range(instances):
        chart, emb, var = build_graph_scenario(rng, *_graph_params(run.payload, rng))
        zp = emb.base
        closed = variation_djf(emb, chart, var, zp, run.tol)
        coarse, fine = (
            float(np.max(np.abs(fd - closed)))
            for fd in variation_fd_oracle(emb, chart, var, zp, (1e-3, 1e-4), run.tol))
        # the terminal (finest-step) error is the certified residual; the
        # FD error is sum_k t^k J^(k+1)(0) / (k+1)!, so a decade of t
        # divides it by ~10
        worst = worst_of(worst, fine)
        if not 8.0 <= coarse / max(fine, 1e-15) <= 12.0:
            worst = worst_of(worst, 1.0)
    return CheckResult(worst, 2 * instances)


@register(
    "variation_anticommutation", "induced",
    "J_f dJ_f + dJ_f J_f = 0 (derivative of J^2 = -Id)",
    1e-9,
)
def _check_variation_anticommutation(run: Run, rng: SplitMix64) -> CheckResult:
    instances = run.count(int(run.payload.get("instances", 3)))
    worst = 0.0
    for _ in range(instances):
        chart, emb, var = build_graph_scenario(rng, *_graph_params(run.payload, rng))
        zp = emb.base
        jf = induced_jf(emb, chart, zp, run.tol)
        djf = variation_djf(emb, chart, var, zp, run.tol)
        worst = worst_of(worst, float(np.max(np.abs(jf @ djf + djf @ jf))))
    return CheckResult(worst, instances)


@register(
    "foliation_rank_control", "induced",
    "theta = 0 (foliation) forces rank(u -> theta(dbar f ., u)) = 0",
    1e-6,
)
def _check_foliation_rank(run: Run, rng: SplitMix64) -> CheckResult:
    # a = z1^2 (1, i/2): constant direction times one scalar, so the
    # frame brackets cancel exactly and the plane field integrates
    z1_squared = ((2, 0, 0), (0, 0, 0))
    amap = CRPolyMap(3, 1, 2, {
        (0, 0): {z1_squared: 1.0},
        (0, 1): {z1_squared: 0.5j},
    })
    chart = DistributionChart(1, 3, amap)
    samples = [np.zeros(3, dtype=complex), np.array([0.2, 0.1j, -0.1 + 0.05j])]
    worst = is_foliation(chart, samples)
    theta = torsion_at(chart, tol=run.tol)
    etas = rng.complex_matrix(2, 2, 1.0)
    rep = versality_rank_from_parts(theta, etas, rank_rtol=run.tol.rank_rtol)
    worst = worst_of(worst, float(rep["surj_rank"]))
    return CheckResult(worst, len(samples))


@register(
    "pseudoholomorphic_rank_control", "induced",
    "dbar f = 0 (holomorphic graph) forces rank(u -> theta(dbar f ., u)) = 0",
    1e-8,
)
def _check_pseudoholomorphic_rank(run: Run, rng: SplitMix64) -> CheckResult:
    n, big_n = 1, 3
    chart = random_polynomial_chart(n, big_n, rng, amplitude=0.8)
    # z-only monomials: the graph is a complex submanifold, so the
    # conjugate-linear differential vanishes identically
    entries = {}
    for i in range(big_n - n):
        cell = {}
        for p in (1, 2):
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.4
            cell[((p,), (0,))] = coeff
        entries[(i, 0)] = cell
    g = CRPolyMap(n, big_n - n, 1, entries)
    emb = GraphEmbedding(n, big_n, g)
    pt = GraphPoint(emb, centered_chart(emb, chart), emb.base, run.tol)
    dbar = pt.dbar_f(pt.jf())
    etas, _ = pt.fiber_coords(dbar)
    worst = float(np.max(np.abs(dbar)))
    theta = pt.torsion()
    rep = versality_rank_from_parts(theta, etas, rank_rtol=run.tol.rank_rtol)
    # roundoff makes etas tiny but nonzero; count rank against the scale
    # the pairing would have for unit-size etas, not its own top value
    sv = rep["singular_values"]
    floor = max(float(theta.norm()), 1e-12)
    rank = int(np.sum(sv > run.tol.rank_rtol * floor))
    worst = worst_of(worst, float(rank))
    return CheckResult(worst, 1)


# ---------------------------------------------------------------------------
# lvmb checks
# ---------------------------------------------------------------------------

@register(
    "lvmb_condition_i", "lvmb",
    "all pairs J1, J2 in E: int conv{l_j : J1} meets int conv{l_j : J2} (LP margin >= 1e-9)",
    0.5,
)
def _check_lvmb_condition_i(run: Run, rng: SplitMix64) -> CheckResult:
    data = run.lvmb_data
    rep = check_condition_i(data, run.tol)
    expect = run.payload.get("expect", {}).get("condition_i")
    worst = 0.0
    if expect is not None and rep["ok"] != bool(expect):
        worst = 1.0
    if data.m == 1:
        # every pair against the oracle: a listed pair by its verdict, a
        # pair of two sets that the common point certified as overlapping
        listed = {(tuple(p["j1"]), tuple(p["j2"])): p["overlap"] for p in rep["pairs"]}
        covered = {tuple(s["j"]) for s in (rep["common_point"] or {"sets": []})["sets"]}
        for b in check_condition_i_polygon(data)["pairs"]:
            key = (tuple(b["j1"]), tuple(b["j2"]))
            if listed.get(key, key[0] in covered and key[1] in covered) != b["overlap"]:
                worst = worst_of(worst, 1.0)
    count = len(data.family)
    return CheckResult(worst, count * (count + 1) // 2)


@register(
    "lvmb_condition_ii", "lvmb",
    "all J in E, k in 0..N: exists k' in J with (J \\ k') + k in E",
    0.5,
)
def _check_lvmb_condition_ii(run: Run, rng: SplitMix64) -> CheckResult:
    data = run.lvmb_data
    rep = check_condition_ii(data)
    expect = run.payload.get("expect", {})
    worst = 0.0
    if "condition_ii" in expect and rep["ok"] != bool(expect["condition_ii"]):
        worst = 1.0
    if "counterexample" in expect and rep["counterexample"] != expect["counterexample"]:
        worst = 1.0
    return CheckResult(worst, len(data.family) * (data.big_n + 1))


# ---------------------------------------------------------------------------
# symplectic checks
# ---------------------------------------------------------------------------

@register(
    "symplectic_compatibility", "symplectic",
    "Jt^T Gt Jt = Gt and Jt^2 = -Id for Gt = (gamma (+) -gamma)/2",
    1e-10,
)
def _check_symplectic_compat(run: Run, rng: SplitMix64) -> CheckResult:
    reports = run.symplectic_models
    worst = worst_of(*(v for r in reports
                       for v in (r["max_residual_compatibility"], r["jsq_residual"])))
    return CheckResult(float(worst), len(reports))


@register(
    "symplectic_pullback", "symplectic",
    "G*^T Gt G* = omega on the doubled diagonal embedding",
    1e-10,
)
def _check_symplectic_pullback(run: Run, rng: SplitMix64) -> CheckResult:
    reports = run.symplectic_models
    worst = worst_of(*(r["max_residual_pullback"] for r in reports))
    return CheckResult(float(worst), len(reports))


@register(
    "symplectic_sign_flip_control", "symplectic",
    "the sign-flipped doubling (gamma (+) +gamma)/2 violates compatibility",
    0.5,
)
def _check_symplectic_control(run: Run, rng: SplitMix64) -> CheckResult:
    reports = run.symplectic_models
    min_swap = min(r["swap_residual"] for r in reports)
    return CheckResult(0.0 if min_swap > 1e-2 else 1.0, len(reports))


# ---------------------------------------------------------------------------
# fields checks
# ---------------------------------------------------------------------------

@register(
    "structure_squares_to_minus_id", "fields",
    "J(x)^2 = -Id pointwise",
    1e-9,
)
def _check_structure_squares(run: Run, rng: SplitMix64) -> CheckResult:
    j = run.structure
    pts = run.points()
    eye = np.eye(2 * run.n)
    worst = 0.0
    # one chunk at a time bounds memory (the n = 3 grid has 8^6 points);
    # one max per chunk is the max over its rows, NaN kept
    for _, jm in over_chunks(pts, j.values):
        worst = worst_of(worst, float(np.max(np.abs(jm @ jm + eye))))
    return CheckResult(worst, int(len(pts)))


@register(
    "nijenhuis_two_routes", "fields",
    "four-bracket N_J from exact partials = FD Lie-bracket evaluation",
    1e-6,
)
def _check_nijenhuis_two_routes(run: Run, rng: SplitMix64) -> CheckResult:
    n = run.n
    j = run.structure
    probes = run.count(int(run.payload.get("probes", 10)))
    worst = 0.0
    for _ in range(probes):
        x = rng.reals(2 * n, 0.0, 2.0 * np.pi)
        zeta = rng.reals(2 * n)
        eta = rng.reals(2 * n)
        direct = nijenhuis_direct(j, x, zeta, eta)
        oracle = nijenhuis_fd_oracle(j, x, zeta, eta)
        scale = max(1.0, float(np.max(np.abs(direct))))
        worst = worst_of(worst, float(np.max(np.abs(direct - oracle))) / scale)
    return CheckResult(worst, probes)


@register(
    "nijenhuis_tensoriality", "fields",
    "N_J(phi u, psi v) = phi psi N_J(u, v) at the base point",
    1e-9,
)
def _check_tensoriality(run: Run, rng: SplitMix64) -> CheckResult:
    j = run.structure
    probes = run.count(int(run.payload.get("probes", 3)))
    d = 2 * run.n
    worst = 0.0
    for _ in range(probes):
        x = rng.reals(d, 0.0, 2.0 * np.pi)
        # the modulators 1 + 0.7 (cos y_0 - cos x_0) and
        # 1 + 0.4 (cos y_{d-1} - cos x_{d-1}) equal 1 at y = x; the check
        # reads only their gradients there
        dphi = np.zeros(d)
        dphi[0] = -0.7 * np.sin(x[0])
        dpsi = np.zeros(d)
        dpsi[d - 1] = -0.4 * np.sin(x[d - 1])
        zeta = rng.reals(d)
        eta = rng.reals(d)
        _, _, dev = verify_tensoriality(j, x, zeta, eta, dphi, dpsi)
        worst = worst_of(worst, float(dev))
    return CheckResult(worst, probes)
