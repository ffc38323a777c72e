"""The run object: what the checks of one run share, what they must not,
and which sample points they build. Counters are monkeypatched onto the
module bindings the checks call, so each test sees how often a
construction is really built.
"""
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from acs_verify import checks, cxlinalg, scenarios, universal
from acs_verify.cli import main
from acs_verify.config import DEFAULT
from acs_verify.cxlinalg import standard_structure
from acs_verify.errors import EigenSplitFailure
from acs_verify.fields import (
    TWO_PI,
    AlmostComplexField,
    CallableMatrixField,
    TorusChart,
    TrigPolyField,
)
from acs_verify.lvmb import LvmbData
from acs_verify.rng import SplitMix64
from acs_verify.scenarios import find_scenario, parse_scenario, run_scenario, serialize_report
from acs_verify.universal import PointwiseACManifold, default_torus_embedding

ALL_UNIVERSAL = ["universal_dimension_tables", "universal_reconstruction",
                 "universal_fiber_reality", "universal_versality",
                 "universal_isotropy", "universal_nijenhuis_flat"]


def count_calls(monkeypatch, owner, name, wrap=None):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted if wrap is None else wrap(counted))
    return calls


def sample_points(doc):
    """The rows of the samples.counts grid of doc."""
    counts = doc["samples"]["counts"]
    return TorusChart(len(counts)).grid(counts)


def universal_doc(checks_run, cap=None):
    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["checks"] = checks_run
    if cap is not None:
        doc["samples"]["counts"] = [cap, cap]
    return doc


def test_build_manifold_runs_once_per_universal_run(monkeypatch):
    calls = count_calls(monkeypatch, checks, "build_manifold")
    doc = universal_doc(ALL_UNIVERSAL, cap=3)
    run_scenario(doc, sample_cap=4)
    assert len(calls) == 1
    run_scenario(doc, sample_cap=4)  # a new run builds its own
    assert len(calls) == 2


def test_lvmb_data_is_built_once_per_lvmb_run(monkeypatch, capsys):
    doc = parse_scenario(find_scenario("lvmb_pass"))
    calls = count_calls(monkeypatch, LvmbData, "from_json_dict", wrap=staticmethod)
    records, _ = run_scenario(doc)
    assert len(records) == 2
    assert len(calls) == 1  # while validating; the two checks share it
    calls.clear()
    assert main(["run", "lvmb_pass"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def count_rows(monkeypatch):
    """Rows handed by the checks to build_fibers or to the stacked
    reconstruction sweep (induced_structures), and rows whose split the
    stacked build certified (_split_bound, once per built chunk), in call
    order."""
    built, validated = [], []
    build, sweep = checks.build_fibers, checks.induced_structures
    split_bound = universal._split_bound

    def counted(original):
        def call(xs, m, tol):
            built.extend(np.atleast_2d(np.asarray(xs, dtype=float)))
            return original(xs, m, tol)
        return call

    def counted_split_bound(dg_sv, ker_plus):
        bound = split_bound(dg_sv, ker_plus)
        validated.extend(bound)
        return bound

    monkeypatch.setattr(checks, "build_fibers", counted(build))
    monkeypatch.setattr(checks, "induced_structures", counted(sweep))
    monkeypatch.setattr(universal, "_split_bound", counted_split_bound)
    return built, validated


def test_fiber_reality_alone_builds_only_its_reality_points_and_counts_them(monkeypatch):
    doc = universal_doc(["universal_fiber_reality"])
    built, validated = count_rows(monkeypatch)
    records, aggregate = run_scenario(doc)
    pts = sample_points(doc)
    wedge = doc["payload"]["reality_samples"]
    assert wedge < len(pts)
    assert aggregate["passed"] and records[0]["samples_checked"] == wedge
    assert [x.tobytes() for x in built] == [x.tobytes() for x in pts[:wedge]]
    assert len(validated) == wedge
    # --samples below reality_samples caps the certified points too
    records, _ = run_scenario(doc, sample_cap=2)
    assert records[0]["samples_checked"] == 2


def test_fiber_reality_after_reconstruction_rebuilds_only_plucker_points(monkeypatch):
    doc = universal_doc(["universal_reconstruction", "universal_fiber_reality"])
    built, validated = count_rows(monkeypatch)
    run_scenario(doc)
    pts = sample_points(doc)
    wedge = doc["payload"].get("reality_samples", 5)
    assert len(built) == len(pts) + wedge
    assert [x.tobytes() for x in built[len(pts):]] == [x.tobytes() for x in pts[:wedge]]
    assert len(validated) == len(pts) + wedge


# rows per chunk while a test crosses chunk boundaries, whatever the
# shipped FIBER_CHUNK: the 100 rows of universal_n1_k4 are 9 full chunks
# and a ragged one, the 36 of a [6, 6] grid 3 and a ragged one
TEST_CHUNK = 11


def test_reconstruction_makes_no_point_objects_and_one_dg_per_chunk(monkeypatch):
    monkeypatch.setattr(universal, "FIBER_CHUNK", TEST_CHUNK)
    doc = universal_doc(["universal_reconstruction"])
    points = count_calls(monkeypatch, universal.UniversalPoint, "__init__")
    subspaces = count_calls(monkeypatch, cxlinalg.ComplexSubspace, "__init__")
    jacobians = count_calls(monkeypatch, TrigPolyField, "jacobian_values")
    records, aggregate = run_scenario(doc)
    assert aggregate["passed"]
    n_pts = len(sample_points(doc))
    assert records[0]["samples_checked"] == n_pts
    assert (len(points), len(subspaces)) == (0, 0)
    assert n_pts // TEST_CHUNK >= 2 and n_pts % TEST_CHUNK
    assert len(jacobians) == -(-n_pts // TEST_CHUNK)


def test_reconstruction_evaluates_j_once_per_chunk_on_each_side(monkeypatch):
    monkeypatch.setattr(universal, "FIBER_CHUNK", TEST_CHUNK)
    doc = universal_doc(["universal_reconstruction"])
    callers = []

    def by_caller(counted):
        def call(*args):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return counted(*args)
        return call

    count_calls(monkeypatch, AlmostComplexField, "values", by_caller)
    value = count_calls(monkeypatch, AlmostComplexField, "value")
    records, aggregate = run_scenario(doc)
    n_pts = records[0]["samples_checked"]
    assert aggregate["passed"] and n_pts // TEST_CHUNK >= 2 and n_pts % TEST_CHUNK
    chunks = -(-n_pts // TEST_CHUNK)
    assert len(value) == 2  # the field constructor's own validation
    assert sorted(callers) == (["acs_verify.checks"] * chunks
                               + ["acs_verify.universal"] * chunks)


@pytest.mark.parametrize("name", ["universal_n1_k4", "universal_n2_k8",
                                  "universal_n3_k12", "fields_n2"])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, name):
    # numpy's stacked SVD, QR, solve and matmul treat each matrix of a
    # stack as they treat it alone (README, "Stacked chunks"), so a chunk
    # of one row, a ragged chunk and the shipped one give the same bytes
    doc = parse_scenario(find_scenario(name))
    reports = []
    for chunk in (1, 7, universal.FIBER_CHUNK):
        monkeypatch.setattr(universal, "FIBER_CHUNK", chunk)
        reports.append(serialize_report(*run_scenario(doc)))
    assert reports[1:] == reports[:1] * 2


def test_the_reconstruction_sweep_stays_within_5_mib():
    # the sweep's traced peak grows with FIBER_CHUNK (README, "Chunk size"):
    # 1.0 MiB at 32 rows, 3.7 MiB at 128 and 7.2 MiB at 256 on this grid
    doc = parse_scenario(find_scenario("universal_n3_k12"))
    run = checks.Run("universal", doc["payload"], DEFAULT, doc["seed"], doc["samples"])
    run.manifold  # built before the trace: the sweep's own arrays are measured
    tracemalloc.start()
    try:
        result = checks.REGISTRY["universal_reconstruction"].runner(run, SplitMix64(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.samples_checked == 3 ** 6
    assert peak <= 5 * 2 ** 20


def test_memo_leaves_reports_unchanged():
    doc = universal_doc(ALL_UNIVERSAL, cap=3)
    together = run_scenario(doc)[0]
    for name, record in zip(ALL_UNIVERSAL, together):
        alone = run_scenario({**doc, "checks": [name]})[0]
        assert alone == [record]


BOTH_ORDERS = pytest.mark.parametrize("order", [
    ["universal_reconstruction", "universal_fiber_reality"],
    ["universal_fiber_reality", "universal_reconstruction"],
])


REALITY_INDEX = 2  # one of the reality_samples = 5 points fiber reality builds
BAD_INDEX = 7  # in the middle of the first chunk, after the reality points


@BOTH_ORDERS
def test_failed_fiber_gives_the_same_error_in_both_checks(monkeypatch, order):
    doc = universal_doc(order)
    # a row inside the reality points: both checks build it
    x_bad = sample_points(doc)[REALITY_INDEX]
    monkeypatch.setattr(checks, "build_manifold",
                        lambda payload, seed: manifold_failing_at(x_bad))
    with pytest.raises(EigenSplitFailure) as want:
        oracles.build_fiber(x_bad, manifold_failing_at(x_bad))
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    assert [r["error"] for r in records] == [f"EigenSplitFailure: {want.value}"] * 2


def manifold_failing_at(x_bad):
    """The default n = 1 torus whose J squares to -4 Id at x_bad only (the
    field's own two-point validation does not visit it)."""
    j0 = standard_structure(1)

    def fn(x):
        return 2.0 * j0 if np.array_equal(x, x_bad) else j0

    j = AlmostComplexField(TorusChart(2), CallableMatrixField(2, (2, 2), fn))
    return PointwiseACManifold(1, 4, default_torus_embedding(1), j)


def test_failed_chunk_raises_the_oracle_error_and_records_the_points_before(monkeypatch):
    monkeypatch.setattr(universal, "FIBER_CHUNK", TEST_CHUNK)
    pts = TorusChart(2).grid([6, 6])
    assert len(pts) // TEST_CHUNK >= 2 and len(pts) % TEST_CHUNK and TEST_CHUNK > BAD_INDEX
    m = manifold_failing_at(pts[BAD_INDEX])
    with pytest.raises(EigenSplitFailure) as want:
        oracles.build_fiber(pts[BAD_INDEX], m)
    assert "x=[" in str(want.value)
    got = []
    with pytest.raises(EigenSplitFailure) as raised:
        for point in universal.build_fibers(pts, m, DEFAULT):
            got.append(point)
    assert str(raised.value) == str(want.value)
    assert len(got) == BAD_INDEX
    for x, point in zip(pts, got):
        assert point.sigp.tobytes() == oracles.build_fiber(x, m).sigp.tobytes()


def failing_run(monkeypatch, order, bad_index):
    """The records of a universal run whose J fails at row bad_index of
    the sample grid, and the error the one-point oracle gives there."""
    doc = universal_doc(order)
    pts = sample_points(doc)
    m = manifold_failing_at(pts[bad_index])
    with pytest.raises(EigenSplitFailure) as want:
        oracles.build_fiber(pts[bad_index], m)
    monkeypatch.setattr(checks, "build_manifold", lambda payload, seed: m)
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    return {r["name"]: r for r in records}, f"EigenSplitFailure: {want.value}"


@BOTH_ORDERS
def test_failed_chunk_gives_the_oracle_error_in_both_checks(monkeypatch, order):
    records, want = failing_run(monkeypatch, order, REALITY_INDEX)
    assert [r["error"] for r in records.values()] == [want] * 2


@BOTH_ORDERS
def test_a_bad_row_outside_the_reality_points_fails_only_reconstruction(monkeypatch, order):
    records, want = failing_run(monkeypatch, order, BAD_INDEX)
    assert records["universal_reconstruction"]["error"] == want
    reality = records["universal_fiber_reality"]
    assert reality["status"] == "pass" and reality["samples_checked"] == 5


def test_fields_structure_is_built_once_per_fields_run(monkeypatch):
    calls = count_calls(monkeypatch, checks, "build_structure")
    doc = parse_scenario(find_scenario("fields_basic"))
    records, _ = run_scenario(doc)
    assert len(records) == 3
    assert len(calls) == 1
    for record in records:
        assert run_scenario({**doc, "checks": [record["name"]]})[0] == [record]


def test_symplectic_models_are_built_once_per_symplectic_run(monkeypatch):
    sets = count_calls(monkeypatch, checks, "build_symplectic_models")
    models = count_calls(monkeypatch, checks, "symplectic_pointwise_model")
    doc = parse_scenario(find_scenario("symplectic_basic"))
    records, aggregate = run_scenario(doc)
    draws = doc["payload"]["draws"]
    assert aggregate["passed"] and len(records) == 3
    assert (len(sets), len(models)) == (1, draws + 1)
    assert [r["samples_checked"] for r in records] == [draws + 1] * 3
    for record in records:
        assert run_scenario({**doc, "checks": [record["name"]]})[0] == [record]
    # --samples caps the draws, for all three checks alike
    sets.clear()
    records, _ = run_scenario(doc, sample_cap=1)
    assert len(sets) == 1 and [r["samples_checked"] for r in records] == [2] * 3


def test_samples_cap_caps_the_versality_samples(monkeypatch):
    doc = parse_scenario(find_scenario("universal_n2_k8"))
    doc["checks"] = ["universal_versality"]
    doc["payload"]["versality_samples"].append([1.7, 0.2, 5.1, 3.3])
    assert run_scenario(doc)[0][0]["samples_checked"] == 2
    reports = count_calls(monkeypatch, checks, "versality_check")
    records, aggregate = run_scenario(doc, sample_cap=1)
    assert aggregate["passed"] and records[0]["samples_checked"] == 1
    assert len(reports) == 1


def count_grid_rows(monkeypatch):
    """The number of rows of each grid TorusChart.grid builds, in call order."""
    rows = []
    grid = TorusChart.grid

    def counted(self, *args, **kwargs):
        pts = grid(self, *args, **kwargs)
        rows.append(len(pts))
        return pts

    monkeypatch.setattr(TorusChart, "grid", counted)
    return rows


def test_capped_run_without_samples_builds_only_the_rows_it_checks(monkeypatch):
    # the default grid of n = 3 has 10^6 rows; --samples 1 reads one
    doc = {"id": "n3", "kind": "universal", "seed": 1, "payload": {"n": 3},
           "checks": ["universal_reconstruction"]}
    built, _ = count_rows(monkeypatch)
    grids = count_grid_rows(monkeypatch)
    records, aggregate = run_scenario(doc, sample_cap=1)
    assert aggregate["passed"] and records[0]["samples_checked"] == 1
    assert len(built) == 1 and grids == [1]
    # row 0 of the grid: every axis at its first angle, 2 pi 0.37 / 10
    assert built[0].tobytes() == np.full(6, TWO_PI * 0.37 / 10).tobytes()


@pytest.mark.parametrize("name, limit", [
    ("universal_fiber_reality", 5), ("universal_versality", 3), ("universal_isotropy", 3),
])
def test_a_check_without_samples_reads_the_first_rows_of_the_default_grid(
        monkeypatch, name, limit):
    doc = {"id": "n1", "kind": "universal", "seed": 1, "payload": {"n": 1},
           "checks": [name]}
    grids = count_grid_rows(monkeypatch)
    records, aggregate = run_scenario(doc)
    assert aggregate["passed"] and records[0]["samples_checked"] == limit
    assert grids == [limit]
