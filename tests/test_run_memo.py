"""The per-run memo: what the checks of one run share, and what they must
not. Counters are monkeypatched onto the module bindings the checks call,
so each test sees how often a construction is really built.
"""
import sys

import numpy as np
import pytest

import oracles
from acs_verify import checks, cxlinalg, scenarios, universal
from acs_verify.cli import main
from acs_verify.config import DEFAULT
from acs_verify.cxlinalg import standard_structure
from acs_verify.errors import EigenSplitFailure
from acs_verify.fields import AlmostComplexField, CallableMatrixField, TorusChart, TrigPolyField
from acs_verify.lvmb import LvmbData
from acs_verify.scenarios import (
    find_scenario,
    parse_scenario,
    resolve_samples,
    run_scenario,
    serialize_report,
)
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
    reconstruction sweep (induced_structures), and rows that passed
    through the stacked validator, in call order."""
    built, validated = [], []
    build, sweep = checks.build_fibers, checks.induced_structures
    validate = universal.validate_fibers

    def counted(original):
        def call(xs, m, tol):
            built.extend(np.atleast_2d(np.asarray(xs, dtype=float)))
            return original(xs, m, tol)
        return call

    def counted_validate(n, k, z, *rest):
        validated.extend(z)
        return validate(n, k, z, *rest)

    monkeypatch.setattr(checks, "build_fibers", counted(build))
    monkeypatch.setattr(checks, "induced_structures", counted(sweep))
    monkeypatch.setattr(universal, "validate_fibers", counted_validate)
    return built, validated


def test_fiber_reality_alone_builds_and_validates_every_point(monkeypatch):
    doc = universal_doc(["universal_fiber_reality"])
    built, validated = count_rows(monkeypatch)
    records, aggregate = run_scenario(doc)
    pts = resolve_samples(doc, None)
    assert aggregate["passed"] and records[0]["samples_checked"] == len(pts)
    assert [x.tobytes() for x in built] == [x.tobytes() for x in pts]
    assert len(validated) == len(pts)


def test_fiber_reality_after_reconstruction_rebuilds_only_plucker_points(monkeypatch):
    doc = universal_doc(["universal_reconstruction", "universal_fiber_reality"])
    built, validated = count_rows(monkeypatch)
    run_scenario(doc)
    pts = resolve_samples(doc, None)
    wedge = doc["payload"].get("reality_samples", 5)
    assert len(built) == len(pts) + wedge
    assert [x.tobytes() for x in built[len(pts):]] == [x.tobytes() for x in pts[:wedge]]
    assert len(validated) == len(pts) + wedge


def test_reconstruction_makes_no_point_objects_and_one_dg_per_chunk(monkeypatch):
    doc = universal_doc(["universal_reconstruction"])
    points = count_calls(monkeypatch, universal.UniversalPoint, "__init__")
    subspaces = count_calls(monkeypatch, cxlinalg.ComplexSubspace, "__init__")
    jacobians = count_calls(monkeypatch, TrigPolyField, "jacobian_values")
    records, aggregate = run_scenario(doc)
    assert aggregate["passed"]
    n_pts = len(resolve_samples(doc, None))
    assert records[0]["samples_checked"] == n_pts
    assert (len(points), len(subspaces)) == (0, 0)
    assert len(jacobians) == -(-n_pts // universal.FIBER_CHUNK)


def test_reconstruction_evaluates_j_once_per_chunk_on_each_side(monkeypatch):
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
    chunks = -(-records[0]["samples_checked"] // universal.FIBER_CHUNK)
    assert aggregate["passed"] and chunks > 1
    assert len(value) == 2  # the field constructor's own validation
    assert sorted(callers) == (["acs_verify.checks"] * chunks
                               + ["acs_verify.universal"] * chunks)


def test_memo_leaves_reports_unchanged():
    doc = universal_doc(ALL_UNIVERSAL, cap=3)
    together = run_scenario(doc)[0]
    for name, record in zip(ALL_UNIVERSAL, together):
        alone = run_scenario({**doc, "checks": [name]})[0]
        assert alone == [record]


def capture_memos(monkeypatch):
    """The RunMemo of every run_scenario call, in order."""
    memos = []
    monkeypatch.setattr(scenarios, "RunMemo",
                        lambda: memos.append(checks.RunMemo()) or memos[-1])
    return memos


BOTH_ORDERS = pytest.mark.parametrize("order", [
    ["universal_reconstruction", "universal_fiber_reality"],
    ["universal_fiber_reality", "universal_reconstruction"],
])


@BOTH_ORDERS
def test_failed_fiber_gives_the_same_error_in_both_checks(monkeypatch, order):
    doc = universal_doc(order)
    m = checks.build_manifold(doc["payload"], doc["seed"])
    gx = m.g.value(resolve_samples(doc, None)[7])[:, 0]
    bad = np.concatenate([gx, gx]).astype(complex)
    original = universal.validate_fibers

    def failing(n, k, z, *rest):
        if any(np.array_equal(row, bad) for row in z):
            raise EigenSplitFailure("tampered point")
        return original(n, k, z, *rest)

    monkeypatch.setattr(universal, "validate_fibers", failing)
    memos = capture_memos(monkeypatch)
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    assert [r["error"] for r in records] == ["EigenSplitFailure: tampered point"] * 2
    # a sweep that raised is not recorded, so the second check rebuilt it
    assert not memos[0].swept(resolve_samples(doc, None))


BAD_INDEX = 7  # in the middle of the first chunk


def manifold_failing_at(x_bad):
    """The default n = 1 torus whose J squares to -4 Id at x_bad only (the
    field's own two-point validation does not visit it)."""
    j0 = standard_structure(1)

    def fn(x):
        return 2.0 * j0 if np.array_equal(x, x_bad) else j0

    j = AlmostComplexField(TorusChart(2), CallableMatrixField(2, (2, 2), fn))
    return PointwiseACManifold(1, 4, default_torus_embedding(1), j)


def test_failed_chunk_raises_the_oracle_error_and_records_the_points_before():
    pts = TorusChart(2).grid([6, 6])
    assert len(pts) > universal.FIBER_CHUNK > BAD_INDEX
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
        assert point.sigp.basis.tobytes() == oracles.build_fiber(x, m).sigp.basis.tobytes()


@BOTH_ORDERS
def test_failed_chunk_gives_the_oracle_error_in_both_checks(monkeypatch, order):
    doc = universal_doc(order)
    pts = resolve_samples(doc, None)
    m = manifold_failing_at(pts[BAD_INDEX])
    with pytest.raises(EigenSplitFailure) as want:
        oracles.build_fiber(pts[BAD_INDEX], m)
    monkeypatch.setattr(checks, "build_manifold", lambda payload, seed: m)
    memos = capture_memos(monkeypatch)
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    assert [r["error"] for r in records] == [f"EigenSplitFailure: {want.value}"] * 2
    assert not memos[0].swept(pts)


def test_fields_structure_is_built_once_per_fields_run(monkeypatch):
    calls = count_calls(monkeypatch, checks, "build_structure")
    doc = parse_scenario(find_scenario("fields_basic"))
    records, _ = run_scenario(doc)
    assert len(records) == 3
    assert len(calls) == 1
    for record in records:
        assert run_scenario({**doc, "checks": [record["name"]]})[0] == [record]


def test_symplectic_reports_stay_per_check(monkeypatch):
    calls = count_calls(monkeypatch, checks, "_symplectic_reports")
    doc = parse_scenario(find_scenario("symplectic_basic"))
    report = serialize_report(*run_scenario(doc))
    assert len(calls) == 3
    rngs = [args[0].rng for args in calls]
    assert len({id(r) for r in rngs}) == 3
    assert report == serialize_report(*run_scenario(doc))
