"""The per-run memo: what the checks of one run share, and what they must
not. Counters are monkeypatched onto the module bindings the checks call,
so each test sees how often a construction is really built.
"""
import numpy as np
import pytest

from acs_verify import checks
from acs_verify.cli import main
from acs_verify.errors import EigenSplitFailure
from acs_verify.lvmb import LvmbData
from acs_verify.scenarios import (
    find_scenario,
    parse_scenario,
    resolve_samples,
    run_scenario,
    serialize_report,
)
from acs_verify.universal import UniversalPoint

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
    assert len(records) == 4
    assert len(calls) == 1  # while validating; the four checks share it
    calls.clear()
    assert main(["run", "lvmb_pass"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_fiber_reality_alone_builds_and_validates_every_point(monkeypatch):
    doc = universal_doc(["universal_fiber_reality"])
    built = count_calls(monkeypatch, checks, "build_fiber")
    validated = count_calls(monkeypatch, UniversalPoint, "validate")
    records, aggregate = run_scenario(doc)
    pts = resolve_samples(doc, None)
    assert aggregate["passed"] and records[0]["samples_checked"] == len(pts)
    assert [np.asarray(args[0]).tobytes() for args in built] == [x.tobytes() for x in pts]
    assert len(validated) == len(pts)


def test_fiber_reality_after_reconstruction_rebuilds_only_plucker_points(monkeypatch):
    doc = universal_doc(["universal_reconstruction", "universal_fiber_reality"])
    built = count_calls(monkeypatch, checks, "build_fiber")
    run_scenario(doc)
    pts = resolve_samples(doc, None)
    wedge = doc["payload"].get("reality_samples", 5)
    assert len(built) == len(pts) + wedge


def test_memo_leaves_reports_unchanged():
    doc = universal_doc(ALL_UNIVERSAL, cap=3)
    together = run_scenario(doc)[0]
    for name, record in zip(ALL_UNIVERSAL, together):
        alone = run_scenario({**doc, "checks": [name]})[0]
        assert alone == [record]


@pytest.mark.parametrize("order", [
    ["universal_reconstruction", "universal_fiber_reality"],
    ["universal_fiber_reality", "universal_reconstruction"],
])
def test_failed_fiber_gives_the_same_error_in_both_checks(monkeypatch, order):
    doc = universal_doc(order)
    m = checks.build_manifold(doc["payload"], doc["seed"])
    bad = m.doubled_point(resolve_samples(doc, None)[7])
    original = UniversalPoint.validate

    def failing(self, tol, real=True):
        if np.array_equal(self.z, bad):
            raise EigenSplitFailure("tampered point")
        return original(self, tol, real)

    monkeypatch.setattr(UniversalPoint, "validate", failing)
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    assert [r["error"] for r in records] == ["EigenSplitFailure: tampered point"] * 2


def test_symplectic_reports_stay_per_check(monkeypatch):
    calls = count_calls(monkeypatch, checks, "_symplectic_reports")
    doc = parse_scenario(find_scenario("symplectic_basic"))
    report = serialize_report(*run_scenario(doc))
    assert len(calls) == 3
    rngs = [args[0].rng for args in calls]
    assert len({id(r) for r in rngs}) == 3
    assert report == serialize_report(*run_scenario(doc))
