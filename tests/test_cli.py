import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import acs_verify

from acs_verify.checks import (
    REGISTRY,
    Check,
    CheckContext,
    CheckResult,
    all_checks,
    checks_for,
    worst_of,
)
from acs_verify.cli import main
from acs_verify.config import DEFAULT
from acs_verify.errors import EigenSplitFailure, SchemaError
from acs_verify.rng import SplitMix64
from acs_verify import checks, scenarios
from acs_verify.scenarios import (
    bundled_scenario_names,
    find_scenario,
    load_schema,
    parse_scenario,
    run_check,
    run_scenario,
    serialize_report,
    validate_document,
    validate_scenario,
)


def run_lines(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    lines = [json.loads(line) for line in text.strip().splitlines()]
    return lines[:-1], lines[-1]


# ---------------------------------------------------------------------------
# registry metadata
# ---------------------------------------------------------------------------

def test_every_check_carries_a_formula_anchor():
    assert len(REGISTRY) >= 15
    for check in all_checks():
        assert check.anchor.strip(), check.name
        assert check.tolerance >= 0.0
        assert check.kind in {"universal", "induced", "lvmb", "symplectic", "fields"}


def test_checks_for_filters_and_rejects():
    default = checks_for("universal")
    assert all(not c.opt_in for c in default)
    named = checks_for("universal", ["universal_isotropy"])
    assert named[0].opt_in
    with pytest.raises(SchemaError):
        checks_for("universal", ["no_such_check"])
    with pytest.raises(SchemaError):
        checks_for("lvmb", ["universal_versality"])


def test_list_checks_prints_every_formula(capsys):
    code, out, _ = run_lines(capsys, ["list-checks"])
    assert code == 0
    for check in all_checks():
        assert check.name in out
        assert check.anchor in out
    assert len([l for l in out.splitlines() if l.strip()]) >= 15


def test_bundled_scenarios_are_discoverable():
    names = bundled_scenario_names()
    assert "universal_n1_k4" in names
    assert len(names) >= 10
    for name in names:
        doc = parse_scenario(find_scenario(name))
        assert doc["id"] == name


# ---------------------------------------------------------------------------
# run: reports and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cert, passed", [(1.5, False), (0.5, False), (1.0, True)])
def test_fiber_reality_fails_a_certificate_off_one_on_either_side(
        monkeypatch, capsys, cert, passed):
    # |sum p_I^2| <= sum |p_I|^2, so a certificate above 1 is a fault too
    monkeypatch.setattr(checks, "plucker_reality_certificate", lambda point, tol: cert)
    code, out, _ = run_lines(capsys, ["run", "universal_n1_k4"])
    records, aggregate = parse_report(out)
    reality = next(r for r in records if r["name"] == "universal_fiber_reality")
    assert reality["status"] == ("pass" if passed else "fail")
    assert reality["max_residual"] == abs(1.0 - cert)
    assert code == (0 if passed else 1)


def test_run_bundled_scenario_report_shape(capsys):
    code, out, _ = run_lines(capsys, ["run", "lvmb_pass"])
    assert code == 0
    records, aggregate = parse_report(out)
    assert aggregate["passed"] and aggregate["checks_failed"] == 0
    assert aggregate["checks_run"] == len(records) == 2
    for rec in records:
        assert rec["status"] == "pass"
        assert rec["max_residual"] <= rec["tolerance"]
        assert rec["anchor"].strip()
        assert rec["samples_checked"] >= 1
        assert rec["wall_time"] is None
        assert rec["error"] is None


def test_run_is_byte_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", "fields_basic", "--out", str(out1)]) == 0
    assert main(["run", "fields_basic", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_run_tolerance_tightening_fails_controlled(capsys):
    code, out, _ = run_lines(capsys, ["run", "fields_basic",
                                      "--tol-scale", "1e-12"])
    assert code == 1
    records, aggregate = parse_report(out)
    assert not aggregate["passed"]
    assert aggregate["checks_failed"] >= 1
    failed = [r for r in records if r["status"] == "fail"]
    assert failed and all(r["max_residual"] > r["tolerance"] for r in failed)


def test_run_timings_flag_records_wall_time(capsys):
    code, out, _ = run_lines(capsys, ["run", "lvmb_pass", "--timings"])
    assert code == 0
    records, _ = parse_report(out)
    assert all(isinstance(r["wall_time"], float) for r in records)


def test_run_seed_override_changes_aggregate(capsys):
    code, out, _ = run_lines(capsys, ["run", "fields_basic", "--seed", "99"])
    assert code == 0
    _, aggregate = parse_report(out)
    assert aggregate["seed"] == 99 and aggregate["passed"]


def test_run_sample_cap_limits_work(capsys):
    code, out, _ = run_lines(capsys, ["run", "fields_basic", "--samples", "4"])
    assert code == 0
    records, _ = parse_report(out)
    squares = [r for r in records if r["name"] == "structure_squares_to_minus_id"]
    assert squares[0]["samples_checked"] <= 4


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_run_rejects_non_positive_sample_cap(capsys, cap):
    code, out, err = run_lines(capsys, ["run", "universal_n1_k4", "--samples", cap])
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--samples" in err


WRONG_EXPECT = {"id": "wrong", "kind": "lvmb", "seed": 0, "payload": {
    "data": {"m": 1, "N": 2, "E": [[0, 1, 2]], "ell": [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]},
    "expect": {"condition_i": False}}}


@pytest.mark.parametrize("scale", ["inf", "nan", "-inf", "0", "-1"])
def test_run_rejects_a_tolerance_scale_that_is_not_finite_and_positive(
        tmp_path, capsys, scale):
    # the expectation is wrong, so no tolerance scale may turn it into a pass
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(WRONG_EXPECT))
    code, out, err = run_lines(capsys, ["run", str(path), f"--tol-scale={scale}"])
    assert_one_line_rejection(code, out, err, "--tol-scale")
    with pytest.raises(SchemaError):
        run_scenario(WRONG_EXPECT, tol_scale=float(scale))


def with_override(literal):
    text = json.dumps(WRONG_EXPECT)
    return text[:-1] + ', "tolerances": {"checks": {"lvmb_condition_i": %s}}}' % literal


@pytest.mark.parametrize("literal, needle", [
    ("1e999", "out of range"), ("-1e999", "out of range"), ("1" + "0" * 400, "out of range"),
    ("1" * 5000, "out of range"), ("NaN", "non-finite number NaN"),
    ("Infinity", "non-finite number Infinity"), ("-Infinity", "non-finite number -Infinity"),
], ids=["1e999", "-1e999", "int-1e400", "int-5000-digits", "NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_in_the_input_exit_two(tmp_path, capsys, literal, needle):
    path = tmp_path / "override.json"
    path.write_text(with_override(literal))
    assert_one_line_rejection(*run_lines(capsys, ["run", str(path)]), needle)
    with pytest.raises(SchemaError, match=needle):
        parse_scenario(with_override(literal))
    data = json.dumps(WRONG_EXPECT["payload"]["data"]).replace("1.0", literal, 1)
    path.write_text(data)
    assert_one_line_rejection(*run_lines(capsys, ["lvmb-check", str(path)]), needle)


def test_finite_overrides_still_read_as_before():
    doc = parse_scenario(with_override("1e300"))
    assert doc["tolerances"]["checks"]["lvmb_condition_i"] == 1e300
    assert isinstance(parse_scenario(with_override("7"))["tolerances"]["checks"][
        "lvmb_condition_i"], int)


def test_run_check_without_samples_fails():
    # a scenario cannot ask for this (see the test below), so the check
    # runs on a context that skipped validate_scenario
    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["payload"]["versality_samples"] = []
    check = REGISTRY["universal_versality"]
    ctx = CheckContext(payload=doc["payload"], tol=DEFAULT, seed=doc["seed"],
                       rng=SplitMix64(0), samples=None, sample_cap=None)
    record = run_check(check, ctx, check.tolerance, timings=False)
    assert record["samples_checked"] == 0 and record["status"] == "fail"


def test_run_empty_versality_samples_exit_two(tmp_path, capsys):
    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["payload"]["versality_samples"] = []
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), "versality_samples")


@pytest.mark.parametrize("name, needle", [
    ("nope", "unknown check 'nope'"),
    ("lvmb_condition_i", "does not apply to kind 'universal'"),
], ids=["unknown", "other-kind"])
def test_run_tolerance_for_a_check_it_cannot_run_exits_two(tmp_path, capsys, name, needle):
    doc = parse_scenario(find_scenario("universal_n1_k4"))
    doc["tolerances"] = {"checks": {name: 1.0}}
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), needle)


def test_run_versality_at_an_angle_where_steps_round_away_fails_cleanly(tmp_path, capsys):
    # at 1e13 every half step x +- h/2 rounds to x, so df would be 0
    doc = {"id": "x", "kind": "universal", "seed": 1, "payload": {"n": 1},
           "samples": {"points": [[1e13, 1e13]]}}
    code, out, err = run_doc(tmp_path, capsys, doc)
    assert code == 1 and err == ""
    records, _ = parse_report(out)
    versality = next(r for r in records if r["name"] == "universal_versality")
    assert versality["status"] == "fail"
    assert versality["error"].startswith("DomainError: ")
    assert "x=[10000000000000.0, 10000000000000.0]" in versality["error"]


def test_worst_of_keeps_nan():
    assert max(0.0, math.nan) == 0.0  # the fold worst_of replaces
    assert math.isnan(worst_of(0.0, math.nan))
    assert math.isnan(worst_of(math.nan, 0.0))
    assert worst_of(0.0, 2.0, 1.0) == 2.0


def record_of(runner, tolerance=1.0):
    check = Check("probe_check", "fields", "probe", tolerance, runner)
    ctx = CheckContext(payload={}, tol=DEFAULT, seed=0, rng=SplitMix64(0),
                       samples=None, sample_cap=None)
    return run_check(check, ctx, tolerance, timings=False)


def test_run_check_fails_non_finite_or_empty_results():
    assert record_of(lambda ctx: CheckResult(0.5, 1))["status"] == "pass"
    for residual, samples in ((math.nan, 3), (math.inf, 3), (0.0, 0)):
        rec = record_of(lambda ctx, r=residual, s=samples: CheckResult(r, s))
        assert rec["status"] == "fail"
        assert rec["samples_checked"] == samples
        json.dumps(rec, allow_nan=False)  # stays strict JSON
    assert record_of(lambda ctx: CheckResult(math.nan, 3))["max_residual"] is None


def test_run_check_records_error_class():
    def runner(ctx):
        raise EigenSplitFailure("eigenspace columns are numerically dependent")

    rec = record_of(runner)
    assert rec["status"] == "fail" and rec["max_residual"] is None
    assert rec["error"] == ("EigenSplitFailure: eigenspace columns are "
                            "numerically dependent")


def test_run_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x",\n  "kind": }\n')
    code, _, err = run_lines(capsys, ["run", str(bad)])
    assert code == 2
    assert "line 2" in err and "column" in err


def test_run_schema_violation_exits_two(tmp_path, capsys):
    doc = {"id": "x", "kind": "universal", "seed": -1}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_lines(capsys, ["run", str(path)])
    assert code == 2 and "seed" in err


def test_run_unknown_scenario_exits_two(capsys):
    code, _, err = run_lines(capsys, ["run", "no_such_scenario"])
    assert code == 2 and "no_such_scenario" in err


def test_run_unknown_check_filter_exits_two(tmp_path, capsys):
    doc = {"id": "x", "kind": "lvmb", "seed": 1, "checks": ["bogus_check"]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_lines(capsys, ["run", str(path)])
    assert code == 2 and "bogus_check" in err


def test_run_explicit_sample_points(tmp_path, capsys):
    doc = {
        "id": "fields_points",
        "kind": "fields",
        "seed": 7,
        "payload": {"n": 1, "structure": {"standard": True}, "probes": 2},
        "samples": {"points": [[0.1, 0.2], [1.0, 2.0], [3.0, 4.0]]},
    }
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_lines(capsys, ["run", str(path)])
    assert code == 0
    records, _ = parse_report(out)
    squares = [r for r in records if r["name"] == "structure_squares_to_minus_id"]
    assert squares[0]["samples_checked"] == 3


def test_run_dims_counts_mismatch_rejected(tmp_path, capsys):
    doc = {"id": "x", "kind": "fields", "seed": 1,
           "samples": {"dims": 3, "counts": [2, 2]}}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_lines(capsys, ["run", str(path)])
    assert code == 2 and "dims" in err


def run_doc(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run_lines(capsys, ["run", str(path)])


def assert_one_line_rejection(code, out, err, needle):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and needle in err


@pytest.mark.parametrize("kind, payload, needle", [
    ("universal", {}, "payload.n"),
    ("lvmb", {}, "payload.data"),
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 2]]}}, "payload/data"),
    ("fields", {"structure": {"conjugation": {"degree": 2}}}, "epsilon"),
    ("universal", {"n": 1, "embedding": {"trig": {"terms": []}}}, "shape"),
    ("symplectic", {"draws": "x"}, "payload/draws"),
    ("induced", {"n": 5}, "payload.N"),
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 2]],
                       "ell": [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]},
              "expect": True}, "payload/expect"),
], ids=["universal-without-n", "lvmb-without-data", "lvmb-data-without-ell",
        "conjugation-without-epsilon", "trig-without-shape", "count-as-string",
        "induced-large-n-without-N", "expect-not-object"])
def test_run_unreadable_payload_exits_two(tmp_path, capsys, kind, payload, needle):
    doc = {"id": "x", "kind": kind, "seed": 1, "payload": payload}
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), needle)


J0_4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
TRIG_J_4X4 = {"shape": [4, 4], "terms": [
    {"freq": [0, 0], "cos": J0_4, "sin": [[0] * 4] * 4}]}
TRIG_J_ONE_ANGLE = {"shape": [2, 2], "terms": [
    {"freq": [0], "cos": [[0, -1], [1, 0]], "sin": [[0, 0], [0, 0]]}]}
TRIG_TORUS = {"shape": [4, 1], "terms": [
    {"freq": [1, 0], "cos": [[1], [0], [0], [0]], "sin": [[0], [1], [0], [0]]},
    {"freq": [0, 1], "cos": [[0], [0], [1], [0]], "sin": [[0], [0], [0], [1]]}]}


@pytest.mark.parametrize("kind", ["universal", "fields"])
@pytest.mark.parametrize("spec, needle", [
    ({"structure": {}}, "payload/structure: {} should be non-empty"),
    ({"structure": {"standard": False}}, "payload/structure/standard"),
    ({"structure": {"standard": True, "conjugation": {"epsilon": 0.1}}},
     "payload/structure: {'standard': True"),
    ({"structure": {"stanard": True}}, "payload/structure"),
    ({"structure": {"trig": TRIG_J_4X4}},
     "payload.structure rejected: J must have shape (2n, 2n) = (2, 2)"),
    ({"structure": {"trig": TRIG_J_ONE_ANGLE}},
     "payload.structure rejected: J must be defined on T^{2n}"),
    ({"embedding": {}}, "payload/embedding: {} should be non-empty"),
    ({"embedding": {"default_torus": False}}, "payload/embedding/default_torus"),
    ({"embedding": {"default_torus": True, "trig": TRIG_TORUS}},
     "payload/embedding: {'default_torus': True"),
], ids=["structure-empty", "standard-false", "structure-two-kinds",
        "structure-unknown-kind", "structure-trig-4x4-at-n-1",
        "structure-trig-one-angle", "embedding-empty", "default-torus-false",
        "embedding-two-kinds"])
def test_run_structure_or_embedding_spec_of_not_one_kind_exits_two(
        tmp_path, capsys, kind, spec, needle):
    # the schema holds structure and embedding to exactly one kind for
    # every scenario kind; universal and fields read them
    doc = {"id": "x", "kind": kind, "seed": 1, "payload": {"n": 1, **spec}}
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), needle)


def test_run_trig_structure_and_trig_embedding_of_the_right_shapes_pass(
        tmp_path, capsys):
    doc = {"id": "x", "kind": "universal", "seed": 1,
           "payload": {"n": 1, "k": 4, "structure": {"trig": {"shape": [2, 2], "terms": [
               {"freq": [0, 0], "cos": [[0, -1], [1, 0]], "sin": [[0, 0], [0, 0]]}]}},
               "embedding": {"trig": TRIG_TORUS}}}
    code, out, err = run_doc(tmp_path, capsys, doc)
    assert code == 0 and err == ""


ELL4 = [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]


@pytest.mark.parametrize("kind, payload, needle", [
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 2], [0, 1]], "ell": ELL4}},
     "3 distinct indices"),
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 4]], "ell": ELL4}},
     "indices must lie in 0..3"),
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 2]], "ell": ELL4[:3]}},
     "ell must supply 4 forms"),
    ("lvmb", {"data": {"m": 1, "N": 3, "E": [[0, 1, 2]],
                       "ell": [ELL4[0], ELL4[1] + ELL4[2], ELL4[2], ELL4[3]]}},
     "ell must supply 4 forms with 1 coefficients each"),
    ("induced", {"n": 2, "N": 2}, "payload.N > n"),
    ("induced", {"n": 3, "N": 1}, "payload.N > n"),
    ("induced", {"N": 2}, "payload.N > n"),
    ("universal", {"n": 1, "k": 5, "embedding": {"default_torus": True}},
     "column field into R^5"),
    ("universal", {"n": 2, "k": 3}, "k >= 2n"),
    ("universal", {"n": 1, "k": 2, "embedding": {"trig": {"shape": [2, 1], "terms": [
        {"freq": [1, 0, 0], "cos": [[1.0], [0.0]], "sin": [[0.0], [1.0]]}]}}},
     "T^{2n}"),
    ("universal", {"n": 1, "embedding": {"trig": {"shape": [4, 1], "terms": [
        {"freq": [1, 0], "cos": [[1.0], [0.0]], "sin": [[0.0], [1.0], [0.0], [0.0]]}]}}},
     "shape (4, 1)"),
    ("universal", {"n": 1, "embedding": {"trig": {"shape": [4, 1], "terms": [
        {"freq": [1, 0], "cos": [[1], [0], [0, 1], [0]], "sin": [[0], [1], [0], [0]]}]}}},
     "shape (4, 1)"),
    ("fields", {"n": 1, "structure": {"trig": {"shape": [2, 2], "terms": [
        {"freq": [1, 0], "cos": [[1, 0]], "sin": [[0, 0], [0, 0]]}]}}},
     "payload.structure rejected"),
    ("universal", {"n": 1, "structure": {"trig": {"shape": [2, 2], "terms": [
        {"freq": [1, 0], "cos": [[1, 0]], "sin": [[0, 0], [0, 0]]}]}}},
     "shape (2, 2)"),
], ids=["lvmb-member-too-small", "lvmb-index-out-of-range", "lvmb-ell-too-short",
        "lvmb-ell-ragged",
        "induced-N-equals-n", "induced-N-below-n", "induced-N-below-drawn-n",
        "universal-torus-not-into-R^k", "universal-k-below-2n",
        "universal-trig-on-wrong-torus", "universal-trig-term-of-wrong-shape",
        "universal-trig-ragged-rows", "fields-structure-trig-of-wrong-shape",
        "universal-structure-trig-of-wrong-shape"])
def test_run_payload_its_constructors_reject_exits_two(tmp_path, capsys, kind,
                                                        payload, needle):
    # schema-valid, but every check would fail on it: exit 2, not 1
    doc = {"id": "x", "kind": kind, "seed": 1, "payload": payload}
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), needle)
    if kind == "lvmb":
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload["data"]))
        code, _, err = run_lines(capsys, ["lvmb-check", str(path)])
        assert code == 2 and "input rejected" in err and needle in err


def test_run_induced_payload_with_N_above_n_is_accepted(tmp_path, capsys):
    doc = {"id": "x", "kind": "induced", "seed": 1, "payload": {"n": 1, "N": 2},
           "checks": ["torsion_antisymmetry", "variation_anticommutation"]}
    code, out, err = run_doc(tmp_path, capsys, doc)
    assert code == 0 and err == ""


@pytest.mark.parametrize("kind, payload, samples", [
    ("universal", {"n": 1}, {"points": [[0.1, 0.2, 0.3]]}),
    ("fields", {"n": 1}, {"points": [[0.1, 0.2, 0.3]]}),
    ("universal", {"n": 1, "versality_samples": [[0.1, 0.2, 0.3]]}, None),
], ids=["universal-points", "fields-points", "universal-versality"])
def test_run_sample_points_of_wrong_dimension_exit_two(tmp_path, capsys, kind,
                                                       payload, samples):
    doc = {"id": "x", "kind": kind, "seed": 1, "payload": payload}
    if samples is not None:
        doc["samples"] = samples
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), "2n=2")


def test_run_ragged_sample_points_exit_two(tmp_path, capsys):
    doc = {"id": "x", "kind": "induced", "seed": 1,
           "checks": ["foliation_rank_control"],
           "samples": {"points": [[0.1], [0.1, 0.2]]}}
    assert_one_line_rejection(*run_doc(tmp_path, capsys, doc), "same length")


INVALID_DOCUMENTS = [
    ("scenario.schema.json", {"id": "x", "kind": "universal", "seed": -1}),
    ("scenario.schema.json", {"id": "bad id", "kind": "fields", "seed": 1}),
    ("scenario.schema.json", {"id": "x", "kind": "nope", "seed": 1, "extra": 0}),
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": 1,
                              "samples": {"dims": 2, "counts": [2, 2],
                                          "points": [[0.1, 0.2]]}}),
    ("scenario.schema.json", {"id": "x", "kind": "induced", "seed": 1,
                              "payload": {"n": 0},
                              "tolerances": {"checks": {"a": -1}}}),
    ("lvmb_input.schema.json", {"m": 1, "N": 3, "E": [[0, 1, 2]]}),
    ("lvmb_input.schema.json", {"m": 1, "N": 3, "E": [],
                                "ell": [[[0.0, 1.0, 2.0]], [[0.0, 0.0]]]}),
    ("lvmb_input.schema.json", [1, 2]),
]


@pytest.mark.parametrize("name, doc", INVALID_DOCUMENTS)
def test_cached_validator_raises_what_jsonschema_validate_raises(name, doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, load_schema(name))
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_document(doc, name)
        assert got.value.message == want.value.message
        assert list(got.value.absolute_path) == list(want.value.absolute_path)


SCHEMA_NAMES = sorted(
    entry.name for entry in resources.files("acs_verify").joinpath("schemas").iterdir()
    if entry.name.endswith(".json"))


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_bundled_schema_is_valid_against_its_meta_schema(name):
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_validation_does_not_check_the_schemas(monkeypatch):
    # the bundled schemas are checked by the test above, not on every run
    monkeypatch.setattr(scenarios, "_VALIDATORS", {})
    cls = jsonschema.validators.validator_for(load_schema("scenario.schema.json"))
    calls = []
    monkeypatch.setattr(cls, "check_schema",
                        classmethod(lambda klass, schema, *a, **k: calls.append(schema)))
    doc = parse_scenario(find_scenario("lvmb_pass"))
    validate_scenario(doc)
    validate_document(doc["payload"]["data"], "lvmb_input.schema.json")
    assert calls == []


def test_per_check_tolerance_override():
    doc = parse_scenario(find_scenario("fields_basic"))
    doc["tolerances"] = {"checks": {"structure_squares_to_minus_id": 0.0}}
    records, aggregate = run_scenario(doc)
    assert not aggregate["passed"]
    failing = {r["name"]: r for r in records}["structure_squares_to_minus_id"]
    assert failing["status"] == "fail" and failing["tolerance"] == 0.0


def test_serialize_report_is_compact_json_lines():
    doc = parse_scenario(find_scenario("lvmb_pass"))
    records, aggregate = run_scenario(doc)
    text = serialize_report(records, aggregate)
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert len(lines) == len(records) + 1
    for line in lines:
        compact = json.dumps(json.loads(line), sort_keys=True,
                             separators=(",", ":"))
        assert line == compact


# ---------------------------------------------------------------------------
# lvmb-check subcommand
# ---------------------------------------------------------------------------

FAMILY = {
    "m": 1,
    "N": 3,
    "E": [[0, 1, 2], [1, 2, 3]],
    "ell": [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[0.25, 0.25]]],
}


def test_lvmb_check_passing_family(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(FAMILY))
    code, out, _ = run_lines(capsys, ["lvmb-check", str(path)])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["condition_i"] and verdict["condition_ii"]
    assert verdict["witnesses"]["counterexample"] is None
    assert len(verdict["witnesses"]["pairs"]) == 3


def test_lvmb_check_edge_sharing_family_fails(tmp_path, capsys):
    fam = dict(FAMILY)
    fam["ell"] = [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, out, _ = run_lines(capsys, ["lvmb-check", str(path)])
    assert code == 1
    verdict = json.loads(out)
    assert not verdict["condition_i"] and verdict["condition_ii"]


DISJOINT = {
    "m": 1,
    "N": 5,
    "E": [[0, 1, 2], [3, 4, 5]],
    "ell": [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]],
            [[10.0, 10.0]], [[11.0, 10.0]], [[10.0, 11.0]]],
}


def test_lvmb_check_disjoint_hulls_fail_condition_i(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(DISJOINT))
    code, out, err = run_lines(capsys, ["lvmb-check", str(path)])
    assert code == 1 and err == ""
    verdict = json.loads(out)
    assert verdict["condition_i"] is False
    cross = verdict["witnesses"]["pairs"][1]
    assert (cross["overlap"], cross["margin"], cross["witness"]) == (False, None, None)
    assert cross["note"] == "hulls are disjoint"


def test_run_expecting_disjoint_hulls_passes():
    doc = parse_scenario(find_scenario("lvmb_fail"))
    doc["payload"] = {"data": DISJOINT, "expect": {"condition_i": False}}
    records, aggregate = run_scenario(doc)
    assert aggregate["passed"], records
    assert [r["error"] for r in records] == [None] * len(records)


def test_lvmb_check_schema_violation_exits_two(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"m": 1, "N": 3, "E": [[0, 1, 2]]}))
    code, _, err = run_lines(capsys, ["lvmb-check", str(path)])
    assert code == 2 and "ell" in err


def test_lvmb_check_semantic_rejection_exits_two(tmp_path, capsys):
    fam = dict(FAMILY)
    fam["E"] = [[0, 1]]  # wrong cardinality for m=1
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, _, err = run_lines(capsys, ["lvmb-check", str(path)])
    assert code == 2 and "rejected" in err


# Runs in a fresh interpreter: argv[1] is the `src` directory, argv[2] an
# lvmb-check input. Prints the exit codes and every scipy module loaded.
NO_SCIPY_RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from acs_verify.cli import main
from acs_verify.scenarios import bundled_scenario_names
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name in bundled_scenario_names():
        codes[name] = main(["run", name])
    codes["list-checks"] = main(["list-checks"])
    codes["lvmb-check"] = main(["lvmb-check", sys.argv[2]])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_importing_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(acs_verify.__file__)))
    family = os.path.join(os.path.dirname(__file__), "data",
                          "lvm_m1_N10_weights_form_unstable.json")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNNER, src, family],
                          capture_output=True, text=True, env=env, timeout=300,
                          check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(out["codes"]) == len(bundled_scenario_names()) + 2
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert out["scipy"] == []
