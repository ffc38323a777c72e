"""Scenario loading, validation and execution.

A scenario is a JSON document naming a construction kind, a seed and
optional payload, tolerance and sampling controls. Running it executes
the registered checks of that kind and yields one plain-dict record per
check plus an aggregate, ready for byte-deterministic serialization
(sorted keys, compact separators, wall times omitted by default).

Object builders inside checks derive everything from the scenario seed,
so every check of a run sees the same construction, built once per run
in the run's memo; probe randomness comes from a per-check stream keyed
by the check name, which makes the records independent of execution
order. Checks run one after another.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
import zlib
from importlib import resources

import jsonschema
import numpy as np

from .checks import Check, CheckContext, RunMemo, build_embedding, checks_for
from .config import DEFAULT, Tolerances
from .errors import SchemaError, VerifyError
from .fields import TorusChart, TrigPolyField
from .rng import SplitMix64
from .universal import PointwiseACManifold

_SCHEMA_CACHE: dict = {}


def _non_finite(literal: str):
    raise SchemaError(f"non-finite number {literal} in JSON input")


def _in_range(parse):
    """A JSON number parser that refuses literals beyond the range of a
    double: Python would read 1e999 as inf."""
    def number(text: str):
        try:
            value = parse(text)
        except ValueError:  # an integer literal of over 4300 digits
            value = math.inf
        if abs(value) > sys.float_info.max:
            raise SchemaError(f"number {text[:40]} in JSON input is out of range")
        return value
    return number


def load_json(text: str):
    """json.loads for every input document. NaN, Infinity and numbers
    that overflow a double are refused: a non-finite tolerance passes any
    residual, and NaN is not strict JSON."""
    return json.loads(text, parse_constant=_non_finite,
                      parse_float=_in_range(float), parse_int=_in_range(int))


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_CACHE:
        ref = resources.files("acs_verify").joinpath("schemas", name)
        _SCHEMA_CACHE[name] = json.loads(ref.read_text())
    return _SCHEMA_CACHE[name]


_VALIDATORS: dict = {}


def validate_document(doc, name: str) -> None:
    """Raise the ValidationError jsonschema.validate would raise for doc
    against the bundled schema name. The validator is built on first use.
    The bundled schemas are checked against their meta-schema by the
    tests, not at run time: that check tests the files, not the input."""
    if name not in _VALIDATORS:
        schema = load_schema(name)
        _VALIDATORS[name] = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(_VALIDATORS[name].iter_errors(doc))
    if error is not None:
        raise error


def bundled_scenario_names() -> list[str]:
    root = resources.files("acs_verify").joinpath("scenarios")
    return sorted(
        entry.name[:-5] for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def find_scenario(ref: str) -> str:
    """Scenario text by filesystem path first, bundled name second."""
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return fh.read()
    name = ref if ref.endswith(".json") else ref + ".json"
    res = resources.files("acs_verify").joinpath("scenarios", name)
    if res.is_file():
        return res.read_text()
    raise SchemaError(
        f"no scenario file or bundled scenario named {ref!r}; bundled: "
        + ", ".join(bundled_scenario_names())
    )


def _schema_error(exc: jsonschema.ValidationError, prefix=()) -> SchemaError:
    path = "/".join(str(p) for p in (*prefix, *exc.absolute_path)) or "<root>"
    return SchemaError(f"scenario invalid at {path}: {exc.message}")


def validate_scenario(doc, memo: RunMemo | None = None) -> None:
    """Reject a scenario before any check runs: the schema, then the
    check filter, then what the checks of its kind read from payload and
    samples. A construction built to validate the payload (the LVMB
    data) goes into memo when one is given, so the run does not build it
    again."""
    try:
        validate_document(doc, "scenario.schema.json")
    except jsonschema.ValidationError as exc:
        raise _schema_error(exc) from exc
    samples = doc.get("samples", {})
    if "dims" in samples and samples["dims"] != len(samples["counts"]):
        raise SchemaError("samples.dims must equal len(samples.counts)")
    if len({len(row) for row in samples.get("points", [])}) > 1:
        raise SchemaError("samples.points rows must all have the same length")
    checks_for(doc["kind"], doc.get("checks"))
    try:
        checks_for(doc["kind"], list(doc.get("tolerances", {}).get("checks", {})))
    except SchemaError as exc:
        raise SchemaError(f"tolerances.checks: {exc}") from exc
    _validate_payload(doc, RunMemo() if memo is None else memo)


def _validate_payload(doc, memo: RunMemo) -> None:
    """What the checks of a kind read without a default must be there and
    be accepted by the constructors that read it, and universal and
    fields sample points live on T^{2n}."""
    kind = doc["kind"]
    payload = doc.get("payload", {})
    if kind == "lvmb":
        if "data" not in payload:
            raise SchemaError("lvmb scenarios need payload.data")
        try:
            validate_document(payload["data"], "lvmb_input.schema.json")
        except jsonschema.ValidationError as exc:
            raise _schema_error(exc, ("payload", "data")) from exc
        try:
            memo.lvmb_data(payload)
        except VerifyError as exc:
            raise SchemaError(f"payload.data rejected: {exc}") from exc
    if kind == "universal":
        if "n" not in payload:
            raise SchemaError("universal scenarios need payload.n")
        try:
            PointwiseACManifold.check_embedding(*build_embedding(payload))
        except VerifyError as exc:
            raise SchemaError(f"payload.embedding rejected: {exc}") from exc
    if kind == "induced":
        # absent dimensions are drawn: n from 1..2, N from n+2..6
        n = payload.get("n")
        if n is not None and n > 4 and "N" not in payload:
            raise SchemaError("induced scenarios with payload.n > 4 need payload.N")
        if "N" in payload and payload["N"] <= (2 if n is None else n):
            raise SchemaError(
                f"induced scenarios need payload.N > n (n is 1..2 when absent), "
                f"got N={payload['N']}" + ("" if n is None else f" and n={n}"))
    if kind not in ("universal", "fields"):
        return
    # the structure's coefficients, shape and angles only: J^2 = -Id stays
    # a check's job
    n = int(payload.get("n", 1))
    trig = payload.get("structure", {}).get("trig")
    if trig is not None:
        try:
            field = TrigPolyField.from_json_dict(trig)
        except VerifyError as exc:
            raise SchemaError(f"payload.structure rejected: {exc}") from exc
        if field.shape != (2 * n, 2 * n):
            raise SchemaError(
                f"payload.structure rejected: J must have shape (2n, 2n) = "
                f"{(2 * n, 2 * n)} at n={n}, got {field.shape}")
        if any(len(t["freq"]) != 2 * n for t in trig["terms"]):
            raise SchemaError(
                f"payload.structure rejected: J must be defined on T^{{2n}}, "
                f"so every freq needs 2n={2 * n} entries at n={n}")
    samples = doc.get("samples", {})
    dims = [len(row) for row in samples.get("points", [])]
    if "dims" in samples:
        dims.append(samples["dims"])
    if kind == "universal":
        dims += [len(row) for row in payload.get("versality_samples", [])]
    for d in dims:
        if d != 2 * n:
            raise SchemaError(
                f"a {kind} scenario with n={n} needs sample points with "
                f"2n={2 * n} coordinates, got {d}")


def parse_scenario(text: str) -> dict:
    doc = load_json(text)  # JSONDecodeError carries line and column
    validate_scenario(doc)
    return doc


def resolve_samples(doc: dict, cap: int | None) -> np.ndarray | None:
    spec = doc.get("samples")
    if spec is None:
        return None
    if "points" in spec:
        pts = np.asarray(spec["points"], dtype=float)
    else:
        pts = TorusChart(int(spec["dims"])).grid([int(c) for c in spec["counts"]])
    if cap is not None:
        pts = pts[:cap]
    return pts


def resolve_tolerances(doc: dict) -> Tolerances:
    over = doc.get("tolerances", {})
    return Tolerances(
        rank_rtol=float(over.get("rank_rtol", DEFAULT.rank_rtol)),
        alg_atol=float(over.get("alg_atol", DEFAULT.alg_atol)),
        fd_rtol=float(over.get("fd_rtol", DEFAULT.fd_rtol)),
    )


def check_tolerance(check: Check, doc: dict, tol_scale: float) -> float:
    override = doc.get("tolerances", {}).get("checks", {})
    return float(override.get(check.name, check.tolerance)) * tol_scale


def run_check(check: Check, ctx: CheckContext, tolerance: float,
              timings: bool) -> dict:
    """One record per check; a VerifyError inside a runner is a recorded
    failure under its class name, not a crash, so the rest of the batch
    still reports. A check that saw no sample or a non-finite residual
    fails."""
    t0 = time.perf_counter()
    record = {
        "name": check.name,
        "anchor": check.anchor,
        "tolerance": tolerance,
        "wall_time": None,
        "error": None,
    }
    try:
        result = check.runner(ctx)
        residual = float(result.max_residual)
        samples = int(result.samples_checked)
        finite = math.isfinite(residual)
        # a non-finite residual is written as null to keep the line strict JSON
        record["max_residual"] = residual if finite else None
        record["samples_checked"] = samples
        passed = samples >= 1 and finite and residual <= tolerance
        record["status"] = "pass" if passed else "fail"
    except VerifyError as exc:
        record["max_residual"] = None
        record["samples_checked"] = 0
        record["status"] = "fail"
        record["error"] = f"{type(exc).__name__}: {exc}"
    if timings:
        record["wall_time"] = time.perf_counter() - t0
    return record


def run_scenario(doc: dict, tol_scale: float = 1.0,
                 sample_cap: int | None = None, seed: int | None = None,
                 timings: bool = False) -> tuple[list[dict], dict]:
    memo = RunMemo()
    validate_scenario(doc, memo)
    if sample_cap is not None and sample_cap < 1:
        raise SchemaError(
            f"sample cap (--samples) must be a positive integer, got {sample_cap}")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise SchemaError(
            f"tolerance scale (--tol-scale) must be finite and > 0, got {tol_scale}")
    kind = doc["kind"]
    run_seed = int(doc["seed"] if seed is None else seed)
    tol = resolve_tolerances(doc)
    samples = resolve_samples(doc, sample_cap)
    selected = checks_for(kind, doc.get("checks"))
    if not selected:
        raise SchemaError(f"no checks registered for kind {kind!r}")
    payload = doc.get("payload", {})

    records = []
    for check in selected:
        rng = SplitMix64(run_seed ^ zlib.crc32(check.name.encode()))
        ctx = CheckContext(payload=payload, tol=tol, seed=run_seed, rng=rng,
                           samples=samples, sample_cap=sample_cap, memo=memo)
        records.append(run_check(check, ctx, check_tolerance(check, doc, tol_scale),
                                 timings))

    failed = sum(1 for r in records if r["status"] != "pass")
    aggregate = {
        "id": doc["id"],
        "kind": kind,
        "seed": run_seed,
        "checks_run": len(records),
        "checks_failed": failed,
        "passed": failed == 0,
    }
    return records, aggregate


def serialize_report(records: list[dict], aggregate: dict) -> str:
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
             for r in records]
    lines.append(json.dumps(aggregate, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"
