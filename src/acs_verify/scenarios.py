"""Scenario loading, validation and execution.

A scenario is a JSON document naming a construction kind, a seed and
optional payload, tolerance and sampling controls. Running it executes
the registered checks of that kind and yields one plain-dict record per
check plus an aggregate, ready for byte-deterministic serialization
(sorted keys, compact separators, wall times omitted by default).

run_scenario builds one `checks.Run` per run and hands it to every
check with the check's own random stream. The run's constructions
derive from the payload and the scenario seed, so every check of a run
sees the same one, built on first use; the sample points a check reads
come from `Run.points`, capped by --samples. Probe randomness comes from
a per-check stream keyed by the check name, which makes the records
independent of execution order. Checks run one after another.
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

from .checks import (
    DEFAULT_GRID_COUNTS,
    Check,
    Run,
    build_embedding,
    checks_for,
)
from .config import DEFAULT, Tolerances
from .errors import SchemaError, VerifyError
from .fields import TrigPolyField
from .lvmb import LvmbData
from .rng import SplitMix64
from .schema_check import conforms
from .universal import PointwiseACManifold, dimension_universal

_SCHEMA_CACHE: dict = {}

# Most points a samples.counts grid, or the default grid of a document
# without samples, may ask for: 771 times the largest bundled or
# benchmark grid (6^4), as many as the n = 3 universal default grid
MAX_GRID_POINTS = 10 ** 6

# Largest ambient dimension N of an induced payload: ten times the N = 6
# the drawn dimensions reach. At N = 64 the variation checks take about
# 4 s per instance; N = 3000 asked for arrays of 2N x 2(N - n) doubles
MAX_INDUCED_N = 64

# Most bytes the complex (n, N - n, N) chart Jacobian of a universal
# payload (ChartFrame.a_jacobian, N = dim Z(n, k)) may take: 16 n (N - n) N
# is 6.4 MB for the largest bundled document (n = 3, k = 12) and 78 MB at
# n = 5, k = 20; n = 16, k = 64 asks for 23.1 GiB
MAX_JACOBIAN_BYTES = 2 ** 27


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
    residual, and NaN is not strict JSON. So is nesting deeper than the
    parser's recursion allows."""
    try:
        return json.loads(text, parse_constant=_non_finite,
                          parse_float=_in_range(float), parse_int=_in_range(int))
    except RecursionError:
        raise SchemaError("JSON input is nested too deeply to parse") from None


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_CACHE:
        ref = resources.files("acs_verify").joinpath("schemas", name)
        _SCHEMA_CACHE[name] = json.loads(ref.read_text())
    return _SCHEMA_CACHE[name]


_VALIDATORS: dict = {}


def validate_document(doc, name: str, label: str = "scenario", at: tuple = ()) -> None:
    """Raise SchemaError "<label> invalid at <path>: <message>" when doc
    fails the bundled schema name; at prefixes the path. The verdict is
    schema_check's; the path and message of a failing document are those
    of the error jsonschema's best_match picks, from a validator built on
    first use. The bundled schemas are checked against their meta-schema
    by the tests, not at run time: that check tests the files, not the
    input."""
    schema = load_schema(name)
    if conforms(schema, doc):
        return
    if name not in _VALIDATORS:
        _VALIDATORS[name] = jsonschema.validators.validator_for(schema)(schema)
    try:
        error = jsonschema.exceptions.best_match(_VALIDATORS[name].iter_errors(doc))
    except RecursionError:  # the repr of a value nested nearly as deep as json allows
        raise SchemaError(f"{label} invalid: a value is nested too deeply") from None
    path = "/".join(str(p) for p in (*at, *error.absolute_path)) or "<root>"
    raise SchemaError(f"{label} invalid at {path}: {error.message}")


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


def validate_scenario(doc) -> LvmbData | None:
    """Reject a scenario before any check runs: the schema, then the
    check filter, then what the checks of its kind read from payload and
    samples. Returns the LVMB data built to validate an lvmb payload (None
    for other kinds), so the run does not build it again."""
    validate_document(doc, "scenario.schema.json")
    samples = doc.get("samples", {})
    if "dims" in samples and samples["dims"] != len(samples["counts"]):
        raise SchemaError("samples.dims must equal len(samples.counts)")
    points = 1
    for count in samples.get("counts", []):
        points *= int(count)  # an integral float such as 1e300 is an integer
        if points > MAX_GRID_POINTS:
            raise SchemaError(f"samples.counts asks for more than {MAX_GRID_POINTS} grid points")
    if len({len(row) for row in samples.get("points", [])}) > 1:
        raise SchemaError("samples.points rows must all have the same length")
    checks_for(doc["kind"], doc.get("checks"))
    try:
        checks_for(doc["kind"], list(doc.get("tolerances", {}).get("checks", {})))
    except SchemaError as exc:
        raise SchemaError(f"tolerances.checks: {exc}") from exc
    return _validate_payload(doc)


def _validate_payload(doc) -> LvmbData | None:
    """What the checks of a kind read without a default must be there and
    be accepted by the constructors that read it, and universal and
    fields sample points live on T^{2n}. Returns the LVMB data of an lvmb
    payload."""
    kind = doc["kind"]
    payload = doc.get("payload", {})
    if kind == "lvmb":
        if "data" not in payload:
            raise SchemaError("lvmb scenarios need payload.data")
        validate_document(payload["data"], "lvmb_input.schema.json", at=("payload", "data"))
        try:
            return LvmbData.from_json_dict(payload["data"])
        except VerifyError as exc:
            raise SchemaError(f"payload.data rejected: {exc}") from exc
    if kind == "universal" and "n" not in payload:
        raise SchemaError("universal scenarios need payload.n")
    if kind == "induced":
        # absent dimensions are drawn: n from 1..2, N from n+2..6
        n = payload.get("n")
        if n is not None and n > 4 and "N" not in payload:
            raise SchemaError("induced scenarios with payload.n > 4 need payload.N")
        if "N" in payload and payload["N"] <= (2 if n is None else n):
            raise SchemaError(
                f"induced scenarios need payload.N > n (n is 1..2 when absent), "
                f"got N={payload['N']}" + ("" if n is None else f" and n={n}"))
        if payload.get("N", 0) > MAX_INDUCED_N:
            raise SchemaError(
                f"payload.N={payload['N']:.6g} is above the limit of {MAX_INDUCED_N} "
                f"for induced scenarios")
    if kind not in ("universal", "fields"):
        return None
    # the grid bound or the sample width ties n to the input's size before
    # anything of size O(n^2) is built (8^21 > MAX_GRID_POINTS); .6g keeps a
    # huge n short
    n = int(payload.get("n", 1))
    if "samples" not in doc and DEFAULT_GRID_COUNTS[kind] ** min(2 * n, 21) > MAX_GRID_POINTS:
        raise SchemaError(
            f"payload.n={n:.6g} gives a {kind} scenario without samples a default "
            f"grid of more than {MAX_GRID_POINTS} points; give samples")
    samples = doc.get("samples", {})
    dims = [len(row) for row in samples.get("points", [])]
    if "dims" in samples:
        dims.append(samples["dims"])
    if kind == "universal":
        dims += [len(row) for row in payload.get("versality_samples", [])]
    for d in dims:
        if d != 2 * n:
            raise SchemaError(
                f"a {kind} scenario with n={n:.6g} needs sample points with "
                f"2n={2 * n:.6g} coordinates, got {d}")
    # the structure's coefficients, shape and angles only: J^2 = -Id stays
    # a check's job
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
    if kind == "universal":
        # the Jacobian's size from n and k alone, before the embedding is
        # built; k <= n (no Jacobian) is the embedding check's to reject
        k = int(payload.get("k", 4 * n))
        big_n = dimension_universal(n, k) if k > n else n
        if 16 * n * (big_n - n) * big_n > MAX_JACOBIAN_BYTES:
            raise SchemaError(
                f"payload.n={n:.6g} and payload.k={k:.6g} ask for a chart Jacobian of "
                f"16 n (N - n) N bytes with N = dim Z(n, k), above the limit of "
                f"{MAX_JACOBIAN_BYTES} bytes")
        try:
            PointwiseACManifold.check_embedding(*build_embedding(payload))
        except VerifyError as exc:
            raise SchemaError(f"payload.embedding rejected: {exc}") from exc


def parse_scenario(text: str) -> dict:
    doc = load_json(text)  # JSONDecodeError carries line and column
    validate_scenario(doc)
    return doc


def resolve_tolerances(doc: dict) -> Tolerances:
    over = doc.get("tolerances", {})
    return Tolerances(
        rank_rtol=float(over.get("rank_rtol", DEFAULT.rank_rtol)),
        alg_atol=float(over.get("alg_atol", DEFAULT.alg_atol)),
    )


def check_tolerance(check: Check, doc: dict, tol_scale: float) -> float:
    override = doc.get("tolerances", {}).get("checks", {})
    return float(override.get(check.name, check.tolerance)) * tol_scale


def run_check(check: Check, run: Run, rng: SplitMix64, tolerance: float,
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
        result = check.runner(run, rng)
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
    lvmb_data = validate_scenario(doc)
    if sample_cap is not None and sample_cap < 1:
        raise SchemaError(
            f"sample cap (--samples) must be a positive integer, got {sample_cap}")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise SchemaError(
            f"tolerance scale (--tol-scale) must be finite and > 0, got {tol_scale}")
    # SplitMix64 reads a seed mod 2^64, so one outside would alias another
    if seed is not None and not 0 <= seed <= 2**64 - 1:
        raise SchemaError(f"seed (--seed) must be an integer in [0, 2^64 - 1], got {seed}")
    kind = doc["kind"]
    run_seed = int(doc["seed"] if seed is None else seed)
    selected = checks_for(kind, doc.get("checks"))
    if not selected:
        raise SchemaError(f"no checks registered for kind {kind!r}")
    run = Run(kind, doc.get("payload", {}), resolve_tolerances(doc), run_seed,
              doc.get("samples"), sample_cap, lvmb_data)

    records = []
    for check in selected:
        rng = SplitMix64(run_seed ^ zlib.crc32(check.name.encode()))
        records.append(run_check(check, run, rng, check_tolerance(check, doc, tol_scale),
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
