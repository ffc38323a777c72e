"""Measuring process of a benchmark run.

Started by run.py in a fresh interpreter with the BLAS thread variables
pinned. It imports `acs_verify` from the checkout's `src`, runs the
defect probe, then timed passes of every operation in a closed loop (one
client: the next operation starts when the previous one returns) until
the time budget is spent. Every operation is one call of
`acs_verify.cli.main`. Its output is checked against the expected
verdict and, byte for byte, against the first pass of the run. The
first pass is timed like the others: a user of the CLI pays its cold
start on every invocation. A calibration (calibrate.py) runs before the
first pass and after every pass. With tracing, half of the budget is spent untraced and half
traced, and the difference of the two median pass times, scaled to the
reference speed, is the tracing overhead.

    python3 perfbench/worker.py --root DIR --manifest FILE --seconds S \
        --trace 0|1 --out FILE
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import statistics
import sys
import time

from calibrate import calibration, scaled_median
from tracer import Tracer

CHECK_NAMES = (
    "universal_dimension_tables", "universal_reconstruction", "universal_fiber_reality",
    "universal_versality", "universal_isotropy", "universal_nijenhuis_flat",
    "torsion_double_entry", "torsion_antisymmetry", "nijenhuis_identity",
    "variation_formula", "variation_anticommutation", "foliation_rank_control",
    "pseudoholomorphic_rank_control", "lvmb_condition_i", "lvmb_condition_ii",
    "lvmb_killing_brackets", "lvmb_exchange_closure", "symplectic_compatibility",
    "symplectic_pullback", "symplectic_sign_flip_control",
    "structure_squares_to_minus_id", "nijenhuis_two_routes", "nijenhuis_tensoriality",
)

# metric name -> (layer name, field); field is a key of Tracer.take()'s
# per-layer counters, or "distinct_ratio".
LAYER_METRICS = {}


def _add(layer, *fields):
    for field in fields:
        LAYER_METRICS[f"{layer}.{field}"] = (layer, field)


_add("universal.build_fiber", "calls", "self_s", "distinct_ratio")
_add("universal.UniversalPoint.validate", "calls", "self_s")
_add("universal.induced_structure_at", "calls", "self_s")
_add("universal.plucker_reality_certificate", "calls", "self_s")
_add("universal.ChartFrame.a_matrix", "calls", "self_s")
_add("universal.embedding_differential", "self_s")
_add("universal.versality_rank_from_parts", "self_s")
for _name in ("eigen_split", "nullspace", "intersect"):
    _add(f"cxlinalg.{_name}", "calls", "self_s")
for _name in ("subspace_eq", "direct_sum_test", "ComplexSubspace.from_columns",
              "ComplexSubspace.from_spanning_set"):
    _add(f"cxlinalg.{_name}", "calls")
_add("distribution.circle_rule_jacobian", "calls", "self_s")
_add("distribution.TorsionTensor.apply", "calls", "self_s")
_add("distribution.torsion_via_frames", "calls", "self_s")
_add("distribution.torsion_at", "self_s")
_add("distribution.frame_bracket_oracle", "self_s")
_add("induced.induced_jf", "calls", "self_s")
_add("induced.nijenhuis_via_torsion", "calls", "self_s")
_add("induced.dbar_f_fiber_coords", "calls")
_add("induced.pullback_quotient", "calls")
_add("induced.variation_djf", "self_s")
_add("induced.variation_fd_oracle", "self_s")
_add("fields.nijenhuis_direct", "calls", "self_s")
_add("fields.CallableMatrixField.partial_value", "calls")
_add("fields.nijenhuis_fd_oracle", "self_s")
_add("fields.TrigPolyField.value", "calls", "self_s")
_add("checks.build_manifold", "calls")
_add("checks.build_graph_scenario", "calls")
_add("cli.main", "calls", "self_s")
_add("scenarios.validate_scenario", "calls", "self_s")
_add("scenarios.run_scenario", "self_s")
_add("scenarios.serialize_report", "self_s")
_add("jsonschema.validate", "calls", "self_s")
_add("lvmb.check_condition_i", "calls", "self_s", "failed")
_add("lvmb.simplex_solve", "calls", "self_s", "failed")
_add("lvmb.check_condition_i_polygon", "self_s")
_add("lvmb.check_condition_ii", "self_s")
_add("lvmb.exchange_closure", "self_s")
_add("rng.SplitMix64.next_u64", "calls")
for _name in ("svd", "qr", "solve", "inv", "eig", "det", "lstsq"):
    _add(f"lapack.{_name}", "calls")

# calibration time before the first pass, whose length is not known yet
CALIBRATION_MIN_S = 0.25

UNITS = {"calls": "count", "failed": "count", "self_s": "s", "s": "s",
         "distinct_ratio": "ratio"}


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

def run_op(main, argv) -> tuple[object, str, str]:
    """One in-process CLI call. Returns (exit code or exception text,
    stdout, stderr). Nothing is retried."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises is a counted failure
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def verdict_problem(expect: dict, code, stdout: str) -> str | None:
    """Why the output does not match the expected verdict, or None."""
    if not isinstance(code, int):
        return str(code)
    if code == 2:
        return "exit 2 (input rejected)"
    if expect["kind"] == "run":
        try:
            aggregate = json.loads(stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return f"exit {code} with no report"
        if aggregate.get("passed") is not expect["passed"]:
            return f"exit {code}, passed={aggregate.get('passed')}"
        return None if code == (0 if expect["passed"] else 1) else f"exit {code}"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code} with no verdict"
    for key in ("condition_i", "condition_ii"):
        if got.get(key) is not expect[key]:
            return f"{key}={got.get(key)}, expected {expect[key]}"
    want = 0 if (expect["condition_i"] and expect["condition_ii"]) else 1
    return None if code == want else f"exit {code}, expected {want}"


class Runner:
    def __init__(self, cli, ops):
        self.cli = cli  # main is looked up per call, so a traced binding is used
        self.ops = ops
        self.reference: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.op_counter = 0

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run every operation once; returns (wall s, cpu s) of the pass."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = []
        for op in self.ops:
            if tracer is not None:
                tracer.op_id = self.op_counter
            self.op_counter += 1
            results.append(run_op(self.cli.main, op["argv"]))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        # checking stays outside the timed region
        for op, (code, stdout, _) in zip(self.ops, results):
            self.attempted += 1
            problem = verdict_problem(op["expect"], code, stdout)
            ref = self.reference.setdefault(op["id"], (code, stdout))
            if problem is None and ref != (code, stdout):
                problem = "report differs from the reference pass"
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": op["id"], "problem": problem})
        return wall, cpu


def run_probe(main, probe) -> list[dict]:
    out = []
    for op in probe:
        code, stdout, _ = run_op(main, op["argv"])
        problem = verdict_problem(op["expect"], code, stdout)
        out.append({"op": op["id"], "defect": op["defect"],
                    "failed": problem is not None, "problem": problem})
    return out


def timed_passes(runner: Runner, budget: float, tracer: Tracer | None = None):
    """Passes until the next one would overrun `budget` seconds; at least
    one. A calibration runs before the first pass and after every pass,
    for a sixteenth of the pass's time, so that long passes get a steadier
    speed estimate. Returns the (wall s, cpu s) of the passes and of the
    calibrations, and the tracer's counters per pass."""
    cals, passes, takes = [calibration(CALIBRATION_MIN_S)], [], []
    start = time.perf_counter()
    while True:
        passes.append(runner.one_pass(tracer))
        if tracer is not None:
            takes.append(tracer.take())
            tracer.keep_spans = False
        cals.append(calibration(max(CALIBRATION_MIN_S, passes[-1][0] / 16)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _ in passes) * 17 / 16
        if elapsed + typical > budget:
            return passes, cals, takes


def scaled_wall(passes, cals) -> float:
    return scaled_median([w for w, _ in passes], [w for w, _ in cals])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(takes: list[dict]) -> dict:
    """Per-pass medians of every per-layer metric over the traced passes."""
    samples: dict[str, list[float]] = {}

    def put(name, value):
        samples.setdefault(name, []).append(value)

    for take in takes:
        layers = take["layers"]
        for name, (layer, field) in LAYER_METRICS.items():
            st = layers.get(layer, {"calls": 0, "failed": 0, "self_s": 0.0})
            if field == "distinct_ratio":
                distinct = take["distinct"].get(layer, 0)
                put(name, distinct / st["calls"] if st["calls"] else 0.0)
            else:
                put(name, st[field])
        for check in CHECK_NAMES:
            put(f"checks.{check}.s", layers.get(f"checks.{check}", {}).get("total_s", 0.0))
        put("lapack.self_s", sum(st["self_s"] for layer, st in layers.items()
                                 if layer.startswith("lapack.")))
        put("lapack.bytes_computed", take["lapack_bytes"])
    out = {}
    for name, values in samples.items():
        field = name.rsplit(".", 1)[1]
        unit = "B" if field == "bytes_computed" else UNITS.get(field, "s")
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import acs_verify.cli

    if not os.path.abspath(acs_verify.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"acs_verify imported from {acs_verify.cli.__file__}, not {src}")

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(args.manifest))
    for op in manifest["ops"] + manifest["probe"]:
        op["argv"] = [op["command"], os.path.join(base, op["file"])]

    probe = run_probe(acs_verify.cli.main, manifest["probe"])
    runner = Runner(acs_verify.cli, manifest["ops"])

    result = {"probe": probe}
    if args.trace:
        plain, plain_cals, _ = timed_passes(runner, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_cals, takes = timed_passes(runner, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if not tracer.restored():
            raise SystemExit("tracer left a patched binding behind")
        metrics = layer_metrics(takes)
        plain_s = scaled_wall(plain, plain_cals)
        traced_s = scaled_wall(traced, traced_cals)
        metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        passes, cals = plain + traced, plain_cals + traced_cals
        spans_file = args.out + ".spans.json.gz"
        with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["span", "name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = os.path.basename(spans_file)
    else:
        passes, cals, _ = timed_passes(runner, args.seconds)
        metrics = {}
    result.update({
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "passes": [{"wall_s": w, "cpu_s": c} for w, c in passes],
        "calibrations": [{"wall_s": w, "cpu_s": c} for w, c in cals],
        "ops_per_pass": len(runner.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
