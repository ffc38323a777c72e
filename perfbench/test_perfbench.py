"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root. The smoke tests run every workload through
worker.py on shrunken inputs, so they take about a minute.
"""
from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    workloads.write_inputs(workloads.generate(name, 7), str(first))
    workloads.write_inputs(workloads.generate(name, 7), str(second))
    workloads.write_inputs(workloads.generate(name, 8), str(other))
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_lvm_families_have_seed_independent_size():
    for m, big_n in workloads.LVMB_SIZES:
        sizes = {len(workloads.lvm_family(workloads._rng("lvmb", s), m, big_n)["E"])
                 for s in (1, 2)}
        assert len(sizes) == 1


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = _benchmark_json()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.match(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert set(e2e) == {"setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb", "ok_ratio"}
    produced = set(worker.layer_metrics([{"layers": {}, "distinct": {}, "lapack_bytes": 0}]))
    produced |= {"trace.pass_s", "trace.overhead_s"}
    produced |= {f"probe.defect_{d}.{f}" for d in "ab" for f in ("attempted", "failed")}
    assert set(layer) == produced
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    """Every attribute the tracer may patch, by identity."""
    import jsonschema
    import numpy.linalg
    import scipy.linalg

    import acs_verify.cli  # noqa: F401

    out = {}
    modules = [m for k, m in sys.modules.items() if k == "acs_verify" or k.startswith("acs_verify.")]
    for mod in modules + [numpy.linalg, scipy.linalg, jsonschema]:
        for key, value in list(vars(mod).items()):
            out[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, raw in list(vars(value).items()):
                    out[(mod.__name__, key, attr)] = raw
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        import acs_verify.checks
        import acs_verify.universal
        assert acs_verify.checks.build_fiber is not before[("acs_verify.checks", "build_fiber")]
        assert acs_verify.universal.build_fiber is not before[("acs_verify.universal", "build_fiber")]
        assert not tr.restored()
    finally:
        tr.uninstall()
    assert tr.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_output_checks_catch_wrong_verdicts_and_drift():
    expect = {"kind": "run", "passed": True}
    passed = '{"x":1}\n{"passed":true}\n'
    assert worker.verdict_problem(expect, 0, passed) is None
    assert worker.verdict_problem(expect, 1, '{"passed":false}\n') is not None
    assert worker.verdict_problem(expect, 2, "") is not None
    assert worker.verdict_problem(expect, "raised InvalidParams: x", "") is not None
    lv = {"kind": "lvmb", "condition_i": True, "condition_ii": True}
    assert worker.verdict_problem(lv, 0, '{"condition_i":true,"condition_ii":true}') is None
    assert worker.verdict_problem(lv, 1, '{"condition_i":false,"condition_ii":true}') is not None

    class Drifting:
        calls = 0

        @classmethod
        def main(cls, argv):
            cls.calls += 1
            print('{"passed":true,"n":%d}' % cls.calls)
            return 0

    runner = worker.Runner(Drifting, [{"id": "op", "argv": [], "expect": expect}])
    runner.one_pass()
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def _shrink(spec):
    """Reduced-size copy of a workload for smoke runs."""
    small = {"instances": 1, "pairs": 2, "charts": 2, "draws": 1,
             "reality_samples": 1, "probes": 1}
    spec = copy.deepcopy(spec)
    if spec["workload"] == "lvmb":
        spec["ops"] = spec["ops"][:1]
        spec["probe"] = spec["probe"][:1] + spec["probe"][-2:]
    for op in spec["ops"] + spec["probe"]:
        doc = op["doc"]
        payload = doc.get("payload", {})
        for key, value in small.items():
            if key in payload:
                payload[key] = value
        if "samples" in doc:
            doc["samples"]["counts"] = [min(c, 2) for c in doc["samples"]["counts"]]
        if "versality_samples" in payload:
            payload["versality_samples"] = payload["versality_samples"][:1]
    return spec


def _smoke(name, tmp_path, trace=1):
    spec = _shrink(workloads.generate(name, 3))
    manifest = workloads.write_inputs(spec, str(tmp_path))
    out = tmp_path / f"result{trace}.json"
    env = dict(os.environ, **PINNED)
    env.pop("ACS_VERIFY_THREADS", None)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
                    "--manifest", manifest, "--seconds", "0.01", "--trace", str(trace),
                    "--out", str(out)], check=True, env=env, timeout=300)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_and_layer_predictions(name, tmp_path):
    result = _smoke(name, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    # run.py adds the probe.* counts from result["probe"]
    layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(metrics) == {n for n in layer if not n.startswith("probe.")}
    fibers = metrics["universal.build_fiber.calls"]["value"]
    lps = metrics["lvmb.simplex_solve.calls"]["value"]
    if name in ("universal", "catalog"):
        assert fibers > 0
    else:
        assert fibers == 0
    if name in ("universal", "induced"):
        assert lps == 0
    if name == "lvmb":
        assert lps > 0
        assert any(p["defect"] == "a" for p in result["probe"])
    if name == "induced":
        assert any(p["defect"] == "b" for p in result["probe"])
    assert metrics["cli.main.calls"]["value"] == len(_shrink(workloads.generate(name, 3))["ops"])


def test_traced_counts_repeat_exactly(tmp_path):
    runs = []
    for i in range(2):
        d = tmp_path / str(i)
        d.mkdir()
        result = _smoke("catalog", d)
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".calls")})
    assert runs[0] == runs[1]
    assert runs[0]["rng.SplitMix64.next_u64.calls"] > 0


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 8
    bench = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
