"""acs-verify benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The run

1. pins OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 and
   unsets ACS_VERIFY_THREADS, for itself and every process it starts;
2. measures set-up time: fresh interpreters importing `acs_verify.cli`
   from `src`, SETUP_REPEATS times after one untimed import, median;
   the time metrics are in seconds at the reference speed of
   calibrate.py, from a calibration run before and after every measured
   interval (the raw seconds go to the result file);
3. generates the workload's inputs from the seed into a temporary
   directory under `.perfbench_work/` (removed at the end);
4. starts worker.py, which runs the defect probe and the timed passes,
   and checks every output;
5. writes everything, with the environment, to
   `.perfbench_results/<workload>-seed<N>-trace<T>.json`, prints each
   metric with its unit on stderr and, as the last line of stdout, one
   JSON object with the keys correct, attempted, failed and metrics.

It exits 0 when every timed operation's output was correct, 1 when one
was not, and 2 without printing a result when it cannot run (for
instance outside a checkout that holds `src/acs_verify`).
"""
from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    # before numpy is imported, so the generator runs pinned as well; the
    # processes started below inherit this environment
    os.environ.update(PINNED_THREADS)
    os.environ.pop("ACS_VERIFY_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import calibration, scaled_median  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import acs_verify.cli"
# worker time beyond the measured seconds: import, probe, an overrunning pass
WORKER_SLACK_S = 150
WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"


def measure_setup(root: str) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters that import acs_verify.cli, and
    of the calibrations run before the first and after each of them."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=root, check=True, timeout=120)  # writes bytecode
    times, cals = [], [calibration()[0]]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - start)
        cals.append(calibration()[0])
    return times, cals


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # build metadata only; absence is not an error
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "pinned_threads": dict(PINNED_THREADS),
        "ACS_VERIFY_THREADS": os.environ.get("ACS_VERIFY_THREADS"),
    }


def pass_tail(values: list[float]) -> dict | None:
    """Highest percentile with ten samples beyond it, when there are at
    least twenty samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    count = len(ordered)
    return {"percentile": round(100.0 * (count - 10) / count, 2),
            "value": ordered[count - 11], "samples": count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "acs_verify", "cli.py")):
        print("error: run from the root of an acs-verify checkout "
              "(src/acs_verify/cli.py not found)", file=sys.stderr)
        return 2

    setup_times, setup_cals = measure_setup(root)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    results_dir = os.path.join(root, RESULTS_DIR)
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = os.path.join(results_dir, stem + ".json")
    work = tempfile.mkdtemp(prefix=stem + "-", dir=os.path.join(root, WORK_DIR))
    try:
        spec = workloads.generate(args.workload, args.seed)
        manifest = workloads.write_inputs(spec, work)
        worker_out = os.path.join(work, "worker.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
             "--manifest", manifest, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", worker_out],
            cwd=root, check=True, timeout=args.seconds + WORKER_SLACK_S)
        with open(worker_out, encoding="utf-8") as fh:
            worker = json.load(fh)
        spans = worker.pop("spans_file", None)
        if spans:
            shutil.move(os.path.join(work, spans), os.path.join(results_dir, stem + ".spans.json.gz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = worker["attempted"], worker["failed"]
    passes = worker["passes"]
    walls = [p["wall_s"] for p in passes]
    cals = worker["calibrations"]
    raw = {
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    probe = worker["probe"]
    probe_counts = {d: (sum(p["defect"] == d for p in probe),
                        sum(p["defect"] == d and p["failed"] for p in probe))
                    for d in ("a", "b")}
    if args.trace:
        metrics = worker["metrics"]
        for defect, (tried, broke) in probe_counts.items():
            metrics[f"probe.defect_{defect}.attempted"] = {"value": tried, "unit": "count"}
            metrics[f"probe.defect_{defect}.failed"] = {"value": broke, "unit": "count"}
    else:
        metrics = {
            "pass_s": {"value": scaled_median(walls, [c["wall_s"] for c in cals]),
                       "unit": "s"},
            "pass_cpu_s": {"value": scaled_median([p["cpu_s"] for p in passes],
                                                  [c["cpu_s"] for c in cals]),
                           "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "setup_s": {"value": scaled_median(setup_times, setup_cals), "unit": "s"},
        }
    correct = failed == 0
    tail = pass_tail(walls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "environment": environment(),
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": worker["failures"], "probe": probe,
        "raw_seconds": raw, "setup_s_samples": setup_times, "setup_calibrations": setup_cals,
        "passes": passes, "calibrations": cals, "pass_s_tail": tail,
        "single_pass_spread_s": {"min": min(walls), "max": max(walls)},
        "ops_per_pass": worker["ops_per_pass"]
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, metric in sorted(metrics.items()):
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} raw (unscaled) " + ", ".join(
        f"{k} = {v:.6g} s" for k, v in raw.items()), file=sys.stderr)
    print(f"{args.workload} passes = {len(walls)}"
          + (f", pass_s p{tail['percentile']} = {tail['value']:.6g} s" if tail else ""),
          file=sys.stderr)
    for defect, (tried, broke) in probe_counts.items():
        if tried:
            print(f"{args.workload} known defect ({defect}): "
                  f"{broke} of {tried} probe operations fail", file=sys.stderr)
    for failure in worker["failures"]:
        print(f"{args.workload} FAILED {failure['op']}: {failure['problem']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
