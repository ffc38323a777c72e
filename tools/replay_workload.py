"""Replay the benchmark's operations in process and name the seeds that fail.

    python tools/replay_workload.py WORKLOAD FIRST LAST

For every benchmark seed FIRST..LAST (inclusive), the timed operations
of WORKLOAD are generated by `generate` of perfbench/workloads.py and
written to a temporary directory, as the benchmark writes them. Each is
run once in this process through `acs_verify.cli.main` of this
checkout's `src`, and its output is judged by `verdict_problem` of
perfbench/worker.py, as a timed pass judges it. The defect probes are
not run. One tab-separated row is printed per failing operation:

    seed  operation id  problem

and a summary line on stderr. The exit code is 1 when any operation
fails, 2 on a usage error, otherwise 0. Nothing under perfbench/ is
written, bytecode included.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

# as the benchmark pins it; read when numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
for _path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402
from worker import run_op, verdict_problem  # noqa: E402

from acs_verify import cli  # noqa: E402


def failures(workload: str, first: int, last: int) -> tuple[int, list]:
    """The number of timed operations of seeds first..last, and the
    (seed, operation id, problem) of each whose output does not match its
    expected verdict."""
    ran, out = 0, []
    for seed in range(first, last + 1):
        spec = workloads.generate(workload, seed)
        with tempfile.TemporaryDirectory() as tmp:
            with open(workloads.write_inputs(spec, tmp), encoding="utf-8") as fh:
                manifest = json.load(fh)
            ran += len(manifest["ops"])
            for op in manifest["ops"]:
                code, stdout, _ = run_op(cli.main, [op["command"], os.path.join(tmp, op["file"])])
                problem = verdict_problem(op["expect"], code, stdout)
                if problem is not None:
                    out.append((seed, op["id"], problem))
    return ran, out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (len(argv) != 3 or argv[0] not in workloads.WORKLOADS
            or not all(a.isdigit() for a in argv[1:])):
        print(__doc__.strip().splitlines()[2].strip()
              + f"  (WORKLOAD one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload, first, last = argv[0], int(argv[1]), int(argv[2])
    ran, failed = failures(workload, first, last)
    for seed, op_id, problem in failed:
        print(f"{seed}\t{op_id}\t{problem}")
    seeds = sorted({seed for seed, _, _ in failed})
    print(f"{workload} seeds {first}-{last}: {ran} operations, {len(failed)} failed, "
          f"{len(seeds)} failing seeds" + "".join(f" {s}" for s in seeds), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
