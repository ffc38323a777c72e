"""Compare the reports of the bundled scenarios between two source trees.

    python tools/compare_reports.py [--env-old KEY=VALUE] [--env-new KEY=VALUE] OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that each hold an `acs_verify`
package (the `src` directory of a checkout). Every scenario that both
trees bundle is run against each tree at its own seed and at `--seed` 1,
2 and 3, through `acs_verify.cli.main`, one fresh interpreter per tree
with OPENBLAS_NUM_THREADS=1. A scenario that only one tree bundles is
named on stderr and not compared. So are the `run` operations and
probes that `generate` of perfbench/workloads.py gives the induced
workload at benchmark seeds 1, 2 and 3, each at the seed its document
holds, so the benchmark's own payloads (n = 2, N = 5) are compared too;
their rows name them `benchmark seed SEED OPERATION`.

`--env-old` and `--env-new` (each repeatable) set an environment
variable in the old or the new tree's interpreter only, after the
thread pins. So one tree can be compared with itself under two OpenBLAS
kernels:

    python tools/compare_reports.py --env-old OPENBLAS_CORETYPE=Prescott --env-new OPENBLAS_CORETYPE=Haswell src src

For each check record that both reports hold and that differs between
the trees, one tab-separated row is printed:

    scenario  seed  check  old max_residual  new max_residual

When `samples_checked` moved, a column `samples OLD -> NEW` follows.
When any field other than the residual, the sample count and the
verdict moved (the `anchor` or the `tolerance`, say), a last column
`moved: FIELD, ...` names them, so a record whose residuals agree still
shows why it differs.

The same interpreters also run `lvmb-check` on a fixed set of inputs:
the `payload.data` of each lvmb scenario that both trees bundle (read
from NEW_SRC), the families saved under tests/data/ (among them
`lvmb_pass` and `lvmb_fail` with every form scaled by 1e-12 and by
1e12, so that the scale behaviour stays in view), and the `lvmb-check`
operations and probes that `generate` gives the lvmb workload at
benchmark seeds 1, 2 and 3. The benchmark inputs are written to a
temporary directory; nothing under perfbench/ is written. For each input
whose stdout or exit code differs between the trees, one row is printed:

    lvmb-check  input  exit OLD -> NEW  moved: KEY, ...

where the last column names the top-level keys (and the keys under
`witnesses`) whose values differ; it reads `stdout differs` when an
output is not JSON and `stdout identical` when only the exit code
moved.

A check that one tree's report holds and the other's lacks gets no row:
it is named once on stderr with the number of reports it is missing
from. A summary line on stderr says whether the verdicts (`status` and
`error`) of the shared checks agree, and in how many records
`samples_checked` moved, and a second one how many `lvmb-check` outputs
are byte-identical. The exit code is 1 when any shared record's verdict
or any `lvmb-check` exit code differs, or a report holds a check the
other lacks; otherwise 0, also when residuals, sample counts or
`lvmb-check` output moved.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (None, 1, 2, 3)
BENCH_SEEDS = (1, 2, 3)
LVMB_DATA_FILES = (
    "tests/data/lvm_m1_N10_weights_form_unstable.json",
    "tests/data/lvm_m2_N10_weights_form_lp_failure.json",
    "tests/data/lvmb_pass_x1e-12.json",
    "tests/data/lvmb_pass_x1e12.json",
    "tests/data/lvmb_fail_x1e-12.json",
    "tests/data/lvmb_fail_x1e12.json",
)
VERDICT_FIELDS = ("status", "error")
# the fields a row shows in its own columns or the summary line reports
SHOWN_FIELDS = ("name", "max_residual", "samples_checked", *VERDICT_FIELDS)

# Runs in the child interpreter: argv[1] is the tree, argv[2] the list of
# (scenario, seed) runs, argv[3] the list of (name, path) lvmb-check
# inputs and argv[4] the {scenario: path} files of the runs that are not
# bundled scenarios, as JSON. Prints [{"scenario seed": report}, {name:
# [exit code, stdout]}] as JSON; stderr is not kept.
RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from acs_verify.cli import main
reports, lvmb = {}, {}
paths = json.loads(sys.argv[4])
for name, seed in json.loads(sys.argv[2]):
    argv = ["run", paths.get(name, name)] + ([] if seed is None else ["--seed", str(seed)])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    reports[f"{name} {seed}"] = buf.getvalue()
for name, path in json.loads(sys.argv[3]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["lvmb-check", path])
    lvmb[name] = [code, buf.getvalue()]
print(json.dumps([reports, lvmb]))
"""


def scenario_names(src: str) -> list[str]:
    root = os.path.join(src, "acs_verify", "scenarios")
    return sorted(f[:-5] for f in os.listdir(root) if f.endswith(".json"))


def match_scenarios(old: list[str], new: list[str]) -> tuple[list, list, list]:
    """The scenario names both lists hold, those only old holds, and those
    only new holds, each sorted."""
    return (sorted(set(old) & set(new)), sorted(set(old) - set(new)),
            sorted(set(new) - set(old)))


def benchmark_operations(workload: str, command: str) -> list[tuple[str, dict]]:
    """("benchmark seed SEED OPERATION", document) of every operation and
    probe that perfbench's generate gives workload at BENCH_SEEDS and
    that runs command."""
    # write nothing under perfbench/, bytecode included
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = bytecode
    out = []
    for seed in BENCH_SEEDS:
        spec = workloads.generate(workload, seed)
        out += [(f"benchmark seed {seed} {op['id']}", op["doc"])
                for op in spec["ops"] + spec["probe"] if op["command"] == command]
    return out


def lvmb_inputs(src: str, scenarios: list[str]) -> list[tuple[str, dict]]:
    """(name, document) of every lvmb-check input, in a fixed order: the
    payload.data of each named scenario that src bundles as an lvmb one,
    the data files, then the benchmark's lvmb-check operations and probes
    at BENCH_SEEDS."""
    out = []
    for name in scenarios:
        with open(os.path.join(src, "acs_verify", "scenarios", f"{name}.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("kind") == "lvmb":
            out.append((f"scenario {name}", doc["payload"]["data"]))
    for rel in LVMB_DATA_FILES:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
            out.append((rel, json.load(fh)))
    return out + benchmark_operations("lvmb", "lvmb-check")


def run_tree(src: str, runs: list, lvmb: list, extra_env: dict | None = None,
             paths: dict | None = None) -> list:
    """[reports, lvmb outputs] of one tree, from one fresh interpreter
    whose environment is this one's with the thread pins, no PYTHONPATH,
    and extra_env on top; a run whose scenario paths names is read from
    that file."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    env.update(extra_env or {})
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, os.path.abspath(src), json.dumps(runs),
         json.dumps(lvmb), json.dumps(paths or {})],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def records(report: str) -> dict:
    out = {}
    for line in report.splitlines():
        rec = json.loads(line)
        if "name" in rec:
            out[rec["name"]] = rec
    return out


def compare(runs: list, old: dict, new: dict) -> tuple[list, dict, bool, int]:
    """(rows, one_sided, shared_differ, identical) over the reports of runs.

    rows holds a (scenario, seed, check, old residual, new residual) row
    for each differing record that both reports hold, then a
    "samples OLD -> NEW" entry when samples_checked moved and a
    "moved: FIELD, ..." entry naming the other fields that moved outside
    SHOWN_FIELDS; one_sided counts,
    per (tree, check), the reports in which only that tree has the check;
    shared_differ says whether the verdict of a shared record differs;
    identical counts the byte-identical reports.
    """
    rows, one_sided = [], {}
    shared_differ = False
    identical = 0
    for name, seed in runs:
        key = f"{name} {seed}"
        if old[key] == new[key]:
            identical += 1
            continue
        old_recs, new_recs = records(old[key]), records(new[key])
        for tree, mine, theirs in (("old", old_recs, new_recs), ("new", new_recs, old_recs)):
            for check in mine.keys() - theirs.keys():
                one_sided[tree, check] = one_sided.get((tree, check), 0) + 1
        for check in sorted(old_recs.keys() & new_recs.keys()):
            a, b = old_recs[check], new_recs[check]
            if a == b:
                continue
            if any(a[f] != b[f] for f in VERDICT_FIELDS):
                shared_differ = True
            row = (name, "default" if seed is None else str(seed), check,
                   repr(a["max_residual"]), repr(b["max_residual"]))
            if a["samples_checked"] != b["samples_checked"]:
                row += (f"samples {a['samples_checked']} -> {b['samples_checked']}",)
            other = sorted(f for f in a.keys() | b.keys()
                           if f not in SHOWN_FIELDS and a.get(f) != b.get(f))
            if other:
                row += ("moved: " + ", ".join(other),)
            rows.append(row)
    return rows, one_sided, shared_differ, identical


def moved_keys(old: str, new: str) -> str:
    """The keys whose values differ between two lvmb-check outputs, those
    under "witnesses" as witnesses.KEY; "stdout differs" when either is
    not JSON."""
    try:
        a, b = json.loads(old), json.loads(new)
    except json.JSONDecodeError:  # the empty stdout of a rejected input
        return "stdout differs"
    a, b = ({k: v for k, v in doc.items() if k != "witnesses"}
            | {f"witnesses.{k}": v for k, v in doc.get("witnesses", {}).items()}
            for doc in (a, b))
    keys = sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])
    return "moved: " + ", ".join(keys) if keys else "stdout differs"


def compare_lvmb(names: list, old: dict, new: dict) -> tuple[list, bool, int]:
    """(rows, codes_differ, identical) over the lvmb-check outputs of
    names: a ("lvmb-check", name, "exit OLD -> NEW", "moved: ...") row per
    input whose (exit code, stdout) differs; codes_differ says whether
    any exit code differs; identical counts the identical outputs."""
    rows, codes_differ = [], False
    for name in names:
        (code_a, out_a), (code_b, out_b) = old[name], new[name]
        if code_a != code_b:
            codes_differ = True
        if (code_a, out_a) != (code_b, out_b):
            rows.append(("lvmb-check", name, f"exit {code_a} -> {code_b}",
                         moved_keys(out_a, out_b) if out_a != out_b else "stdout identical"))
    return rows, codes_differ, len(names) - len(rows)


def env_pair(text: str) -> tuple[str, str]:
    """(KEY, VALUE) of a KEY=VALUE argument; VALUE may be empty."""
    key, sep, value = text.partition("=")
    if not key or not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="compare_reports.py",
        description="Compare the reports of the bundled scenarios between two source trees.")
    parser.add_argument("old_src", metavar="OLD_SRC")
    parser.add_argument("new_src", metavar="NEW_SRC")
    for side in ("old", "new"):
        parser.add_argument(f"--env-{side}", action="append", type=env_pair, default=[],
                            metavar="KEY=VALUE",
                            help=f"set KEY in the {side} tree's interpreter (repeatable)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    old_src, new_src = args.old_src, args.new_src
    shared, only_old, only_new = match_scenarios(scenario_names(old_src),
                                                 scenario_names(new_src))
    for tree, names in (("old", only_old), ("new", only_new)):
        if names:
            print(f"only in the {tree} tree, not compared: " + ", ".join(names),
                  file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        def written(inputs, prefix):
            out = []
            for index, (name, doc) in enumerate(inputs):
                path = os.path.join(tmp, f"{prefix}_{index:03d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                out.append((name, path))
            return out

        lvmb = written(lvmb_inputs(new_src, shared), "lvmb")
        paths = dict(written(benchmark_operations("induced", "run"), "run"))
        runs = [(name, seed) for name in shared for seed in SEEDS]
        runs += [(name, None) for name in paths]
        (old_reports, old_lvmb), (new_reports, new_lvmb) = (
            run_tree(old_src, runs, lvmb, dict(args.env_old), paths),
            run_tree(new_src, runs, lvmb, dict(args.env_new), paths))
    rows, one_sided, shared_differ, identical = compare(runs, old_reports, new_reports)
    lvmb_rows, codes_differ, lvmb_identical = compare_lvmb(
        [name for name, _ in lvmb], old_lvmb, new_lvmb)
    for (tree, check), count in sorted(one_sided.items()):
        print(f"check only in the {tree} tree: {check} ({count} reports)",
              file=sys.stderr)
    for row in rows + lvmb_rows:
        print("\t".join(row))
    moved = sum(1 for row in rows if any(c.startswith("samples ") for c in row[5:]))
    print(f"{identical} of {len(runs)} reports byte-identical ({len(runs) - len(paths)} "
          f"of bundled scenarios, {len(paths)} of induced benchmark operations); verdicts of the "
          "shared checks " + ("differ" if shared_differ else "agree")
          + f"; samples_checked moved in {moved} records", file=sys.stderr)
    print(f"{lvmb_identical} of {len(lvmb)} lvmb-check outputs identical; exit codes "
          + ("differ" if codes_differ else "agree"), file=sys.stderr)
    return 1 if shared_differ or one_sided or codes_differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
