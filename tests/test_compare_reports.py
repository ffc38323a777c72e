"""The report comparison tool compares only the scenarios both trees
bundle, names a check only one tree runs instead of giving it a
residual row, and shows a moved sample count in its row without calling
it a changed verdict; it gives one row per lvmb-check input whose
output or exit code moved, and sets an environment variable only in the
tree it names; the induced benchmark's run operations are compared too.
The tool is loaded from its file."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_match_scenarios_splits_shared_from_one_sided_names():
    match = load_tool().match_scenarios
    old = ["lvmb_pass", "universal_n2_k8", "retired"]
    new = ["universal_n3_k12", "universal_n2_k8", "lvmb_pass"]
    assert match(old, new) == (["lvmb_pass", "universal_n2_k8"], ["retired"],
                               ["universal_n3_k12"])
    assert match(new, new) == (sorted(new), [], [])
    assert match([], new) == ([], [], sorted(new))


def report(*recs):
    """A report as the CLI prints it: one JSON line per record, then the
    aggregate line, which carries no check name."""
    lines = [json.dumps(rec) for rec in recs]
    lines.append(json.dumps({"passed": True, "checks_run": len(recs)}))
    return "\n".join(lines) + "\n"


def record(name, residual, status="pass", samples=3):
    return {"name": name, "status": status, "max_residual": residual,
            "error": None, "samples_checked": samples}


def test_a_check_only_one_tree_runs_is_counted_not_given_a_residual_row():
    compare = load_tool().compare
    runs = [("lvmb_pass", None), ("lvmb_pass", 1), ("fields_basic", None)]
    same = report(record("nijenhuis_identity", 1e-12))
    old = {"lvmb_pass None": report(record("lvmb_condition_i", 0.0),
                                    record("lvmb_killing_brackets", 0.0)),
           "lvmb_pass 1": report(record("lvmb_condition_i", 0.5),
                                 record("lvmb_killing_brackets", 0.0)),
           "fields_basic None": same}
    new = {"lvmb_pass None": report(record("lvmb_condition_i", 0.0)),
           "lvmb_pass 1": report(record("lvmb_condition_i", 0.25)),
           "fields_basic None": same}
    rows, one_sided, shared_differ, identical = compare(runs, old, new)
    # the moved residual of a shared check is a row; the one-sided check is not
    assert rows == [("lvmb_pass", "1", "lvmb_condition_i", "0.5", "0.25")]
    assert one_sided == {("old", "lvmb_killing_brackets"): 2}
    assert not shared_differ and identical == 1


def test_a_shared_check_whose_verdict_moves_differs():
    compare = load_tool().compare
    runs = [("lvmb_fail", 2)]
    old = {"lvmb_fail 2": report(record("lvmb_condition_ii", 0.0))}
    new = {"lvmb_fail 2": report(record("lvmb_condition_ii", 1.0, status="fail"),
                                 record("lvmb_new_check", 0.0))}
    rows, one_sided, shared_differ, identical = compare(runs, old, new)
    assert rows == [("lvmb_fail", "2", "lvmb_condition_ii", "0.0", "1.0")]
    assert one_sided == {("new", "lvmb_new_check"): 1}
    assert shared_differ and identical == 0


def test_moved_samples_are_a_report_change_not_a_verdict_change():
    compare = load_tool().compare
    runs = [("universal_n2_k8", None), ("universal_n2_k8", 1)]
    old = {"universal_n2_k8 None": report(record("universal_fiber_reality", 1e-15,
                                                 samples=1296)),
           "universal_n2_k8 1": report(record("universal_fiber_reality", 2e-15,
                                              samples=1296))}
    new = {"universal_n2_k8 None": report(record("universal_fiber_reality", 1e-15,
                                                 samples=3)),
           "universal_n2_k8 1": report(record("universal_fiber_reality", 3e-15,
                                              samples=1296))}
    rows, one_sided, shared_differ, identical = compare(runs, old, new)
    # the samples column appears only where the count moved
    assert rows == [
        ("universal_n2_k8", "default", "universal_fiber_reality", "1e-15", "1e-15",
         "samples 1296 -> 3"),
        ("universal_n2_k8", "1", "universal_fiber_reality", "2e-15", "3e-15"),
    ]
    assert one_sided == {} and not shared_differ and identical == 0


def test_a_row_names_the_other_fields_that_moved():
    compare = load_tool().compare
    runs = [("universal_n1_k4", None), ("universal_n1_k4", 1)]
    old_rec = {**record("universal_fiber_reality", 1e-15), "anchor": "old", "tolerance": 1e-9}
    anchor_only = {**old_rec, "anchor": "new"}
    both = {**old_rec, "anchor": "new", "tolerance": 1e-8, "max_residual": 2e-15,
            "samples_checked": 5}
    old = {"universal_n1_k4 None": report(old_rec), "universal_n1_k4 1": report(old_rec)}
    new = {"universal_n1_k4 None": report(anchor_only), "universal_n1_k4 1": report(both)}
    rows, one_sided, shared_differ, identical = compare(runs, old, new)
    # an anchor-only change is named, not an unexplained row of equal residuals
    assert rows == [
        ("universal_n1_k4", "default", "universal_fiber_reality", "1e-15", "1e-15",
         "moved: anchor"),
        ("universal_n1_k4", "1", "universal_fiber_reality", "1e-15", "2e-15",
         "samples 3 -> 5", "moved: anchor, tolerance"),
    ]
    assert one_sided == {} and not shared_differ and identical == 0


def lvmb_output(condition_i=True, pairs=(), counterexample=None):
    return json.dumps({"condition_i": condition_i, "condition_ii": counterexample is None,
                       "witnesses": {"common_point": None, "pairs": list(pairs),
                                     "counterexample": counterexample}},
                      sort_keys=True, separators=(",", ":")) + "\n"


def test_an_lvmb_check_input_whose_output_moved_gets_one_row():
    compare_lvmb = load_tool().compare_lvmb
    names = ["scenario lvmb_pass", "benchmark seed 1 lvm_m1_N8", "benchmark seed 1 defect_a:disjoint",
             "benchmark seed 2 lvm_m2_N9"]
    pair = {"j1": [0, 1, 2], "j2": [3, 4, 5], "overlap": False}
    old = {names[0]: (0, lvmb_output()),
           names[1]: (0, lvmb_output()),
           names[2]: (1, lvmb_output(False, [pair])),
           names[3]: (2, "")}
    new = {names[0]: (0, lvmb_output()),
           names[1]: (1, lvmb_output(False, [pair], {"J": [0, 1, 2], "k": 3})),
           names[2]: (1, lvmb_output(False, [dict(pair, overlap=True)])),
           names[3]: (1, "not json\n")}
    rows, codes_differ, identical = compare_lvmb(names, old, new)
    # condition_ii and the counterexample moved with condition_i; the
    # exit code alone moved on the rejected input
    assert rows == [
        ("lvmb-check", names[1], "exit 0 -> 1",
         "moved: condition_i, condition_ii, witnesses.counterexample, witnesses.pairs"),
        ("lvmb-check", names[2], "exit 1 -> 1", "moved: witnesses.pairs"),
        ("lvmb-check", names[3], "exit 2 -> 1", "stdout differs"),
    ]
    assert codes_differ and identical == 1
    # an exit code that moves under an unchanged stdout still differs
    rows, codes_differ, identical = compare_lvmb(names[:1], old, {names[0]: (1, lvmb_output())})
    assert rows == [("lvmb-check", names[0], "exit 0 -> 1", "stdout identical")]
    assert codes_differ and identical == 0


def test_the_lvmb_check_inputs_cover_the_bundled_data_and_the_benchmark_seeds():
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    inputs = load_tool().lvmb_inputs(str(ROOT / "src"), ["lvmb_fail", "lvmb_pass", "fields_basic"])
    names = [name for name, _ in inputs]
    assert names[:8] == ["scenario lvmb_fail", "scenario lvmb_pass",
                         "tests/data/lvm_m1_N10_weights_form_unstable.json",
                         "tests/data/lvm_m2_N10_weights_form_lp_failure.json",
                         "tests/data/lvmb_pass_x1e-12.json", "tests/data/lvmb_pass_x1e12.json",
                         "tests/data/lvmb_fail_x1e-12.json", "tests/data/lvmb_fail_x1e12.json"]
    # per seed: four families, an extra-set and a disjoint probe, and not
    # the probe that runs a scenario
    for seed in (1, 2, 3):
        assert [n for n in names if n.startswith(f"benchmark seed {seed} ")] == [
            f"benchmark seed {seed} {op}" for op in (
                "lvm_m1_N8", "lvm_m1_N10", "lvm_m2_N9", "lvm_m2_N10",
                "defect_a:lvm_m1_N8_extra", "defect_a:disjoint")]
    assert len(names) == 26 and all(set(doc) >= {"m", "N", "E", "ell"} for _, doc in inputs)
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before


def test_the_induced_benchmark_runs_are_compared_at_the_benchmark_seeds():
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    runs = load_tool().benchmark_operations("induced", "run")
    # per seed: the two timed runs, then the three torsion_double_entry
    # probes; the n = 2, N = 5 payload of the benchmark among them
    assert len(runs) == 15
    for seed in (1, 2, 3):
        ops = [(name.split(" ", 3)[3], doc) for name, doc in runs
               if name.startswith(f"benchmark seed {seed} ")]
        assert [name.split("@")[0] for name, _ in ops] == [
            "induced_nijenhuis", "induced_variation"] + ["defect_b:torsion_double_entry"] * 3
        assert ops[0][1]["payload"] == {"charts": 10, "instances": 5, "pairs": 25,
                                        "n": 2, "N": 5}
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before


STUB_CLI = '''import os


def main(argv):
    print(os.environ.get("OPENBLAS_CORETYPE"), os.environ.get("OPENBLAS_NUM_THREADS"))
    return 0
'''


def test_env_old_and_env_new_reach_only_their_own_tree(tmp_path, monkeypatch):
    tool = load_tool()
    args = tool.parse_args(["--env-old", "OPENBLAS_CORETYPE=Prescott", "--env-new",
                            "OPENBLAS_CORETYPE=Haswell", "--env-new", "EMPTY=", "a", "b"])
    assert (args.old_src, args.new_src) == ("a", "b")
    assert dict(args.env_old) == {"OPENBLAS_CORETYPE": "Prescott"}
    assert dict(args.env_new) == {"OPENBLAS_CORETYPE": "Haswell", "EMPTY": ""}
    with pytest.raises(SystemExit):
        tool.parse_args(["--env-old", "OPENBLAS_CORETYPE", "a", "b"])
    # a tree whose cli prints what its interpreter sees: the extra
    # variable is set there, over this environment and after the pins
    (tmp_path / "acs_verify").mkdir()
    (tmp_path / "acs_verify" / "__init__.py").write_text("")
    (tmp_path / "acs_verify" / "cli.py").write_text(STUB_CLI)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Zen")
    shown = {}
    for name, extra in (("prescott", {"OPENBLAS_CORETYPE": "Prescott"}), ("none", None)):
        reports, _ = tool.run_tree(str(tmp_path), [("x", None)], [], extra)
        shown[name] = reports["x None"]
    assert shown == {"prescott": "Prescott 1\n", "none": "Zen 1\n"}
