"""The report comparison tool compares only the scenarios both trees
bundle; the tool is loaded from its file."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


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
