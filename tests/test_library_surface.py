"""Every definition in the library must be reached from the library
itself.

A top-level, undecorated `def` or `class` in `src/acs_verify/` passes when
its name appears somewhere in `src/` as a name or an attribute (a call,
a raise, an annotation, a base class). Exempt are the names the package
exports in `__all__`, the names the benchmark tracer binds (its
`LAYER_TARGETS`, loaded from its file and not modified), and `main`, the
console entry point. Code that only tests read belongs in `tests/`.
Decorated definitions (registered checks, dataclasses) are reached
through their decorator.

That scan cannot see a method, a nested function, or a function that
shares its name with one the library does call. So every `def` is also
held to a traced run of the CLI (`test_every_function_and_method_is_reached`):
each must be called at least once.
"""
import ast
import json
import sys
from pathlib import Path

import acs_verify
from acs_verify import scenarios
from acs_verify.checks import all_checks
from acs_verify.cli import main
from acs_verify.scenarios import bundled_scenario_names, find_scenario, parse_scenario
from test_bench_bindings import load_tracer

SRC = Path(acs_verify.__file__).resolve().parent


def parsed_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def referenced_names(trees) -> set:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def exempt_names() -> set:
    exempt = set(acs_verify.__all__) | {"main"}
    for _, path, _ in load_tracer().LAYER_TARGETS:
        exempt.update(path.split("."))
    return exempt


def unreached(modules) -> list:
    used = referenced_names(modules.values()) | exempt_names()
    out = []
    for file_name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.decorator_list or node.name in used:
                continue
            out.append(f"{file_name}:{node.lineno} {node.name}")
    return out


def test_every_top_level_definition_is_reached_from_the_library():
    assert unreached(parsed_modules()) == []


def test_the_scan_flags_only_undecorated_definitions_nothing_reaches():
    module = ast.parse(
        "def chart_to_json(chart):\n    return {}\n\n"
        "def helper():\n    return 1\n\n"
        "def caller():\n    return helper()\n\n"
        "@register('x', 'y', 'z', 0.0)\ndef _check(ctx):\n    return caller\n")
    assert unreached({"extra.py": module}) == ["extra.py:1 chart_to_json"]


# Defs the traced run does not call that stay, one reason each. A name
# covers its methods and nested functions.
NOT_CALLED = {
    ("checks.py", "register"): "runs at import, before the trace starts",
    ("cxlinalg.py", "ComplexSubspace.projector"):
        "reached only through the tracer-bound subspace_eq, and goes with it",
    ("cxlinalg.py", "LinearComplexStructure"):
        "the input of the tracer-bound eigen_split, and goes with it",
    ("cxlinalg.py", "RealSplitting"):
        "the output of the tracer-bound eigen_split, and goes with it",
    ("fields.py", "CallableMatrixField.values"):
        "the field protocol: AlmostComplexField.values delegates to its "
        "field, which may be a CallableMatrixField",
}

# Tracer bindings the traced run does not call, one reason each; they stay
# while perfbench/tracer.py binds them (ROADMAP item 5). A binding the run
# starts or stops calling changes this list.
TRACER_ONLY = {
    "universal.UniversalPoint.validate": "validate_fibers on one point; tests call it",
    "cxlinalg.eigen_split": "the reference eigenspace split of the tests' oracles",
    "cxlinalg.intersect": "subspace intersection, called only by tests",
    "cxlinalg.subspace_eq": "projector equality of subspaces, the tests' comparison",
    "cxlinalg.direct_sum_test": "the direct-sum test of the tests' fiber oracle",
    "cxlinalg.ComplexSubspace.from_columns": "orthonormalizes columns for the tests' oracles",
    "distribution.circle_rule_jacobian": "the tests' oracle for ChartFrame.a_jacobian",
    "distribution.torsion_via_frames": "torsion off the centre, called only by tests",
    "induced.nijenhuis_via_torsion": "one pair through nijenhuis_torsion_map; tests call it",
    "induced.dbar_f_fiber_coords": "dbar f in fiber coordinates at one point; tests call it",
    "induced.pullback_quotient": "one quotient pullback at one point; tests call it",
    "lvmb.exchange_closure": "its check reads 0 on every input and was retired",
}

# A universal scenario whose structure and embedding are both trig fields:
# the constant standard J on T^2 and the product of circles into R^4.
TRIG_UNIVERSAL = {
    "id": "trig_universal", "kind": "universal", "seed": 1,
    "payload": {"n": 1, "k": 4,
                "structure": {"trig": {"shape": [2, 2], "terms": [
                    {"freq": [0, 0], "cos": [[0, -1], [1, 0]], "sin": [[0, 0], [0, 0]]}]}},
                "embedding": {"trig": {"shape": [4, 1], "terms": [
                    {"freq": [1, 0], "cos": [[1], [0], [0], [0]], "sin": [[0], [1], [0], [0]]},
                    {"freq": [0, 1], "cos": [[0], [0], [1], [0]], "sin": [[0], [0], [0], [1]]}]}}},
    "samples": {"dims": 2, "counts": [3, 3]},
}


def definitions(node, prefix=""):
    """The qualified name of every def under node, spelled as its code
    object's co_qualname."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from definitions(child, prefix + child.name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from definitions(child, prefix + child.name + ".")
        else:
            yield from definitions(child, prefix)


def called_qualnames(run) -> set:
    """(file name, co_qualname) of every code object in the library that
    run() calls, from the call events of a global trace function."""
    seen, files = set(), {}

    def trace(frame, event, arg):
        code = frame.f_code
        name = files.get(code.co_filename)
        if name is None:
            path = Path(code.co_filename).resolve()
            name = files[code.co_filename] = path.name if path.parent == SRC else ""
        if name:
            seen.add((name, code.co_qualname))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def run_the_cli(tmp_path):
    """Every bundled scenario with every check of its kind, opt-in checks
    included; list-checks; lvmb-check on the data of lvmb_pass and
    lvmb_fail; a universal scenario with trig structure and embedding; a
    document with a NaN literal and one that fails the schema."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    for name in bundled_scenario_names():
        doc = parse_scenario(find_scenario(name))
        doc["checks"] = [c.name for c in all_checks() if c.kind == doc["kind"]]
        main(["run", write(name + ".json", json.dumps(doc))])
        if doc["kind"] == "lvmb":
            main(["lvmb-check", write(name + "_data.json", json.dumps(doc["payload"]["data"]))])
    main(["list-checks"])
    main(["run", write("trig.json", json.dumps(TRIG_UNIVERSAL))])
    main(["run", write("nan.json", '{"id": "x", "kind": "fields", "seed": NaN}')])
    main(["run", write("schema.json", '{"id": "x", "kind": "nonsense", "seed": 1}')])


def exempt_by_name() -> set:
    """(file name, qualname) of the defs the tracer binds, and the names
    the package exports, which are exempt in any file."""
    exempt = {(module.rsplit(".", 1)[1] + ".py", path)
              for module, path, _ in load_tracer().LAYER_TARGETS
              if module.startswith("acs_verify.")}
    return exempt | {(None, name) for name in acs_verify.__all__}


def exempt_by(entry, file_name: str, qualname: str) -> bool:
    """Whether a NOT_CALLED entry covers the def: the name itself, or a
    method or nested function under it."""
    f, q = entry
    return file_name == f and (qualname == q or qualname.startswith(q + "."))


def test_every_function_and_method_is_reached(tmp_path, capsys, monkeypatch):
    # start from empty schema caches, as a fresh process does
    monkeypatch.setattr(scenarios, "_SCHEMA_CACHE", {})
    monkeypatch.setattr(scenarios, "_VALIDATORS", {})
    called = called_qualnames(lambda: run_the_cli(tmp_path))
    capsys.readouterr()
    by_name = exempt_by_name()
    never = [f"{file_name} {qualname}"
             for file_name, tree in parsed_modules().items()
             for qualname in definitions(tree)
             if (file_name, qualname) not in called
             and not {(file_name, qualname), (None, qualname)} & by_name
             and not any(exempt_by(entry, file_name, qualname) for entry in NOT_CALLED)]
    assert never == []
    tracer_only = {module.split(".", 1)[1] + "." + path
                   for module, path, _ in load_tracer().LAYER_TARGETS
                   if module.startswith("acs_verify.")
                   and (module.rsplit(".", 1)[1] + ".py", path) not in called}
    assert tracer_only == set(TRACER_ONLY)
    # an entry the run does call is stale
    stale = [entry for entry in NOT_CALLED
             if any(exempt_by(entry, *hit) for hit in called)]
    assert stale == []


def test_definitions_are_named_as_their_code_objects():
    source = ("def f():\n    def g():\n        return [x for x in ()]\n    return g\n\n"
              "class C:\n    def m(self):\n        class D:\n            def n(self):\n"
              "                pass\n        return lambda: D\n")

    def qualnames(code):
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                if not const.co_name.startswith("<"):
                    yield const.co_qualname
                yield from qualnames(const)

    names = sorted(definitions(ast.parse(source)))
    assert names == ["C.m", "C.m.<locals>.D.n", "f", "f.<locals>.g"]
    # the compiled code also holds the class bodies C and C.m.<locals>.D
    assert set(names) <= set(qualnames(compile(source, "x.py", "exec")))
