"""Every top-level definition in the library must be reached from the
library itself.

A top-level, undecorated `def` or `class` in `src/acs_verify/` passes when
its name appears somewhere in `src/` as a name or an attribute (a call,
a raise, an annotation, a base class). Exempt are the names the package
exports in `__all__`, the names the benchmark tracer binds (its
`LAYER_TARGETS`, loaded from its file and not modified), and `main`, the
console entry point. Code that only tests read belongs in `tests/`.
Decorated definitions (registered checks, dataclasses) are reached
through their decorator.
"""
import ast
from pathlib import Path

import acs_verify
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
