"""The benchmark's layer tracer binds program names by string; a renamed
function would abort a traced benchmark run, so every binding is checked
here first. The tracer module is loaded from its file and not modified.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves():
    tracer = load_tracer()
    targets = [(module, path) for module, path, _ in tracer.LAYER_TARGETS]
    targets += [(module, attr) for module, attr, _ in tracer.LAPACK_TARGETS]
    targets.append(tracer.CHECK_TARGET)
    assert len(targets) > 40
    missing = []
    for module_name, path in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            # methods are patched through the class __dict__
            if cls is None or attr not in vars(cls):
                missing.append(f"{module_name}.{path}")
        elif not callable(getattr(module, path, None)):
            missing.append(f"{module_name}.{path}")
    assert not missing, missing
