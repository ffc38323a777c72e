"""Layer tracing from outside the program.

The tracer wraps public functions of `acs_verify` and the LAPACK entry
points of `numpy.linalg` / `scipy.linalg` that the program calls. A
function imported by name into several modules has one binding per
module (`checks.build_fiber` is not `universal.build_fiber`), so every
`acs_verify` module that holds the function is rebound; methods are
patched on their class. `uninstall` puts every original binding back.

Each call is a span (name, start, end, parent span, operation id). Per
name the tracer accumulates calls, failures (calls that raised), self
time (duration minus the time covered by child spans) and inclusive
time. Counters are read and reset per pass with `take`; spans are kept in
memory for the first pass only, to bound memory on large workloads.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute path, metric name). An attribute path with a dot is a
# method patched on its class.
LAYER_TARGETS = (
    ("acs_verify.cli", "main", "cli.main"),
    ("acs_verify.scenarios", "validate_scenario", "scenarios.validate_scenario"),
    ("acs_verify.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("acs_verify.scenarios", "serialize_report", "scenarios.serialize_report"),
    ("jsonschema", "validate", "jsonschema.validate"),
    ("acs_verify.checks", "build_manifold", "checks.build_manifold"),
    ("acs_verify.checks", "build_graph_scenario", "checks.build_graph_scenario"),
    ("acs_verify.universal", "build_fiber", "universal.build_fiber"),
    ("acs_verify.universal", "UniversalPoint.validate", "universal.UniversalPoint.validate"),
    ("acs_verify.universal", "induced_structure_at", "universal.induced_structure_at"),
    ("acs_verify.universal", "plucker_reality_certificate",
     "universal.plucker_reality_certificate"),
    ("acs_verify.universal", "ChartFrame.a_matrix", "universal.ChartFrame.a_matrix"),
    ("acs_verify.universal", "embedding_differential", "universal.embedding_differential"),
    ("acs_verify.universal", "versality_rank_from_parts",
     "universal.versality_rank_from_parts"),
    ("acs_verify.cxlinalg", "eigen_split", "cxlinalg.eigen_split"),
    ("acs_verify.cxlinalg", "nullspace", "cxlinalg.nullspace"),
    ("acs_verify.cxlinalg", "intersect", "cxlinalg.intersect"),
    ("acs_verify.cxlinalg", "subspace_eq", "cxlinalg.subspace_eq"),
    ("acs_verify.cxlinalg", "direct_sum_test", "cxlinalg.direct_sum_test"),
    ("acs_verify.cxlinalg", "ComplexSubspace.from_columns",
     "cxlinalg.ComplexSubspace.from_columns"),
    ("acs_verify.cxlinalg", "ComplexSubspace.from_spanning_set",
     "cxlinalg.ComplexSubspace.from_spanning_set"),
    ("acs_verify.distribution", "circle_rule_jacobian", "distribution.circle_rule_jacobian"),
    ("acs_verify.distribution", "TorsionTensor.apply", "distribution.TorsionTensor.apply"),
    ("acs_verify.distribution", "torsion_via_frames", "distribution.torsion_via_frames"),
    ("acs_verify.distribution", "torsion_at", "distribution.torsion_at"),
    ("acs_verify.distribution", "frame_bracket_oracle", "distribution.frame_bracket_oracle"),
    ("acs_verify.induced", "induced_jf", "induced.induced_jf"),
    ("acs_verify.induced", "nijenhuis_via_torsion", "induced.nijenhuis_via_torsion"),
    ("acs_verify.induced", "dbar_f_fiber_coords", "induced.dbar_f_fiber_coords"),
    ("acs_verify.induced", "pullback_quotient", "induced.pullback_quotient"),
    ("acs_verify.induced", "variation_djf", "induced.variation_djf"),
    ("acs_verify.induced", "variation_fd_oracle", "induced.variation_fd_oracle"),
    ("acs_verify.fields", "nijenhuis_direct", "fields.nijenhuis_direct"),
    ("acs_verify.fields", "CallableMatrixField.partial_value",
     "fields.CallableMatrixField.partial_value"),
    ("acs_verify.fields", "nijenhuis_fd_oracle", "fields.nijenhuis_fd_oracle"),
    ("acs_verify.fields", "TrigPolyField.value", "fields.TrigPolyField.value"),
    ("acs_verify.lvmb", "check_condition_i", "lvmb.check_condition_i"),
    ("acs_verify.lvmb", "simplex_solve", "lvmb.simplex_solve"),
    ("acs_verify.lvmb", "check_condition_i_polygon", "lvmb.check_condition_i_polygon"),
    ("acs_verify.lvmb", "check_condition_ii", "lvmb.check_condition_ii"),
    ("acs_verify.lvmb", "exchange_closure", "lvmb.exchange_closure"),
    ("acs_verify.rng", "SplitMix64.next_u64", "rng.SplitMix64.next_u64"),
)

# LAPACK-backed entry points, grouped under one metric per kind.
LAPACK_TARGETS = (
    ("numpy.linalg", "svd", "lapack.svd"),
    ("numpy.linalg", "qr", "lapack.qr"),
    ("scipy.linalg", "qr", "lapack.qr"),
    ("numpy.linalg", "solve", "lapack.solve"),
    ("numpy.linalg", "inv", "lapack.inv"),
    ("numpy.linalg", "eig", "lapack.eig"),
    ("numpy.linalg", "eigh", "lapack.eig"),
    ("numpy.linalg", "eigvals", "lapack.eig"),
    ("numpy.linalg", "eigvalsh", "lapack.eig"),
    ("numpy.linalg", "det", "lapack.det"),
    ("numpy.linalg", "lstsq", "lapack.lstsq"),
)

# run_check is timed per registered check: span name checks.<check name>.
CHECK_TARGET = ("acs_verify.scenarios", "run_check")


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.keep_spans = True
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_span = 0
        self._stats: dict[str, list] = {}  # name -> [calls, failed, self_s, total_s]
        self._distinct: dict[str, set] = {}
        self._lapack_bytes = 0
        self._patches: list[tuple] = []  # (owner, attribute, original, is_class)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, on_call=None):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(args)
            if on_call is not None:
                on_call(args)
            stack = tracer._stack
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st = tracer._stats.get(label)
                if st is None:
                    st = tracer._stats[label] = [0, 0, 0.0, 0.0]
                st[0] += 1
                st[1] += failed
                st[2] += duration - frame[1]
                st[3] += duration
                if tracer.keep_spans:
                    tracer.spans.append((span, label, start, end, parent, tracer.op_id))

        return wrapper

    def _patch_function(self, module_name, attr, wrapper_for):
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        owners = [module] + [
            mod for key, mod in sorted(sys.modules.items())
            if (key == "acs_verify" or key.startswith("acs_verify."))
            and mod is not module
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original, False))
                    setattr(owner, key, wrapper)

    def _patch_method(self, module_name, path, wrapper_for):
        cls_name, attr = path.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(wrapper_for(raw.__func__))
        else:
            new = wrapper_for(raw)
        self._patches.append((cls, attr, raw, True))
        setattr(cls, attr, new)

    def install(self) -> None:
        import acs_verify.cli  # noqa: F401  (loads every layer module)
        import scipy.linalg  # noqa: F401

        for module_name, path, name in LAYER_TARGETS:
            hook = self._distinct_hook(name) if name == "universal.build_fiber" else None

            def wrapper_for(fn, name=name, hook=hook):
                return self._wrap(fn, name, on_call=hook)

            if "." in path:
                self._patch_method(module_name, path, wrapper_for)
            else:
                self._patch_function(module_name, path, wrapper_for)
        for module_name, attr, name in LAPACK_TARGETS:
            self._patch_function(
                module_name, attr,
                lambda fn, name=name: self._wrap(fn, name, on_call=self._count_bytes))
        self._patch_function(
            *CHECK_TARGET,
            lambda fn: self._wrap(fn, None, name_of=lambda args: "checks." + args[0].name))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched binding holds its original again."""
        for owner, attr, original, is_class in self._patches:
            current = owner.__dict__[attr] if is_class else getattr(owner, attr)
            if current is not original:
                return False
        return bool(self._patches)

    # -- hooks ---------------------------------------------------------------

    def _distinct_hook(self, name):
        seen = self._distinct.setdefault(name, set())

        def hook(args):
            seen.add((self.op_id, np.asarray(args[0], dtype=float).tobytes()))

        return hook

    def _count_bytes(self, args):
        for arg in args:
            if isinstance(arg, np.ndarray):
                self._lapack_bytes += arg.nbytes

    # -- per-pass readout ----------------------------------------------------

    def take(self) -> dict:
        """Counters of the pass since the last call, then reset them.
        Returns name -> {calls, failed, self_s, total_s}, plus the
        distinct-input counts and computed LAPACK input bytes."""
        out = {
            name: {"calls": st[0], "failed": st[1], "self_s": st[2], "total_s": st[3]}
            for name, st in self._stats.items()
        }
        distinct = {name: len(seen) for name, seen in self._distinct.items()}
        lapack_bytes = self._lapack_bytes
        self._stats = {}
        for seen in self._distinct.values():
            seen.clear()
        self._lapack_bytes = 0
        return {"layers": out, "distinct": distinct, "lapack_bytes": lapack_bytes}
