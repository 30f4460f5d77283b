"""Layer spans recorded from outside the package.

``Tracer.install`` wraps public functions of the ``oribij`` modules (one
module is one layer) in every package namespace that binds them, so calls
between modules are timed too.  A span is (name, start, end, parent) and
belongs to one run id.  Spans stay in memory until ``write``.

``self_times`` and ``call_durations`` turn a span list into per-layer
numbers: a span's self time is its duration minus the time its direct
children cover (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _by_graph(base: str):
    """Span namer that tells graph-backed reps from matrix-only ones."""
    def name(rep, *args, **kwargs):
        return base if rep.graph is not None else base + "_matroid"
    return name


def _tiling(rep, table, sample_count, seed=0, complement=False):
    return "geometry.tiling_complement" if complement else "geometry.tiling_forward"


# (module, attribute, span name or namer).  ``_anchors_containing`` is the
# per-point search behind both ``locate_point`` and the sampled part of
# ``verify_cube_tiling``; it is the one private function traced.
TARGETS = (
    ("core", "enumerate_independent_sets", "core.independent_sets"),
    ("core", "enumerate_signed_circuits", "core.circuits"),
    ("core", "enumerate_signed_cocircuits", "core.cocircuits"),
    ("core", "closure_mask_partition", "core.closure"),
    ("core", "conformal_decompose", _by_graph("core.conformal_decompose")),
    ("core", "split_kernel_image", "core.split_kernel_image"),
    ("signatures", "signature_from_weights", "signatures.from_weights"),
    ("signatures", "is_acyclic", "signatures.is_acyclic"),
    ("fourier_motzkin", "maximize", "fourier_motzkin.maximize"),
    ("fourier_motzkin", "project", "fourier_motzkin.project"),
    ("reversal", "compatible_decomposition", "reversal.compatible_decomposition"),
    ("reversal", "enumerate_classes", "reversal.enumerate_classes"),
    ("bijection", "orientation_to_subgraph", _by_graph("bijection.orientation_to_subgraph")),
    ("verification", "separation_violations", "verification.separation"),
    ("verification", "run_verification", "verification.run"),
    ("geometry", "verify_cube_tiling", _tiling),
    ("geometry", "_anchors_containing", "geometry.locate_point"),
    ("geometry", "independent_set_polynomial", "geometry.polynomials"),
    ("geometry", "cell_count_polynomial", "geometry.polynomials"),
    ("geometry", "dilated_zonotope_lattice_count", "geometry.zonotope_count"),
    ("oracle", "tutte", "oracle.tutte"),
    ("oracle", "reversal_closure_classes", "oracle.closure_classes"),
    ("serialize", "table_json_obj", "serialize.table_json"),
    ("serialize", "dump_json", "serialize.table_json"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.active = False
        self._stack: list[int] = []

    def _wrap(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = namer if isinstance(namer, str) else namer(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded ``oribij`` module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "oribij" or k.startswith("oribij.")]
        for module_name, attr, namer in TARGETS:
            original = getattr(sys.modules[f"oribij.{module_name}"], attr)
            wrapped = self._wrap(original, namer)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        table_cls = sys.modules["oribij.bijection"].BijectionTable
        build = table_cls.__dict__["build"].__func__
        table_cls.build = classmethod(self._wrap(build, "bijection.build"))
        self.active = True

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}),
                        encoding="utf-8")


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time in seconds per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child_time
    return out


def call_durations(spans: list[list]) -> dict[str, list[float]]:
    """Inclusive duration in seconds of every call, per span name."""
    out: dict[str, list[float]] = {}
    for name, start, end, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out
