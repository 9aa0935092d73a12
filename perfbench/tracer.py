"""In-memory span tracer that wraps the library's public functions.

The tracer lives entirely in the benchmark: it rebinds each traced function
in every ``qdephase`` module that binds it by name (``qdephase.bath``,
``qdephase.analysis``, the package namespace, ...) and restores the original
bindings on ``uninstall``.  Every call becomes a span; a span's self time is
its duration minus the time covered by its child spans.  Aggregates (calls,
self time) are kept for every span, full span records for the first
``span_cap`` spans only, so a long run stays bounded in memory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from typing import Callable

# Layer -> public functions traced in that layer.  ``profile_at`` is split by
# backend, ``numerics.quad`` is the scipy boundary as bound in the numerics
# module.
TRACE_TARGETS = {
    "numerics": (
        "gamma",
        "decay_kernel",
        "kernel_by_quadrature",
        "oscillatory_moment",
        "total_moment",
        "quad",
    ),
    "bath": ("profile_at", "profile_limit", "ground_coherent_overlap"),
    "dynamics": (
        "coherence_factor",
        "distance_same_amplitudes",
        "pair_weights",
        "reduced_state",
        "trace_distance",
    ),
    "analysis": (
        "distance_series",
        "find_extremum",
        "gain_ratio",
        "find_lambda_c",
        "region_map",
    ),
    "validation": (
        "check_backend_agreement",
        "check_physicality",
        "check_overlap_consistency",
        "check_distance_equivalence",
    ),
    "cli": ("main",),
}

PROFILE_BACKENDS = ("closed_form", "quadrature")

# (name, ancestor): count calls of name made while ancestor is open.
NESTED_COUNTS = (
    ("analysis.gain_ratio", "analysis.find_lambda_c"),
    ("bath.profile_at", "analysis.find_extremum"),
)

SPAN_CAP = 50_000


def span_names() -> list[str]:
    """Every span name the tracer reports, in a stable order."""
    names = []
    for layer, functions in TRACE_TARGETS.items():
        for fn in functions:
            if layer == "bath" and fn == "profile_at":
                names.extend(f"bath.profile_at.{b}" for b in PROFILE_BACKENDS)
            else:
                names.append(f"{layer}.{fn}")
    return names


def _profile_backend(args: tuple, kwargs: dict) -> str:
    backend = kwargs.get("backend", args[2] if len(args) > 2 else "closed_form")
    return f"bath.profile_at.{backend}"


class Stat:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps functions, aggregates per-span-name calls and self time."""

    def __init__(self, span_cap: int = SPAN_CAP, clock: Callable[[], float] = time.perf_counter):
        self.stats: dict[str, Stat] = {}
        self.nested: dict[tuple[str, str], int] = {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.op_id = 0
        self.absent: list[str] = []
        self._clock = clock
        self._ids = itertools.count(1)
        # One frame per open span: [time covered by children, span id].  The
        # base frame collects the durations of root spans.
        self._frames: list[list] = [[0.0, 0]]
        self._bindings: list[tuple[object, str, object, object]] = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    @property
    def root_time(self) -> float:
        """Summed duration of all root spans (equals the sum of all self times)."""
        return self._frames[0][0]

    def wrap(self, fn: Callable, name: str, pick: Callable | None = None) -> Callable:
        """Return fn wrapped as a span named ``name`` (or ``pick(args, kwargs)``)."""
        frames, spans, clock, ids = self._frames, self.spans, self._clock, self._ids
        fixed = None if pick else self.stat(name)
        watches = [
            (self.stat(ancestor), (child, ancestor))
            for child, ancestor in NESTED_COUNTS
            if name == child or name.startswith(child + ".")
        ]
        for _, key in watches:
            self.nested.setdefault(key, 0)
        nested = self.nested
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = pick(args, kwargs) if pick else name
            stat = fixed if fixed is not None else tracer.stat(span_name)
            for ancestor, key in watches:
                if ancestor.depth:
                    nested[key] += 1
            sid = next(ids)
            frames.append([0.0, sid])
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stat.depth -= 1
                child, _ = frames.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - child
                parent = frames[-1]
                parent[0] += duration
                if len(spans) < tracer.span_cap:
                    spans.append((sid, parent[1], tracer.op_id, span_name, start, end))
                else:
                    tracer.dropped += 1

        return traced

    def prepare(self, package: str = "qdephase") -> None:
        """Build wrappers for TRACE_TARGETS; missing names are recorded as absent."""
        for layer in TRACE_TARGETS:
            try:
                importlib.import_module(f"{package}.{layer}")
            except ImportError:
                pass
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for layer, functions in TRACE_TARGETS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name, None) if home is not None else None
                if not callable(original):
                    if layer == "bath" and fn_name == "profile_at":
                        self.absent.extend(f"bath.profile_at.{b}" for b in PROFILE_BACKENDS)
                    else:
                        self.absent.append(f"{layer}.{fn_name}")
                    continue
                if layer == "bath" and fn_name == "profile_at":
                    wrapped = self.wrap(original, "bath.profile_at", pick=_profile_backend)
                    for b in PROFILE_BACKENDS:
                        self.stat(f"bath.profile_at.{b}")
                else:
                    wrapped = self.wrap(original, f"{layer}.{fn_name}")
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._bindings.append((mod, fn_name, original, wrapped))

    def install(self) -> None:
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def bound_sites(self) -> list[str]:
        """Module.attribute of every rebinding, for the trace output."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._bindings)


def self_times_from_spans(spans) -> dict[str, float]:
    """Self time per span name from span records, by interval coverage.

    ``spans`` are ``(span_id, parent_id, op_id, name, start, end)`` tuples.
    A span's self time is its duration minus the union of its direct
    children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for sid, _, _, name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
