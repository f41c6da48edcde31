"""Span tracing of the qhpp layers, installed from outside the package.

``Tracer.install`` replaces every public function of every ``qhpp`` module
namespace that holds it (so a function re-exported elsewhere is traced
wherever it is looked up), the entries of ``qhpp.checks.ALL_CHECKS`` and
the values of ``qhpp.enumeration.PIPELINES`` with one wrapper per function.
Each call records a span (name, start, end, parent) in arrays of its own
thread, so that the pool's threads share no lock; nothing is written until
``write`` is called.  ``HjCf`` constructions are counted without spans,
since a span each would cost more than the construction.

A span also records the CPU time of its own thread.  Self time is that CPU
time minus the CPU time of the child spans opened in the same thread: the
default worker pool's two threads interleave under the interpreter lock, so
wall-clock spans in them overlap and would count the same second twice.
Spans opened in a pool thread with no open span of their own take as parent
the span the main thread has open, since that span waits for them.

The wrapper's own work would land in the self time of the span and of its
parent.  ``install`` measures it on a wrapped no-op (``calibrate``), and
self time subtracts it: the part inside a span from that span, the rest from
the parent once per direct child.

Pipelines are named after their key in ``qhpp.enumeration.PIPELINES`` and
suites after their function in ``qhpp.checks.ALL_CHECKS``; every other
metric reads a span by its function's name, and ``layer_metrics`` lists in
``missing`` each such name that ``install`` never wrapped, so that a renamed
function shows as a failed check instead of a layer that reads 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import types
from array import array
from time import perf_counter_ns, thread_time_ns

MODULES = (
    "qhpp", "qhpp.hjcf", "qhpp.ratio", "qhpp.surface", "qhpp.obstruction",
    "qhpp.enumeration", "qhpp.checks", "qhpp.fixtures", "qhpp.cli",
)
FORMULAS = ("ek_formula", "esq_formula", "esq_two_component", "degree_sum", "local_discrepancy")
CALIBRATION_CALLS = 20_000


# a span's id is its index in its thread's buffer, shifted, plus the slot
# of that buffer
SLOT_BITS = 16


class Buffer:
    """The spans of one thread, and the stack of those it has open."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.name = array("i")
        self.parent = array("q")
        self.adopted = array("b")
        self.start = array("q")
        self.end = array("q")
        self.cpu = array("q")
        self.stack: list[int] = []
        self.solutions = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.buffers: list[Buffer] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main = self.buffer()
        self.distinct: dict[str, set] = {"hjcf.enumerate_cfs_of_order": set(), "surface.dp_data": set()}
        self.chains_built = itertools.count()
        self.wrappers: dict[int, types.FunctionType] = {}
        self.pipelines: dict[str, str] = {}
        self.suites: dict[str, str] = {}
        self.inner_ns = self.outer_ns = 0.0
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def buffer(self) -> Buffer:
        """The calling thread's buffer, made on its first span."""
        with self.lock:
            buf = self.local.buf = Buffer(len(self.buffers))
            self.buffers.append(buf)
        return buf

    def wrap(self, fn, name: str | None = None):
        """The traced version of fn, one per function: the name of its first
        wrapping holds wherever it is looked up."""
        if id(fn) not in self.wrappers:
            self.wrappers[id(fn)] = self.span(fn, name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        return self.wrappers[id(fn)]

    def span(self, fn, name: str):
        """A new wrapper that records a span named ``name`` per call."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        distinct = self.distinct.get(name)
        returns_solutions = name == "obstruction.solve_dioph"
        tracer = self
        local = self.local
        main = self.main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or tracer.buffer()
            stack = buf.stack
            adopted = int(not stack and buf is not main)
            parent = stack[-1] if stack else (main.stack[-1] if adopted and main.stack else -1)
            if distinct is not None and args:
                distinct.add(getattr(args[0], "entries", args[0]))
            idx = (len(buf.start) << SLOT_BITS) | buf.slot
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.adopted.append(adopted)
            buf.end.append(0)
            buf.cpu.append(0)
            buf.start.append(perf_counter_ns())
            stack.append(idx)
            cpu = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                i = idx >> SLOT_BITS
                buf.cpu[i] = thread_time_ns() - cpu
                buf.end[i] = perf_counter_ns()
                stack.pop()
            if returns_solutions:
                buf.solutions += len(result)
            return result

        return wrapper

    def install(self) -> None:
        self.calibrate()
        # the registries first, so that their names hold in every namespace
        pipelines = sys.modules["qhpp.enumeration"].PIPELINES
        for key, fn in list(pipelines.items()):
            self.pipelines[key] = f"enumeration.pipeline.{key}"
            pipelines[key] = self.wrap(fn, self.pipelines[key])
        checks = sys.modules["qhpp.checks"]
        for i, fn in enumerate(checks.ALL_CHECKS):
            suite = fn.__name__.removeprefix("check_")
            self.suites[suite] = f"checks.suite.{suite}"
            checks.ALL_CHECKS[i] = self.wrap(fn, self.suites[suite])
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("qhpp")
                ):
                    setattr(module, attr, self.wrap(obj))

        # a task of the default worker pool becomes a span of the enumeration
        # layer, so that its own work is not lost between the spans it opens
        enumeration = sys.modules["qhpp.enumeration"]
        pool_cls = getattr(enumeration, "ThreadPoolExecutor", None)
        if pool_cls is not None:
            tracer = self

            class TracedPool(pool_cls):
                def map(self, fn, *iterables, **kwargs):
                    return super().map(tracer.span(fn, "enumeration.pool_task"), *iterables, **kwargs)

            enumeration.ThreadPoolExecutor = TracedPool

        hjcf_cls = sys.modules["qhpp.hjcf"].HjCf
        init = hjcf_cls.__init__
        built = self.chains_built

        def counted_init(obj, *args, **kwargs):
            next(built)
            init(obj, *args, **kwargs)

        hjcf_cls.__init__ = counted_init

    def calibrate(self, calls: int = CALIBRATION_CALLS) -> None:
        """Measure, in thread CPU time, what one span adds: ``inner_ns`` inside
        the span's own clock and ``outer_ns`` around it, in its parent.  The
        median of five rounds of wrapped and plain no-op calls."""
        inner, outer = [], []
        for _ in range(5):
            probe = Tracer()

            def noop():
                return None

            traced = probe.span(noop, "probe.noop")
            t0 = thread_time_ns()
            for _ in range(calls):
                noop()
            plain = (thread_time_ns() - t0) / calls
            t0 = thread_time_ns()
            for _ in range(calls):
                traced()
            wrapped = (thread_time_ns() - t0) / calls
            inside = sum(probe.main.cpu) / calls - plain
            inner.append(inside)
            outer.append(wrapped - plain - inside)
        self.inner_ns = sorted(inner)[2]
        self.outer_ns = sorted(outer)[2]

    # -- analysis ------------------------------------------------------------

    def flat(self) -> dict[str, array]:
        """The spans of every thread in one set of arrays, parents as indices
        into them."""
        offset = {}
        out = {"name": array("i"), "parent": array("i"), "adopted": array("b"),
               "start": array("q"), "end": array("q"), "cpu": array("q")}
        for buf in self.buffers:
            offset[buf.slot] = len(out["start"])
            for key in ("name", "adopted", "start", "end", "cpu"):
                out[key].extend(getattr(buf, key))
        mask = (1 << SLOT_BITS) - 1
        for buf in self.buffers:
            out["parent"].extend(-1 if p < 0 else offset[p & mask] + (p >> SLOT_BITS) for p in buf.parent)
        return out

    def per_name(self) -> dict[str, dict]:
        """calls, total_ns (wall) and self_ns (thread CPU, less the
        calibrated cost of the spans) for every span name."""
        spans = self.flat()
        cpu, parent, adopted = spans["cpu"], spans["parent"], spans["adopted"]
        child_cpu = [0] * len(cpu)
        children = [0] * len(cpu)
        for i, p in enumerate(parent):
            if p >= 0 and not adopted[i]:
                child_cpu[p] += cpu[i]
                children[p] += 1
        stats = [[0, 0, 0.0] for _ in self.names]
        for i, nid in enumerate(spans["name"]):
            st = stats[nid]
            st[0] += 1
            st[1] += spans["end"][i] - spans["start"][i]
            st[2] += cpu[i] - child_cpu[i] - self.inner_ns - children[i] * self.outer_ns
        return {
            nm: {"calls": st[0], "total_ns": st[1], "self_ns": st[2]}
            for nm, st in zip(self.names, stats)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark reports, from this trace.
        A span name that ``install`` never wrapped is added to ``missing``."""
        agg = self.per_name()

        def pick(pred, field):
            return sum(v[field] for k, v in agg.items() if pred(k))

        def one(name, field):
            if name not in self.name_ids:
                self.missing.append(name)
            return agg.get(name, {}).get(field, 0)

        def layer(prefix):
            return pick(lambda k: k.startswith(prefix + "."), "self_ns") / 1e9

        def share(name):
            calls = one(name, "calls")
            return len(self.distinct[name]) / calls if calls else 0.0

        formulas = [f"obstruction.{f}" for f in FORMULAS]
        out = {
            "hjcf.enumerate_calls": one("hjcf.enumerate_cfs_of_order", "calls"),
            "hjcf.enumerate_distinct_share": share("hjcf.enumerate_cfs_of_order"),
            "hjcf.enumerate_self_s": one("hjcf.enumerate_cfs_of_order", "self_ns") / 1e9,
            "hjcf.chains_built": next(self.chains_built),
            "hjcf.self_s": layer("hjcf"),
            "surface.dp_data_calls": one("surface.dp_data", "calls"),
            "surface.dp_data_distinct_share": share("surface.dp_data"),
            "surface.dp_data_self_s": one("surface.dp_data", "self_ns") / 1e9,
            "surface.candidate_calls": one("surface.candidate_invariants", "calls"),
            "surface.candidate_self_s": one("surface.candidate_invariants", "self_ns") / 1e9,
            "surface.gram_self_s": one("surface.gram_determinant", "self_ns") / 1e9,
            "ratio.square_tests": one("ratio.is_positive_square", "calls"),
            "ratio.self_s": layer("ratio"),
            "obstruction.solve_calls": one("obstruction.solve_dioph", "calls"),
            "obstruction.solutions_returned": sum(buf.solutions for buf in self.buffers),
            "obstruction.solve_self_s": one("obstruction.solve_dioph", "self_ns") / 1e9,
            "obstruction.formula_calls": sum(one(f, "calls") for f in formulas),
            "obstruction.formula_self_s": sum(one(f, "self_ns") for f in formulas) / 1e9,
        }
        for key, name in self.pipelines.items():
            out[f"enumeration.{key}_s"] = one(name, "total_ns") / 1e9
        out["enumeration.self_s"] = layer("enumeration")
        for suite, name in self.suites.items():
            out[f"checks.{suite}_s"] = one(name, "total_ns") / 1e9
        out["checks.self_s"] = layer("checks")
        out["fixtures.load_calls"] = one("fixtures.load_fixtures", "calls")
        out["fixtures.load_self_s"] = one("fixtures.load_fixtures", "self_ns") / 1e9
        out["cli.requests"] = one("cli.main", "calls")
        out["cli.self_s"] = layer("cli")
        return out

    def write(self, directory: str) -> None:
        """Write the spans: names.json, and spans.bin holding the arrays in
        the order and byte order that names.json records."""
        spans = self.flat()
        arrays = {
            "name:int32": spans["name"], "parent:int32": spans["parent"],
            "adopted:int8": spans["adopted"], "start_ns:int64": spans["start"],
            "end_ns:int64": spans["end"], "cpu_ns:int64": spans["cpu"],
        }
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": len(spans["start"]),
                 "layout": list(arrays), "byteorder": sys.byteorder,
                 "span_cost_ns": {"inner": self.inner_ns, "outer": self.outer_ns}},
                fh,
            )
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for arr in arrays.values():
                arr.tofile(fh)
