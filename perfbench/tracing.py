"""Outside-in tracing of fluidnet's layers.

The tracer replaces module attributes of the library with wrappers that
record one span per call: name, start, end, parent span and task id.  A
function imported by name into another module is bound there too (for
example ``fluidnet.dynamics.enumerate_polytope_vertices``), so every binding
of the original object in every ``fluidnet`` module is replaced.  Selector
classes are traced through their ``choose`` method.

Spans stay in memory; :meth:`Tracer.dump` writes them out after the run.  A
span's self time is its duration minus the part covered by its child spans.
Bookkeeping done after a child returns (counting subsets, stamps) is added to
the covered part, so it is charged to the tracer, not to the parent layer.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute); every binding of that object is wrapped
TARGETS = {
    "model.enumerate": ("fluidnet.model", "enumerate_polytope_vertices"),
    "dynamics.simulate": ("fluidnet.dynamics", "simulate"),
    "stability.draining_time": ("fluidnet.stability", "draining_time"),
    "stability.instability_witness": ("fluidnet.stability", "instability_witness"),
    "lyapunov.certificate": ("fluidnet.lyapunov", "linear_certificate_search"),
    "lyapunov.approximate_V": ("fluidnet.lyapunov", "approximate_V"),
    "gfn.ops.scale": ("fluidnet.gfn", "scale"),
    "gfn.ops.shift": ("fluidnet.gfn", "shift"),
    "gfn.ops.concatenate": ("fluidnet.gfn", "concatenate"),
    "fluidlimit.simulate_queueing": ("fluidnet.fluidlimit", "simulate_queueing"),
    "fluidlimit.distance": ("fluidnet.fluidlimit", "distance_to_fluid"),
    "skorokhod.solve_lsp": ("fluidnet.skorokhod", "solve_lsp"),
    "specfile.parse": ("fluidnet.specfile", "parse_spec_file"),
    "cli.write": ("fluidnet.cli", "atomic_write_text"),
}
SELECTOR_SPAN = "dynamics.selector"
TASK_SPAN = "task"

# per-layer metric -> unit, "better" direction; the order is the report order
PER_LAYER = {
    "model.enumerate.calls": ("count", "lower"),
    "model.enumerate.self_s": ("s", "lower"),
    "model.enumerate.subsets": ("count", "lower"),
    "model.enumerate.vertices": ("count", "lower"),
    "model.enumerate.yield": ("ratio", "higher"),
    "dynamics.simulate.calls": ("count", "lower"),
    "dynamics.simulate.stamps": ("count", "lower"),
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.simulate.self_us_per_stamp": ("us", "lower"),
    "dynamics.enumerations_per_stamp": ("ratio", "lower"),
    "dynamics.selector.calls": ("count", "lower"),
    "dynamics.selector.self_s": ("s", "lower"),
    "stability.draining_time.s": ("s", "lower"),
    "stability.instability_witness.s": ("s", "lower"),
    "lyapunov.certificate.s": ("s", "lower"),
    "lyapunov.certificate.drift_rows": ("count", "lower"),
    "lyapunov.approximate_V.calls": ("count", "lower"),
    "lyapunov.approximate_V.s": ("s", "lower"),
    "gfn.ops.scale.calls": ("count", "lower"),
    "gfn.ops.scale.s": ("s", "lower"),
    "gfn.ops.shift.calls": ("count", "lower"),
    "gfn.ops.shift.s": ("s", "lower"),
    "gfn.ops.concatenate.calls": ("count", "lower"),
    "gfn.ops.concatenate.s": ("s", "lower"),
    "fluidlimit.simulate_queueing.events": ("count", "lower"),
    "fluidlimit.simulate_queueing.s": ("s", "lower"),
    "fluidlimit.simulate_queueing.us_per_event": ("us", "lower"),
    "fluidlimit.distance.s": ("s", "lower"),
    "skorokhod.solve_lsp.stamps": ("count", "lower"),
    "skorokhod.solve_lsp.s": ("s", "lower"),
    "skorokhod.solve_lsp.us_per_stamp": ("us", "lower"),
    "specfile.parse.s": ("s", "lower"),
    "cli.write.bytes": ("B", "lower"),
    "cli.write.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _is_fluidnet(name: str) -> bool:
    return name == "fluidnet" or name.startswith("fluidnet.")


class Tracer:
    """Records spans for the library calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent, task, covered]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        # enumerate calls per (dim, equality block, inequality rows); see subsets()
        self._eq_shapes: dict[tuple, int] = defaultdict(int)

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self._task, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, end: float, done: float) -> None:
        """Close span idx that ended at ``end``; bookkeeping lasted until ``done``."""
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += done - span[1]

    def task(self, task_id: int, fn):
        """Run one benchmark task as a root span."""
        self._task = task_id
        idx = self._enter(self._name_id(TASK_SPAN))
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._exit(idx, end, end)

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._exit(idx, end, end)
                raise
            end = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            tracer._exit(idx, end, time.perf_counter())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- per-layer counters -------------------------------------------------

    def _after_enumerate(self, args, kwargs, result):
        dim, a_eq, _, a_ub, _ = args
        dim = int(dim)
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, dim)
        # the enumerator tries C(inequality rows, dim - rank(equalities)) subsets;
        # the rank is computed once per distinct equality block, at the end
        key = (dim, a_eq.shape, a_eq.tobytes(), int(np.asarray(a_ub).size) // dim)
        self._eq_shapes[key] += 1
        self.counters["model.enumerate.vertices"] += int(result.shape[0])
        simulate = self._name_ids["dynamics.simulate"]
        if any(self.spans[i][0] == simulate for i in self._stack):
            self.counters["dynamics.enumerations_in_simulate"] += 1

    def _after_simulate(self, args, kwargs, result):
        self.counters["dynamics.simulate.stamps"] += int(result.grid.shape[0]) - 1

    def _after_certificate(self, args, kwargs, result):
        self.counters["lyapunov.certificate.drift_rows"] += int(result.meta.get("drift_rows", 0))

    def _after_queueing(self, args, kwargs, result):
        self.counters["fluidlimit.simulate_queueing.events"] += int(result.times.shape[0]) - 1

    def _after_lsp(self, args, kwargs, result):
        self.counters["skorokhod.solve_lsp.stamps"] += int(result.grid.shape[0]) - 1

    def _after_write(self, args, kwargs, result):
        self.counters["cli.write.bytes"] += len(str(args[1]).encode())

    def subsets(self) -> int:
        total = 0
        for (dim, shape, raw, rows), calls in self._eq_shapes.items():
            a_eq = np.frombuffer(raw, dtype=float).reshape(shape)
            rank = int(np.linalg.matrix_rank(a_eq)) if a_eq.size else 0
            if dim - rank >= 0:
                total += calls * math.comb(rows, dim - rank)
        return total

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced library objects."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "model.enumerate": self._after_enumerate,
            "dynamics.simulate": self._after_simulate,
            "lyapunov.certificate": self._after_certificate,
            "fluidlimit.simulate_queueing": self._after_queueing,
            "skorokhod.solve_lsp": self._after_lsp,
            "cli.write": self._after_write,
        }
        modules = [m for name, m in sorted(sys.modules.items()) if _is_fluidnet(name) and m]
        for span, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, original, after.get(span))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        base = sys.modules["fluidnet.dynamics"].ControlSelector
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "choose" in vars(cls):
                original = vars(cls)["choose"]
                self._patches.append((cls, "choose", original))
                setattr(cls, "choose", self._wrap(SELECTOR_SPAN, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for name_id, start, end, _, _, covered in self.spans:
            row = out.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics of this tracer's spans (trace.* excluded)."""
        agg = self.summary()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

        def get(name, key):
            return agg.get(name, zero)[key]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        subsets = self.subsets()
        stamps = c["dynamics.simulate.stamps"]
        events = c["fluidlimit.simulate_queueing.events"]
        lsp_stamps = c["skorokhod.solve_lsp.stamps"]
        out = {
            "model.enumerate.calls": get("model.enumerate", "calls"),
            "model.enumerate.self_s": get("model.enumerate", "self_s"),
            "model.enumerate.subsets": subsets,
            "model.enumerate.vertices": c["model.enumerate.vertices"],
            "model.enumerate.yield": ratio(c["model.enumerate.vertices"], subsets),
            "dynamics.simulate.calls": get("dynamics.simulate", "calls"),
            "dynamics.simulate.stamps": stamps,
            "dynamics.simulate.self_s": get("dynamics.simulate", "self_s"),
            "dynamics.simulate.self_us_per_stamp": 1e6 * ratio(
                get("dynamics.simulate", "self_s"), stamps
            ),
            "dynamics.enumerations_per_stamp": ratio(c["dynamics.enumerations_in_simulate"], stamps),
            "dynamics.selector.calls": get(SELECTOR_SPAN, "calls"),
            "dynamics.selector.self_s": get(SELECTOR_SPAN, "self_s"),
            "stability.draining_time.s": get("stability.draining_time", "s"),
            "stability.instability_witness.s": get("stability.instability_witness", "s"),
            "lyapunov.certificate.s": get("lyapunov.certificate", "s"),
            "lyapunov.certificate.drift_rows": c["lyapunov.certificate.drift_rows"],
            "lyapunov.approximate_V.calls": get("lyapunov.approximate_V", "calls"),
            "lyapunov.approximate_V.s": get("lyapunov.approximate_V", "s"),
            "fluidlimit.simulate_queueing.events": events,
            "fluidlimit.simulate_queueing.s": get("fluidlimit.simulate_queueing", "s"),
            "fluidlimit.simulate_queueing.us_per_event": 1e6 * ratio(
                get("fluidlimit.simulate_queueing", "s"), events
            ),
            "fluidlimit.distance.s": get("fluidlimit.distance", "s"),
            "skorokhod.solve_lsp.stamps": lsp_stamps,
            "skorokhod.solve_lsp.s": get("skorokhod.solve_lsp", "s"),
            "skorokhod.solve_lsp.us_per_stamp": 1e6 * ratio(get("skorokhod.solve_lsp", "s"), lsp_stamps),
            "specfile.parse.s": get("specfile.parse", "s"),
            "cli.write.bytes": c["cli.write.bytes"],
            "cli.write.s": get("cli.write", "s"),
        }
        for op in ("scale", "shift", "concatenate"):
            out[f"gfn.ops.{op}.calls"] = get(f"gfn.ops.{op}", "calls")
            out[f"gfn.ops.{op}.s"] = get(f"gfn.ops.{op}", "s")
        return out

    def dump(self, path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "task", "covered"],
            "spans": {
                "name": list(cols[0]),
                "start": list(cols[1]),
                "end": list(cols[2]),
                "parent": list(cols[3]),
                "task": list(cols[4]),
                "covered": list(cols[5]),
            },
        }
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle)
