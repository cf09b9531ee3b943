"""Span tracing of the maxlot layers from outside the library.

`Tracer.install()` replaces every public function of a layer module, in
every layer module namespace that binds it, with a wrapper that records a
span.  Calls from one module into another go through those bindings (for
example `maxlot.solver.enumerate_vertices` or `maxlot.cli.apply_rule`), and
so do calls within a module through its own globals (`maxlot.sim` calling
`gen_impartial_culture`).  `uninstall()` puts the original functions back,
so the library is unchanged outside a traced pass.

`maxlot.prng` is not a layer: its draws are too fine-grained to wrap, so
their time counts inside the `sim` generators and the axiom instance
builders that call them.

Counts are committed per op: an op that times out keeps its time in the
self-time totals but contributes no counts, because how far a timed-out op
got depends on the machine, and counts must repeat exactly between runs.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

LAYERS = ("cli", "sim", "core", "margins", "solver", "linalg", "polytope", "rules", "axioms")
# Functions whose return value feeds a ratio; the hook names the counter bumped.
_RESULT_COUNTERS = {
    "linalg.kernel_basis": ("linalg.kernel_hits", lambda basis: 1 if len(basis) == 1 else 0),
    "polytope.enumerate_vertices": ("polytope.vertices", len),
}
_FACE_PARENT = "solver.maximin_vertices"
_FACE_CHILD = "polytope.enumerate_vertices"
# Spans kept in memory beyond this many are counted but not stored.
SPAN_CAP = 300_000


class Tracer:
    """Collects spans and per-name totals while its wrappers are installed."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self._originals: list[tuple[types.ModuleType, str, object]] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_index, reached_face]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_dropped = 0
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._op_counts: dict[str, int] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"maxlot.{layer}"]
            for attr, value in list(vars(module).items()):
                if not _is_layer_function(attr, value):
                    continue
                wrapped = wrappers.get(id(value))
                if wrapped is None:
                    wrapped = wrappers[id(value)] = self._wrap(value)
                self._originals.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        result_counter = _RESULT_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if result_counter is not None:
                key, count = result_counter
                tracer._op_counts[key] = tracer._op_counts.get(key, 0) + count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        if name == _FACE_CHILD:
            for frame in stack:
                if frame[0] == _FACE_PARENT:
                    frame[4] = True
        parent = stack[-1][3] if stack else -1
        index = -1
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            self.span_end.append(0)
        else:
            self.spans_dropped += 1
        frame = [name, 0, 0, index, False]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        if index >= 0:
            self.span_start.append(frame[1])
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        # a timeout can unwind past frames whose exit never ran
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        name, start, child, index, reached_face = frame
        duration = end - start
        if index >= 0:
            self.span_end[index] = end
        if stack:
            stack[-1][2] += duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        counts = self._op_counts
        counts[name] = counts.get(name, 0) + 1
        if reached_face:
            counts["solver.face_solves"] = counts.get("solver.face_solves", 0) + 1

    def run_op(self, op_id: int, call):
        """Run `call` as one op under a root span named cli.main.

        Returns call's result; the op's counts are committed only when it
        returns normally."""
        self.op_id = op_id
        self._op_counts = {}
        self._stack.clear()
        self.active = True
        frame = self._enter("cli.main")
        try:
            result = call()
        finally:
            self._exit(frame)
            self.active = False
            self._stack.clear()
        for key, value in self._op_counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        return result

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]},{self.span_end[i]},"
                    f"{self.span_parent[i]},{self.span_op[i]}\n"
                )

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, traced_items_per_s: float, untraced_items_per_s: float) -> dict[str, float]:
        """Per-layer metrics from the committed counts and the self times."""
        calls = self.counts.get
        self_s = lambda name: self.self_ns.get(name, 0) / 1e9
        layer_s = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer_s[name.split(".", 1)[0]] += ns / 1e9
        total_s = sum(layer_s.values())
        core_ops_s = sum(
            ns for name, ns in self.self_ns.items() if name.startswith("core.") and name != "core.make_profile"
        ) / 1e9
        gens = ("sim.gen_impartial_culture", "sim.gen_spatial")
        checkers = [name for name in self.counts if name.startswith("axioms.check_")]
        metrics = {
            "margins.margins.calls": calls("margins.margins", 0),
            "margins.margins.self_s": self_s("margins.margins"),
            "margins.per_profile": _ratio(calls("margins.margins", 0), calls("core.make_profile", 0)),
            "sim.gen.calls": sum(calls(g, 0) for g in gens),
            "sim.gen.self_s": sum(self_s(g) for g in gens),
            "core.make_profile.calls": calls("core.make_profile", 0),
            "core.make_profile.self_s": self_s("core.make_profile"),
            "core.ops.self_s": core_ops_s,
            "solver.maximin_vertices.calls": calls("solver.maximin_vertices", 0),
            "solver.maximin_vertices.self_s": self_s("solver.maximin_vertices"),
            "solver.condorcet_winners.self_s": self_s("solver.condorcet_winners"),
            "solver.face_ratio": _ratio(calls("solver.face_solves", 0), calls("solver.maximin_vertices", 0)),
            "linalg.kernel_basis.calls": calls("linalg.kernel_basis", 0),
            "linalg.kernel_basis.self_s": self_s("linalg.kernel_basis"),
            "linalg.kernel_hit_ratio": _ratio(calls("linalg.kernel_hits", 0), calls("linalg.kernel_basis", 0)),
            "linalg.solve_unique.calls": calls("linalg.solve_unique", 0),
            "linalg.solve_unique.self_s": self_s("linalg.solve_unique"),
            "linalg.rank.self_s": self_s("linalg.rank"),
            "polytope.enumerate_vertices.calls": calls("polytope.enumerate_vertices", 0),
            "polytope.enumerate_vertices.self_s": self_s("polytope.enumerate_vertices"),
            "polytope.vertex_yield": _ratio(calls("polytope.vertices", 0), calls("linalg.solve_unique", 0)),
            "polytope.in_convex_hull.calls": calls("polytope.in_convex_hull", 0),
            "rules.apply_rule.calls": calls("rules.apply_rule", 0),
            "rules.apply_rule.self_s": self_s("rules.apply_rule"),
            "axioms.instances": sum(calls(name, 0) for name in checkers),
            "cli.main.self_s": self_s("cli.main"),
        }
        for layer in LAYERS:
            if layer != "cli":
                metrics[f"{layer}.self_s"] = layer_s[layer]
            metrics[f"{layer}.self_share"] = _ratio(layer_s[layer], total_s)
        metrics["trace.overhead_ratio"] = _ratio(traced_items_per_s, untraced_items_per_s)
        return metrics


def _is_layer_function(attr: str, value) -> bool:
    if attr.startswith("_") or not isinstance(value, types.FunctionType):
        return False
    module = value.__module__ or ""
    # cli's own functions are the root span's self time
    return module.startswith("maxlot.") and module[7:] in LAYERS and module != "maxlot.cli"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
