"""In-memory span tracing of splaylab's public functions, from outside the package.

`Tracer.install()` replaces every `splaylab.*` module attribute (and class
attribute) bound to a traced function with a wrapper, because modules import
by name: `splaylab.lab.subtree_sums` and `splaylab.potential.subtree_sums`
are two bindings of one function.  `Tracer.uninstall()` puts every original
back.  Kernel loops inside a module are left alone: `splay_step` is wrapped
only where `lab` binds it, never inside `total_access_cost`.

Each wrapped call appends one span (name id, parent span, start, end) to flat
arrays; nothing is aggregated until `layer_metrics()` runs after the suite.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module that defines it, attribute path there, work counter).
# A work counter is (counter name, f(args, result) -> int).
TIMED = (
    ("splay.total_access_cost", "splaylab.splay", "total_access_cost",
     (("splays", lambda a, r: len(a[1])), ("moves", lambda a, r: r))),
    ("splay.splay_step", "splaylab.splay", "splay_step", ()),
    ("potential.subtree_sums", "splaylab.potential", "subtree_sums",
     (("nodes", lambda a, r: len(a[0])),)),
    ("potential.phi", "splaylab.potential", "phi", ()),
    ("potential.potential_of", "splaylab.potential", "potential_of", ()),
    ("potential.assign_weights", "splaylab.potential", "assign_weights", ()),
    ("generators.random_tree", "splaylab.generators", "random_tree",
     (("nodes", lambda a, r: a[0]),)),
    ("generators.random_t_program", "splaylab.generators", "random_t_program",
     (("ops", lambda a, r: len(r.ops)),)),
    ("generators.generate_sequence", "splaylab.generators", "generate_sequence", ()),
    ("machine.build_tree", "splaylab.machine", "build_tree",
     (("nodes", lambda a, r: len(r)),)),
    ("machine.apply_op", "splaylab.machine", "apply_op", ()),
    ("restricted.simulate_program", "splaylab.restricted", "simulate_program",
     (("sim_ops", lambda a, r: len(a[1].ops)),)),
    ("restricted.check_restricted", "splaylab.restricted", "check_restricted",
     (("ops", lambda a, r: len(getattr(a[1], "ops", a[1]))),)),
    ("restricted.cursor_trace", "splaylab.restricted", "cursor_trace", ()),
    ("oracle.opt_cost", "splaylab.oracle", "opt_cost", ()),
    ("oracle.per_query_segments", "splaylab.oracle", "per_query_segments", ()),
    ("oracle.static_optimal", "splaylab.oracle", "static_optimal", ()),
    ("lab.accounting_run", "splaylab.lab", "accounting_run", ()),
    ("lab.InterleavedRun.splay_query", "splaylab.lab", "InterleavedRun.splay_query", ()),
    ("lab.InterleavedRun.apply_T_rotation", "splaylab.lab", "InterleavedRun.apply_T_rotation", ()),
    ("lab.checked_splay", "splaylab.lab", "checked_splay", ()),
    ("lab.check_access_lemma", "splaylab.lab", "check_access_lemma", ()),
    ("lab.check_amortized_depth", "splaylab.lab", "check_amortized_depth", ()),
    ("lab.check_rotation_delta", "splaylab.lab", "check_rotation_delta", ()),
    ("lab.merge_extras", "splaylab.lab", "merge_extras", ()),
    ("suites.run_suite", "splaylab.suites", "run_suite", ()),
    ("suites.render_report", "splaylab.suites", "render_report", ()),
)

# Functions only counted, not timed: they run hundreds of times per trial
# and their callers' self time already holds them.
COUNTED = (
    ("machine.TreeState.depth", "splaylab.machine", "TreeState.depth"),
    ("restricted.op_sequence", "splaylab.restricted", "op_sequence"),
)

# Bindings that are a kernel loop inside their own module.
UNWRAPPED = {("splaylab.splay", "splay_step")}

CHECKERS = ("lab.check_access_lemma", "lab.check_amortized_depth", "lab.check_rotation_delta")


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _bindings(module: str, path: str):
    """The target and every (owner, attribute name) that binds it."""
    owner, attr, fn = _resolve(module, path)
    if owner is not sys.modules[module]:  # a method: its class is the one binding
        return fn, [(owner, attr)]
    found = []
    for name, mod in sorted(sys.modules.items()):
        if (name == "splaylab" or name.startswith("splaylab.")) and (name, attr) not in UNWRAPPED:
            found += [(mod, key) for key, value in vars(mod).items() if value is fn]
    return fn, found


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []  # span name per name id
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = {}  # "name.counter" -> total, plus "name.calls" for COUNTED
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn, counters):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        for counter, _ in counters:
            counts[f"{name}.{counter}"] = 0

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for counter, measure in counters:
                counts[f"{name}.{counter}"] += measure(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function (splaylab already imported)."""
        targets = [(name, mod, path, counters) for name, mod, path, counters in TIMED]
        targets += [(name, mod, path, None) for name, mod, path in COUNTED]
        for name, module, path, counters in targets:
            fn, bindings = _bindings(module, path)
            if not bindings:
                raise LookupError(f"no binding of {module}.{path} to trace")
            if counters is None:
                wrapped = self._counted(name, fn)
            else:
                wrapped = self._timed(name, fn, counters)
            for owner, attr in bindings:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> list:
        """Restore every original binding; return the labels of any that failed."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        broken = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in self._saved
                  if o.__dict__[a] is not fn]
        self._saved.clear()
        return broken

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive ns, self ns and every duration in ns."""
        n = len(self.span_start)
        child_ns = [0] * n
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child_ns[p] += durations[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0, "durations": []} for name in self.names}
        for i, nid in enumerate(self.span_name):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["ns"] += durations[i]
            agg["self_ns"] += durations[i] - child_ns[i]
            agg["durations"].append(durations[i])
        return out

    def layer_metrics(self, trials: int) -> dict:
        """Per-layer metric values by name; BENCHMARK.json declares their units."""
        t = self.totals()
        c = self.counts

        def s(name):
            return t[name]["ns"] / 1e9

        def self_s(name):
            return t[name]["self_ns"] / 1e9

        def calls(name):
            return t[name]["calls"]

        def per(num, den):
            return num / den if den else 0.0

        def pct(name, q, scale):
            d = sorted(t[name]["durations"])
            return d[min(len(d) - 1, int(q * len(d)))] / scale if d else 0.0

        return {
            "splay.total_access_cost.calls": calls("splay.total_access_cost"),
            "splay.total_access_cost.s": s("splay.total_access_cost"),
            "splay.total_access_cost.splays": c["splay.total_access_cost.splays"],
            "splay.total_access_cost.moves": c["splay.total_access_cost.moves"],
            "splay.total_access_cost.ns_per_move": per(
                t["splay.total_access_cost"]["ns"], c["splay.total_access_cost.moves"]),
            "splay.splays_per_trial": per(c["splay.total_access_cost.splays"], trials),
            "splay.splay_step.calls": calls("splay.splay_step"),
            "splay.splay_step.s": s("splay.splay_step"),
            "potential.subtree_sums.calls": calls("potential.subtree_sums"),
            "potential.subtree_sums.s": s("potential.subtree_sums"),
            "potential.subtree_sums.nodes": c["potential.subtree_sums.nodes"],
            "potential.subtree_sums.ns_per_node": per(
                t["potential.subtree_sums"]["ns"], c["potential.subtree_sums.nodes"]),
            "potential.sums_per_splay": per(
                calls("potential.subtree_sums"), calls("lab.checked_splay")),
            "potential.phi.calls": calls("potential.phi"),
            "potential.phi.self_s": self_s("potential.phi"),
            "potential.potential_of.calls": calls("potential.potential_of"),
            "potential.potential_of.self_s": self_s("potential.potential_of"),
            "potential.assign_weights.calls": calls("potential.assign_weights"),
            "potential.assign_weights.s": s("potential.assign_weights"),
            "generators.random_tree.calls": calls("generators.random_tree"),
            "generators.random_tree.s": s("generators.random_tree"),
            "generators.random_tree.ns_per_node": per(
                t["generators.random_tree"]["ns"], c["generators.random_tree.nodes"]),
            "generators.random_t_program.s": s("generators.random_t_program"),
            "generators.random_t_program.ops": c["generators.random_t_program.ops"],
            "generators.generate_sequence.s": s("generators.generate_sequence"),
            "machine.build_tree.s": s("machine.build_tree"),
            "machine.build_tree.ns_per_node": per(
                t["machine.build_tree"]["ns"], c["machine.build_tree.nodes"]),
            "machine.apply_op.calls": calls("machine.apply_op"),
            "machine.apply_op.ns_per_op": per(
                t["machine.apply_op"]["ns"], calls("machine.apply_op")),
            "machine.TreeState.depth.calls": c["machine.TreeState.depth.calls"],
            "restricted.simulate_program.calls": calls("restricted.simulate_program"),
            "restricted.simulate_program.self_s": self_s("restricted.simulate_program"),
            "restricted.simulate_program.sim_ops_per_s": per(
                c["restricted.simulate_program.sim_ops"], s("restricted.simulate_program")),
            "restricted.check_restricted.calls": calls("restricted.check_restricted"),
            "restricted.check_restricted.self_s": self_s("restricted.check_restricted"),
            "restricted.check_restricted.ops": c["restricted.check_restricted.ops"],
            "restricted.cursor_trace.calls": calls("restricted.cursor_trace"),
            "restricted.cursor_trace.self_s": self_s("restricted.cursor_trace"),
            "restricted.op_sequence.calls": c["restricted.op_sequence.calls"],
            "oracle.opt_cost.calls": calls("oracle.opt_cost"),
            "oracle.opt_cost.s": s("oracle.opt_cost"),
            "oracle.opt_cost.p50_ms": pct("oracle.opt_cost", 0.50, 1e6),
            "oracle.opt_cost.p99_ms": pct("oracle.opt_cost", 0.99, 1e6),
            "oracle.per_query_segments.self_s": self_s("oracle.per_query_segments"),
            "oracle.static_optimal.s": s("oracle.static_optimal"),
            "lab.accounting_run.calls": calls("lab.accounting_run"),
            "lab.accounting_run.self_s": self_s("lab.accounting_run"),
            "lab.InterleavedRun.splay_query.calls": calls("lab.InterleavedRun.splay_query"),
            "lab.InterleavedRun.splay_query.self_s": self_s("lab.InterleavedRun.splay_query"),
            "lab.InterleavedRun.splay_query.p50_us": pct("lab.InterleavedRun.splay_query", 0.50, 1e3),
            "lab.InterleavedRun.splay_query.p99_us": pct("lab.InterleavedRun.splay_query", 0.99, 1e3),
            "lab.InterleavedRun.apply_T_rotation.calls": calls("lab.InterleavedRun.apply_T_rotation"),
            "lab.InterleavedRun.apply_T_rotation.self_s": self_s("lab.InterleavedRun.apply_T_rotation"),
            "lab.checked_splay.calls": calls("lab.checked_splay"),
            "lab.checked_splay.self_s": self_s("lab.checked_splay"),
            "lab.checks.self_s": sum(self_s(name) for name in CHECKERS),
            "lab.merge_extras.s": s("lab.merge_extras"),
            "suites.run_suite.self_s": self_s("suites.run_suite"),
            "suites.render_report.s": s("suites.render_report"),
        }
