"""Outside-in tracer for the benchmark's traced run.

The tracer never edits barrlab's source.  It rebinds, for the length of one
traced pass, the public entry points of each module (and every alias another
module imported by name) to wrappers that either

* record a span (name, start, end, parent, request id) in memory, for entry
  points called a few times per request, or
* bump a counter, for the hot methods called millions of times
  (`map_element_fn`, `structure_at`, `component_at`, ...).

Per-law time is the interval between consecutive `LawReport.record`/`skip`
calls inside the innermost checker span.  Layer times are span self times:
a span's duration minus the part its child spans cover.

Targets that no longer exist are reported by `install` and leave their
metrics at zero.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

# Span-recorded module functions: (module, attribute, span name).
SPAN_FUNCTIONS = [
    ("cli", "build_parser", "cli.build_parser"),
    ("monads", "check_monad_laws", "monads.check"),
    ("algebras", "check_em_algebra", "algebras.check"),
    ("lifting", "check_distlaw_em", "lifting.check_em"),
    ("lifting", "check_distlaw_kl", "lifting.check_kl"),
    ("lifting", "lift_algebra", "lifting.lift"),
    ("lifting", "lift_coalgebra", "lifting.lift"),
    ("chains", "build_terminal_chain", "chains.build_terminal_chain"),
    ("chains", "level_algebras", "chains.level_algebras"),
    ("chains", "build_initial_chain", "chains.level_algebras"),
    ("chains", "anamorphism", "chains.anamorphism"),
    ("chains", "colim_to_lim", "chains.density"),
    ("chains", "density_map", "chains.density"),
    ("chains", "distance", "chains.density"),
    ("chains", "check_cone_coincidence", "chains.lemma1"),
    ("chains", "check_projection_morphisms", "chains.lemma2"),
    ("series", "behavior", "series.behavior"),
    ("series", "cauchy_limit_series", "series.limit"),
    ("series", "series_distance", "series.distance"),
    ("compair", "search_commuting_sigma", "compair.search"),
    ("compair", "check_commuting", "compair.check"),
]

# Span-recorded methods: (module, class, method, span name).
SPAN_METHODS = [
    ("cli", "Report", "to_json", "cli.render"),
    ("cli", "Report", "render_text", "cli.render"),
    ("chains", "LevelAlgebras", "__init__", "chains.level_algebras"),
]

# Counted methods on a class and every subclass that overrides them:
# (module, base class, method, counter).
COUNTED_METHODS = [
    ("finset", "FinFn", "__init__", "finset.finfn_built"),
    ("monads", "FinMonad", "map_element_fn", "monads.map_element_fn_calls"),
    ("monads", "FinMonad", "mult_element", "monads.mult_element_calls"),
    ("monads", "FinMonad", "unit_element", "monads.unit_element_calls"),
    ("algebras", "EMAlgebra", "structure_at", "algebras.structure_at_calls"),
    ("lifting", "DistLawEM", "component_at", "lifting.component_at_calls"),
    ("lifting", "DistLawKl", "component_at", "lifting.component_at_calls"),
    ("chains", "LevelAlgebras", "structure_at", "chains.level_structure_at_calls"),
]

# Span name of each law checker -> the checker label in law metric names.
CHECKERS = {
    "monads.check": "monad",
    "algebras.check": "algebra",
    "lifting.check_em": "distlaw_em",
    "lifting.check_kl": "distlaw_kl",
    "compair.check": "commute",
    "chains.lemma1": "lemma1",
    "chains.lemma2": "lemma2",
}

LAWS = {
    "monad": ("map-identity", "left-unit", "right-unit", "mult-associativity",
              "unit-naturality", "mult-naturality", "map-composition"),
    "algebra": ("unit-law", "multiplication-law"),
    "distlaw_em": ("unit-axiom", "mult-axiom", "naturality"),
    "distlaw_kl": ("unit-axiom", "mult-axiom", "naturality"),
    "commute": ("cardinality", "bijection", "algebra-square", "naturality"),
    "lemma1": ("cone-coincidence",),
    "lemma2": ("projection-morphism",),
}

# Layer time metrics: metric -> span names whose self times it sums.
TIME_METRICS = {
    "cli.build_parser_s": ("cli.build_parser",),
    "cli.render_s": ("cli.render",),
    "jsonio.load_s": ("jsonio.load",),
    "algebras.check_s": ("algebras.check",),
    "lifting.check_em_s": ("lifting.check_em",),
    "lifting.check_kl_s": ("lifting.check_kl",),
    "lifting.lift_s": ("lifting.lift",),
    "chains.build_terminal_chain_s": ("chains.build_terminal_chain",),
    "chains.level_algebras_s": ("chains.level_algebras",),
    "chains.anamorphism_s": ("chains.anamorphism",),
    "chains.density_s": ("chains.density",),
    "chains.lemma_s": ("chains.lemma1", "chains.lemma2"),
    "series.behavior_s": ("series.behavior",),
    "series.limit_s": ("series.limit",),
    "series.distance_s": ("series.distance",),
    "compair.search_s": ("compair.search",),
    "compair.check_s": ("compair.check",),
}

# Every per-layer metric besides the per-law ones, grouped by layer.  Names
# in TIME_METRICS are span self times, `_per_s` names are rates, and the rest
# are counters.
LAYER_METRICS = (
    "cli.build_parser_s", "cli.render_s",
    "jsonio.load_s", "jsonio.load_calls",
    "finset.all_functions_yielded", "finset.finfn_built",
    "functors.eval_functor_calls", "functors.eval_functor_elements",
    "functors.map_element_calls",
    "monads.apply_calls", "monads.apply_misses", "monads.apply_elements",
    "monads.map_element_fn_calls", "monads.mult_element_calls", "monads.unit_element_calls",
    "algebras.structure_at_calls", "algebras.check_s",
    "lifting.component_at_calls", "lifting.check_em_s", "lifting.check_kl_s",
    "lifting.lift_s",
    "chains.build_terminal_chain_s", "chains.level_algebras_s",
    "chains.level_structure_at_calls", "chains.anamorphism_s", "chains.density_s",
    "chains.lemma_s",
    "series.behavior_s", "series.limit_s", "series.distance_s",
    "compair.search_s", "compair.search_tried", "compair.search_tried_per_s",
    "compair.check_s",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in LAYER_METRICS:
        if name.endswith("_per_s"):
            out.append((name, "1/s", "higher"))
        elif name in TIME_METRICS:
            out.append((name, "s", "lower"))
        else:
            out.append((name, "count", "lower"))
    for checker, laws in LAWS.items():
        for law in laws:
            out.append((f"law.{checker}.{law}.s", "s", "lower"))
            out.append((f"law.{checker}.{law}.instances", "count", "higher"))
    out += [("reports.skipped", "count", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("host.calib_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.request = -1
        self.cells: dict[str, list] = defaultdict(lambda: [0])
        self.law_s: dict[tuple, float] = defaultdict(float)
        self.law_n: dict[tuple, int] = defaultdict(int)
        self._marks: dict[int, float] = {}
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1,
                          self.request])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def _counter(self, name, fn):
        cell = self.cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _law_event(self, law: str, skipped: bool) -> None:
        now = perf_counter()
        start_idx = next((idx for idx in reversed(self.stack)
                          if self.spans[idx][0] in CHECKERS), None)
        if start_idx is None:
            return
        checker = CHECKERS[self.spans[start_idx][0]]
        start = self._marks.get(start_idx, self.spans[start_idx][1])
        self._marks[start_idx] = now
        self.law_s[(checker, law)] += now - start
        self.law_n[(checker, law)] += 1
        if skipped:
            self.cells["reports.skipped"][0] += 1

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _rebind(self, modules, orig, wrapper):
        """Replace `orig` in every barrlab module namespace that holds it."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def install(self) -> list[str]:
        """Wrap the targets in the imported barrlab modules; return the ones
        that were not found."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "barrlab" or n.startswith("barrlab."))]
        mod = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
               if m is not None and n.startswith("barrlab.")}
        missing = []

        def lookup(module, *path):
            obj = mod.get(module)
            for part in path:
                obj = getattr(obj, part, None) if obj is not None else None
            if obj is None:
                missing.append(".".join((module,) + path))
            return obj

        for module, attr, name in SPAN_FUNCTIONS:
            fn = lookup(module, attr)
            if fn is not None:
                wrapper = self._span(name, fn)
                if name == "compair.search":
                    wrapper = self._tried(wrapper)
                self._rebind(modules, fn, wrapper)
        if "jsonio" in mod:
            for attr, fn in list(vars(mod["jsonio"]).items()):
                if attr.startswith("load_") and isinstance(fn, types.FunctionType):
                    self._rebind(modules, fn, self._counter(
                        "jsonio.load_calls", self._span("jsonio.load", fn)))
        for module, cls_name, method, name in SPAN_METHODS:
            fn = lookup(module, cls_name, method)
            if fn is not None:
                self._set(getattr(mod[module], cls_name), method, self._span(name, fn))
        if "cli" in mod:
            # Rendering also covers the JSON encoding and printing of the report.
            cli = mod["cli"]
            json_proxy = types.SimpleNamespace(**vars(json))
            json_proxy.dumps = self._span("cli.render", json.dumps)
            self._set(cli, "json", json_proxy)
            self._set(cli, "print", self._span("cli.render", print))

        for module, cls_name, method, name in COUNTED_METHODS:
            base = lookup(module, cls_name)
            if base is not None:
                for cls in _with_subclasses(base):
                    if method in cls.__dict__:
                        self._set(cls, method, self._counter(name, cls.__dict__[method]))
        fin_monad = lookup("monads", "FinMonad")
        if fin_monad is not None:
            for cls in _with_subclasses(fin_monad):
                if "apply" in cls.__dict__:
                    self._set(cls, "apply", self._apply(cls.__dict__["apply"]))
        fn = lookup("finset", "all_functions")
        if fn is not None:
            self._rebind(modules, fn, self._yield_counter("finset.all_functions_yielded", fn))
        fn = lookup("functors", "eval_functor")
        if fn is not None:
            self._rebind(modules, fn, self._eval_functor(fn))
        fn = lookup("functors", "map_element")
        if fn is not None:
            self._rebind(modules, fn, self._counter("functors.map_element_calls", fn))
        report = lookup("reports", "LawReport")
        if report is not None:
            for method, skipped in (("record", False), ("skip", True)):
                if method in report.__dict__:
                    self._set(report, method, self._law(report.__dict__[method], skipped))
        return missing

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def _yield_counter(self, name, fn):
        cell = self.cells[name]

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def _eval_functor(self, fn):
        calls = self.cells["functors.eval_functor_calls"]
        elements = self.cells["functors.eval_functor_elements"]

        def wrapper(*args, **kwargs):
            calls[0] += 1
            out = fn(*args, **kwargs)
            elements[0] += len(out)
            return out

        return wrapper

    def _apply(self, fn):
        """Count calls of `FinMonad.apply`; a call that grows the monad's
        memo (or any call, if it has none) is a miss that materialised M X."""
        calls, misses = self.cells["monads.apply_calls"], self.cells["monads.apply_misses"]
        elements = self.cells["monads.apply_elements"]

        def wrapper(monad, *args, **kwargs):
            calls[0] += 1
            memo = getattr(monad, "_apply_cache", None)
            before = len(memo) if memo is not None else -1
            out = fn(monad, *args, **kwargs)
            if memo is None or len(memo) != before:
                misses[0] += 1
                elements[0] += len(out)
            return out

        return wrapper

    def _tried(self, fn):
        """Add the `tried` count that the sigma search returns."""
        cell = self.cells["compair.search_tried"]

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            cell[0] += out[2]
            return out

        return wrapper

    def _law(self, fn, skipped):
        def wrapper(report, law, *args, **kwargs):
            self._law_event(law, skipped)
            return fn(report, law, *args, **kwargs)

        return wrapper

    # -- requests and results ------------------------------------------------

    def call(self, request_id: int, fn, *args):
        """Run one request under a root span named `cli.main`."""
        self.request = request_id
        return self._span("cli.main", fn)(*args)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _rid), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def span_total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _r in self.spans if n == name)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the harness's own two."""
        self_s = self.self_times()
        out = {name: (sum(self_s.get(s, 0.0) for s in TIME_METRICS[name])
                      if name in TIME_METRICS else self.cells[name][0])
               for name in LAYER_METRICS + ("reports.skipped",)}
        search_s = self.span_total("compair.search")
        out["compair.search_tried_per_s"] = (
            out["compair.search_tried"] / search_s if search_s > 0 else 0.0)
        for checker, laws in LAWS.items():
            for law in laws:
                out[f"law.{checker}.{law}.s"] = self.law_s.get((checker, law), 0.0)
                out[f"law.{checker}.{law}.instances"] = self.law_n.get((checker, law), 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


_MISSING = object()


def _with_subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen
