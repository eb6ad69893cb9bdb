"""Out-of-program tracing of nefsphere: wraps public functions, keeps spans.

Nothing in the program is edited.  ``Tracer.install`` replaces

* every ``Pipeline`` stage (the ``@_cached`` methods, the ``*_suite``
  methods and ``report``) on the class, and
* each listed layer function by rebinding its name in *every* nefsphere
  module that holds it, because ``from .polytope import convex_hull`` makes
  a second binding that patching ``polytope`` alone would miss,

with wrappers that time the call.  Two separate call stacks are kept:
pipeline stages nest in one, layer functions in the other, so a stage's
self time still contains the kernel work done inside it while a layer
function's self time excludes the wrapped functions it calls.  Self time is
the span's duration minus the durations of its direct children; calls run
on one thread, so the children are disjoint and lie inside the parent.

Stage calls are kept as spans (name, start, end, parent, peak RSS at start
and end) and written out at the end.  Layer functions run millions of
times, so for them only call counts, self time and size counters are
aggregated.
"""

import fractions
import itertools
import resource
import sys
import time

PACKAGE = "nefsphere"

# (module, function, size counter): the size counter sums len(first argument)
# or the first argument itself over the calls.
FUNCTIONS = [
    ("cli", "load_input", None),
    ("cli", "canonical_json", None),
    ("dd", "cone_rays", None),
    ("polytope", "convex_hull", None),
    ("polytope", "polytope_from_hrep", None),
    ("polytope", "intersect", None),
    ("linalg", "dot", None),
    ("linalg", "row_rank", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "solve_rational", None),
    ("linalg", "smith_normal_form", None),
    ("homology", "sparse_rank_and_divisors", "columns"),
    ("homology", "order_complex_homology", "elements"),
    ("subdivision", "lower_hull_subdivision", None),
    ("subdivision", "boundary_subdivision", None),
    ("sphere", "transversal_poset", None),
    ("sphere", "minkowski_complex", None),
    ("sphere", "adjoint_pairs", None),
    ("tropical", "tropical_cell", None),
    ("tropical", "order_complex_check", None),
    ("tropical", "bounded_cells_check", None),
    ("monodromy", "chart_transition", None),
    ("monodromy", "global_group", None),
    ("monodromy", "local_group", None),
    ("monodromy", "duality_check", None),
]
# Methods traced under one name: both classes answer point membership.
METHODS = [("polytope", "Polytope", "contains"),
           ("polytope", "Polyhedron", "contains")]

CACHED_STAGES = [
    "validation", "dual", "irreducibility", "interior_vectors", "omega", "nu",
    "s_coned", "t_coned", "s_boundary", "t_boundary", "p_poset", "q_poset",
    "p_minkowski_complex", "q_minkowski_complex", "sigma", "sigma_homology",
    "part_subdivisions", "amoeba", "tropical_complex", "zero_cell", "atlas",
    "graph", "discriminant", "loops", "monodromies", "global_report",
    "complement_homology", "dual_pipeline",
]
SUITES = ["lemma_suite", "tropical_suite", "triviality_suite",
          "local_group_suite", "duality_suite", "report"]


def _size(value):
    return value if isinstance(value, int) else len(value)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, clock=time.perf_counter, rss=peak_rss_mb):
        self.clock = clock
        self.rss = rss
        self.functions = {}   # name -> [calls, self_s, size, total_s]
        self.stages = {}      # name -> [calls, self_s, rss_mb]
        # (name, start, end, parent span index or None, rss_mb at start, end)
        self.spans = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.fraction_news = None
        self.rebound = {}     # function name -> modules whose binding changed
        self._fn_stack = []
        self._stage_stack = []  # [span index, child duration]
        self._dual_pipelines = set()
        self._undo = []

    # -- accounting -----------------------------------------------------------

    def _call_function(self, name, fn, size, args, kwargs):
        stat = self.functions[name]
        stat[0] += 1
        if size is not None:
            stat[2] += _size(args[0])
        frame = [0.0]
        self._fn_stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self._fn_stack.pop()
            stat[1] += duration - frame[0]
            stat[3] += duration
            if self._fn_stack:
                self._fn_stack[-1][0] += duration

    def _call_stage(self, name, fn, pipe):
        if id(pipe) in self._dual_pipelines:
            name = "dual_run." + name
        parent = self._stage_stack[-1][0] if self._stage_stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stage_stack.append(frame)
        rss_start = self.rss()
        start = self.clock()
        try:
            return fn(pipe)
        finally:
            end = self.clock()
            rss_end = self.rss()
            self._stage_stack.pop()
            self.spans[index] = (name, start, end, parent, rss_start, rss_end)
            stat = self.stages.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += end - start - frame[1]
            stat[2] = max(stat[2], rss_end)
            if self._stage_stack:
                self._stage_stack[-1][1] += end - start

    # -- wrappers -------------------------------------------------------------

    def function_wrapper(self, name, fn, size=None):
        self.functions.setdefault(name, [0, 0.0, 0, 0.0])

        def traced(*args, **kwargs):
            return self._call_function(name, fn, size, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def stage_wrapper(self, name, method, cached):
        key = "_" + name

        def traced(pipe, *args, **kwargs):
            if cached:
                if key in pipe._cache:
                    self.cache_hits += 1
                    return method(pipe)
                self.cache_misses += 1
            result = self._call_stage(
                name, lambda p: method(p, *args, **kwargs), pipe)
            if name == "dual_pipeline":
                self._dual_pipelines.add(id(result))
            return result

        traced.__name__ = name
        traced.__wrapped__ = method
        return traced

    # -- installation ---------------------------------------------------------

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, fn, wrapper):
        """Point every nefsphere binding of ``fn`` at ``wrapper``."""
        sites = []
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._setattr(module, attr, wrapper)
                    sites.append(modname)
        return sites

    def install(self):
        import importlib
        for mod in {m for m, _, _ in FUNCTIONS}:
            importlib.import_module(f"{PACKAGE}.{mod}")
        for mod, fname, size in FUNCTIONS:
            name = f"{mod}.{fname}"
            fn = getattr(sys.modules[f"{PACKAGE}.{mod}"], fname)
            self.rebound[name] = self.rebind(
                fn, self.function_wrapper(name, fn, size))
        for mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name)
            name = f"{mod}.{meth}"
            self._setattr(cls, meth,
                          self.function_wrapper(name, vars(cls)[meth]))
        pipeline = importlib.import_module(f"{PACKAGE}.pipeline").Pipeline
        for name in CACHED_STAGES + SUITES:
            self._setattr(pipeline, name, self.stage_wrapper(
                name, vars(pipeline)[name], name in CACHED_STAGES))
        self._count_fractions()
        return self

    def _count_fractions(self):
        counter = itertools.count()
        original = fractions.Fraction.__new__

        def counting_new(cls, numerator=0, denominator=None, **kwargs):
            next(counter)
            return original(cls, numerator, denominator, **kwargs)

        self._setattr(fractions.Fraction, "__new__", counting_new)
        self._fraction_counter = counter

    def uninstall(self):
        if self._undo:
            self.fraction_news = next(self._fraction_counter)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer totals under fixed names; a stage or function that never
        ran reads 0.  Stages of the role-swapped pipeline are summed into
        ``pipeline.dual_run.self_s`` rather than merged into the primal
        ones."""
        out = {"pipeline.cache_hits": self.cache_hits,
               "pipeline.cache_misses": self.cache_misses}
        for name in CACHED_STAGES + SUITES:
            _, self_s, rss = self.stages.get(name, (0, 0.0, 0.0))
            out[f"pipeline.{name}.self_s"] = self_s
            if name != "report":
                out[f"pipeline.{name}.rss_mb"] = rss
        out["pipeline.dual_run.self_s"] = sum(
            (stat[1] for name, stat in self.stages.items()
             if name.startswith("dual_run.")), 0.0)
        for mod, fname, counter in FUNCTIONS:
            name = f"{mod}.{fname}"
            calls, self_s, size, total_s = self.functions.get(
                name, (0, 0.0, 0, 0.0))
            if mod == "cli":
                out[f"{name}_s"] = total_s
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if counter:
                out[f"{name}.{counter}"] = size
        calls, self_s, _, _ = self.functions.get("polytope.contains",
                                                 (0, 0.0, 0, 0.0))
        out["polytope.contains.calls"] = calls
        out["polytope.contains.self_s"] = self_s
        out["fractions.new.calls"] = self.fraction_news or 0
        return out

    def span_records(self):
        keys = ("name", "start", "end", "parent", "rss_start_mb", "rss_end_mb")
        return [dict(zip(keys, span)) for span in self.spans]
