"""Per-layer tracing from outside the package.

install() wraps each layer's entry points where they are bound (a function
imported into another module is bound there too), so the package's own code
is unchanged.  Every call records a span (name, start, end, parent, op) in
memory; `op` identifies the (graph, degree) row the work is for, or -1 for
per-graph and per-census work.  metrics() turns the spans into the per-layer
metrics; spans are written out only after the pass.

Timings are self time (the span minus its child spans) except the entry
points marked inclusive below.  Metric names start with a letter, so the
`_kernel` module's metrics are named `kernel.*`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, metric name, inclusive)
ENTRY_POINTS = [
    ("graphs", "census", "graphs.census", True),
    ("graphs", "canonical_form", "graphs.canonical_form", False),
    ("graphs", "separating_edges", "graphs.separating_edges", False),
    ("graphs", "blow_up", "graphs.blow_up", False),
    ("graphs", "contract_separating", "graphs.contract_separating", False),
    ("graphs", "connected_subset_masks", "graphs.connected_subset_masks", False),
    ("balance", "enumerate_balanced", "balance.enumerate_balanced", True),
    ("balance", "m_lower_bound", "balance.bounds", False),
    ("balance", "_balance_checks", "balance.subset_checks", False),
    ("balance", "is_weakly_d_general", "balance.is_weakly_d_general", True),
    ("_kernel", "enumerate_box", "kernel.enumerate_box", False),
    ("classgroup", "class_group", "classgroup.class_group", False),
    ("classgroup", "smith_normal_form", "classgroup.smith_normal_form", False),
    ("neron", "is_neron_type", "neron.is_neron_type", True),
    ("neron", "strata_index", "neron.strata_index", False),
    ("neron", "component_count", "neron.component_count", False),
    ("neron", "_route_count", "neron.route.count", True),
    ("neron", "_route_criterion", "neron.route.criterion", True),
    ("neron", "_route_weakly_general", "neron.route.weakly_general", True),
    ("cli", "census_rows", "cli.census_rows", False),
    ("cli", "emit", "cli.emit", False),
]
# entry points whose first two arguments are (graph, degree)
PER_DEGREE = {"balance.enumerate_balanced", "balance.is_weakly_d_general",
              "neron.is_neron_type"}
MODULES = ("graphs", "balance", "_kernel", "classgroup", "neron", "cli", "locus")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.census_ops = {}
        self.kernel_args = []  # (lows, highs, total) per enumerate_box call
        self.kernel_points = 0
        self.members = 0
        self.strict_members = 0
        self.rows = 0
        self.census_graphs = 0
        self.constructions = 0
        self.caches = {}

    def wrap(self, name, fn):
        tracer = self
        per_degree = name in PER_DEGREE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            saved_op = tracer.op
            if parent >= 0 and tracer.spans[parent][0] == "cli.census_rows":
                # census_rows loops over (graph, degree); its direct calls
                # with a degree start or continue that row's op
                tracer.op = (
                    tracer.census_ops.setdefault((id(args[0]), args[1]), len(tracer.census_ops))
                    if per_degree else -1
                )
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                tracer.op = saved_op
            if name == "kernel.enumerate_box":
                tracer.kernel_args.append((tuple(args[0]), tuple(args[1]), args[2]))
                tracer.kernel_points += len(result)
            elif name == "balance.enumerate_balanced":
                tracer.members += len(result.members)
                tracer.strict_members += len(result.strict_members)
            elif name == "graphs.census":
                tracer.census_graphs += len(result)
            elif name == "cli.emit":
                tracer.rows += len(args[0])
            return result

        return traced

    def run_call(self, op, fn, *args, **kwargs):
        """Run one top-level CLI call as a `cli.run` span for row `op`."""
        self.op = op
        try:
            return self.wrap("cli.run", fn)(*args, **kwargs)
        finally:
            self.op = -1

    def install(self, package):
        """Wrap every entry point of `package` (the imported neronjac)."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for mod_name, attr, name, _ in ENTRY_POINTS:
            original = getattr(getattr(package, mod_name), attr)
            if hasattr(original, "cache_info"):
                self.caches[name] = original
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        graph_cls = package.graphs.WeightedGraph
        post_init = graph_cls.__post_init__

        def counted_post_init(graph):
            self.constructions += 1
            post_init(graph)

        graph_cls.__post_init__ = counted_post_init

    def metrics(self, box_points) -> dict:
        """Per-layer metrics of everything traced so far; box_points maps
        (lows, highs, total) to the number of lattice points in that box."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        layer_s = defaultdict(float)
        subsets = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_time[i]
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own
            layer_s[name.split(".")[0]] += own
            if name == "graphs.blow_up" and parent >= 0 and self.spans[parent][0] == "neron.strata_index":
                subsets += 1

        out = {}
        inclusive = {name for _, _, name, is_incl in ENTRY_POINTS if is_incl}
        for _, _, name, _ in ENTRY_POINTS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name] if name in inclusive else self_s[name]
        for layer in ("graphs", "balance", "kernel", "classgroup", "neron", "cli"):
            out[f"layer.{layer}.s"] = layer_s[layer]
        out["cli.run.s"] = self_s["cli.run"]
        out["cli.rows"] = self.rows
        out["balance.strict_filter.s"] = self_s["balance.enumerate_balanced"]
        out["balance.enumerate_balanced.members"] = self.members
        out["balance.enumerate_balanced.strict_members"] = self.strict_members
        out["kernel.enumerate_box.points"] = self.kernel_points
        total_box = sum(box_points(*a) for a in self.kernel_args)
        out["kernel.box_points"] = total_box
        out["kernel.hit_ratio"] = self.kernel_points / total_box if total_box else 0.0
        out["graphs.WeightedGraph.constructions"] = self.constructions
        out["graphs.census.graphs"] = self.census_graphs
        out["neron.strata_index.subsets"] = subsets
        for name, cached in self.caches.items():
            info = cached.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"{name}.cache_entries"] = info.currsize
        return out

    def dump_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
