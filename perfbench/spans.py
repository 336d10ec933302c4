"""Span tracing of the degedit package from outside it.

``Tracer`` replaces public functions with timing wrappers under the name
each caller looks up (``degedit.cli.decompose``, ``degedit.kernelize.
PreparedSolve``, ...), so no file of the package changes.  Spans (name,
start, end, parent, command id) stay in memory; ``layer_metrics`` turns
them into per-layer self times, counts and shares.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

NAME, START, END, PARENT, CMD = range(5)

# span names; a span's layer is the part before the first dot
CLI = "cli"
PARSE = "io.parse"
WRITE = "io.write"
PARSE_PLANARITY = "graph.is_planar"
GADGET_PLANARITY = "graph.gadget_is_planar"
DECOMPOSE = "treewidth.decompose"
TO_NICE = "treewidth.to_nice"
VALIDATE = "treewidth.validate"
DP = "dpsolve"
NORMALIZE = "normalize"
KERNELIZE = "kernelize"
CANDIDATES = "kernelize.candidates"
CONFIGS = "kernelize.enumerate_configs"
BOUNDARY = "kernelize.boundary_instance"
REDUCE = "kernelize.reduce"
DOMSET = "protrusion.domset"
PROTRUSION = "protrusion.decompose"
ORACLE = "oracle"


class Tracer:
    """Wraps the package's layer boundaries and records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._cmd = -1
        self._saved: list[tuple[object, str, object]] = []
        self._gadget_keys: set = set()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._cmd])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def command(self, cmd_id: int) -> int:
        """Open the root span of one CLI command; close it with ``close``."""
        self._cmd = cmd_id
        return self.open(CLI)

    # -- installing wrappers ------------------------------------------------

    def _set(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_fn(self, name: str, after=None):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(i)
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return wrapper
        return make

    def _span_class(self, name: str, after):
        tracer = self

        def make(cls):
            class Traced(cls):
                def __init__(self, *args, **kwargs):
                    i = tracer.open(name)
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer.close(i)
                    after(self)
            Traced.__name__ = cls.__name__
            Traced.__qualname__ = cls.__qualname__
            return Traced
        return make

    def install(self) -> "Tracer":
        c = self.counts

        def add(key, amount=1):
            c[key] += amount

        def peak(key, value):
            c[key] = max(c[key], value)

        def after_decompose(td, *a, **k):
            add("treewidth.bags", len(td.bags))
            peak("treewidth.width_max", td.width)

        def after_to_nice(ntd, *a, **k):
            add("treewidth.nice_nodes", len(ntd))
            peak("treewidth.width_max", ntd.width)

        def after_dp(ps):
            add("dpsolve.runs")
            add("dpsolve.nodes", len(ps.ctx.ntd))

        def after_group(ps):
            after_dp(ps)
            add("kernelize.groups_solved")

        def process_node(fn):
            @functools.wraps(fn)
            def wrapper(ctx, node, child_tables):
                table = fn(ctx, node, child_tables)
                c["dpsolve.entries"] += len(table)
                if len(table) > c["dpsolve.peak_table"]:
                    c["dpsolve.peak_table"] = len(table)
                return table
            return wrapper

        def after_normalize(out, inst, *a, **k):
            add("normalize.calls")
            add("normalize.rule_firings", len(out.log))
            add("normalize.input_vertices", inst.graph.n)
            if out.instance is not None:
                add("normalize.kept_vertices", out.instance.graph.n)

        def after_kernelize(res, *a, **k):
            add("kernelize.results")
            add("kernelize.certified", 1 if res.certified else 0)

        def after_protrusion(pd, g, *a, **k):
            add("protrusion.parts", len(pd.parts))
            add("protrusion.core_vertices", len(pd.r0))
            add("protrusion.input_vertices", g.n)

        def before_candidates(fn):
            inner = self._span_fn(CANDIDATES, after_candidates)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._gadget_keys = set()
                return inner(*args, **kwargs)
            return wrapper

        def after_candidates(cs, *a, **k):
            add("kernelize.skipped_parts", len(cs.skipped))
            add("kernelize.gadget_keys_distinct", len(self._gadget_keys))

        def after_configs(configs, *a, **k):
            add("kernelize.configs", len(configs))

        def after_boundary(built, config, part, inst):
            if built is None:
                add("kernelize.boundary_rejected")
            if config.cover is not None:
                self._gadget_keys.add((part.closed, config.removed_vertices,
                                       config.removed_edges, config.cover))

        def after_gadget_planarity(ok, *a, **k):
            add("kernelize.gadget_planarity_calls")

        def after_reduce(state, *a, **k):
            add("kernelize.reduce_events", len(state.events))

        def after_oracle(rep, *a, **k):
            add("oracle.calls")
            add("oracle.search_space", rep.search_space)

        span = self._span_fn
        hooks = [
            ("degedit.cli", "parse_instance", span(PARSE)),
            ("degedit.io", "is_planar", span(PARSE_PLANARITY)),
            ("degedit.cli", "write_instance", span(WRITE)),
            ("degedit.cli", "format_solution", span(WRITE)),
            ("degedit.cli", "format_trace", span(WRITE)),
            ("degedit.cli", "decompose", span(DECOMPOSE, after_decompose)),
            ("degedit.cli", "to_nice", span(TO_NICE, after_to_nice)),
            ("degedit.cli", "kernelize", span(KERNELIZE, after_kernelize)),
            ("degedit.cli", "brute_force_min_cost", span(ORACLE, after_oracle)),
            ("degedit.oracle", "brute_force_min_cost", span(ORACLE, after_oracle)),
            ("degedit.treewidth", "validate", span(VALIDATE)),
            ("degedit.dpsolve", "validate", span(VALIDATE)),
            ("degedit.dpsolve", "decompose", span(DECOMPOSE, after_decompose)),
            ("degedit.dpsolve", "to_nice", span(TO_NICE, after_to_nice)),
            ("degedit.dpsolve", "PreparedSolve", self._span_class(DP, after_dp)),
            ("degedit.dpsolve", "process_node", process_node),
            ("degedit.protrusion", "decompose", span(DECOMPOSE, after_decompose)),
            ("degedit.kernelize", "normalize", span(NORMALIZE, after_normalize)),
            ("degedit.kernelize", "greedy_2_dominating_set", span(DOMSET)),
            ("degedit.kernelize", "build_protrusion_decomposition",
             span(PROTRUSION, after_protrusion)),
            ("degedit.kernelize", "compute_candidate_sets", before_candidates),
            ("degedit.kernelize", "enumerate_configs", span(CONFIGS, after_configs)),
            ("degedit.kernelize", "build_boundary_instance",
             span(BOUNDARY, after_boundary)),
            ("degedit.kernelize", "is_planar",
             span(GADGET_PLANARITY, after_gadget_planarity)),
            ("degedit.kernelize", "to_nice", span(TO_NICE, after_to_nice)),
            ("degedit.kernelize", "PreparedSolve",
             self._span_class(DP, after_group)),
            ("degedit.kernelize", "reduce_dpggd", span(REDUCE, after_reduce)),
            ("degedit.kernelize", "reduce_dcpggd", span(REDUCE, after_reduce)),
        ]
        for module_name, attr, make in hooks:
            self._set(module_name, attr, make)
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced command, from the tracer's spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    top_level = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        total[s[NAME]] += dur
        self_time[s[NAME]] += dur - child_time[i]
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == CLI:
            top_level += dur
    wall = total[CLI]
    commands = sum(1 for s in spans if s[NAME] == CLI)
    c = tracer.counts

    def per_cmd(x):
        return _ratio(x, commands)

    treewidth_self = sum(v for k, v in self_time.items()
                         if k.startswith("treewidth."))
    out = {
        "dpsolve.self_s": (per_cmd(self_time[DP]), "s/cmd"),
        "dpsolve.runs": (per_cmd(c["dpsolve.runs"]), "count/cmd"),
        "dpsolve.nodes": (per_cmd(c["dpsolve.nodes"]), "count/cmd"),
        "dpsolve.entries": (per_cmd(c["dpsolve.entries"]), "count/cmd"),
        "dpsolve.peak_table": (c["dpsolve.peak_table"], "entries"),
        "treewidth.decompose_s": (per_cmd(total[DECOMPOSE]), "s/cmd"),
        "treewidth.to_nice_s": (per_cmd(total[TO_NICE]), "s/cmd"),
        "treewidth.bags": (per_cmd(c["treewidth.bags"]), "count/cmd"),
        "treewidth.nice_nodes": (per_cmd(c["treewidth.nice_nodes"]), "count/cmd"),
        "treewidth.width_max": (c["treewidth.width_max"], "count"),
        "normalize.self_s": (per_cmd(self_time[NORMALIZE]), "s/cmd"),
        "normalize.calls": (per_cmd(c["normalize.calls"]), "count/cmd"),
        "normalize.rule_firings": (per_cmd(c["normalize.rule_firings"]), "count/cmd"),
        "normalize.kept_share": (_ratio(c["normalize.kept_vertices"],
                                        c["normalize.input_vertices"]), "share"),
        "kernelize.candidates_self_s": (per_cmd(self_time[CANDIDATES]), "s/cmd"),
        "kernelize.configs": (per_cmd(c["kernelize.configs"]), "count/cmd"),
        "kernelize.groups_solved": (per_cmd(c["kernelize.groups_solved"]), "count/cmd"),
        "kernelize.solved_per_config": (_ratio(c["kernelize.groups_solved"],
                                               c["kernelize.configs"]), "ratio"),
        "kernelize.boundary_rejected": (per_cmd(c["kernelize.boundary_rejected"]),
                                        "count/cmd"),
        "kernelize.gadget_planarity_s": (per_cmd(total[GADGET_PLANARITY]), "s/cmd"),
        "kernelize.gadget_planarity_calls": (
            per_cmd(c["kernelize.gadget_planarity_calls"]), "count/cmd"),
        "kernelize.gadget_keys_distinct": (
            per_cmd(c["kernelize.gadget_keys_distinct"]), "count/cmd"),
        "kernelize.skipped_parts": (per_cmd(c["kernelize.skipped_parts"]), "count/cmd"),
        "kernelize.reduce_s": (per_cmd(total[REDUCE]), "s/cmd"),
        "kernelize.reduce_events": (per_cmd(c["kernelize.reduce_events"]), "count/cmd"),
        "kernelize.certified_share": (_ratio(c["kernelize.certified"],
                                             c["kernelize.results"]), "share"),
        "protrusion.domset_s": (per_cmd(total[DOMSET]), "s/cmd"),
        "protrusion.decompose_s": (per_cmd(total[PROTRUSION]), "s/cmd"),
        "protrusion.parts": (per_cmd(c["protrusion.parts"]), "count/cmd"),
        "protrusion.core_share": (_ratio(c["protrusion.core_vertices"],
                                         c["protrusion.input_vertices"]), "share"),
        "io.parse_s": (per_cmd(self_time[PARSE]), "s/cmd"),
        "io.write_s": (per_cmd(total[WRITE]), "s/cmd"),
        "graph.is_planar_s": (per_cmd(total[PARSE_PLANARITY]), "s/cmd"),
        "oracle.self_s": (per_cmd(self_time[ORACLE]), "s/cmd"),
        "oracle.calls": (per_cmd(c["oracle.calls"]), "count/cmd"),
        "oracle.search_space": (per_cmd(c["oracle.search_space"]), "count/cmd"),
        "cli.unattributed_s": (per_cmd(wall - top_level), "s/cmd"),
        "trace.overhead_share": (_ratio(wall, untraced_wall_s), "ratio"),
        "share.dp_treewidth": (_ratio(self_time[DP] + treewidth_self, wall), "share"),
        "share.normalize": (_ratio(total[NORMALIZE], wall), "share"),
        "share.candidates": (_ratio(total[CANDIDATES], wall), "share"),
    }
    return out


def dump_spans(tracer: Tracer) -> list[dict]:
    """Spans in a JSON-ready form, times relative to the first span."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "cmd": s[CMD]} for s in tracer.spans]
