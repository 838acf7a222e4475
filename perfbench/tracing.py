"""Per-layer spans for riccicrit, recorded from outside the program.

The tracer wraps a fixed list of each layer's functions at every name a
caller looks them up by: a function object found in the globals of any
``riccicrit`` module is replaced there by one shared wrapper, so
``riccicrit.ricci``, ``riccicrit.solvers.ricci`` and ``riccicrit.cli.ricci``
all record into ``curvature.ricci``. Methods are wrapped on their class.

Each call records one span: a name, start and end (``perf_counter_ns``) and
the span that was open when it began. Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its child
spans; the program is single-threaded in-process, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name). "Class.method" attributes are patched on
# the class; plain functions at every riccicrit global that holds them.
WRAPPED = (
    ("graphs", "Graph.__init__", "graphs.graph_init"),
    ("graphs", "Graph.distances_from", "graphs.distances_from"),
    ("graphs", "load_edge_list", "graphs.load_edge_list"),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("curvature", "ricci", "curvature.ricci"),
    ("curvature", "build_cost_matrix", "curvature.build_cost_matrix"),
    ("curvature", "blow_up", "curvature.blow_up"),
    ("curvature", "emd_via_matching", "curvature.emd_via_matching"),
    ("curvature", "emd_via_flow", "curvature.emd_via_flow"),
    ("curvature", "plan_from_matching", "curvature.plan_from_matching"),
    ("curvature", "canonicalize_matching", "curvature.canonicalize_matching"),
    ("matching", "min_cost_perfect_matching", "matching.min_cost_perfect_matching"),
    ("matching", "signature_support", "matching.signature_support"),
    ("matching", "exact_cost_matching", "matching.exact_cost_matching"),
    ("matching", "matching_with_counts", "matching.matching_with_counts"),
    ("_detcube", "SignatureCube.__init__", "detcube.signature_cube"),
    ("_detcube", "det_batch", "detcube.det_batch"),
    ("_detcube", "coefficient_at", "detcube.coefficient_at"),
    ("solvers", "feasible_by_saturation", "solvers.feasible_by_saturation"),
    ("solvers", "greedy_insert", "solvers.greedy_insert"),
    ("solvers", "randomized_insert", "solvers.randomized_insert"),
    ("solvers", "brute_force_opt", "solvers.brute_force_opt"),
    ("gadgets", "gen_blocker", "gadgets.gen"),
    ("gadgets", "gen_maxcov", "gadgets.gen"),
    ("gadgets", "gen_setcover", "gadgets.gen"),
    ("gadgets", "gen_tightness", "gadgets.gen"),
    ("gadgets", "gen_tightness_graph", "gadgets.gen"),
    ("cli", "main", "cli.main"),
)

SOLVER_SPANS = (
    "solvers.feasible_by_saturation",
    "solvers.greedy_insert",
    "solvers.randomized_insert",
    "solvers.brute_force_opt",
)


def _count_blow_up(tracer, args, kwargs, out):
    tracer.counts["curvature.blow_up.cells"] += out.q * out.q
    tracer.blow_up_q.append(out.q)


def _count_hungarian(tracer, args, kwargs, out):
    tracer.counts["matching.hungarian_q3"] += len(args[0]) ** 3


def _count_witness(tracer, args, kwargs, out):
    tracer.counts["matching.matching_with_counts.hits"] += out is not None


def _count_cube(tracer, args, kwargs, out):
    points = 1
    for d in args[0].dims:
        points *= d
    tracer.counts["detcube.grid_points"] += points


def _count_det_batch(tracer, args, kwargs, out):
    tracer.counts["detcube.det_batch.matrices"] += args[0].shape[0]


HOOKS = {
    "curvature.blow_up": _count_blow_up,
    "matching.min_cost_perfect_matching": _count_hungarian,
    "matching.matching_with_counts": _count_witness,
    "detcube.signature_cube": _count_cube,
    "detcube.det_batch": _count_det_batch,
}


class Tracer:
    """In-memory span recorder; ``install`` patches riccicrit, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.blow_up_q: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "riccicrit" or n.startswith("riccicrit.")]
        for module_name, attr, span in WRAPPED:
            owner = importlib.import_module(f"riccicrit.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(span, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(span, fn)
            for module in modules:
                for site, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, site, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total_s (sum of durations) and self_s."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            agg = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur[i] / 1e9
            agg["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def count_within(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Spans called ``name`` that have a span named in ``ancestors`` above them."""
        target = self._name_ids.get(name)
        wanted = {self._name_ids[a] for a in ancestors if a in self._name_ids}
        if target is None or not wanted:
            return 0
        hits = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != target:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in wanted:
                p = self.span_parent[p]
            hits += p >= 0
        return hits

    def layer_metrics(self) -> dict[str, float]:
        agg = self.aggregate()

        def get(span: str, field: str) -> float:
            return agg.get(span, {}).get(field, 0)

        m: dict[str, float] = {}
        for span, fields in (
            ("graphs.distances_from", ("calls", "self_s")),
            ("graphs.graph_init", ("calls", "self_s")),
            ("graphs.load_edge_list", ("self_s",)),
            ("curvature.ricci", ("calls", "total_s")),
            ("curvature.build_cost_matrix", ("calls", "self_s")),
            ("curvature.blow_up", ("calls", "self_s")),
            ("curvature.emd_via_matching", ("self_s",)),
            ("curvature.emd_via_flow", ("calls", "self_s")),
            ("curvature.canonicalize_matching", ("calls", "self_s")),
            ("matching.min_cost_perfect_matching", ("calls", "self_s")),
            ("matching.signature_support", ("calls", "self_s")),
            ("matching.exact_cost_matching", ("calls", "self_s")),
            ("matching.matching_with_counts", ("calls", "self_s")),
            ("detcube.det_batch", ("calls", "self_s")),
            ("detcube.coefficient_at", ("calls",)),
            ("solvers.feasible_by_saturation", ("calls", "self_s")),
            ("solvers.greedy_insert", ("total_s", "self_s")),
            ("solvers.randomized_insert", ("total_s", "self_s")),
            ("solvers.brute_force_opt", ("total_s",)),
            ("gadgets.gen", ("calls", "self_s")),
        ):
            for field in fields:
                m[f"{span}.{field}"] = get(span, field)
        m["detcube.signature_cube.builds"] = get("detcube.signature_cube", "calls")
        m["detcube.signature_cube.self_s"] = get("detcube.signature_cube", "self_s")
        for name in (
            "curvature.blow_up.cells",
            "matching.hungarian_q3",
            "matching.matching_with_counts.hits",
            "detcube.grid_points",
            "detcube.det_batch.matrices",
        ):
            m[name] = self.counts[name]
        m["curvature.q_p50"] = statistics.median(self.blow_up_q) if self.blow_up_q else 0
        m["curvature.q_max"] = max(self.blow_up_q, default=0)
        witness_calls = m["matching.matching_with_counts.calls"]
        m["matching.witness_hit_ratio"] = (
            m["matching.matching_with_counts.hits"] / witness_calls if witness_calls else 0
        )
        m["solvers.brute_force.subsets"] = self.count_within("curvature.ricci", ("solvers.brute_force_opt",))
        m["solvers.verify_calls"] = self.count_within("curvature.ricci", SOLVER_SPANS)
        return m

    def write(self, path) -> None:
        """Write every span, columnar and gzipped, to ``path``."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
