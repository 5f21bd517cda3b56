"""Per-layer tracing installed from outside the program.

:class:`LayerTrace` wraps the public functions of each layer in spans of a
:class:`repro.obs.trace.Tracer` that it owns.  Most of these functions are
imported by name into the modules that call them (``planner.py``,
``incremental.py``, ``executor.py``), so a module-level function is replaced
in every ``repro`` module (and benchmark module) that binds the same
function object; methods are replaced on their class and on every subclass
that overrides them.  :meth:`LayerTrace.restore` puts every original back.

Every span carries the index of the decision (``AssignmentStrategy.plan``
call) it belongs to, so all spans of one decision share an id; spans
between two decisions carry the earlier one.  A layer's self time is its
span time minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from repro.assignment import executor, fast_partition, reachability, sequences
from repro.assignment.incremental import IncrementalPlanEngine
from repro.assignment.planner import TaskPlanner
from repro.assignment.tvf import TaskValueFunction
from repro.datasets import yueche
from repro.demand.predictor import DemandPredictor
from repro.demand.training import DemandTrainer
from repro.obs.trace import Tracer
from repro.resilience.checkpoint import InMemoryCheckpointStore
from repro.resilience.journal import InMemoryJournal
from repro.roadnet import dijkstra, graph, scenario
from repro.spatial.index import SpatialIndex
from repro.spatial.travel import TravelModel
from repro.spatial.travel_matrix import TravelMatrix

#: Module-level functions -> span name.
FUNCTIONS = {
    reachability.reachable_tasks: "reachability",
    reachability.reachable_tasks_matrix: "reachability",
    reachability.reachable_tasks_indexed: "reachability",
    reachability.reachable_tasks_with_horizon: "reachability",
    sequences.maximal_valid_sequences: "sequences",
    fast_partition.build_adjacency: "partition",
    fast_partition.connected_components: "partition",
    fast_partition.build_component_subtree: "partition",
    fast_partition.build_partition_tree_fast: "partition",
    executor.run_component_job: "search",
    dijkstra.dijkstra_row: "roadnet.dijkstra",
    yueche.generate_yueche: "datasets.generate",
    graph.grid_network: "datasets.generate",
    scenario.roadnet_rushhour: "datasets.generate",
}

#: (class, method) -> span name; subclasses overriding the method are
#: wrapped too.
METHODS = {
    (TaskPlanner, "plan"): "planner.plan",
    (IncrementalPlanEngine, "plan"): "incremental",
    (TaskValueFunction, "values"): "tvf.score",
    (TaskValueFunction, "fit"): "tvf.fit",
    (TravelMatrix, "__init__"): "travel_matrix.build",
    (TravelModel, "pairwise"): "travel_matrix.pairwise",
    (SpatialIndex, "query_radius"): "spatial_index.query",
    (InMemoryJournal, "append"): "journal.append",
    (InMemoryCheckpointStore, "save"): "checkpoint.save",
    (DemandTrainer, "fit"): "demand.train",
    (DemandPredictor, "predict_tasks"): "demand.predict",
}

#: Per-layer metrics: name -> unit, in report order.
UNITS = {
    "simulation.self_s": "s",
    "simulation.epochs": "count",
    "journal.append_s": "s",
    "journal.appends": "count",
    "checkpoint.save_s": "s",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "bytes",
    "planner.plan_s": "s",
    "incremental.self_s": "s",
    "incremental.worker_reuse_ratio": "ratio",
    "incremental.component_reuse_ratio": "ratio",
    "incremental.repairs": "count",
    "reachability.s": "s",
    "reachability.calls": "count",
    "sequences.s": "s",
    "sequences.calls": "count",
    "sequences.out": "count",
    "partition.s": "s",
    "partition.calls": "count",
    "search.s": "s",
    "search.jobs": "count",
    "search.nodes": "count",
    "tvf.score_s": "s",
    "tvf.score_calls": "count",
    "tvf.fit_s": "s",
    "travel_matrix.s": "s",
    "travel_matrix.builds": "count",
    "spatial_index.query_s": "s",
    "spatial_index.queries": "count",
    "roadnet.dijkstra_s": "s",
    "roadnet.dijkstra_rows": "count",
    "roadnet.row_hit_ratio": "ratio",
    "demand.train_s": "s",
    "demand.predict_s": "s",
    "demand.predicted_tasks": "tasks",
    "datasets.generate_s": "s",
    "failed_decision_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """Spans around every layer's public functions, in one owned tracer."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Index of the latest ``AssignmentStrategy.plan`` call.
        self.decision = 0
        self.counts: Counter = Counter()
        #: ``PlanningOutcome`` of every ``TaskPlanner.plan`` call.
        self.outcomes: List[object] = []
        self.replay_span_id: Optional[int] = None
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------ #
    def span(self, name: str):
        """A span of the benchmark itself (``setup``, ``replay``)."""
        return self.tracer.span(name, decision=self.decision)

    def _spanned(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            with tracer.span(name, decision=self.decision):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap_decision(self, plan: Callable) -> Callable:
        """Open a new decision around one ``AssignmentStrategy.plan`` call."""
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            self.decision += 1
            with tracer.span("strategy.plan", decision=self.decision):
                return plan(*args, **kwargs)

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "sequences":
            return lambda result, args: counts.update({"sequences.out": len(result)})
        if name == "search":
            return lambda result, args: counts.update({"search.nodes": result.nodes_expanded})
        if name == "planner.plan":
            return lambda result, args: self.outcomes.append(result)
        if name == "checkpoint.save":
            return lambda result, args: counts.update({"checkpoint.bytes": len(args[1].payload)})
        if name == "demand.predict":
            return lambda result, args: counts.update({"demand.predicted_tasks": len(result)})
        return None

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count_epochs(self, fn: Callable) -> Callable:
        # ``begin_epoch`` runs once per decision point in the platform loop
        # and again inside planning; only the loop's calls count as epochs.
        def wrapper(model, now):
            if self.tracer.current_span_id() == self.replay_span_id:
                self.counts["simulation.epochs"] += 1
            return fn(model, now)

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Replace every binding of the traced functions and methods."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro")
        ] + list(extra_modules)
        for fn, name in FUNCTIONS.items():
            wrapper = self._spanned(name, fn, self._after(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
        for (base, attr), name in METHODS.items():
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    self._set(cls, attr, self._spanned(name, cls.__dict__[attr], self._after(name)))
        for cls in _subclasses(TravelModel):
            if "begin_epoch" in cls.__dict__:
                self._set(cls, "begin_epoch", self._count_epochs(cls.__dict__["begin_epoch"]))

    def restore(self) -> None:
        """Put every replaced binding back (reverse order of replacement)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def metrics(
        self,
        overhead_ratio: float,
        failed_decision_share: float,
        row_stats: Optional[Dict[str, int]],
    ) -> Dict[str, float]:
        """Aggregate the spans into the per-layer metrics of ``UNITS``.

        ``row_stats`` is the road-network model's row-cache hit/miss delta
        over the traced replay (None for other travel models).
        """
        spans = [e for e in self.tracer.events if e["ph"] == "X"]
        by_id = {e["args"]["id"]: e for e in spans}
        covered: Dict[int, int] = defaultdict(int)
        for event in spans:
            parent = event["args"]["parent"]
            if parent is not None:
                covered[parent] += event["dur"]
        roots: Dict[int, str] = {}

        def root_of(event) -> str:
            span_id = event["args"]["id"]
            if span_id not in roots:
                parent = by_id.get(event["args"]["parent"])
                roots[span_id] = event["name"] if parent is None else root_of(parent)
            return roots[span_id]

        # Set-up layers (datasets, demand) are read from the ``setup``
        # spans, every other layer from the ``replay`` span only.
        self_us: Dict[str, int] = defaultdict(int)
        outer_us: Dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for event in spans:
            name = event["name"]
            wanted = "setup" if name.startswith(("datasets.", "demand.")) else "replay"
            if root_of(event) != wanted:
                continue
            self_us[name] += event["dur"] - covered[event["args"]["id"]]
            parent = by_id.get(event["args"]["parent"])
            if parent is None or parent["name"] != name:
                # Outermost span of its layer: a call into the layer.
                calls[name] += 1
                outer_us[name] += event["dur"]

        def secs(*names: str) -> float:
            return sum(self_us[n] for n in names) / 1e6

        reused_w = sum(o.reused_workers for o in self.outcomes)
        recomputed_w = sum(o.recomputed_workers for o in self.outcomes)
        reused_c = sum(o.reused_components for o in self.outcomes)
        searched_c = sum(o.searched_components for o in self.outcomes)
        hits = row_stats["row_hits"] if row_stats else 0
        misses = row_stats["row_misses"] if row_stats else 0
        counts = self.counts
        values = {
            "simulation.self_s": secs("replay"),
            "simulation.epochs": counts["simulation.epochs"],
            "journal.append_s": secs("journal.append"),
            "journal.appends": calls["journal.append"],
            "checkpoint.save_s": secs("checkpoint.save"),
            "checkpoint.saves": calls["checkpoint.save"],
            "checkpoint.bytes": counts["checkpoint.bytes"],
            "planner.plan_s": outer_us["planner.plan"] / 1e6,
            "incremental.self_s": secs("incremental"),
            "incremental.worker_reuse_ratio": _ratio(reused_w, reused_w + recomputed_w),
            "incremental.component_reuse_ratio": _ratio(reused_c, reused_c + searched_c),
            "incremental.repairs": sum(o.repairs for o in self.outcomes),
            "reachability.s": secs("reachability"),
            "reachability.calls": calls["reachability"],
            "sequences.s": secs("sequences"),
            "sequences.calls": calls["sequences"],
            "sequences.out": counts["sequences.out"],
            "partition.s": secs("partition"),
            "partition.calls": calls["partition"],
            "search.s": secs("search"),
            "search.jobs": calls["search"],
            "search.nodes": counts["search.nodes"],
            "tvf.score_s": secs("tvf.score"),
            "tvf.score_calls": calls["tvf.score"],
            "tvf.fit_s": secs("tvf.fit"),
            "travel_matrix.s": secs("travel_matrix.build", "travel_matrix.pairwise"),
            "travel_matrix.builds": calls["travel_matrix.build"],
            "spatial_index.query_s": secs("spatial_index.query"),
            "spatial_index.queries": calls["spatial_index.query"],
            "roadnet.dijkstra_s": secs("roadnet.dijkstra"),
            "roadnet.dijkstra_rows": calls["roadnet.dijkstra"],
            "roadnet.row_hit_ratio": _ratio(hits, hits + misses),
            "demand.train_s": secs("demand.train"),
            "demand.predict_s": secs("demand.predict"),
            "demand.predicted_tasks": counts["demand.predicted_tasks"],
            "datasets.generate_s": secs("datasets.generate"),
            "failed_decision_share": failed_decision_share,
            "trace.overhead_ratio": overhead_ratio,
        }
        return values
