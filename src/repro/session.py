"""Reentrant engine sessions: prepare a graph once, run many times.

``repro.run(...)`` pays the full pipeline on every call — dataset load,
symmetrization/weights, vertex-cut partitioning and per-machine CSR
plan construction. For one-shot experiments that is the right shape;
for a serving workload ("answer PPR queries against this graph until
further notice") it is almost all redundant work.

:class:`GraphSession` splits the pipeline at its natural seam:

* ``GraphSession.open(graph, machines=..., ...)`` fixes everything
  *graph-level* — the graph, machine count, partitioner, edge split,
  seed — and lazily caches each derived artifact the first time a run
  needs it: the prepared graph per ``(symmetric, weighted)`` program
  requirement, the partitioned graph (one per *topology*: a variant
  that differs from an already-cut one in weights alone is lent that
  partition re-weighted, :meth:`PartitionedGraph.reweighted`, which
  shares every array but ``eweight``) and the
  :class:`~repro.kernels.csr.CSRPlan` lists per program API
  (one plan per *block* of the partition for the delta engines, a pair
  per machine for GAS; a re-weighted variant holds its donor's, as no
  plan reads a weight).
* ``session.run(algorithm, ...)`` is everything *run-level*: a fresh
  engine constructed against the cached artifacts. Fresh construction
  **is** the reset — new program state, mailboxes, delta arrays,
  :class:`~repro.cluster.stats.RunStats`, exchange plane and channel
  ledgers every time — so N back-to-back ``session.run`` calls are
  bit-identical to N fresh ``repro.run`` calls (the session-equivalence
  matrix test pins this, values + stats + trace streams). The cached
  artifacts are precisely the ones that carry no run-mutable state:
  graphs and partitions are frozen inputs (every array a partition
  holds is read-only), CSR plans hold no scratch.

``repro.run`` itself is now a thin open-run-close wrapper over one
throwaway session, and the serving layer (:mod:`repro.serve`) keeps one
session resident per graph.

The resident graph is *dynamic*: ``session.apply(batch)`` takes a
:class:`~repro.graph.mutation.MutationBatch`, bumps ``graph_version``,
and **patches** the cached artifacts instead of rebuilding them — each
prepared graph variant via the edge-diff layout
(:func:`~repro.graph.mutation.apply_batch` /
:func:`~repro.graph.mutation.symmetrized_patch`), the vertex-cut via
:func:`~repro.partition.dynamic.patch_partition` (kept edges stay on
their machines; added edges go through the same ``_greedy_cut``
cascade a cold cut runs, resumed; the partition is spliced by
:meth:`PartitionedGraph.splice`, not rebuilt; λ reported per
variant), and the CSR plans are rebuilt over the new partition (a delta
plan is O(slots) over the source-ordered local edges). A base graph
several variants share is patched once, and so is each partition: a
re-weighted variant re-weights its donor's spliced partition with its
own patched graph and shares the donor's new plans. Every variant
is validated and patched into locals first and committed together, so
a batch that fails anywhere leaves the session as it was. After a
mutation, ``session.run(..., incremental=True)`` warm-starts delta programs that
opt in (``supports_warm_start``) from the previous fixpoint — reseeding the
tainted/fresh slice and injecting boundary corrections via
:mod:`repro.runtime.warm_start` — and re-converges to the same fixpoint
as a cold run in a fraction of the supersteps
(``tests/integration/test_dynamic_equivalence.py`` pins the matrix; the
``dynamic_stream`` workload of ``BENCHMARK.json`` prices it).

The bookkeeping around a mutation follows the batch, not the graph:
each patch already returns an exact
:class:`~repro.graph.mutation.EdgeDiff`, so the session logs its
O(batch) part per variant (``removed_eids`` and the number of added
edges; the kept ids are the complement) and a warm start composes the
entries since its fixpoint's ``graph_version`` into the
``(removed, inserted)`` edge ids the planner needs
(:func:`~repro.graph.mutation.compose_edge_delta`) — the two graphs are
never compared. Fixpoint records are a small LRU (``_MAX_FIXPOINTS``):
a serving session sees a new program parameterisation per query source
and never runs incrementally, so an unbounded store would only grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.core.transmission import build_lazy_graph
from repro.errors import ConfigError
from repro.graph.digraph import DiGraph
from repro.graph.mutation import (
    EdgeDiff,
    MutationBatch,
    apply_batch,
    compose_edge_delta,
    symmetrized_patch,
)
from repro.obs.records import TRACE_FORMATS, export_trace
from repro.obs.tracer import Tracer
from repro.partition.dynamic import PatchStats, patch_partition
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.partition.partitioned_graph import PartitionedGraph
from repro.powergraph.gas import GASProgram
from repro.runtime.registry import EngineSpec, get_engine
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.runtime.warm_start import (
    WarmStartProgram,
    collect_state,
    plan_warm_start,
)
from repro.utils.rng import derive_seed, make_rng

__all__ = ["GraphSession", "ApplyResult"]

GraphKey = Tuple[bool, bool]  # (requires_symmetric, needs_weights)

#: fixpoint records a session keeps (least recently run evicted first);
#: an evicted program's next incremental run is the documented cold
#: fallback
_MAX_FIXPOINTS = 16


def _runtime_units(kind: str, pgraph) -> List[Any]:
    """What an engine family builds one runtime (and one plan) per:
    blocks of machines for the delta engines, machines for GAS."""
    return pgraph.machines if kind == "gas" else pgraph.blocks


def _same_topology(a: DiGraph, b: DiGraph) -> bool:
    """Equal vertex count and edge lists (weights aside)."""
    return a is b or (
        a.num_vertices == b.num_vertices
        and np.array_equal(a.src, b.src)
        and np.array_equal(a.dst, b.dst)
    )


def _key_name(key: GraphKey) -> str:
    """Readable label for a prepared-graph variant key."""
    base = "symmetric" if key[0] else "directed"
    return base + ("+weights" if key[1] else "")


@dataclass
class ApplyResult:
    """What one :meth:`GraphSession.apply` did, per cached graph variant.

    ``patches`` is keyed by variant label (``"directed"``,
    ``"symmetric"``, …) and holds the partition-layer
    :class:`~repro.partition.dynamic.PatchStats` for every variant that
    had a partitioned graph cached (λ before/after, machines rebuilt).
    Variants never yet partitioned — and
    sessions mutated before their first run — show up with no patch
    entry; they will materialize against the mutated graph lazily.
    """

    graph_version: int
    edges_added: int
    edges_removed: int
    vertices_added: int
    vertices_removed: int
    patches: Dict[str, PatchStats] = field(default_factory=dict)

    @property
    def worst_lambda(self) -> float:
        """Largest post-mutation λ across patched variants (0.0 if none)."""
        if not self.patches:
            return 0.0
        return max(s.lambda_after for s in self.patches.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph_version": self.graph_version,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "vertices_added": self.vertices_added,
            "vertices_removed": self.vertices_removed,
            "worst_lambda": self.worst_lambda,
            "patches": {
                name: stats.to_dict() for name, stats in self.patches.items()
            },
        }


@dataclass
class _StagedPatch:
    """One variant's patched artifacts, held until every variant has
    patched cleanly (``apply`` commits all of them or none)."""

    base: DiGraph
    graph: DiGraph
    base_diff: EdgeDiff
    graph_diff: EdgeDiff
    pgraph: Optional[PartitionedGraph] = None
    stats: Optional[PatchStats] = None
    plans: Dict[Tuple[GraphKey, str], List[Any]] = field(default_factory=dict)


class GraphSession:
    """A resident prepared graph that engines can be run against repeatedly.

    Use :meth:`open` (or the context-manager form) rather than the
    constructor::

        with GraphSession.open("road-usa-mini", machines=48) as session:
            a = session.run("pagerank", tolerance=1e-4)
            b = session.run("sssp", engine="lazy-vertex", source=0)

    Every ``run`` accepts the same knobs as :func:`repro.run` (minus the
    graph-level ones fixed at ``open``), either as keyword arguments or
    as a prebuilt :class:`~repro.runtime.run_config.RunConfig`.
    """

    def __init__(
        self,
        graph: Union[str, DiGraph],
        machines: int = 48,
        partitioner: str = "coordinated",
        split: Optional[EdgeSplitConfig] = None,
        seed: int = 0,
    ) -> None:
        if machines < 1:
            raise ConfigError(f"machines must be >= 1, got {machines}")
        self.graph = graph
        self.machines = machines
        self.partitioner = partitioner
        self.split = split
        self.seed = seed
        #: bumped on every applied mutation batch; serving caches key on it
        self.graph_version = 0
        #: total engine runs served by this session
        self.runs_completed = 0
        self.last_result: Optional[EngineResult] = None
        self.last_apply: Optional[ApplyResult] = None
        # graph-requirement key (requires_symmetric, needs_weights) ->
        # base (as-loaded, mutations replayed) / prepared DiGraph /
        # PartitionedGraph; plan key adds the engine's program API
        # ("delta" | "gas")
        self._bases: Dict[GraphKey, DiGraph] = {}
        self._graphs: Dict[GraphKey, DiGraph] = {}
        self._pgraphs: Dict[GraphKey, Any] = {}
        self._plans: Dict[Tuple[GraphKey, str], List[Any]] = {}
        #: requires_symmetric -> the key of the last partition cut from
        #: scratch at the current ``graph_version``; a variant that
        #: differs from it in weights alone is lent it, re-weighted,
        #: instead of running the partitioner and a build again
        self._cold_cuts: Dict[bool, GraphKey] = {}
        #: re-weighted variant -> the key whose partition it re-weights
        #: (its donor); kept across batches, as ``apply`` re-weights the
        #: donor's patched partition
        self._donors: Dict[GraphKey, GraphKey] = {}
        #: every batch applied, in order — replayed when a variant is
        #: first prepared after mutations
        self._mutation_log: List[MutationBatch] = []
        #: per variant, one ``(graph_version, removed_eids, num_added)``
        #: per applied batch — O(batch) each — from which a warm start
        #: composes the prepared graph's edge delta since its fixpoint
        self._deltas: Dict[GraphKey, List[Tuple[int, np.ndarray, int]]] = {}
        #: program fingerprint -> {graph_version, graph, state}: the
        #: converged fixpoint warm starts re-run from; insertion order is
        #: recency, capped at ``_MAX_FIXPOINTS``
        self._fixpoints: Dict[Any, Dict[str, Any]] = {}
        self._closed = False

    @classmethod
    def open(
        cls,
        graph: Union[str, DiGraph],
        machines: int = 48,
        partitioner: str = "coordinated",
        split: Optional[EdgeSplitConfig] = None,
        seed: int = 0,
    ) -> "GraphSession":
        """Open a session; graph-level choices are fixed for its lifetime."""
        return cls(
            graph, machines=machines, partitioner=partitioner,
            split=split, seed=seed,
        )

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("session is closed")

    def _resolve_base(self, program) -> DiGraph:
        """The program's base graph with every logged mutation replayed.

        With an empty mutation log this is exactly the graph
        ``prepare_graph`` starts from, so first-run behavior (and its
        bit-identity to ``repro.run``) is unchanged.
        """
        from repro.graph.datasets import load_dataset

        if isinstance(self.graph, str):
            g = load_dataset(self.graph, weighted=program.needs_weights)
        else:
            g = self.graph
        for batch in self._mutation_log:
            vbatch = batch if g.weights is not None else batch.without_weights()
            g, _ = apply_batch(g, vbatch)
        return g

    def partitioned(self, program) -> PartitionedGraph:
        """The vertex-cut of the graph variant ``program`` runs against.

        Prepared (symmetrized / weighted per the program's declared
        requirements) and partitioned on first use, then cached; callers
        that construct engines by hand, or only need λ, share it with
        :meth:`run`.
        """
        self._check_open()
        return self._prepared(program)[0]

    def _prepared(self, program) -> Tuple[Any, GraphKey]:
        """The partitioned graph + CSR plans this program runs against."""
        from repro.graph.generators import attach_uniform_weights

        key = (bool(program.requires_symmetric), bool(program.needs_weights))
        if key not in self._graphs:
            base = self._resolve_base(program)
            g = base
            if program.requires_symmetric:
                sym = g.symmetrized()
                sym.name = g.name
                g = sym
            if program.needs_weights and g.weights is None:
                g = attach_uniform_weights(
                    g, seed=derive_seed(self.seed, "weights")
                )
            self._bases[key] = base
            self._graphs[key] = g
        if key not in self._pgraphs:
            g = self._graphs[key]
            donor = self._cold_cuts.get(key[0])
            # equality is checked, not assumed: a dataset may load a
            # different edge list with weights than without
            if donor is not None and _same_topology(
                self._pgraphs[donor].graph, g
            ):
                self._pgraphs[key] = self._pgraphs[donor].reweighted(g)
                self._donors[key] = donor
            else:
                pgraph = build_lazy_graph(
                    g, self.machines,
                    partitioner=self.partitioner, split_config=self.split,
                    seed=self.seed,
                )
                # only a split-free cut is lent: a split one's parallel
                # edges are the splitter's choice, and unlike a
                # partitioner the splitter is not bound to ignore weights
                if pgraph.parallel_eids.size == 0:
                    self._cold_cuts[key[0]] = key
                self._pgraphs[key] = pgraph
        return self._pgraphs[key], key

    @staticmethod
    def _build_plans(kind: str, pgraph) -> List[Any]:
        """One CSR plan per runtime unit of ``kind`` over ``pgraph``.

        The delta engines' unit is a block, GAS's a machine (an in/out
        plan pair). A delta plan is a view of its block's source-ordered
        edges, so plans are never carried across partitions: a carried
        one would keep its superseded partition alive.
        """
        from repro.kernels import CSRPlan
        from repro.powergraph.engine_gas import gas_plans

        return [
            gas_plans(mg) if kind == "gas"
            else CSRPlan(mg.esrc, mg.num_local_vertices, dst=mg.edst)
            for mg in _runtime_units(kind, pgraph)
        ]

    def _plans_for(self, spec: EngineSpec, pgraph, key) -> List[Any]:
        """CSR plans for this engine family's runtime units, built once
        per partition: a re-weighted variant and its donor hold one list
        (delta plans read ``esrc`` / ``edst``, GAS plans those and
        ``eglobal`` / ``eparallel``; none reads a weight)."""
        pkey = (key, spec.program_api)
        if pkey not in self._plans:
            root = self._donors.get(key, key)
            shared = [
                plans for (k, kind), plans in self._plans.items()
                if kind == pkey[1] and self._donors.get(k, k) == root
            ]
            self._plans[pkey] = (
                shared[0] if shared else self._build_plans(pkey[1], pgraph)
            )
        return self._plans[pkey]

    # ------------------------------------------------------------------
    def _stage_graphs(
        self, key: GraphKey, batch: MutationBatch, next_version: int,
        patched: Dict[int, Tuple[DiGraph, EdgeDiff]],
    ) -> _StagedPatch:
        """Patch one cached variant's graphs into a :class:`_StagedPatch`.

        Reads the session, writes nothing: :meth:`apply` stages the
        partitions and commits the staged variants together.
        ``apply_batch`` validates the batch against this variant's base
        — the one validation it gets — once per distinct base:
        ``patched`` maps ``id(old base)`` to its patch.
        """
        sym, _weighted = key
        old_base = self._bases[key]
        if id(old_base) not in patched:
            vbatch = (
                batch if old_base.weights is not None
                else batch.without_weights()
            )
            patched[id(old_base)] = apply_batch(old_base, vbatch)
        new_base, bdiff = patched[id(old_base)]
        old_prep = self._graphs[key]
        synthetic = old_prep.weights is not None and old_base.weights is None

        if sym:
            new_prep, pdiff = symmetrized_patch(old_prep, old_base, new_base)
            if synthetic and pdiff.num_added:
                # both directions of an added pair share one derived
                # weight (symmetrized_patch appends u→v halves then v→u
                # halves); per-version seed keeps replays deterministic
                half = pdiff.num_added // 2
                rng = make_rng(derive_seed(
                    self.seed, f"weights-v{next_version}-{_key_name(key)}"
                ))
                w = rng.uniform(1.0, 10.0, size=half)
                new_prep.weights[pdiff.num_kept:] = np.concatenate([w, w])
        elif synthetic:
            rng = make_rng(derive_seed(
                self.seed, f"weights-v{next_version}-{_key_name(key)}"
            ))
            derived = rng.uniform(1.0, 10.0, size=bdiff.num_added)
            explicit = batch.explicit_weights()
            add_w = np.array(
                [
                    derived[i] if explicit[i] is None else float(explicit[i])
                    for i in range(bdiff.num_added)
                ],
                dtype=np.float64,
            )
            new_prep = DiGraph(
                new_base.num_vertices, new_base.src, new_base.dst,
                np.concatenate([old_prep.weights[bdiff.kept_eids], add_w]),
                name=old_prep.name,
            )
            new_prep._carry_degrees(
                old_prep, bdiff.removed_eids, bdiff.added_src,
                bdiff.added_dst,
            )
            pdiff = bdiff
        else:
            # prepared graph IS the base (weighted input, or no weights
            # needed) — nothing to overlay
            new_prep = new_base
            pdiff = bdiff

        return _StagedPatch(new_base, new_prep, bdiff, pdiff)

    def _stage_partitions(self, staged: Dict[GraphKey, _StagedPatch]) -> None:
        """Patch each cached partition once into ``staged``.

        A cut of its own is spliced by ``patch_partition``; a
        re-weighted variant re-weights its donor's splice with its own
        patched graph and reports the donor's stats. Plans are rebuilt
        once per partition and runtime kind, and shared as they were.
        """
        for key in staged:
            if key in self._pgraphs and key not in self._donors:
                patch = staged[key]
                patch.pgraph, patch.stats = patch_partition(
                    self._pgraphs[key], patch.graph, patch.graph_diff
                )
        for key, donor in self._donors.items():
            patch = staged[key]
            patch.pgraph = staged[donor].pgraph.reweighted(patch.graph)
            patch.stats = staged[donor].stats
        rebuilt: Dict[Tuple[GraphKey, str], List[Any]] = {}
        for key, kind in self._plans:
            root = (self._donors.get(key, key), kind)
            if root not in rebuilt:
                rebuilt[root] = self._build_plans(kind, staged[key].pgraph)
            staged[key].plans[(key, kind)] = rebuilt[root]

    def apply(self, batch: MutationBatch) -> ApplyResult:
        """Apply one mutation batch to the resident graph.

        Bumps :attr:`graph_version` and incrementally patches every
        cached artifact — base and prepared graphs keep their edge-id
        layout (kept edges first, then additions), the vertex-cut
        carries every surviving edge's assignment and only places the
        new edges, and CSR plans are rebuilt over the new partition —
        each once per base graph, partition and plan list, however many
        variants share it.
        Fixpoint records from earlier runs survive, and each variant's
        edge diff is logged, which is what makes a subsequent ``run(...,
        incremental=True)`` a warm start rather than a cold one.

        Raises :class:`~repro.errors.ConfigError` for sessions opened
        with an edge ``split`` (the splitter ranks edges against
        whole-graph degree percentiles and a budget, and a patch carries
        no assignment for parallel edges) and
        :class:`~repro.errors.GraphError` when the batch does not fit
        the graph. Every variant is validated and patched before any is
        committed: on error — from validation or from a patch — the
        session is unchanged.
        """
        self._check_open()
        if not isinstance(batch, MutationBatch):
            raise ConfigError(
                f"apply() takes a MutationBatch, got {type(batch).__name__}"
            )
        if self.split is not None:
            raise ConfigError(
                "dynamic mutation does not support sessions opened with "
                "split= (the splitter ranks edges against whole-graph "
                "degrees and a budget, and a patch has no assignment for "
                "parallel edges); open the session without an edge split"
            )
        # validate and patch every cached variant into locals before
        # touching anything, so neither a bad batch nor a failing patch
        # can leave variants at different versions
        next_version = self.graph_version + 1
        patched: Dict[int, Tuple[DiGraph, EdgeDiff]] = {}
        staged = {
            key: self._stage_graphs(key, batch, next_version, patched)
            for key in sorted(self._graphs)
        }
        self._stage_partitions(staged)

        patches: Dict[str, PatchStats] = {}
        edges_added = batch.num_added_edges
        edges_removed = 0
        # sorted keys put directed variants first: the reported
        # structural counts come from a directed base when one is cached
        for i, (key, patch) in enumerate(staged.items()):
            if i == 0:
                edges_added = patch.base_diff.num_added
                edges_removed = patch.base_diff.num_removed
            self._bases[key] = patch.base
            self._graphs[key] = patch.graph
            self._deltas.setdefault(key, []).append((
                next_version,
                patch.graph_diff.removed_eids,
                patch.graph_diff.num_added,
            ))
            if patch.pgraph is not None:
                self._pgraphs[key] = patch.pgraph
                self._plans.update(patch.plans)
                patches[_key_name(key)] = patch.stats

        # a variant first prepared after this batch is cut from scratch:
        # a patched partition is not what a cold cut of its graph gives
        self._cold_cuts.clear()
        self._mutation_log.append(batch)
        self.graph_version = next_version
        self.last_result = None
        result = ApplyResult(
            graph_version=next_version,
            edges_added=edges_added,
            edges_removed=edges_removed,
            vertices_added=batch.num_added_vertices,
            vertices_removed=batch.num_removed_vertices,
            patches=patches,
        )
        self.last_apply = result
        return result

    def artifact_stats(self) -> Dict[str, Any]:
        """Cached-artifact census for the service telemetry plane."""
        return {
            "graph_version": self.graph_version,
            "runs_completed": self.runs_completed,
            "prepared_graphs": len(self._graphs),
            "partitioned_graphs": len(self._pgraphs),
            "plans": len(self._plans),
            "machines": self.machines,
            "mutations_applied": len(self._mutation_log),
            "fixpoints": len(self._fixpoints),
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: Union[str, DeltaProgram, GASProgram],
        config: Optional[RunConfig] = None,
        **overrides: Any,
    ) -> EngineResult:
        """Run one algorithm against the resident graph.

        ``algorithm`` is a program name or instance, exactly as in
        :func:`repro.run`. Run-level knobs come from ``config`` and/or
        keyword ``overrides`` (overrides win; unknown keywords are
        algorithm parameters). Each call constructs a fresh engine over
        the cached graph artifacts, so results are bit-identical to a
        fresh ``repro.run`` with the same arguments.
        """
        self._check_open()
        if config is None:
            config = RunConfig.from_kwargs(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        # validation order mirrors the historical run(): trace format
        # first, then engine lookup, then program checks
        if config.trace_format not in TRACE_FORMATS:
            raise ConfigError(
                f"unknown trace format {config.trace_format!r}; known: "
                f"{', '.join(TRACE_FORMATS)}"
            )
        spec = get_engine(config.engine)
        if isinstance(algorithm, (DeltaProgram, GASProgram)):
            if config.params:
                raise ConfigError(
                    "algorithm_params only apply when algorithm is given "
                    "by name"
                )
            wanted = GASProgram if spec.program_api == "gas" else DeltaProgram
            if not isinstance(algorithm, wanted):
                raise ConfigError(
                    f"engine {config.engine!r} takes a {wanted.__name__}, "
                    f"got {type(algorithm).__name__} {algorithm.name!r}"
                )
            program = algorithm
        else:
            program = spec.make_program(algorithm, **config.params)

        if config.incremental:
            if spec.program_api != "delta" or not isinstance(
                program, DeltaProgram
            ):
                raise ConfigError(
                    "incremental=True requires a delta-engine run "
                    f"(engine {config.engine!r} is {spec.program_api!r})"
                )
            if not getattr(program, "supports_warm_start", False):
                raise ConfigError(
                    f"algorithm {program.name!r} does not support "
                    f"incremental runs (supports_warm_start=False)"
                )

        pgraph, key = self._prepared(program)
        if (spec.family == "eager" and pgraph.parallel_eids.size
                and not program.algebra.idempotent):
            # every placed copy of a parallel edge scatters, so each
            # message arrives once per copy: harmless only for min/max
            raise ConfigError(
                f"engine {config.engine!r} cannot run {program.name!r} on a "
                f"split partition: its {program.algebra.name!r} ⊕ is not "
                f"idempotent and each parallel edge scatters once per copy; "
                f"drop split= or use a lazy engine"
            )
        plans = self._plans_for(spec, pgraph, key)

        # fixpoint bookkeeping: delta programs that opt into warm starts
        # get their converged state recorded so a later incremental run
        # (after apply()) can re-converge from the mutation frontier
        fingerprint = None
        if (
            spec.program_api == "delta"
            and isinstance(program, DeltaProgram)
            and getattr(program, "supports_warm_start", False)
            and pgraph.parallel_eids.size == 0
        ):
            fingerprint = self._fingerprint(program, key)

        warm: Optional[WarmStartProgram] = None
        record = None
        if config.incremental and fingerprint is not None:
            record = self._fixpoints.get(fingerprint)
            if record is not None:
                warm = plan_warm_start(
                    program, record["graph"], self._graphs[key],
                    record["state"], *self._edge_delta_since(key, record),
                    partition=pgraph, plans=plans,
                )

        tracer = config.tracer
        if tracer is None and config.trace_out is not None:
            tracer = Tracer()
        kwargs = config.engine_kwargs(spec, tracer=tracer)
        kwargs["plans"] = plans

        self.reset()
        engine = spec.cls(pgraph, warm if warm is not None else program,
                          **kwargs)
        result = engine.run()
        if fingerprint is not None:
            self._fixpoints.pop(fingerprint, None)  # re-insert as newest
            self._fixpoints[fingerprint] = {
                "graph_version": self.graph_version,
                "graph": self._graphs[key],
                "state": collect_state(pgraph, engine.runtimes),
            }
            if len(self._fixpoints) > _MAX_FIXPOINTS:
                del self._fixpoints[next(iter(self._fixpoints))]
        if config.incremental:
            # annotated only on incremental requests so non-incremental
            # runs stay bit-identical to repro.run (stats included)
            result.stats.extra["warm_start"] = 1 if warm is not None else 0
            if warm is not None:
                result.stats.extra["warm_reseeded"] = warm.num_reseeded
                result.stats.extra["warm_injections"] = warm.num_injections
                result.stats.extra["warm_from_version"] = (
                    record["graph_version"]
                )
        if config.trace_out is not None and result.trace is not None:
            export_trace(result.trace, config.trace_out, config.trace_format)
        self.runs_completed += 1
        self.last_result = result
        return result

    def _edge_delta_since(
        self, key: GraphKey, record: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(removed, inserted)`` edge ids between a fixpoint record's
        graph and the variant's current one, from the logged patches."""
        return compose_edge_delta(
            record["graph"].num_edges,
            [
                (removed_eids, num_added)
                for version, removed_eids, num_added in self._deltas.get(key, ())
                if version > record["graph_version"]
            ],
        )

    def _fingerprint(self, program, key: GraphKey) -> Any:
        """Hashable identity of a program's parameterization.

        Two program instances with the same class-declared name and the
        same instance attributes (arrays compared by content) share a
        fixpoint slot; a warm-start wrapper fingerprints as its base.
        """
        base = program.base if isinstance(program, WarmStartProgram) \
            else program
        parts = []
        for attr, value in sorted(vars(base).items()):
            if isinstance(value, np.ndarray):
                parts.append((attr, tuple(value.tolist())))
            elif isinstance(value, (bool, int, float, str, type(None))):
                parts.append((attr, value))
            elif isinstance(value, (list, tuple)):
                parts.append((attr, tuple(value)))
            else:
                parts.append((attr, repr(value)))
        return (key, base.name, tuple(parts))

    def reset(self) -> None:
        """Drop per-run state, keep the cached graph artifacts.

        Called implicitly at the start of every :meth:`run`; the heavy
        lifting is structural — engines are constructed fresh per run,
        so there is no run state *to* leak between runs. What remains is
        releasing the previous run's result reference.
        """
        self._check_open()
        self.last_result = None

    def close(self) -> None:
        """Release the cached artifacts (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._bases.clear()
        self._graphs.clear()
        self._pgraphs.clear()
        self._plans.clear()
        self._cold_cuts.clear()
        self._donors.clear()
        self._deltas.clear()
        self._fixpoints.clear()
        self.last_result = None
        self.last_apply = None

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        gname = self.graph if isinstance(self.graph, str) else self.graph.name
        state = "closed" if self._closed else "open"
        return (
            f"GraphSession({gname!r}, machines={self.machines}, "
            f"partitioner={self.partitioner!r}, runs={self.runs_completed}, "
            f"{state})"
        )
