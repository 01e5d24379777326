"""Push-style delta vertex programs and their message algebras.

Why an algebra object
---------------------
The paper's correctness argument (§3.5) rests on the user ``Sum`` (⊕)
being a commutative, associative combiner: replicas may then fold the
same message multiset in any order/grouping and agree at coherency
points. :class:`DeltaAlgebra` captures ⊕ together with the two extra
facts the runtime exploits:

* ``inverse`` — when ⊕ has an inverse (sums), the mirrors-to-master
  exchange can send one combined delta and let each replica subtract its
  own contribution (the paper's ``Inverse`` function);
* ``idempotent`` — when ⊕ is idempotent (min/max), re-applying a
  replica's own delta is harmless, so mirrors-to-master needs no
  inverse at all.

Why the engines — not the programs — own the message buffers
------------------------------------------------------------
A program only sees ``(local vertex indices, combined accum)`` in
:meth:`DeltaProgram.apply` and produces per-vertex out-deltas. All
accumulation (``message[v]``), coherency bookkeeping (``deltaMsg[v]``)
and activation scheduling live in the engines, which is exactly the
paper's split between user API functions and runtime graph operators
(§3.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError
from repro.kernels.segment_reduce import scatter_reduce
from repro.partition.partitioned_graph import MachineGraph

__all__ = [
    "DeltaAlgebra",
    "DeltaProgram",
    "SUM_ALGEBRA",
    "MIN_ALGEBRA",
    "MAX_ALGEBRA",
    "EDGE_OPS",
    "checked_edge_transform",
]


@dataclass(frozen=True)
class DeltaAlgebra:
    """A commutative monoid over float64 deltas (the user ``Sum``).

    Attributes
    ----------
    name:
        Human-readable label.
    ufunc:
        The binary combiner as a NumPy ufunc (``np.add``/``np.minimum``…).
        Must be commutative and associative.
    identity:
        ⊕-identity (0 for add, +inf for min, −inf for max).
    inverse_ufunc:
        Ufunc with ``inverse(combine(a, b), b) == a``, or ``None``.
    idempotent:
        ``combine(a, a) == a`` for all a.
    magnitude_fn:
        Optional monoid-appropriate mass measure over a *batch* of
        pending deltas (1-D float64 array → scalar). Used by the
        coherency lens (:mod:`repro.obs.lens`) to quantify how much
        un-exchanged information replicas are sitting on. ``None``
        falls back to counting the entries that differ from the
        identity, which is sound for every monoid (an identity delta
        carries no information).
    """

    name: str
    ufunc: np.ufunc
    identity: float
    inverse_ufunc: Optional[np.ufunc] = None
    idempotent: bool = False
    magnitude_fn: Optional[Callable[[np.ndarray], float]] = None

    def combine(self, a, b):
        """Vectorized ⊕."""
        return self.ufunc(a, b)

    def combine_at(self, buf: np.ndarray, idx: np.ndarray, values) -> None:
        """Scatter-accumulate: ``buf[idx] ⊕= values`` with repeats folded.

        Dispatches to the monoid-specialized kernel layer
        (:mod:`repro.kernels`); bit-identical to ``ufunc.at``.
        """
        scatter_reduce(self, buf, idx, values)

    def inverse(self, total, own):
        """Remove ``own`` from ``total`` (requires an inverse)."""
        if self.inverse_ufunc is None:
            raise AlgorithmError(
                f"algebra {self.name!r} has no inverse; use the idempotent path"
            )
        return self.inverse_ufunc(total, own)

    def magnitude(self, values) -> float:
        """Mass of a batch of pending deltas (0.0 ⇔ empty batch).

        Sum-like algebras measure total absolute delta (how much value
        is still in flight); idempotent min/max algebras count entries
        carrying information (values differing from the identity).
        """
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return 0.0
        if self.magnitude_fn is not None:
            return float(self.magnitude_fn(v))
        return float(np.count_nonzero(v != self.identity))

    @property
    def supports_mirrors_to_master(self) -> bool:
        """m2m delta exchange is sound iff invertible or idempotent."""
        return self.idempotent or self.inverse_ufunc is not None


def _abs_sum(v) -> float:
    return float(np.abs(v).sum())


SUM_ALGEBRA = DeltaAlgebra(
    "sum", np.add, 0.0, inverse_ufunc=np.subtract, idempotent=False,
    magnitude_fn=_abs_sum,
)
MIN_ALGEBRA = DeltaAlgebra("min", np.minimum, np.inf, idempotent=True)
MAX_ALGEBRA = DeltaAlgebra("max", np.maximum, -np.inf, idempotent=True)

#: The ops :meth:`DeltaProgram.edge_transform` may declare, each the
#: binary ufunc that evaluates ``ufunc(delta, operand)`` (``None``:
#: ``identity`` has no operand). The derived
#: :meth:`DeltaProgram.edge_message` and the runtime's fused sweep both
#: evaluate an op through this table.
EDGE_OPS: Dict[str, Optional[np.ufunc]] = {
    "identity": None,
    "add": np.add,
    "divide_source": np.divide,
}


def checked_edge_transform(
    program: "DeltaProgram", mg: MachineGraph
) -> Optional[Tuple[str, object]]:
    """``program.edge_transform(mg)``, checked against :data:`EDGE_OPS`.

    Raises :class:`AlgorithmError` for an unknown op, an op that takes
    an operand given ``None``, and an array operand of the wrong shape
    (``divide_source``: one per local vertex; ``add``: one per local
    edge).
    """
    tf = program.edge_transform(mg)
    if tf is None:
        return None
    op, operand = tf
    if op not in EDGE_OPS:
        raise AlgorithmError(
            f"{program.name}: unknown edge_transform op {op!r} "
            f"(expected one of {tuple(EDGE_OPS)})"
        )
    if EDGE_OPS[op] is None:
        return op, None
    if operand is None:
        raise AlgorithmError(
            f"{program.name}: edge_transform op {op!r} needs an operand, "
            f"got None"
        )
    if op == "divide_source":
        operand = np.asarray(operand)
        if operand.shape != (mg.num_local_vertices,):
            raise AlgorithmError(
                f"{program.name}: divide_source operand must be "
                f"per-source (one per local vertex), got shape "
                f"{operand.shape}"
            )
    elif np.ndim(operand):
        operand = np.asarray(operand)
        if operand.shape != (mg.esrc.size,):
            raise AlgorithmError(
                f"{program.name}: edge_transform operand must be "
                f"per-local-edge, got shape {operand.shape}"
            )
    return op, operand


class DeltaProgram(abc.ABC):
    """A push-style delta vertex program (GatherMsg/Sum/Inverse/Apply/Scatter).

    Subclasses implement :meth:`make_state`, :meth:`initial_scatter`
    and :meth:`apply` with *vectorized* NumPy operations over one
    machine's local arrays, and declare the per-edge transform once:
    :meth:`edge_transform` for one of the :data:`EDGE_OPS`, or an
    :meth:`edge_message` override for any other. The engines drive them
    identically whether coherency is eager or lazy.

    The ``mg`` a hook receives may be a *block*: several consecutive
    machines' local graphs laid back to back
    (:attr:`~repro.partition.partitioned_graph.PartitionedGraph.blocks`).
    Hooks must therefore treat local slots (and local edges)
    independently of one another — elementwise over ``idx`` /
    ``mg.vertices`` / the edge arrays, no reduction across slots — and
    must not rely on ``mg.vertices`` being sorted or free of repeats (a
    vertex replicated on two machines of a block has two slots).

    Class attributes
    ----------------
    name:
        Algorithm name (used in reports).
    algebra:
        The message :class:`DeltaAlgebra` (the user ``Sum``/``Inverse``).
    delta_bytes:
        Wire size of one delta message (for traffic accounting).
    requires_symmetric:
        Program semantics assume an undirected graph (CC, k-core); the
        harness symmetrizes inputs for such programs.
    needs_weights:
        Program reads edge weights (SSSP).
    supports_warm_start:
        The program's fixpoint can seed an incremental re-run after a
        graph mutation (:mod:`repro.runtime.warm_start`). Requires the
        whole algorithm state to live in per-vertex arrays that the
        warm planners understand (monotone value for idempotent
        algebras; value + unfired ``pending`` residual for invertible
        ones). Off by default — opt in per program.
    block_apply:
        :meth:`apply` also takes the *block form*: ``idx`` a bool mask
        over every slot and ``accum`` per slot, the ⊕-identity wherever
        the mask is unset. The runtime passes it when most of a block's
        inbox is ready (:meth:`MachineRuntime.take_ready
        <repro.runtime.machine_runtime.MachineRuntime.take_ready>`).
        Off by default; a subclass that overrides :meth:`apply` must
        declare it again.
    """

    name: str = "abstract"
    algebra: DeltaAlgebra = SUM_ALGEBRA
    delta_bytes: int = 16
    requires_symmetric: bool = False
    needs_weights: bool = False
    supports_warm_start: bool = False
    block_apply: bool = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        """Allocate this machine's algorithm state (paper ``initData``).

        Called once per machine. Must depend only on the machine's local
        view plus global per-vertex facts already on ``mg`` (global
        degrees, replica counts), so that every replica of a vertex
        initializes identically.
        """

    @abc.abstractmethod
    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Initial activation (paper ``initMsg``).

        Returns ``(init_delta, active)``:

        * ``init_delta`` — per-local-vertex out-delta to scatter along
          local out-edges before the first superstep, or ``None`` when
          the initial activation carries no message (vertices then enter
          the first apply with the algebra identity as accum, e.g.
          k-core's bootstrap round);
        * ``active`` — boolean mask over local vertices to activate.
        """

    @abc.abstractmethod
    def apply(
        self,
        mg: MachineGraph,
        state: Dict[str, np.ndarray],
        idx: np.ndarray,
        accum: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Paper ``Apply``: fold ``accum`` into the vertices ``idx``.

        Must update ``state`` in place and return ``(delta_out, fire)``,
        both aligned with ``idx``: ``fire[k]`` says whether vertex
        ``idx[k]`` scatters, and ``delta_out[k]`` is its new out-delta.
        ``delta_out`` is read only where ``fire``; its other entries may
        hold anything (the shared rules in
        :mod:`repro.algorithms.apply_rules` leave them unmasked).
        The update must satisfy the iterative-equation contract: the
        final state depends only on the multiset of accums folded in,
        not on their grouping or order.

        In the block form (``block_apply`` programs only) ``idx`` is a
        bool mask over every slot, ``accum`` and the returned arrays
        are per slot, and ``fire`` must be False wherever ``idx`` is:
        the result must equal the index form over ``flatnonzero(idx)``
        bit for bit, state included.
        """

    def edge_transform(
        self, mg: MachineGraph
    ) -> Optional[Tuple[str, Optional[np.ndarray]]]:
        """Paper ``Scatter``'s per-edge transform, declared as ``(op, operand)``.

        The message an edge deposits at its target is the source's
        out-delta transformed by one op of :data:`EDGE_OPS` against an
        operand that does not change over the run:

        * ``("identity", None)`` — message is the delta unchanged;
        * ``("add", x)`` — ``delta + x`` (scalar or per-local-edge array);
        * ``("divide_source", x)`` — ``delta / x[source]`` with ``x`` a
          per-source array of shape ``(mg.num_local_vertices,)``, indexed
          by the edge's local source slot (PageRank divides by the
          source's global out-degree). Entries of slots without local
          edges are never read.

        The runtime hoists the operand once and fuses the op into the
        sweep (a ``divide_source`` runs once per fired source, before
        its delta is expanded to the source's edges), and
        :meth:`edge_message` derives from it. Return ``None`` (the
        default) only for a transform outside these ops, and override
        :meth:`edge_message` instead.
        """
        return None

    def edge_message(
        self,
        mg: MachineGraph,
        edge_sel: np.ndarray,
        delta_per_edge: np.ndarray,
    ) -> np.ndarray:
        """The messages of the local edges ``edge_sel``, whose sources'
        out-deltas are ``delta_per_edge``.

        Evaluates the :meth:`edge_transform` declaration with the same
        ufunc the runtime's fused sweep uses, so the two agree bit for
        bit. Override it only when :meth:`edge_transform` returns
        ``None``: the runtime then calls it on every scatter.
        """
        tf = checked_edge_transform(self, mg)
        if tf is None:
            raise AlgorithmError(
                f"{self.name}: edge_transform declares no op, so the "
                f"program must override edge_message"
            )
        op, operand = tf
        ufunc = EDGE_OPS[op]
        if ufunc is None:
            return delta_per_edge
        if op == "divide_source":
            operand = operand[mg.esrc[edge_sel]]
        elif np.ndim(operand):
            operand = operand[edge_sel]
        return ufunc(delta_per_edge, operand)

    def initial_messages(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Pre-staged inbox messages folded in at bootstrap (default: none).

        Returns ``None`` (no injections) or ``(idx, accum)``: local
        vertex indices and accum-level values ⊕-folded straight into the
        inbox (``message[idx] ⊕= accum``) before the first superstep, as
        if delivered by edges that already fired. The warm-start adapter
        (:mod:`repro.runtime.warm_start`) uses this to seed correction
        deltas after a graph mutation.

        Injections must be **replica-consistent**: every machine hosting
        a replica of a vertex must inject the same combined value (the
        hook sees only local state, so derive injections from global
        facts). They are deliberately *not* folded into ``deltaMsg`` —
        each replica already holds the value, so forwarding it at a
        coherency point would double-count.
        """
        return None

    # ------------------------------------------------------------------
    def values(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Per-local-vertex result values (default: ``state['vdata']``)."""
        return state["vdata"]

    def validate(self) -> None:
        """Sanity-check the program definition (raises AlgorithmError)."""
        if self.delta_bytes <= 0:
            raise AlgorithmError(f"{self.name}: delta_bytes must be positive")
        if not isinstance(self.algebra, DeltaAlgebra):
            raise AlgorithmError(f"{self.name}: algebra must be a DeltaAlgebra")
        cls = type(self)
        if (cls.edge_transform is DeltaProgram.edge_transform
                and cls.edge_message is DeltaProgram.edge_message):
            raise AlgorithmError(
                f"{self.name}: no per-edge transform; override "
                f"edge_transform, or edge_message for a transform outside "
                f"{tuple(EDGE_OPS)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<DeltaProgram {self.name} algebra={self.algebra.name}>"
