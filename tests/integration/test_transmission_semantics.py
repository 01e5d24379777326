"""Fig 6/7 semantics: how information travels in each transmission mode.

The paper's Fig 6 contrasts the propagation latency of the two modes:
with a one-edge 𝑣→𝑢 placed on one machine, a message produced on a
*different* machine must ride one coherency stage to reach the edge's
machine, cross the edge locally, and ride another coherency stage to
reach 𝑢's remote replicas — while parallel-edges deliver on every
machine within the local stage after 𝑣's replicas converge.

We reconstruct that scenario literally and count coherency points until
the information lands.
"""

import numpy as np

from repro.algorithms import ConnectedComponentsProgram
from repro.core.coherency import CoherencyExchanger
from repro.graph.digraph import DiGraph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime


def fig6_setup(parallel: bool):
    """Graph: w→v (m0), v→u (m1), u→x (m2).

    v is replicated on machines 0 and 1; u on machines 1 and 2. A label
    improvement entering at w (machine 0) must reach u's replica on
    machine 2.
    """
    g = DiGraph(4, [0, 1, 2], [1, 2, 3])  # w=0, v=1, u=2, x=3
    assignment = np.array([0, 1, 2], dtype=np.int32)
    par = [1] if parallel else None  # split the v→u edge
    pg = PartitionedGraph.build(g, assignment, 3, parallel_eids=par)
    prog = ConnectedComponentsProgram()
    rts = [MachineRuntime(mg, prog) for mg in pg.machines]
    ex = CoherencyExchanger(pg, prog, rts)
    return g, pg, prog, rts, ex


def u_value_on_machine(pg, rts, machine: int) -> float:
    rt = rts[machine]
    idx = np.flatnonzero(rt.mg.vertices == 2)
    assert idx.size == 1
    return float(rt.state["vdata"][idx[0]])


def run_stages(rts, ex, stages: int):
    """Alternate (local apply+scatter to quiescence) and one exchange."""
    for _ in range(stages):
        # local stage: run to local quiescence
        for _ in range(50):
            worked = False
            for rt in rts:
                idx, accum, _ = rt.take_ready()
                if idx.size:
                    worked = True
                rt.apply_and_scatter(idx, accum, track_delta=True)
            if not worked:
                break
        ex.exchange()
        # coherency point: apply delivered messages
        for rt in rts:
            idx, accum, _ = rt.take_ready()
            rt.apply_and_scatter(idx, accum, track_delta=True)


def u_has_pending(rts, machine: int) -> bool:
    rt = rts[machine]
    idx = np.flatnonzero(rt.mg.vertices == 2)
    return bool(rt.has_msg[idx[0]])


def local_pass(rts):
    """One communication-free Apply+Scatter sweep on every machine."""
    for rt in rts:
        idx, accum, _ = rt.take_ready()
        rt.apply_and_scatter(idx, accum, track_delta=True)


class TestFig6OneEdgeMode:
    def test_remote_replica_needs_two_exchanges(self):
        g, pg, prog, rts, ex = fig6_setup(parallel=False)
        # inject the improvement at w's machine (machine 0): label 0
        # propagates w→v locally there
        rts[0].scatter(
            np.array([np.flatnonzero(rts[0].mg.vertices == 0)[0]]),
            np.array([0.0]),
            track_delta=True,
        )
        local_pass(rts)
        # exchange #1: v's replicas re-converge; the coherency apply
        # crosses the local edge v→u on machine 1 ONLY
        run_stages(rts, ex, stages=1)
        assert u_has_pending(rts, 1)
        assert not u_has_pending(rts, 2)  # machine 2 knows nothing yet
        # local work alone can never inform machine 2 in one-edge mode
        local_pass(rts)
        assert u_value_on_machine(pg, rts, 1) == 0.0
        assert u_value_on_machine(pg, rts, 2) == 2.0  # still own label
        # exchange #2 forwards u's accumulated delta to machine 2
        run_stages(rts, ex, stages=1)
        local_pass(rts)
        assert u_value_on_machine(pg, rts, 2) == 0.0


class TestFig6ParallelEdgesMode:
    def test_every_replica_learns_after_one_exchange(self):
        g, pg, prog, rts, ex = fig6_setup(parallel=True)
        # the parallel v→u exists on every machine holding u (1 and 2),
        # with v replicas created there by dispatch
        assert set(pg.replicas_of(1)) >= set(pg.replicas_of(2))
        rts[0].scatter(
            np.array([np.flatnonzero(rts[0].mg.vertices == 0)[0]]),
            np.array([0.0]),
            track_delta=True,
        )
        local_pass(rts)
        # exchange #1 re-converges v's replicas everywhere; the coherency
        # apply crosses the parallel copies on EVERY machine holding u
        run_stages(rts, ex, stages=1)
        u_machines = pg.replicas_of(2).tolist()
        for m in u_machines:
            assert u_has_pending(rts, m), m  # no second exchange needed
        local_pass(rts)
        for m in u_machines:
            assert u_value_on_machine(pg, rts, m) == 0.0, m

    def test_parallel_message_not_reexchanged(self):
        g, pg, prog, rts, ex = fig6_setup(parallel=True)
        # deliver along the parallel copy on machine 2 only
        rt = rts[2]
        v_local = np.flatnonzero(rt.mg.vertices == 1)
        assert v_local.size == 1
        rt.scatter(v_local, np.array([0.0]), track_delta=True)
        u_local = np.flatnonzero(rt.mg.vertices == 2)[0]
        assert rt.has_msg[u_local]
        assert not rt.has_delta[u_local]  # never enters deltaMsg
