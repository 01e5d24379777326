"""White-box tests for the eager exchange's traffic accounting."""

import numpy as np
import pytest

from repro.algorithms import PageRankDeltaProgram
from repro.graph.digraph import DiGraph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.powergraph.eager_exchange import EagerExchange
from repro.runtime.machine_runtime import MachineRuntime


def make_setup():
    """v=1 spans machines 0,1,2; w=4 spans 0,1; others single-replica.

    Edges: 0→1 (m0), 1→2 (m1), 3→1 (m2), 4→0 (m0), 2→4 (m1).
    """
    g = DiGraph(5, [0, 1, 3, 4, 2], [1, 2, 1, 0, 4])
    asg = np.array([0, 1, 2, 0, 1], dtype=np.int32)
    pg = PartitionedGraph.build(g, asg, 3)
    prog = PageRankDeltaProgram()
    rts = [MachineRuntime(mg, prog) for mg in pg.machines]
    return g, pg, prog, rts, EagerExchange(pg, prog, rts)


def apply_all(ex, rts):
    """What ``SerialBackend.dispatch_work(ex.apply_on)`` does in an engine."""
    return np.concatenate([ex.apply_on(rt) for rt in rts], axis=1)


def set_msg(rts, machine, vertex, value):
    rt = rts[machine]
    idx = int(np.flatnonzero(rt.mg.vertices == vertex)[0])
    rt.msg[idx] = value
    rt.has_msg[idx] = True


class TestCollectTraffic:
    def test_replica_topology(self):
        g, pg, prog, rts, ex = make_setup()
        assert len(pg.replicas_of(1)) == 3
        assert len(pg.replicas_of(4)) == 2

    def test_master_only_message_no_gather_traffic(self):
        g, pg, prog, rts, ex = make_setup()
        master = int(pg.master_of[1])
        set_msg(rts, master, 1, 0.5)
        t = ex.collect()
        assert t.gather_msgs == 0
        # broadcast still informs the other two replicas
        assert t.bcast_msgs == 2
        assert t.total_bytes == 2 * prog.delta_bytes

    def test_mirror_messages_counted_per_mirror(self):
        g, pg, prog, rts, ex = make_setup()
        machines = pg.replicas_of(1).tolist()
        for m in machines:
            set_msg(rts, m, 1, 0.25)
        t = ex.collect()
        assert t.gather_msgs == 2  # two mirrors ship accums
        assert t.bcast_msgs == 2

    def test_unreplicated_vertex_free(self):
        g, pg, prog, rts, ex = make_setup()
        # vertex 2 lives only on machine 1
        set_msg(rts, 1, 2, 0.7)
        t = ex.collect()
        assert t.total_msgs == 0
        assert t.total_bytes == 0.0

    def test_sent_per_machine_attribution(self):
        g, pg, prog, rts, ex = make_setup()
        machines = pg.replicas_of(1).tolist()
        master = int(pg.master_of[1])
        for m in machines:
            set_msg(rts, m, 1, 0.25)
        t = ex.collect()
        # mirrors each sent one accum; the master sent the broadcast
        for m in machines:
            expected = 2 if m == master else 1
            assert t.sent_per_machine[m] == expected, (m, master)

    def test_collect_drains_inboxes(self):
        g, pg, prog, rts, ex = make_setup()
        set_msg(rts, 0, 1, 0.5)
        ex.collect()
        assert all(rt.num_active == 0 for rt in rts)


class TestApplyAll:
    def test_all_replicas_apply_same_accum(self):
        g, pg, prog, rts, ex = make_setup()
        machines = pg.replicas_of(1).tolist()
        for m in machines:
            set_msg(rts, m, 1, 0.25)
        ex.collect()
        apply_all(ex, rts)
        vals = []
        for m in machines:
            rt = rts[m]
            idx = int(np.flatnonzero(rt.mg.vertices == 1)[0])
            vals.append(rt.state["vdata"][idx])
        # 0.15 + 0.85 * (3 * 0.25), identical everywhere
        assert all(v == pytest.approx(0.15 + 0.85 * 0.75) for v in vals)

    def test_anything_pending_flag(self):
        g, pg, prog, rts, ex = make_setup()
        ex.collect()
        assert not ex.anything_pending
        set_msg(rts, 0, 0, 1.0)
        ex.collect()
        assert ex.anything_pending

    def test_work_tuples_reported(self):
        g, pg, prog, rts, ex = make_setup()
        set_msg(rts, 0, 0, 1.0)
        ex.collect()
        edges, applies = apply_all(ex, rts)
        assert edges.shape == applies.shape == (3,)  # one entry per machine
        assert applies.sum() >= 1
