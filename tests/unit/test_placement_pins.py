"""Exact-placement pins for the greedy vertex-cut partitioners.

The other partitioner tests check determinism, range and balance; none
fixes *which* machine an edge lands on. Golden numbers, the committed
``results/`` figures and the benchmark's modeled metrics all sit
downstream of the placement, so any rewrite of the greedy loop must keep
these SHA-256 digests of the ``int32`` assignment array byte for byte.
(``test_build_pins.py`` does the same for what
``PartitionedGraph.build`` derives from a placement.)
"""

import hashlib

import numpy as np
import pytest

from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.oblivious_cut import oblivious_cut

SEED = 5

GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(2000, 12000, seed=3),
    "road": lambda: road_grid_graph(40, 40, seed=3),
    # fewer edges than loaders at 48 machines: most oblivious chunks are empty
    "tiny": lambda: road_grid_graph(3, 3, seed=3),
}

CUTS = {
    "coordinated": lambda g, p: coordinated_cut(g, p, seed=SEED),
    "coordinated-shuffled": lambda g, p: coordinated_cut(
        g, p, seed=SEED, shuffle_edges=True
    ),
    "oblivious": lambda g, p: oblivious_cut(g, p, seed=SEED),
}

PINS = {
    ("powerlaw", 4, "coordinated"): "bde9bfd2daaf0ba11d4587189cb6fec88c159b368bd048b61760a2072a3d66e8",
    ("powerlaw", 4, "coordinated-shuffled"): "df3e00a8f36c94c5c2445d4cf37d3529cb09be0a33d2efd9a7f15ce7bedd14e7",
    ("powerlaw", 4, "oblivious"): "a0619a0a14ccf8947eb59130d96c1efe1b522716db18a823af5c5bfc76f3c422",
    ("powerlaw", 48, "coordinated"): "7658c363be94a3f52df5b9253088104c89db04d48d281f9153ab883e43134a0d",
    ("powerlaw", 48, "coordinated-shuffled"): "e48ce943af4bf8cd0cbb03178877e28e39f93635658437c1d3a6131077374788",
    ("powerlaw", 48, "oblivious"): "f2ce757b097716d86a5a94d5b47b08e24b69c63fe3b9c20bd635a25d13d879f1",
    ("road", 4, "coordinated"): "ee2ea22343980d2c18db1ca6cc8f4f63e45af39f2c1ac2a867bc8163ac1db41a",
    ("road", 4, "coordinated-shuffled"): "aefc96f73c390212a4da52b6f2e2d78b2304e1bc9216bc0a28e29168e28009b2",
    ("road", 4, "oblivious"): "52908334392475aed607f6419c7168898004714d45fd69423b947f38d3f7ddfc",
    ("road", 48, "coordinated"): "961c27c420d4a2c1128e13be03b63f09d4a27cf1d244967899017189d6230581",
    ("road", 48, "coordinated-shuffled"): "d8e569305500808d98722baa8c023ce7bf8e9a46d6c4839eae2740cd65d6da4e",
    ("road", 48, "oblivious"): "25ad5003de2577a1a718ccc0015b42f085b8dcc043fda4c4cef9053f8f4c7c0b",
    ("tiny", 4, "coordinated"): "a28c47fd09cb608371aa2fb26f81f0e24fd7db668dcb849d0924c56ffc9256a9",
    ("tiny", 4, "coordinated-shuffled"): "05a448abcf3920c55b766aabcb290e100c116a152fa9d55288a256ea0d40cfb4",
    ("tiny", 4, "oblivious"): "29e930e779b8e753a56f8aae56f3d11c05f0e7e7feb86a8d4ac8cc231c735132",
    ("tiny", 48, "coordinated"): "666484b22479fdbc5ae783894137bbee6c89815740d936863e33c7791543878d",
    ("tiny", 48, "coordinated-shuffled"): "acb8bad793749205cb76637a16712677bfef9598bffed2bffda233c5d4db19a4",
    ("tiny", 48, "oblivious"): "666484b22479fdbc5ae783894137bbee6c89815740d936863e33c7791543878d",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("gname,machines,cut", sorted(PINS))
def test_placement_is_pinned(graphs, gname, machines, cut):
    asg = CUTS[cut](graphs[gname], machines)
    assert asg.dtype == np.int32
    assert hashlib.sha256(asg.tobytes()).hexdigest() == PINS[(gname, machines, cut)]
