"""Exact-placement pins for the greedy vertex-cut partitioners.

The other partitioner tests check determinism, range and balance; none
fixes *which* machine an edge lands on. Golden numbers, the committed
``results/`` figures and the benchmark's modeled metrics all sit
downstream of the placement, so any rewrite of the greedy loop must keep
these SHA-256 digests of the ``int32`` assignment array byte for byte.
(``test_build_pins.py`` does the same for what
``PartitionedGraph.build`` derives from a placement.)

``BRANCH_PINS`` covers the branches the streamed integer-key loop has
and the loop before it did not: the candidate-table / bit-scan boundary,
machine-word and big-int masks, every machine full, self-loops and
repeated edges, and graphs many chunks long. Its digests were
recorded by running the **previous** loop (commit ``55fd395``, kept as
``tests/greedy_cut_oracle.py``), never the one under test.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.oblivious_cut import oblivious_cut

SEED = 5


def _multigraph():
    """Self-loops and repeated ``(src, dst)`` pairs (the generators strip both)."""
    ends = np.random.default_rng(11).integers(0, 60, size=(2, 4000))
    assert (ends[0] == ends[1]).any()
    assert np.unique(ends[0] * 60 + ends[1]).size < 4000
    return DiGraph(60, ends[0], ends[1])


GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(2000, 12000, seed=3),
    "road": lambda: road_grid_graph(40, 40, seed=3),
    # fewer edges than loaders at 48 machines: most oblivious chunks are empty
    "tiny": lambda: road_grid_graph(3, 3, seed=3),
    "multi": _multigraph,
    # many chunks of the streamed loop, the last one partial
    "long": lambda: powerlaw_graph(9000, 75000, seed=3),
}

CUTS = {
    "coordinated": lambda g, p, **kw: coordinated_cut(g, p, seed=SEED, **kw),
    "coordinated-shuffled": lambda g, p, **kw: coordinated_cut(
        g, p, seed=SEED, shuffle_edges=True, **kw
    ),
    "oblivious": lambda g, p, **kw: oblivious_cut(g, p, seed=SEED, **kw),
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

# (graph, machines, cut, balance_slack) -> digest under the previous loop
BRANCH_PINS = {
    ("long", 4, "coordinated", 0.1): "e694fef2d6926f47157fd325c1616142ef2506e273ae66f389073ed0828bf456",
    ("long", 4, "coordinated-shuffled", 0.1): "c488802353da4c044c02a774b57adb232229c11c7014d2d1e27d17e45fed9410",
    ("long", 4, "oblivious", 0.1): "306b076a5267d296fe3083e25cd34f2f89ba1946ab04089b620d36bb64afc38d",
    ("long", 48, "coordinated", 0.1): "c4acb9a7d6a6bc097319745d0b89a4f088b4be168bccc0d3a42b2d2aa19b6e4e",
    ("long", 48, "coordinated-shuffled", 0.1): "a3253270df4a001be8bcff5b4aceb4316d77c5800b4db4826308b6d8580ad6dc",
    ("long", 48, "oblivious", 0.1): "4ad06cde935f46766c1f18408bc77f5f04c9107448477d0b46e35afe9f2b6500",
    ("multi", 4, "coordinated", 0.1): "94291071061026ab2ad9f1da2fe6d8e3f036214568f36c8713bc8806d43988a6",
    ("multi", 4, "coordinated-shuffled", 0.1): "2adb88e72692c5184550f3a5a49adba2b1fca7a06c4bd5caf6e0371e63454dd2",
    ("multi", 4, "oblivious", 0.1): "ef8177a29101670cd803ec87524f7e129d250e238ff2e0dfd4f9f32988b7bc08",
    ("multi", 48, "coordinated", 0.1): "86b9100818d09edb2dd43501bb3cf8f275442d89cd3ad9c37ce96cc40c9bc25c",
    ("multi", 48, "coordinated-shuffled", 0.1): "ff3cf046bcb46787d55c795d46cb5c186fb64fccee8f068dca5f07dfd8649528",
    ("multi", 48, "oblivious", 0.1): "f535669a81bce05eb7098b75d110a6a00ad5ae7568b4e3f531d824958e0acf9b",
    ("powerlaw", 1, "coordinated", 0.1): "51b818abaa59a183561a1b11a1eb24d2da7fb0032236863337321382d9d22563",
    ("powerlaw", 1, "coordinated-shuffled", 0.1): "51b818abaa59a183561a1b11a1eb24d2da7fb0032236863337321382d9d22563",
    ("powerlaw", 1, "oblivious", 0.1): "51b818abaa59a183561a1b11a1eb24d2da7fb0032236863337321382d9d22563",
    ("powerlaw", 12, "coordinated", 0.1): "c13a5866da065a0212d9b406a77d1d69f0063bba5ebb16409b388bbd046c594a",
    ("powerlaw", 12, "coordinated-shuffled", 0.1): "d14f9170662c817a04e6f116750aa04a5002fdd57488fce12749b82aeb2bd839",
    ("powerlaw", 12, "oblivious", 0.1): "daf1d5ae7d86965353325a43bbef28619b1d31fd63b2584eeb10def9db5c45b7",
    ("powerlaw", 13, "coordinated", 0.1): "4bb519801ba80c50b5eb370dc7e590ab1fc65807165278a551b8dc12f38d7bd0",
    ("powerlaw", 13, "coordinated-shuffled", 0.1): "ea5adbcd70d1c2fe5826acaa2fe83a915304c205e351d4287c1d328cee5192ce",
    ("powerlaw", 13, "oblivious", 0.1): "6e77996afe3d1f27e28ed689b77215b68cdc19b1d0b0a816812087eb6740fd48",
    ("powerlaw", 16, "coordinated", 0.1): "216ef824ec0765d60d854a1ee3005f0d4551b3c6bc24fe104acb20f59f9640e4",
    ("powerlaw", 16, "coordinated-shuffled", 0.1): "f0cdcb578cd99ca8201334c083c25dc67693c8a8991b264d8f025f34189f2327",
    ("powerlaw", 16, "oblivious", 0.1): "eb2cee452389987a4d7f70b2a70cfa48100bfa7d7902832d2a4cf0b24cc69f2f",
    ("powerlaw", 17, "coordinated", 0.1): "be23e1a691a7c819cbfd765b51243a1592d0058d1d6c4d18b5e302549ebc2315",
    ("powerlaw", 17, "coordinated-shuffled", 0.1): "f0abf0ec2d46835cb6cd7f1dae4e808355e75b864f6cb4da961aa1d0d757f3c2",
    ("powerlaw", 17, "oblivious", 0.1): "1e1960c833d1041005f9a6f8b32dc1e0cba7fe93503f8b2f2c5908f4ef1c4f8a",
    ("powerlaw", 64, "coordinated", 0.1): "99759c5a54b40126968a4b9b657bada3da874c71308bdf340330b64efb5a91d7",
    ("powerlaw", 64, "coordinated-shuffled", 0.1): "d6f5be1997b1895f1ef5eff5f66f31a4489fa81ec2cb4a94f5b1e917af36607b",
    ("powerlaw", 64, "oblivious", 0.1): "bae8739e374400e9c8a48cce0990732c0e633abcf59690b5915aa47dfcd55a4d",
    ("powerlaw", 65, "coordinated", 0.1): "63b377473a9d44d5e56dd472a1a02b2050d32349dd74c84b9ab4edd8c196ed8c",
    ("powerlaw", 65, "coordinated-shuffled", 0.1): "88aff3842a36b211e6ecbfdc600b15d2d675b52e618cce458df1af500f82ec89",
    ("powerlaw", 65, "oblivious", 0.1): "ec44d73a0c18fce56a39ab1467a6cd94083679661c6e1eaaf2c02b6a6fc0948c",
    ("powerlaw", 100, "coordinated", 0.1): "66f28d7ce5c86df6729e1a591bbb236d89b5ec9135ccb2881742b2f3e112c31e",
    ("powerlaw", 100, "coordinated-shuffled", 0.1): "3cac0b8333589ff19d6a9d2f41ec81f37c92dae0aafa5dc49ea24883a731c39f",
    ("powerlaw", 100, "oblivious", 0.1): "ced408137110f83530b11f4069f4265c63b59173737bd1682e879181fb2556a5",
    ("road", 4, "coordinated", 0.0): "5f74adf76d8a84a46a2a68dc4ff252ba7d6797d529190a59d5447cda3c352d66",
    ("road", 4, "coordinated-shuffled", 0.0): "9266940f1a31fe0aa412c20c02bd60f9ca5b2a0792e57b97181161d36fda1039",
    ("road", 4, "oblivious", 0.0): "fc89a13acb9b4ca77997ea35351fe529fcecab138304c836b370db5e6cfaddc5",
    ("road", 48, "coordinated", 0.0): "7b197b3135542997ab0eb427840a83ffcfb747e01e3c1a5c8b52d5bf3033bce0",
    ("road", 48, "coordinated-shuffled", 0.0): "a9fb6d9910238f5352db9ca94bb8003c6dac55a7a05ada76b660730ff03afbff",
    ("road", 48, "oblivious", 0.0): "da65bceb7daaaab0895a8300c13f09ebe5124a3c6c2f322ef326fafab196d1a1",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("gname,machines,cut", sorted(PINS))
def test_placement_is_pinned(graphs, gname, machines, cut):
    asg = CUTS[cut](graphs[gname], machines)
    assert asg.dtype == np.int32
    assert hashlib.sha256(asg.tobytes()).hexdigest() == PINS[(gname, machines, cut)]


@pytest.mark.parametrize("gname,machines,cut,slack", sorted(BRANCH_PINS))
def test_loop_branches_are_pinned(graphs, gname, machines, cut, slack):
    asg = CUTS[cut](graphs[gname], machines, balance_slack=slack)
    assert asg.dtype == np.int32
    digest = hashlib.sha256(asg.tobytes()).hexdigest()
    assert digest == BRANCH_PINS[(gname, machines, cut, slack)]
