import pytest

from cliquellt import DomainError, EdgeGround, GraphAssignment, support_vertices
from cliquellt.ground import binom


def test_edge_index_round_trip():
    for n in range(2, 9):
        ground = EdgeGround(n)
        assert ground.size == n * (n - 1) // 2
        seen = set()
        for idx, (i, j) in enumerate(ground.edges()):
            assert 1 <= i < j <= n
            assert ground.index(i, j) == idx
            assert ground.edge(idx) == (i, j)
            seen.add((i, j))
        assert len(seen) == ground.size


def test_edge_index_is_lexicographic():
    ground = EdgeGround(4)
    assert [ground.edge(i) for i in range(6)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_index_rejects_bad_pairs():
    ground = EdgeGround(4)
    with pytest.raises(DomainError):
        ground.index(2, 2)
    with pytest.raises(DomainError):
        ground.index(0, 3)
    with pytest.raises(DomainError):
        ground.index(1, 5)


def test_support_vertices():
    ground = EdgeGround(4)
    assert support_vertices(ground, []) == frozenset()
    assert support_vertices(ground, [ground.index(1, 2)]) == {1, 2}
    tri = [ground.index(1, 2), ground.index(1, 3), ground.index(2, 3)]
    assert support_vertices(ground, tri) == {1, 2, 3}


def test_graph_assignment_basics():
    ground = EdgeGround(4)
    g = GraphAssignment.from_edges(ground, [(1, 2), (3, 4)])
    assert g.edge_count() == 2
    assert g[ground.index(1, 2)] == 1
    assert g[ground.index(1, 3)] == 0
    full = GraphAssignment.complete(ground)
    assert full.edge_count() == ground.size
    assert GraphAssignment.empty(ground).edge_count() == 0


def test_adjacency_masks():
    ground = EdgeGround(4)
    g = GraphAssignment.from_edges(ground, [(1, 2), (2, 3), (2, 4)])
    adj = g.adjacency_masks()
    assert adj[2] == (1 << 1) | (1 << 3) | (1 << 4)
    assert adj[1] == (1 << 2)
    # symmetry: j in adj[i] iff i in adj[j]
    for i in range(1, 5):
        for j in range(1, 5):
            assert ((adj[i] >> j) & 1) == ((adj[j] >> i) & 1)


def test_binom():
    assert binom(6, 3) == 20
    assert binom(5, 0) == 1
    assert binom(3, 5) == 0
