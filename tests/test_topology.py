"""Unit tests for NoP topologies and routing."""

import pytest

from repro.errors import HardwareError
from repro.mcm.topology import Topology, _all_pairs_paths, mesh, triangular

#: (rows, cols) shapes the shortest-path tables are checked on; they
#: cover the 3x3 and 6x6 templates plus non-square grids.
_SHAPES = ((3, 3), (6, 6), (2, 5), (4, 4))


class TestGeometry:
    def test_positions_row_major(self):
        topo = mesh(3, 3)
        assert topo.position(0) == (0, 0)
        assert topo.position(5) == (1, 2)
        assert topo.node_at(2, 1) == 7

    def test_out_of_range_rejected(self):
        topo = mesh(2, 2)
        with pytest.raises(HardwareError):
            topo.position(4)
        with pytest.raises(HardwareError):
            topo.node_at(2, 0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(HardwareError):
            Topology(rows=0, cols=3)
        with pytest.raises(HardwareError):
            Topology(rows=2, cols=2, kind="torus")

    def test_mesh_edge_count(self):
        # r*(c-1) + c*(r-1) for a mesh
        assert len(mesh(3, 3).edges()) == 12
        assert len(mesh(6, 6).edges()) == 60

    def test_triangular_adds_diagonals(self):
        assert len(triangular(3, 3).edges()) == 12 + 4

    def test_neighbors(self):
        topo = mesh(3, 3)
        assert topo.neighbors(4) == (1, 3, 5, 7)
        assert topo.neighbors(0) == (1, 3)

    def test_triangular_center_neighbors_include_diagonals(self):
        topo = triangular(3, 3)
        assert 8 in topo.neighbors(4)
        assert 0 in topo.neighbors(4)


class TestRouting:
    def test_self_route_empty(self):
        assert mesh(3, 3).route(2, 2) == ()
        assert mesh(3, 3).hops(2, 2) == 0

    def test_xy_route_goes_x_first(self):
        topo = mesh(3, 3)
        route = topo.route(0, 8)
        assert route == ((0, 1), (1, 2), (2, 5), (5, 8))

    def test_mesh_hops_are_manhattan(self):
        topo = mesh(4, 4)
        for src in range(16):
            for dst in range(16):
                (r1, c1), (r2, c2) = topo.position(src), topo.position(dst)
                assert topo.hops(src, dst) == abs(r1 - r2) + abs(c1 - c2)

    def test_route_links_are_adjacent(self):
        topo = triangular(3, 3)
        for src in range(9):
            for dst in range(9):
                for a, b in topo.route(src, dst):
                    assert b in topo.neighbors(a)

    def test_triangular_shortcut(self):
        # Diagonal gives 0 -> 4 in one hop (mesh needs two).
        assert triangular(3, 3).hops(0, 4) == 1
        assert mesh(3, 3).hops(0, 4) == 2

    def test_triangular_routes_deterministic(self):
        topo = triangular(3, 3)
        assert topo.route(0, 8) == topo.route(0, 8)

    def test_route_connects_endpoints(self):
        topo = triangular(3, 3)
        route = topo.route(2, 6)
        assert route[0][0] == 2 and route[-1][1] == 6


def _hop_distances(topo: Topology) -> list[list[float]]:
    """All-pairs hop counts by Floyd-Warshall, independent of the BFS."""
    n = topo.num_nodes
    dist = [[0.0 if a == b else float("inf") for b in range(n)]
            for a in range(n)]
    for a, b in topo.edges():
        dist[a][b] = dist[b][a] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


class TestShortestPaths:
    @pytest.mark.parametrize("kind", ["mesh", "triangular"])
    @pytest.mark.parametrize("rows,cols", _SHAPES)
    def test_every_hop_is_an_edge_and_paths_are_shortest(
            self, kind, rows, cols):
        topo = Topology(rows=rows, cols=cols, kind=kind)
        edges = {frozenset(edge) for edge in topo.edges()}
        dist = _hop_distances(topo)
        paths = _all_pairs_paths(rows, cols, kind)
        assert len(paths) == topo.num_nodes ** 2
        for (src, dst), path in paths.items():
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path[:-1], path[1:]):
                assert frozenset((a, b)) in edges
            assert len(path) - 1 == dist[src][dst]

    @pytest.mark.parametrize("kind", ["mesh", "triangular"])
    @pytest.mark.parametrize("rows,cols", _SHAPES)
    def test_paths_and_order_match_networkx(self, kind, rows, cols):
        nx = pytest.importorskip("networkx")
        topo = Topology(rows=rows, cols=cols, kind=kind)
        graph = nx.Graph()
        graph.add_nodes_from(range(topo.num_nodes))
        graph.add_edges_from(topo.edges())
        expected = [
            ((src, dst), path)
            for src in range(topo.num_nodes)
            for dst, path in nx.single_source_shortest_path(
                graph, src).items()]
        assert list(_all_pairs_paths(rows, cols, kind).items()) == expected
