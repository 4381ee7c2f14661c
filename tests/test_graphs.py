import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetawalk import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    FamilyParameterError,
    GraphFormatError,
    LoopEdgeError,
    arc_space,
    build_family,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    hypercube_graph,
    load_graph,
    petersen_graph,
    save_graph,
    torus_graph,
)
from zetawalk import graphs
from zetawalk.graphs import FAMILIES


def test_triangle_basic_counts():
    g = cycle_graph(3)
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.degree_profile == (2, 2, 2)
    assert g.is_regular
    assert g.regular_degree == 2
    assert g.betti_number == 1


def test_edges_are_sorted_with_small_endpoint_first():
    g = petersen_graph()
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert all(i < j for i, j in edges)


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        graph_from_edges(3, [(0, 0), (0, 1), (1, 2)])


def test_duplicate_edge_rejected_in_both_orientations():
    with pytest.raises(DuplicateEdgeError):
        graph_from_edges(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(DuplicateEdgeError):
        graph_from_edges(3, [(0, 1), (0, 1), (1, 2)])


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphFormatError):
        graph_from_edges(3, [(0, 1), (1, 3)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        graph_from_edges(4, [(0, 1), (2, 3)])


def test_disconnected_graph_is_refused_before_anything_sized_by_its_vertex_count(tmp_path):
    # a file only declares its vertex count: before the connectivity check the
    # loader stores just the vertices that edges touch, at most m + 1 of them
    message = "graph is not connected: reached 2 of 200000 vertices"
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"vertices": 200000, "edges": [[0, 1]]}))
    for build in (lambda: graph_from_edges(200000, [(0, 1)]), lambda: load_graph(path)):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError) as info:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20


@pytest.mark.parametrize("num_vertices", [1, 3])
def test_edgeless_graph_rejected(tmp_path, num_vertices):
    with pytest.raises(GraphFormatError, match="no edges"):
        graph_from_edges(num_vertices, [])
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"vertices": num_vertices, "edges": []}))
    with pytest.raises(GraphFormatError, match="no edges"):
        load_graph(path)


def test_every_family_builds_at_its_smallest_sizes():
    smallest = {
        "cycle": [{"N": 3}],
        "torus": [{"d": 1, "N": 3}, {"d": 2, "N": 3}],
        "complete": [{"N": 3}],
        "petersen": [{}],
        "hypercube": [{"d": 2}],
        "gp": [{"N": 3, "k": 1}],
    }
    assert set(smallest) == set(FAMILIES)
    for tag, sizes in smallest.items():
        for params in sizes:
            g = build_family(tag, **params)
            assert g.num_edges >= g.num_vertices, (tag, params)


def test_tree_is_allowed_at_construction():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.betti_number == 0


def test_family_parameters_validated():
    with pytest.raises(FamilyParameterError):
        cycle_graph(2)
    with pytest.raises(FamilyParameterError):
        torus_graph(0, 3)
    with pytest.raises(FamilyParameterError):
        torus_graph(2, 2)
    with pytest.raises(FamilyParameterError):
        complete_graph(2)
    with pytest.raises(FamilyParameterError):
        hypercube_graph(1)
    with pytest.raises(FamilyParameterError):
        build_family("moebius")


@pytest.mark.parametrize(
    "tag, params",
    [
        ("hypercube", {"d": 10**9}),
        ("torus", {"d": 10**9, "N": 3}),
        ("complete", {"N": 10**9}),
        ("gp", {"N": 10**9, "k": 3}),
        ("cycle", {"N": 10**9}),
    ],
)
def test_a_family_past_the_edge_bound_is_refused_before_any_array(tag, params, monkeypatch):
    # no numpy call can run: an array of the family would fail
    monkeypatch.setattr(graphs, "np", None)
    start = time.perf_counter()
    with pytest.raises(FamilyParameterError, match="more than 1,048,576 edges"):
        build_family(tag, **params)
    assert time.perf_counter() - start < 1


def test_each_family_bounds_its_exact_edge_count(monkeypatch):
    counts = []
    check = graphs._check_edges

    def spy(tag, factor, base, exponent=1):
        counts.append(factor * base**exponent)
        return check(tag, factor, base, exponent)

    monkeypatch.setattr(graphs, "_check_edges", spy)
    for tag, params in [
        ("cycle", (7,)),
        ("torus", (3, 4)),
        ("complete", (6,)),
        ("gp", (7, 2)),
        ("hypercube", (4,)),
        ("petersen", ()),
    ]:
        before = len(counts)
        edges = graphs._EDGES[tag](*params)
        assert counts[before:] == [len(edges)]


def test_the_edge_bound_admits_its_own_count_and_caps_every_power():
    bound = graphs._MAX_EDGES
    graphs._check_edges("cycle", 1, bound)
    # torus(2,724) has 1,048,352 edges and torus(2,725) 1,051,250
    graphs._check_edges("torus(2,724)", 2, 724, 2)
    for factor, base, exponent in [(1, bound + 1, 1), (2, 725, 2), (1, 2, 10**18), (3, 10**400, 10**9)]:
        with pytest.raises(FamilyParameterError):
            graphs._check_edges("family", factor, base, exponent)


def test_family_shapes():
    assert torus_graph(2, 3).num_vertices == 9
    assert torus_graph(2, 3).regular_degree == 4
    assert torus_graph(1, 5).degree_profile == cycle_graph(5).degree_profile
    assert complete_graph(5).num_edges == 10
    assert petersen_graph().num_edges == 15
    assert hypercube_graph(3).num_vertices == 8
    assert hypercube_graph(3).regular_degree == 3


def test_one_dimensional_torus_is_the_cycle():
    assert list(torus_graph(1, 6).edges()) == list(cycle_graph(6).edges())


def test_build_family_dispatch():
    assert build_family("torus", d=2, N=3).family == "torus(2,3)"
    assert build_family("cycle", N=4).family == "cycle(4)"
    assert build_family("complete", N=4).family == "complete(4)"
    assert build_family("petersen").family == "petersen"
    assert build_family("hypercube", d=3).family == "hypercube(3)"
    with pytest.raises(FamilyParameterError, match="requires N"):
        build_family("cycle")
    with pytest.raises(FamilyParameterError, match="does not take N"):
        build_family("petersen", N=5)


def test_families_claim_vertex_transitivity():
    for g in (cycle_graph(4), torus_graph(2, 3), complete_graph(4),
              petersen_graph(), hypercube_graph(3)):
        assert g.claimed_vertex_transitive


def test_arc_space_pairs_inverses():
    g = complete_graph(4)
    arcs = arc_space(g)
    assert arcs.num_arcs == 2 * g.num_edges
    pairs = list(zip(arcs.origins.tolist(), arcs.termini.tolist()))
    inverses = arcs.inverses.tolist()
    for e, (o, t) in enumerate(pairs):
        back = inverses[e]
        assert pairs[back] == (t, o)
        assert inverses[back] == e
        assert back != e


def test_arc_space_is_lexicographically_ordered():
    arcs = arc_space(cycle_graph(4))
    pairs = list(zip(arcs.origins.tolist(), arcs.termini.tolist()))
    assert pairs == sorted(pairs)


def test_json_round_trip(tmp_path):
    g = torus_graph(2, 3)
    path = tmp_path / "t.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded == g
    payload = json.loads(path.read_text())
    assert payload["vertices"] == 9
    assert payload["family"] == "torus(2,3)"
    assert payload["vertex_transitive"] is True
    assert all(i < j for i, j in payload["edges"])


def test_load_rejects_malformed_documents(tmp_path):
    cases = [
        "not json",
        '[1, 2]',
        '{"edges": [[0, 1]]}',
        '{"vertices": "three", "edges": [[0, 1]]}',
        '{"vertices": 3, "edges": [[0, 1, 2]]}',
        '{"vertices": 3, "edges": [[1, 0]]}',
        '{"vertices": 3, "edges": [[0, 1], [1, 2]], "family": 7}',
        '{"vertices": 3, "edges": [[0, 1], [1, 2]], "vertex_transitive": "yes"}',
    ]
    for text in cases:
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(GraphFormatError):
            load_graph(path)


def test_load_rejects_loop_via_schema(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text('{"vertices": 3, "edges": [[0, 0], [0, 1], [1, 2]]}')
    with pytest.raises(LoopEdgeError):
        load_graph(path)


def test_summary_mentions_size_and_regularity():
    text = complete_graph(4).summary()
    assert "4 vertices" in text
    assert "6 edges" in text
    assert "3-regular" in text


@st.composite
def connected_graphs(draw):
    """Random connected simple graph from a spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
        )
    )
    for a, b in extras:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_construction_invariants_on_random_connected_graphs(data):
    n, edges = data
    g = graph_from_edges(n, edges)
    assert g.num_edges == len(edges)
    assert sum(g.degree_profile) == 2 * g.num_edges
    assert g.betti_number == g.num_edges - g.num_vertices + 1
    arcs = arc_space(g)
    assert arcs.num_arcs == 2 * g.num_edges
    inverses = arcs.inverses.tolist()
    assert all(inverses[inverses[e]] == e for e in range(arcs.num_arcs))
