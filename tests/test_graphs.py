import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import FAMILIES as FAMILY_GRAPHS
from helpers import RANDOM_GRAPHS, edge_walk, oracle_graph_from_edges, oracle_load_graph
from hypothesis import HealthCheck, given, settings
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
    generalized_petersen_graph,
    graph_from_edges,
    hypercube_graph,
    load_graph,
    petersen_graph,
    save_graph,
    torus_graph,
)
from zetawalk import ZetawalkError, graphs
from zetawalk.graphs import FAMILIES, Graph, _arc_arrays


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
    "build, args",
    [
        (cycle_graph, (6.0,)),
        (complete_graph, (5.0,)),
        (generalized_petersen_graph, (7.0, 2)),
        (generalized_petersen_graph, (7, 2.0)),
        (hypercube_graph, (3.0,)),
        (cycle_graph, (True,)),
        (hypercube_graph, (True,)),
        (lambda n: build_family("cycle", N=n), (6.0,)),
        (graphs._EDGES["cycle"], (6.0,)),
        (graphs._EDGES["complete"], (5.0,)),
        (graphs._EDGES["gp"], (7.0, 2)),
        (graphs._EDGES["hypercube"], (3.0,)),
    ],
)
def test_every_family_refuses_a_parameter_that_is_not_an_integer(build, args):
    with pytest.raises(FamilyParameterError, match="must be an integer, got"):
        build(*args)


def test_every_family_takes_numpy_integers_as_ints():
    six, two = np.int64(6), np.int64(2)
    assert cycle_graph(six) == cycle_graph(6)
    assert complete_graph(six) == complete_graph(6)
    assert generalized_petersen_graph(six + 1, two) == generalized_petersen_graph(7, 2)
    assert hypercube_graph(two + 1) == hypercube_graph(3)
    assert build_family("cycle", N=six) == cycle_graph(6)
    assert type(cycle_graph(six).num_vertices) is int


@pytest.mark.parametrize("graph", FAMILY_GRAPHS + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_the_edges_read_off_the_arcs_are_those_of_the_neighbor_lists(graph):
    edges = list(graph.edges())
    assert edges == edge_walk(graph)
    assert all(type(i) is int and type(j) is int for i, j in edges)


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


# ids that pass the int64 range, and the ends of that range
HUGE_IDS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30]


@st.composite
def edge_lists(draw):
    """(declared vertex count, edges): a random connected graph in random
    order and orientations, with some edges dropped, looped, repeated or
    given an id out of range, and a declared count that may not match."""
    n = draw(st.integers(min_value=1, max_value=8))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=6))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = draw(st.permutations(edges))
    edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not edges:
            break
        k = draw(st.integers(min_value=0, max_value=len(edges) - 1))
        i, j = edges[k]
        change = draw(st.sampled_from(["drop", "loop", "repeat", "reverse", "outside"]))
        if change == "drop":
            del edges[k]
        elif change == "loop":
            edges.insert(k, (i, i))
        elif change in ("repeat", "reverse"):
            later = draw(st.integers(min_value=k + 1, max_value=len(edges)))
            edges.insert(later, (i, j) if change == "repeat" else (j, i))
        else:
            far = draw(st.sampled_from([-1, n, n + 3] + HUGE_IDS))
            edges[k] = (i, far) if draw(st.booleans()) else (far, j)
    declared = draw(st.sampled_from([n, n, n, max(n - 1, 1), n + 1, 2**63, 10**30]))
    return declared, edges


def _outcome(build, *args):
    """The graph built, or the class and message of the refusal."""
    try:
        return build(*args)
    except ZetawalkError as exc:
        return type(exc), str(exc)


def _same_graph(new, old):
    assert new == old
    if isinstance(new, Graph):
        # the oracle's arcs are read off its neighbor lists
        for ours, theirs in zip(_arc_arrays(new), _arc_arrays(old)):
            assert ours.dtype == np.int64 and not ours.flags.writeable
            assert np.array_equal(ours, theirs)
        assert repr(new) == repr(old)


@given(edge_lists(), st.sampled_from(["list", "generator", "array"]))
@settings(max_examples=300, deadline=None)
def test_array_validation_matches_the_per_edge_oracle(case, form):
    declared, edges = case
    given_edges = edges
    if form == "generator":
        given_edges = iter(edges)
    elif form == "array" and all(-(2**63) <= x < 2**63 for edge in edges for x in edge):
        given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    _same_graph(
        _outcome(graph_from_edges, declared, given_edges),
        _outcome(oracle_graph_from_edges, declared, edges),
    )


# an entry of a graph file that the loader refuses, from a valid [i, j]
ENTRY_CHANGES = [
    lambda i, j: [j, i],
    lambda i, j: [True, j],
    lambda i, j: [i, False],
    lambda i, j: [i, float(j)],
    lambda i, j: [float(i), j],
    lambda i, j: [i],
    lambda i, j: [i, j, j],
    lambda i, j: i,
    lambda i, j: [i, str(j)],
    lambda i, j: None,
]


@st.composite
def graph_documents(draw):
    """A graph file's payload: `edge_lists` written with i <= j, with some
    entries of the wrong type, length or order, and some keys of the wrong
    type."""
    declared, edges = draw(edge_lists())
    entries = [[min(i, j), max(i, j)] for i, j in edges]
    if entries:
        for k in draw(st.sets(st.integers(min_value=0, max_value=len(entries) - 1), max_size=2)):
            entries[k] = draw(st.sampled_from(ENTRY_CHANGES))(*entries[k])
    return {
        "vertices": draw(st.sampled_from([declared] * 6 + [True, float(declared), str(declared)])),
        "edges": entries,
        "family": draw(st.sampled_from([None, None, "custom", 7])),
        "vertex_transitive": draw(st.sampled_from([False, False, True, "yes"])),
    }


@given(graph_documents())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_loading_matches_the_per_entry_oracle(tmp_path, payload):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    _same_graph(_outcome(load_graph, path), _outcome(oracle_load_graph, path))


@pytest.mark.parametrize(
    "tag, params",
    [("cycle", (3,)), ("cycle", (10,)), ("torus", (1, 5)), ("torus", (2, 4)), ("torus", (3, 3)),
     ("complete", (3,)), ("complete", (9,)), ("petersen", ()), ("hypercube", (2,)),
     ("hypercube", (5,)), ("gp", (3, 1)), ("gp", (12, 5))],
)
def test_every_family_and_its_file_build_the_oracle_graph(tmp_path, tag, params):
    builder = FAMILIES[tag][0]
    graph = builder(*params)
    edges = graphs._EDGES[tag](*params)
    assert edges.dtype == np.int64
    oracle = oracle_graph_from_edges(
        graph.num_vertices, edges.tolist(), graph.family, graph.claimed_vertex_transitive
    )
    _same_graph(graph, oracle)
    assert graph.adjacency == oracle.adjacency and graph.degree_profile == oracle.degree_profile
    path = tmp_path / "family.json"
    save_graph(graph, path)
    _same_graph(load_graph(path), oracle_load_graph(path))
    _same_graph(load_graph(path), graph)


def test_the_committed_graph_fixture_loads_to_the_oracle_graph():
    path = Path(__file__).parent / "fixtures" / "operators" / "leafy.json"
    _same_graph(load_graph(path), oracle_load_graph(path))


def test_edges_that_are_not_pairs_are_refused():
    for edges in ([(0, 1), (1, 2, 0)], [(0, 1), (1,)], np.zeros((3, 3), dtype=np.int64)):
        with pytest.raises(GraphFormatError, match="every edge must be an"):
            graph_from_edges(3, edges)


def test_a_long_path_in_scrambled_labels_matches_the_oracle():
    # labels in random order take the connectivity check through many
    # hooking rounds and pointer jumps
    n = 4097
    labels = np.random.default_rng(5).permutation(n)
    path = np.stack([labels[:-1], labels[1:]], axis=1)
    # whole, and without the edge of its last vertex, which is left alone
    for edges in (path, path[:-1]):
        oracle = _outcome(oracle_graph_from_edges, n, edges.tolist())
        _same_graph(_outcome(graph_from_edges, n, edges), oracle)
