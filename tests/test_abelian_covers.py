"""The Fourier route on free abelian covers, against the untagged graph.

gp(n, k) and Petersen = gp(5, 2) are Z_n-covers of a base graph on two
vertices, and every abelian Cayley family is the cover with one fiber. On
such a graph U, U+, P, D - A and the Bass companion go as Fourier blocks.
The same graph without its family tag goes whole, so it is the oracle
here. A spy on `polynomials._fourier_charpolys` records the side and the
size of every matrix that took blocks; a whole matrix has side 1.
"""

import itertools
import json
from collections import deque

import pytest

from zetawalk import (
    DisconnectedGraphError,
    FamilyParameterError,
    arc_space,
    build_family,
    complete_graph,
    cycle_graph,
    generalized_petersen_graph,
    graph_from_edges,
    graph_payload,
    grover_zeta_reciprocal,
    hypercube_graph,
    ihara_reciprocal_bass,
    ihara_reciprocal_edge,
    konno_sato_check,
    load_graph,
    petersen_graph,
    save_graph,
    torus_graph,
)
from zetawalk import graphs, operators, polynomials, zeta
from zetawalk.cli import entrypoint

GP_GRAPHS = [
    generalized_petersen_graph(n, k) for n in range(3, 13) for k in range(1, (n + 1) // 2)
]
# every abelian Cayley graph that tests/test_torus_fourier.py builds
CAYLEY_GRAPHS = (
    [torus_graph(d, n) for d in (1, 2, 3) for n in (3, 4, 5, 6)]
    + [hypercube_graph(d) for d in range(2, 7)]
    + [complete_graph(n) for n in range(3, 10)]
    + [cycle_graph(n) for n in range(3, 9)]
)
# the whole kernel takes about a second or more above these sizes
WHOLE_ARCS = 160
WHOLE_BASS = 250


@pytest.fixture
def block_calls(monkeypatch):
    """(side, size) of every matrix that took the Fourier route of a group
    of side > 1, in call order."""
    calls = []
    route = polynomials._fourier_charpolys

    def spy(tori, primes):
        calls.extend((t.side, len(t.coords) * t.width) for t in tori if t.side > 1)
        return route(tori, primes)

    monkeypatch.setattr(polynomials, "_fourier_charpolys", spy)
    return calls


def _untagged(graph):
    return graph_from_edges(
        graph.num_vertices, graph.edges(), vertex_transitive=graph.claimed_vertex_transitive
    )


def _polynomials(graph):
    """det(I - uU), det(I - uU+), det(I - uP), det(I - u(D - A)) and the Bass
    form, each on the graph's route."""
    arcs = arc_space(graph)
    return [
        grover_zeta_reciprocal(graph),
        ihara_reciprocal_edge(graph),
        *(
            zeta._reciprocal(polynomials._operator(op(graph, arcs)), 0)
            for op in (operators._transition, operators._laplacian)
        ),
        ihara_reciprocal_bass(graph),
    ]


@pytest.mark.parametrize(
    "graph",
    GP_GRAPHS + [g for g in CAYLEY_GRAPHS if 2 * g.num_edges <= WHOLE_ARCS],
    ids=lambda g: g.family,
)
def test_every_polynomial_of_a_cover_is_that_of_its_untagged_copy(graph, block_calls):
    tagged = _polynomials(graph)
    arcs, nu = 2 * graph.num_edges, graph.num_vertices
    side = arc_space(graph).cover[1]
    assert block_calls == [(side, arcs), (side, arcs), (side, nu), (side, nu), (side, 2 * nu)]
    assert tagged == _polynomials(_untagged(graph))
    report = konno_sato_check(graph)
    assert len(block_calls) == 9
    whole = konno_sato_check(_untagged(graph))
    assert len(block_calls) == 9
    assert report.all_hold
    assert (report.regular_degree, report.identities) == (whole.regular_degree, whole.identities)


def _bounds(route):
    """n, ||A||_F^2, rho and the diagonal sum of the matrix A of the route,
    its coefficient bound, and its trace bounds at orders 1, 2, 7 and 12."""
    traces = [polynomials._trace_bound(route, r) for r in (1, 2, 7, 12)]
    return polynomials._norms(route), polynomials._coefficient_bound(route), traces


@pytest.mark.parametrize("graph", GP_GRAPHS + CAYLEY_GRAPHS + [petersen_graph()], ids=lambda g: g.family)
def test_the_bounds_read_from_a_fourier_route_are_those_of_the_whole_matrix(graph):
    # every operator on its own states: the stencil holds each entry of A
    # once per group element, so its sums give A's
    arcs = arc_space(graph)
    matrices = [
        operators.grover(graph, arcs),
        operators.grover_positive_support(graph, arcs),
        operators._transition(graph, arcs),
        operators._laplacian(graph, arcs),
        operators._bass_companion(graph, arcs),
    ]
    for matrix in matrices:
        fourier = polynomials._operator(matrix)
        whole = polynomials._whole(matrix)
        assert (fourier.side > 1, whole.side) == (True, 1)
        rows = [len(route.coords) * route.width for route in (fourier, whole)]
        assert rows == [matrix.rows] * 2
        assert _bounds(fourier) == _bounds(whole)


@pytest.mark.parametrize(
    "graph",
    [g for g in CAYLEY_GRAPHS if 2 * g.num_edges > WHOLE_ARCS and 2 * g.num_vertices <= WHOLE_BASS],
    ids=lambda g: g.family,
)
def test_the_bass_form_of_a_larger_cayley_graph_is_that_of_its_untagged_copy(graph, block_calls):
    # U, U+, P and D - A of these graphs are compared with the whole kernel
    # by tests/test_torus_fourier.py
    assert ihara_reciprocal_bass(graph) == ihara_reciprocal_bass(_untagged(graph))
    assert block_calls == [(arc_space(graph).cover[1], 2 * graph.num_vertices)]


def test_petersen_and_every_bass_companion_take_blocks(block_calls):
    petersen = petersen_graph()
    assert konno_sato_check(petersen).all_hold
    # U and U+ as 5 blocks of 6 x 6, P and D - A as 5 blocks of 2 x 2
    assert block_calls == [(5, 30), (5, 30), (5, 10), (5, 10)]
    block_calls.clear()
    verified = [
        cycle_graph(5),
        torus_graph(2, 4),
        complete_graph(6),
        hypercube_graph(3),
        petersen,
        generalized_petersen_graph(7, 2),
    ]
    assert {graph.family.partition("(")[0] for graph in verified} == set(graphs.FAMILIES)
    for graph in verified:
        ihara_reciprocal_bass(graph)
    assert block_calls == [(5, 10), (4, 32), (6, 12), (2, 16), (5, 20), (7, 28)]


def test_petersen_is_gp_5_2_edge_for_edge():
    petersen, gp = petersen_graph(), generalized_petersen_graph(5, 2)
    assert petersen.adjacency == gp.adjacency
    assert (petersen.family, gp.family) == ("petersen", "gp(5,2)")
    assert arc_space(petersen).cover == arc_space(gp).cover == (1, 5, 2)


@pytest.mark.parametrize(
    "cover", [pytest.param((1, 10, 1), id="Z10"), pytest.param((1, 2, 5), id="Z2-on-5-fibers")]
)
def test_a_wrong_cover_entry_routes_nothing(cover, monkeypatch, block_calls):
    graph = petersen_graph()
    expected, report = _polynomials(graph), konno_sato_check(graph)
    block_calls.clear()
    # the entry passes the size check and the edge comparison: the vertices
    # are a free orbit of its group, the arcs are not, and no operator on
    # the vertices is invariant under it
    monkeypatch.setitem(graphs._COVERS, "petersen", lambda: cover)
    assert arc_space(graph).cover == cover
    assert _polynomials(graph) == expected
    assert konno_sato_check(graph) == report
    assert block_calls == []


@pytest.mark.parametrize(
    "graph, tag",
    [
        pytest.param(generalized_petersen_graph(8, 3), "gp(8,1)", id="gp(8,3)-as-gp(8,1)"),
        pytest.param(generalized_petersen_graph(10, 3), "gp(10,2)", id="gp(10,3)-as-gp(10,2)"),
        pytest.param(torus_graph(2, 4), "gp(8,3)", id="torus(2,4)-as-gp(8,3)"),
        pytest.param(petersen_graph(), "gp(5,1)", id="petersen-as-gp(5,1)"),
        pytest.param(petersen_graph(), "gp(5, 2)", id="petersen-as-gp(5, 2)"),
        pytest.param(generalized_petersen_graph(5, 2), "petersen()", id="gp(5,2)-as-petersen()"),
    ],
)
def test_a_file_tagged_gp_whose_edges_differ_goes_whole(graph, tag, tmp_path, block_calls):
    path = tmp_path / "tagged.json"
    save_graph(graph_from_edges(graph.num_vertices, graph.edges(), family=tag), path)
    tagged = load_graph(path)
    assert arc_space(tagged).cover is None
    assert grover_zeta_reciprocal(tagged) == grover_zeta_reciprocal(graph)
    assert ihara_reciprocal_bass(tagged) == ihara_reciprocal_bass(graph)
    assert konno_sato_check(tagged).identities == konno_sato_check(graph).identities
    # only the graph under its own tag took blocks
    assert [size for _, size in block_calls] == [
        2 * graph.num_edges, 2 * graph.num_vertices, 2 * graph.num_edges, 2 * graph.num_edges,
        graph.num_vertices, graph.num_vertices,
    ]


def _rewired(graph):
    """The graph under its own tag with the first pair of edges (a, b),
    (c, d) swapped to (a, d), (c, b) that keeps it simple and connected:
    one edge moved, every degree kept."""
    edges = set(graph.edges())
    for (a, b), (c, d) in itertools.combinations(sorted(edges), 2):
        moved = {tuple(sorted(pair)) for pair in ((a, d), (c, b))}
        if len({a, b, c, d}) < 4 or moved & edges:
            continue
        try:
            return graph_from_edges(
                graph.num_vertices,
                sorted(edges - {(a, b), (c, d)} | moved),
                family=graph.family,
                vertex_transitive=graph.claimed_vertex_transitive,
            )
        except DisconnectedGraphError:
            continue
    raise AssertionError("no swap keeps the graph connected")


@pytest.mark.parametrize(
    "graph",
    [torus_graph(2, 4), hypercube_graph(4), generalized_petersen_graph(6, 1)],
    ids=lambda g: g.family,
)
def test_a_tagged_graph_with_one_edge_rewired_goes_whole(graph, monkeypatch, block_calls):
    rewired = _rewired(graph)
    assert (rewired.family, rewired.degree_profile) == (graph.family, graph.degree_profile)
    assert rewired.adjacency != graph.adjacency
    untagged = _untagged(rewired)
    # the trust rule compares edge arrays: it builds no graph
    built = []

    def spy(name):
        real = getattr(graphs, name)
        return lambda *args, **kwargs: built.append(name) or real(*args, **kwargs)

    for name in ("build_family", "graph_from_edges"):
        monkeypatch.setattr(graphs, name, spy(name))
    assert arc_space(rewired).cover is None
    assert arc_space(graph).cover is not None
    assert built == []
    assert _polynomials(rewired) == _polynomials(untagged)
    assert konno_sato_check(rewired).identities == konno_sato_check(untagged).identities
    assert block_calls == []
    assert built == []


def test_a_relabelled_gp_with_its_own_tag_goes_whole(block_calls):
    gp = generalized_petersen_graph(7, 2)
    # swap the outer vertex 0 with the inner vertex 7
    swap = {0: 7, 7: 0}
    edges = [(swap.get(i, i), swap.get(j, j)) for i, j in gp.edges()]
    moved = graph_from_edges(14, edges, family="gp(7,2)", vertex_transitive=True)
    assert moved.adjacency != gp.adjacency
    assert arc_space(moved).cover is None
    # the graphs are isomorphic; only gp under its own labels takes blocks
    assert grover_zeta_reciprocal(moved) == grover_zeta_reciprocal(gp)
    assert block_calls == [(7, 42)]


def _maps_0_to(graph, target):
    """Whether an automorphism of the graph maps vertex 0 to target, by
    backtracking over the vertices in breadth-first order from 0: each
    vertex is sent to a neighbor of its parent's image, so that the
    adjacency to every vertex placed so far is kept both ways."""
    adjacency = [set(neighbors) for neighbors in graph.adjacency]
    order, parent = [0], {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                queue.append(w)
    image, used = {}, set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in [target] if i == 0 else sorted(adjacency[image[parent[v]]]):
            if w in used or len(adjacency[w]) != len(adjacency[v]):
                continue
            if all((image[u] in adjacency[w]) == (u in adjacency[v]) for u in image):
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del image[v]
                used.discard(w)
        return False

    return extend(0)


@pytest.mark.parametrize("graph", GP_GRAPHS, ids=lambda g: g.family)
def test_the_vertex_transitive_flag_of_gp_follows_frucht_graver_watkins(graph):
    n = graph.num_vertices // 2
    k = int(graph.family[:-1].split(",")[1])
    formula = k * k % n in (1, n - 1) or (n, k) == (10, 2)
    transitive = all(_maps_0_to(graph, target) for target in range(2 * n))
    assert graph.claimed_vertex_transitive == formula == transitive


@pytest.mark.parametrize(
    "params",
    [
        {"N": 2, "k": 1},
        {"N": 4, "k": 2},
        {"N": 6, "k": 3},
        {"N": 7, "k": 0},
        {"N": 7, "k": -1},
        {"N": 7, "k": 4},
        {"N": 7},
        {"k": 2},
        {"N": 5, "k": 2, "d": 1},
    ],
    ids=str,
)
def test_gp_refuses_bad_parameters(params, capsys):
    with pytest.raises(FamilyParameterError):
        build_family("gp", **params)
    argv = ["gen", "--family", "gp"]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    assert entrypoint(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_only_gp_takes_k(capsys):
    with pytest.raises(FamilyParameterError, match="does not take k"):
        build_family("torus", d=2, N=3, k=1)
    assert entrypoint(["gen", "--family", "gp", "--N", "5", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == graph_payload(generalized_petersen_graph(5, 2))
