from fractions import Fraction

import numpy as np
import pytest

from helpers import FAMILIES, RANDOM_GRAPHS, dict_operators
from zetawalk import (
    RatMatrix,
    adjacency,
    arc_space,
    coin,
    complete_graph,
    cycle_graph,
    degree_matrix,
    graph_from_edges,
    grover,
    grover_positive_support,
    laplacian,
    petersen_graph,
    positive_support,
    shift,
    transition,
)
from zetawalk import operators, polynomials

# operator name -> its one definition, the private builder of its integer record
RECORDS = {
    "A": lambda g, arcs: operators._adjacency(g, arcs),
    "D": lambda g, arcs: operators._degree(g),
    "P": lambda g, arcs: operators._transition(g, arcs),
    "D-A": lambda g, arcs: operators._laplacian(g, arcs),
    "S": lambda g, arcs: operators._shift(arcs),
    "C": lambda g, arcs: operators._coin(g, arcs),
    "U": lambda g, arcs: operators._grover(g, arcs),
    "U+": lambda g, arcs: operators._grover_positive_support(g, arcs),
    "bass": lambda g, arcs: operators._bass_companion(g, arcs),
}
# operator name -> its public RatMatrix builder; the Bass companion has none
PUBLIC = {
    "A": lambda g, arcs: adjacency(g),
    "D": lambda g, arcs: degree_matrix(g),
    "P": lambda g, arcs: transition(g),
    "D-A": lambda g, arcs: laplacian(g),
    "S": lambda g, arcs: shift(arcs),
    "C": coin,
    "U": grover,
    "U+": grover_positive_support,
}


@pytest.mark.parametrize("name", list(RECORDS))
@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_operator_has_one_definition_its_integer_record(graph, name):
    arcs = arc_space(graph)
    record = RECORDS[name](graph, arcs)
    oracle = dict_operators(graph, arcs)[name]
    # L and every (i, j, value) are those of the dict matrix cleared
    cleared = polynomials._cleared(oracle)
    assert (record.scale, record.size) == (cleared.scale, oracle.rows)
    assert record.entries() == cleared.entries()
    arrays = (record.rows, record.cols, record.values, record.states)
    assert all(array.dtype == np.int64 for array in arrays)
    # the RatMatrix view, and the public builder, are the dict matrix entry for entry
    views = [record.matrix()] + ([PUBLIC[name](graph, arcs)] if name in PUBLIC else [])
    for view in views:
        assert view == oracle
        assert list(view.nonzero_items()) == list(oracle.nonzero_items())
        assert all(type(value) is Fraction for _, _, value in view.nonzero_items())


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_record_carries_the_states_it_acts_on(graph):
    arcs = arc_space(graph)
    v = np.arange(graph.num_vertices)
    # rows: half, origin, terminus
    vertices = np.stack([0 * v, v, v])
    arc_states = np.stack([0 * arcs.origins, arcs.origins, arcs.termini])
    halves = np.concatenate([vertices, vertices + [[1], [0], [0]]], axis=1)
    expected = {"S": arc_states, "C": arc_states, "U": arc_states, "U+": arc_states, "bass": halves}
    for name, build in RECORDS.items():
        record = build(graph, arcs)
        assert record.states.dtype == np.int64 and record.states.shape == (3, record.size)
        assert np.array_equal(record.states, expected.get(name, vertices))
    # U+ is read off U's record, on U's states
    u_record = operators._grover(graph, arcs)
    assert operators._positive_support(u_record).states is u_record.states
    # a record made from a bare matrix has none
    assert polynomials._cleared(u_record.matrix()).states is None


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_record_carries_the_cover_of_its_arc_space(graph):
    arcs = arc_space(graph)
    # the tagged families are verified covers; the untagged graphs have none
    assert (arcs.cover is not None) == (graph.family is not None)
    for name, build in RECORDS.items():
        # D is built without the arc space, so it has no cover
        assert build(graph, arcs).cover is (None if name == "D" else arcs.cover)
    # U+ keeps U's cover, and a record made from a bare matrix has none
    u_record = operators._grover(graph, arcs)
    assert operators._positive_support(u_record).cover is u_record.cover
    assert polynomials._cleared(u_record.matrix()).cover is None


def oracle_grover(graph, arcs):
    """Entrywise case table, bypassing the S @ C factorization."""
    entries = []
    origins, termini = arcs.origins.tolist(), arcs.termini.tolist()
    inverses = arcs.inverses.tolist()
    for e in range(arcs.num_arcs):
        for f in range(arcs.num_arcs):
            if termini[f] != origins[e]:
                continue
            value = Fraction(2, graph.degree(termini[f]))
            if f == inverses[e]:
                value -= 1
            if value:
                entries.append((e, f, value))
    return RatMatrix(arcs.num_arcs, arcs.num_arcs, entries)


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_adjacency_is_symmetric_binary_with_zero_diagonal(graph):
    a = adjacency(graph)
    assert a.is_symmetric()
    for i in range(graph.num_vertices):
        assert a[i, i] == 0
    assert all(v == 1 for _, _, v in a.nonzero_items())
    assert a.num_nonzero() == 2 * graph.num_edges


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_transition_rows_sum_to_one_exactly(graph):
    p = transition(graph)
    assert p.row_sums() == [Fraction(1)] * graph.num_vertices


def test_transition_entries_on_cycle_and_complete():
    p4 = transition(cycle_graph(4))
    assert {v for _, _, v in p4.nonzero_items()} == {Fraction(1, 2)}
    pk = transition(complete_graph(4))
    third = Fraction(1, 3)
    for i in range(4):
        for j in range(4):
            assert pk[i, j] == (0 if i == j else third)


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_laplacian_annihilates_constants(graph):
    assert laplacian(graph).row_sums() == [Fraction(0)] * graph.num_vertices


@pytest.mark.parametrize(
    "graph", [g for g in FAMILIES if g.is_regular], ids=lambda g: g.summary()
)
def test_laplacian_is_degree_times_i_minus_p_when_regular(graph):
    deg = Fraction(graph.regular_degree)
    n = graph.num_vertices
    expected = (RatMatrix.identity(n) - transition(graph)) * deg
    assert laplacian(graph) == expected


def test_degree_matrix_is_diagonal():
    d = degree_matrix(graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    assert d[0, 0] == 2 and d[2, 2] == 3 and d[3, 3] == 1
    assert d.num_nonzero() == 4


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_shift_is_a_symmetric_involution(graph):
    arcs = arc_space(graph)
    s = shift(arcs)
    n = arcs.num_arcs
    assert s.is_symmetric()
    assert s @ s == RatMatrix.identity(n)
    assert s.num_nonzero() == n
    for e, back in enumerate(arcs.inverses.tolist()):
        assert s[e, back] == 1


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_rows_written_directly_are_those_of_the_entry_list_build(graph):
    # A, P and S as RatMatrix(rows, cols, entries) built them, converting
    # each entry by Fraction(value) on the way in
    n = graph.num_vertices
    arcs = arc_space(graph)
    arcs_out = [(i, j) for i, neighbors in enumerate(graph.adjacency) for j in neighbors]
    inverses = [(e, f, 1) for e, f in enumerate(arcs.inverses.tolist())]
    pairs = [
        (adjacency(graph), RatMatrix(n, n, [(i, j, 1) for i, j in arcs_out])),
        (
            transition(graph),
            RatMatrix(n, n, [(i, j, Fraction(1, graph.degree(i))) for i, j in arcs_out]),
        ),
        (shift(arcs), RatMatrix(arcs.num_arcs, arcs.num_arcs, inverses)),
    ]
    for new, old in pairs:
        assert new == old
        assert list(new.nonzero_items()) == list(old.nonzero_items())
        assert all(type(value) is Fraction for _, _, value in new.nonzero_items())


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_grover_matches_entrywise_case_table(graph):
    # grover permutes the coin's rows; the product S @ C is the definition
    arcs = arc_space(graph)
    assert grover(graph, arcs) == shift(arcs) @ coin(graph, arcs) == oracle_grover(graph, arcs)


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_grover_is_exactly_orthogonal(graph):
    arcs = arc_space(graph)
    u = grover(graph, arcs)
    assert u.transpose() @ u == RatMatrix.identity(arcs.num_arcs)


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_grover_coin_block_structure(graph):
    arcs = arc_space(graph)
    n = arcs.num_arcs
    c = coin(graph, arcs)
    assert c.is_symmetric()
    assert c @ c == RatMatrix.identity(n)
    # Arcs into u form one block of (2/deg u) J - I, arcs into distinct
    # vertices never couple, and no zero is stored (the diagonal at degree 2).
    termini = arcs.termini.tolist()
    blocks = [
        (e, f, Fraction(2, graph.degree(termini[e])) - (e == f))
        for e in range(n)
        for f in range(n)
        if termini[e] == termini[f]
    ]
    assert list(c.nonzero_items()) == [entry for entry in blocks if entry[2]]


def test_grover_entries_on_complete_graph():
    g = complete_graph(4)
    arcs = arc_space(g)
    u = grover(g, arcs)
    values = {v for _, _, v in u.nonzero_items()}
    assert values == {Fraction(2, 3), Fraction(-1, 3)}
    assert all(s == 1 for s in u.row_sums())


def test_cycle_grover_is_a_permutation_and_equals_its_support():
    for n in range(3, 8):
        g = cycle_graph(n)
        arcs = arc_space(g)
        u = grover(g, arcs)
        assert {v for _, _, v in u.nonzero_items()} == {Fraction(1)}
        assert u.num_nonzero() == arcs.num_arcs
        assert grover_positive_support(g, arcs) == u


def test_positive_support_drops_backtracking_when_degree_at_least_three():
    g = petersen_graph()
    arcs = arc_space(g)
    up = grover_positive_support(g, arcs)
    assert {v for _, _, v in up.nonzero_items()} == {Fraction(1)}
    # row sums equal q = degree - 1: one choice per non-reversing continuation
    assert up.row_sums() == [Fraction(2)] * arcs.num_arcs
    for e, back in enumerate(arcs.inverses.tolist()):
        assert up[e, back] == 0


def test_positive_support_keeps_backtracking_at_a_leaf():
    # Paw graph: the reversal through the leaf has Grover weight 2/1 - 1 = 1.
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    arcs = arc_space(g)
    up = grover_positive_support(g, arcs)
    pairs = list(zip(arcs.origins.tolist(), arcs.termini.tolist()))
    leaf_out = pairs.index((3, 2))
    leaf_in = pairs.index((2, 3))
    assert up[leaf_out, leaf_in] == 1


def test_positive_support_thresholds_strictly_at_zero():
    m = RatMatrix.from_rows(
        [
            [Fraction(1, 3), Fraction(-1, 3)],
            [Fraction(0), Fraction(5)],
        ]
    )
    assert positive_support(m) == RatMatrix.from_rows(
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    )
