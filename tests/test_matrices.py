from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    FAMILIES,
    RANDOM_GRAPHS,
    dense,
    entrywise_operators,
    integer_form,
    positive_support,
)
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
    shift,
    transition,
)
from zetawalk import operators

# operator name -> its one builder, from the graph and its arc space
BUILDERS = {
    "A": operators._adjacency,
    "D": lambda g, arcs: degree_matrix(g),
    "P": operators._transition,
    "D-A": operators._laplacian,
    "S": lambda g, arcs: shift(arcs),
    "C": coin,
    "U": grover,
    "U+": grover_positive_support,
    "bass": operators._bass_companion,
}
# operator name -> its public form that builds its own arc space
PUBLIC = {"A": adjacency, "P": transition, "D-A": laplacian}


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_operator_has_one_builder_equal_to_the_matrix_of_its_entries(graph, name):
    arcs = arc_space(graph)
    matrix = BUILDERS[name](graph, arcs)
    oracle = entrywise_operators(graph, arcs)[name]
    # L and every entry of L*M are those read off the Fractions of the
    # matrix built by hand from its entries
    assert (matrix.scale, matrix.rows) == (integer_form(oracle)[0], oracle.rows)
    assert integer_form(matrix) == integer_form(oracle)
    arrays = (matrix._i, matrix._j, matrix._a, matrix._states)
    assert all(array.dtype == np.int64 for array in arrays)
    forms = [matrix] + ([PUBLIC[name](graph)] if name in PUBLIC else [])
    for form in forms:
        assert form == oracle
        assert list(form.nonzero_items()) == list(oracle.nonzero_items())
        assert all(type(value) is Fraction for _, _, value in form.nonzero_items())


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_operator_carries_the_states_it_acts_on(graph):
    arcs = arc_space(graph)
    v = np.arange(graph.num_vertices)
    # rows: half, origin, terminus
    vertices = np.stack([0 * v, v, v])
    arc_states = np.stack([0 * arcs.origins, arcs.origins, arcs.termini])
    halves = np.concatenate([vertices, vertices + [[1], [0], [0]]], axis=1)
    expected = {"S": arc_states, "C": arc_states, "U": arc_states, "U+": arc_states, "bass": halves}
    for name, build in BUILDERS.items():
        matrix = build(graph, arcs)
        assert matrix._states.dtype == np.int64 and matrix._states.shape == (3, matrix.rows)
        assert np.array_equal(matrix._states, expected.get(name, vertices))
    # U+ is read off U, on U's states
    u_mat = grover(graph, arcs)
    assert operators._positive_support(u_mat)._states is u_mat._states
    # a matrix built from its entries has none, and equals U all the same
    bare = RatMatrix(u_mat.rows, u_mat.cols, u_mat.nonzero_items())
    assert bare._states is None and bare == u_mat


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_each_operator_carries_the_cover_of_its_arc_space(graph):
    arcs = arc_space(graph)
    # the tagged families are verified covers; the untagged graphs have none
    assert (arcs.cover is not None) == (graph.family is not None)
    for name, build in BUILDERS.items():
        # D is built without the arc space, so it has no cover
        assert build(graph, arcs)._cover is (None if name == "D" else arcs.cover)
    # U+ keeps U's cover, and a matrix built from its entries has none
    u_mat = grover(graph, arcs)
    assert operators._positive_support(u_mat)._cover is u_mat._cover
    assert RatMatrix(u_mat.rows, u_mat.cols, u_mat.nonzero_items())._cover is None


@pytest.mark.parametrize("name", list(BUILDERS))
def test_the_arrays_of_a_builder_are_read_only(name):
    graph = petersen_graph()
    matrix = BUILDERS[name](graph, arc_space(graph))
    for array in (matrix._i, matrix._j, matrix._a, matrix._states):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    # nor are those of a matrix built from its entries
    built = RatMatrix(2, 2, [(0, 1, Fraction(2**70, 3))])
    for array in (built._i, built._j, built._a):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_the_constructor_keeps_the_last_write_drops_zeros_and_stays_exact_past_2_to_the_63():
    big = Fraction(2**70 + 1, 3)
    entries = [(0, 1, 5), (0, 1, Fraction(1, 2)), (1, 2, 7), (1, 2, 0), (0, 0, 0), (1, 0, big)]
    m = RatMatrix(2, 3, entries)
    assert list(m.nonzero_items()) == [(0, 1, Fraction(1, 2)), (1, 0, big)]
    assert (m.num_nonzero(), m.scale) == (2, 6)
    assert (m[0, 0], m[0, 1], m[1, 0], m[1, 2]) == (0, Fraction(1, 2), big, 0)
    # 6 * big = 2^71 + 2 does not fit in int64 and is kept as an exact int
    assert m._a.dtype == object and m._a.tolist() == [3, 2**71 + 2]
    assert m == RatMatrix(2, 3, [(1, 0, big), (0, 1, Fraction(1, 2))])
    assert m != RatMatrix(3, 2, [(1, 0, big), (0, 1, Fraction(1, 2))])
    assert RatMatrix(2, 2, [(0, 0, 1), (0, 0, 0)]) == RatMatrix(2, 2)
    with pytest.raises(ValueError):
        RatMatrix(0, 2)
    with pytest.raises(IndexError):
        RatMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(IndexError):
        m[2, 0]


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
    assert dense(a) == [list(col) for col in zip(*dense(a))]
    for i in range(graph.num_vertices):
        assert a[i, i] == 0
    assert all(v == 1 for _, _, v in a.nonzero_items())
    assert a.num_nonzero() == 2 * graph.num_edges


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_transition_rows_sum_to_one_exactly(graph):
    assert [sum(row) for row in dense(transition(graph))] == [1] * graph.num_vertices


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
    assert [sum(row) for row in dense(laplacian(graph))] == [0] * graph.num_vertices


@pytest.mark.parametrize(
    "graph", [g for g in FAMILIES if g.is_regular], ids=lambda g: g.summary()
)
def test_laplacian_is_degree_times_i_minus_p_when_regular(graph):
    eye = np.identity(graph.num_vertices, dtype=object)
    expected = (eye - np.array(dense(transition(graph)), dtype=object)) * graph.regular_degree
    assert dense(laplacian(graph)) == expected.tolist()


def test_degree_matrix_is_diagonal():
    d = degree_matrix(graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    assert d[0, 0] == 2 and d[2, 2] == 3 and d[3, 3] == 1
    assert d.num_nonzero() == 4


@pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: g.summary())
def test_shift_is_a_symmetric_involution(graph):
    arcs = arc_space(graph)
    s = shift(arcs)
    n = arcs.num_arcs
    assert dense(s) == [list(col) for col in zip(*dense(s))]
    assert s @ s == RatMatrix(n, n, [(e, e, 1) for e in range(n)])
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
    u = np.array(dense(grover(graph, arcs)), dtype=object)
    assert (u.T @ u == np.identity(arcs.num_arcs, dtype=object)).all()


@pytest.mark.parametrize("graph", FAMILIES + RANDOM_GRAPHS, ids=lambda g: g.summary())
def test_grover_coin_block_structure(graph):
    arcs = arc_space(graph)
    n = arcs.num_arcs
    c = coin(graph, arcs)
    assert dense(c) == [list(col) for col in zip(*dense(c))]
    assert c @ c == RatMatrix(n, n, [(e, e, 1) for e in range(n)])
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
    assert all(sum(row) == 1 for row in dense(u))


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
    assert [sum(row) for row in dense(up)] == [2] * arcs.num_arcs
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
    # the paw's U holds -1/3 at its degree-3 vertex, 1 at its leaf, and 0,
    # not stored, on the backtrack through a degree-2 vertex
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    arcs = arc_space(g)
    u = grover(g, arcs)
    back = [(e, f) for e, f in enumerate(arcs.inverses.tolist()) if g.degree(arcs.origins[e]) == 2]
    assert back and all(u[e, f] == 0 for e, f in back)
    assert {Fraction(-1, 3), Fraction(1)} <= {v for _, _, v in u.nonzero_items()}
    support = operators._positive_support(u)
    assert support.scale == 1
    assert support == positive_support(u)
