"""The Fourier route for abelian Cayley graphs against the generic kernel.

On torus(d, N), cycle(N), complete(n) and hypercube(d), the Cayley graphs of
Z_N^d, Z_N, Z_n and Z_2^d, and on Petersen, a Z_5-cover, every walk
operator is translation invariant, and its characteristic polynomial mod a
prime p = 1 (mod side) is the product of small Fourier blocks. The same kernel on the whole matrix, the
one block of the trivial group Z_1^0, is the oracle here; a spy on
`polynomials._fourier_charpolys` that counts only groups of side > 1 tells
which route ran.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_trace_powers, product_mod, residue_stack

from zetawalk import (
    RatMatrix,
    ZetawalkError,
    arc_space,
    complete_graph,
    cycle_graph,
    det_i_minus_u,
    generalized_petersen_graph,
    graph_from_edges,
    grover_zeta_reciprocal,
    hypercube_graph,
    ihara_reciprocal_bass,
    ihara_reciprocal_edge,
    konno_sato_check,
    petersen_graph,
    torus_graph,
    trace_powers,
    zeta_series_consistency,
)
from zetawalk import graphs, modular, operators, polynomials, zeta
from zetawalk.operators import grover, grover_positive_support, laplacian, transition
from zetawalk.rational import _integers

ARC_OPERATORS = {
    "U": lambda g: grover(g, arc_space(g)),
    "U+": lambda g: grover_positive_support(g, arc_space(g)),
}
VERTEX_OPERATORS = {"P": transition, "D-A": laplacian}
OPERATORS = {**ARC_OPERATORS, **VERTEX_OPERATORS}
# operator name -> its builder from the graph and its arc space, whose
# matrix carries the states the operator acts on
BUILDERS = {
    "U": grover,
    "U+": grover_positive_support,
    "P": operators._transition,
    "D-A": operators._laplacian,
}

# (d, N) where the generic kernel takes under about a second
ARC_SIZES = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3)]
VERTEX_SIZES = [(d, n) for d in (1, 2, 3) for n in (3, 4, 5, 6)]
# the other abelian Cayley families, every operator at each size
CAYLEY_GRAPHS = (
    [hypercube_graph(d) for d in range(2, 7)]
    + [complete_graph(n) for n in range(3, 10)]
    + [cycle_graph(n) for n in range(3, 9)]
)


@pytest.fixture
def fourier_calls(monkeypatch):
    """The sizes of the matrices that took the Fourier route of a group of
    side > 1, in call order; a whole matrix has side 1."""
    calls = []
    route = polynomials._fourier_charpolys

    def spy(tori, primes):
        calls.extend(len(torus.coords) * torus.width for torus in tori if torus.side > 1)
        return route(tori, primes)

    monkeypatch.setattr(polynomials, "_fourier_charpolys", spy)
    return calls


def _built(graph, name):
    """The named operator of the graph as its builder makes it, with its
    states and its graph's cover."""
    return BUILDERS[name](graph, arc_space(graph))


def _on(matrix, states, cover):
    """The matrix, built again from its entries, on these states and this cover."""
    out = RatMatrix(matrix.rows, matrix.cols, matrix.nonzero_items())
    out._states, out._cover = states, cover
    return out


def _det_on_route(matrix):
    """det(I - uM), M on the route that the matrix's cover and states choose."""
    return zeta._reciprocal(polynomials._operator(matrix), 0)


def _scale_and_coefficients(route):
    """L and the C_k of det(I - uM) = sum_k C_k u^k / L^k, M on the route."""
    return route.scale, polynomials._charpolys([route])[0]


def _assert_every_operator_gives_its_whole_determinant(graph):
    for name, operator in OPERATORS.items():
        assert _det_on_route(_built(graph, name)) == det_i_minus_u(operator(graph))


def _cases(sizes, operators):
    return [
        pytest.param(torus_graph(d, n), name, id=f"torus-{d}-{n}-{name}")
        for d, n in sizes
        for name in operators
    ]


def _cayley_cases():
    return [
        pytest.param(graph, name, id=f"{graph.family}-{name}")
        for graph in CAYLEY_GRAPHS
        for name in (*ARC_OPERATORS, *VERTEX_OPERATORS)
    ]


@pytest.mark.parametrize(
    "graph, name",
    _cases(ARC_SIZES, ARC_OPERATORS) + _cases(VERTEX_SIZES, VERTEX_OPERATORS) + _cayley_cases(),
)
def test_fourier_route_reproduces_the_generic_kernel(graph, name, fourier_calls):
    matrix = _built(graph, name)
    fourier = _scale_and_coefficients(polynomials._operator(matrix))
    assert fourier_calls == [matrix.rows]
    assert fourier == _scale_and_coefficients(polynomials._whole(matrix))
    assert _det_on_route(matrix) == det_i_minus_u(OPERATORS[name](graph))
    assert len(fourier_calls) == 2


def _case_id(graph, case, join):
    """The test id of a case on a graph; torus(2,4), the graph of the first
    of these tests, is not named."""
    return case if graph.family == "torus(2,4)" else f"{case}{join}{graph.family}"


def _relabelled(graph, family):
    return graph_from_edges(graph.num_vertices, graph.edges(), family=family, vertex_transitive=True)


def test_hypercube_tagged_as_a_torus_takes_the_generic_route(fourier_calls):
    # Q4 is isomorphic to torus(2,4), but its vertices are labelled otherwise
    cube = _relabelled(hypercube_graph(4), "torus(2,4)")
    assert cube.adjacency != torus_graph(2, 4).adjacency
    _assert_every_operator_gives_its_whole_determinant(cube)
    assert fourier_calls == []
    # det(I - uU) does not depend on the labelling
    assert grover_zeta_reciprocal(cube) == grover_zeta_reciprocal(torus_graph(2, 4))
    assert len(fourier_calls) == 1


def test_another_cayley_graph_of_the_same_group_takes_the_generic_route(fourier_calls):
    # the circulant C8(1, 2) has the vertex count of torus(1,8) and operators
    # invariant under the same translations, but it is not the tagged graph
    edges = sorted({tuple(sorted((v, (v + j) % 8))) for v in range(8) for j in (1, 2)})
    circulant = graph_from_edges(8, edges, family="torus(1,8)", vertex_transitive=True)
    _assert_every_operator_gives_its_whole_determinant(circulant)
    assert fourier_calls == []


def test_a_relabelled_hypercube_with_its_own_tag_takes_the_generic_route(fourier_calls):
    cube = hypercube_graph(4)
    # v -> 5v mod 16 permutes the vertices, and the edges with them
    relabel = [5 * v % 16 for v in range(16)]
    edges = [(relabel[i], relabel[j]) for i, j in cube.edges()]
    moved = graph_from_edges(16, edges, family="hypercube(4)", vertex_transitive=True)
    assert moved.adjacency != cube.adjacency
    _assert_every_operator_gives_its_whole_determinant(moved)
    assert fourier_calls == []


@pytest.mark.parametrize(
    "graph, family",
    [
        pytest.param(graph, family, id=_case_id(graph, str(family), " on "))
        for graph, family in (
            (torus_graph(2, 4), None),
            (torus_graph(2, 4), "torus(2, 4)"),
            (torus_graph(2, 4), "torus(2,5)"),
            (torus_graph(2, 4), "torus(4,2)"),
            (torus_graph(2, 4), "cycle(16)"),
            (complete_graph(6), "complete(06)"),
            (complete_graph(6), "complete(+6)"),
            (hypercube_graph(4), "hypercube( 4)"),
            (hypercube_graph(4), "hypercube(4"),
            (hypercube_graph(4), "hypercube(4)x"),
            (hypercube_graph(4), "hypercube(4,2)"),
            (hypercube_graph(4), "hypercube()"),
            (cycle_graph(8), "cycle(0_8)"),
            (torus_graph(2, 4), "cycle(8)"),
            (torus_graph(2, 4), "complete(16)"),
            (torus_graph(2, 4), "hypercube(4)"),
            (torus_graph(2, 4), "petersen"),
        )
    ],
)
def test_a_torus_without_its_exact_tag_takes_the_generic_route(graph, family, fourier_calls):
    tagged = _relabelled(graph, family)
    _assert_every_operator_gives_its_whole_determinant(tagged)
    assert fourier_calls == []


@pytest.mark.parametrize(
    "family", ["hypercube(60)", "torus(100000000,3)", "torus(3,2)", "complete(17)", "cycle(-16)"]
)
def test_a_tag_of_another_size_is_refused_before_any_graph_is_built(
    family, monkeypatch, fourier_calls
):
    built = []
    cover_edges = graphs._cover_edges

    def spy(tag, base):
        built.append(tag)
        return cover_edges(tag, base)

    # the graphs are built before the spy, which then sees only arc spaces
    torus = torus_graph(2, 4)
    graph = _relabelled(torus, family)
    monkeypatch.setattr(graphs, "_cover_edges", spy)
    assert arc_space(graph).cover is None
    assert _det_on_route(_built(graph, "P")) == det_i_minus_u(transition(graph))
    assert built == [] and fourier_calls == []
    # the spy does see the family edges of a tag of the right size
    assert arc_space(torus).cover == (2, 4, 1) and built == ["torus(2,4)"]


def test_the_cover_table_names_the_group_of_each_family():
    cases = [
        (torus_graph(3, 4), (3, 4, 1)),
        (cycle_graph(7), (1, 7, 1)),
        (complete_graph(5), (1, 5, 1)),
        (hypercube_graph(3), (3, 2, 1)),
        (petersen_graph(), (1, 5, 2)),
        (generalized_petersen_graph(7, 3), (1, 7, 2)),
    ]
    for graph, cover in cases:
        d, side, fibers = arc_space(graph).cover
        assert (d, side, fibers) == cover
        # element v mod side^d in fiber v div side^d: one fiber on a Cayley graph
        states = operators._vertex_states(graph)
        _, _, element, fiber, _ = polynomials._state_space(d, side, fibers, states)
        divisions = [divmod(v, side**d) for v in range(graph.num_vertices)]
        assert list(zip(fiber.tolist(), element.tolist())) == divisions
    assert {graph.family.partition("(")[0] for graph, _ in cases} == set(graphs.FAMILIES)


def _perturbed(matrix, kind):
    """The matrix with one entry changed: 1/3 added to an entry of row 0 (a
    state at vertex 0, where the stencil is read), to an entry of the last
    row or to a zero of the last row, or an entry of the last row removed."""
    entries = {(i, j): v for i, j, v in matrix.nonzero_items()}
    last = matrix.rows - 1
    if kind == "entry-at-vertex-0":
        place = min(entries)
    elif kind in ("entry", "removed"):
        place = min(ij for ij in entries if ij[0] == last)
    else:
        place = next((last, j) for j in range(matrix.cols) if (last, j) not in entries)
    if kind == "removed":
        del entries[place]
    else:
        entries[place] = entries.get(place, Fraction(0)) + Fraction(1, 3)
    return RatMatrix(matrix.rows, matrix.cols, ((i, j, v) for (i, j), v in entries.items()))


@pytest.mark.parametrize(
    "graph, name, kind",
    [
        pytest.param(graph, name, kind, id=_case_id(graph, f"{name}-{kind}", "-"))
        for graph in (torus_graph(2, 4), hypercube_graph(4), complete_graph(6))
        for name in (*ARC_OPERATORS, *VERTEX_OPERATORS)
        for kind in ("entry-at-vertex-0", "entry", "zero", "removed")
        # D - A on a complete graph has no zero entry to perturb
        if (graph.family, name, kind) != ("complete(6)", "D-A", "zero")
    ],
)
def test_a_torus_operator_with_one_perturbed_entry_takes_the_generic_route(
    graph, name, kind, fourier_calls
):
    original = _built(graph, name)
    matrix = _perturbed(original, kind)
    # the perturbed matrix on the states and the cover of the operator
    perturbed = _on(matrix, original._states, original._cover)
    assert _det_on_route(perturbed) == det_i_minus_u(matrix)
    assert fourier_calls == []
    assert det_i_minus_u(matrix) != det_i_minus_u(original)


def _random_entries(rng, n, density, low, high):
    """Sorted nonzero (i, j, value) of an n x n matrix with values drawn from [low, high)."""
    entries = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                value = rng.randrange(low, high)
                if value:
                    entries.append((i, j, value))
    return entries


@pytest.mark.parametrize(
    "n, density, low, high",
    [
        pytest.param(7, 0.5, -9, 10, id="random"),
        pytest.param(12, 0.9, -(2**40), 2**40, id="dense"),
        pytest.param(5, 0.0, 0, 1, id="empty"),
        pytest.param(6, 0.6, -(2**30), 0, id="negative"),
        pytest.param(6, 0.6, 2**63, 2**70, id="above-2^63"),
        pytest.param(4, 0.7, -(2**80), 2**80, id="wide"),
    ],
)
def test_a_whole_matrix_is_its_own_block_mod_each_prime(n, density, low, high):
    entries = _random_entries(random.Random(f"{n}-{low}"), n, density, low, high)
    primes = [polynomials._prime(i, 1) for i in range(3)]
    whole = polynomials._whole(RatMatrix(n, n, entries))
    blocks = polynomials._fourier_blocks(whole, primes)
    assert blocks.shape == (3, 1, n, n) and blocks.dtype == np.int64
    assert (blocks[:, 0] == residue_stack(n, entries, primes)).all()


def test_a_matrix_without_states_goes_whole_on_a_verified_graph(fourier_calls):
    graph = torus_graph(2, 4)
    u_mat = _built(graph, "U")
    stateless = RatMatrix(u_mat.rows, u_mat.cols, u_mat.nonzero_items())
    assert stateless._states is None and stateless == u_mat
    sides = [polynomials._operator(m).side for m in (stateless, u_mat)]
    assert sides == [1, 4]
    assert _det_on_route(stateless) == _det_on_route(u_mat)
    assert fourier_calls == [64]


def test_a_matrix_with_states_but_no_cover_or_a_cover_but_no_states_goes_whole(fourier_calls):
    graph = torus_graph(2, 4)
    u_mat = _built(graph, "U")
    det = _det_on_route(u_mat)
    assert fourier_calls == [64]
    for partial in (_on(u_mat, u_mat._states, None), _on(u_mat, None, u_mat._cover)):
        assert polynomials._operator(partial).side == 1
        assert _det_on_route(partial) == det
    assert fourier_calls == [64]


def test_callers_that_hold_the_graph_hand_it_down(fourier_calls):
    graph = torus_graph(2, 4)
    u_mat = grover(graph, arc_space(graph))
    assert grover_zeta_reciprocal(graph) == det_i_minus_u(u_mat)
    assert ihara_reciprocal_edge(graph) == det_i_minus_u(grover_positive_support(graph, arc_space(graph)))
    assert zeta_series_consistency(graph, 6).holds
    assert fourier_calls == [64, 64, 64]
    # both left sides on the arcs and P and D - A on the vertices
    assert konno_sato_check(graph).all_hold
    assert fourier_calls[3:] == [64, 64, 16, 16]
    # the Bass companion on the two halves of the vertices
    assert ihara_reciprocal_bass(graph) == ihara_reciprocal_edge(graph)
    assert fourier_calls[7:] == [32, 64]


def test_konno_sato_report_on_a_torus_is_that_of_the_generic_kernel(monkeypatch, fourier_calls):
    graph = torus_graph(2, 5)
    _assert_konno_sato_report_is_that_of_the_generic_kernel(graph, monkeypatch, fourier_calls)


@pytest.mark.parametrize(
    "graph", [hypercube_graph(4), complete_graph(6), cycle_graph(5)], ids=lambda g: g.family
)
def test_konno_sato_report_on_a_cayley_graph_is_that_of_the_generic_kernel(
    graph, monkeypatch, fourier_calls
):
    _assert_konno_sato_report_is_that_of_the_generic_kernel(graph, monkeypatch, fourier_calls)


def _assert_konno_sato_report_is_that_of_the_generic_kernel(graph, monkeypatch, fourier_calls):
    report = konno_sato_check(graph)
    assert len(fourier_calls) == 4
    # no stencil is found, so every matrix goes whole
    monkeypatch.setattr(polynomials, "_torus_stencil", lambda *args: None)
    assert konno_sato_check(graph) == report
    assert len(fourier_calls) == 4


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_primes_one_mod_n_count_down_from_2_to_the_31(n):
    primes = [polynomials._prime(i, n) for i in range(4)]
    assert all(p % n == 1 and p < 2**31 for p in primes)
    assert all(_is_prime_by_trial_division(p) for p in primes)
    # no prime = 1 (mod n) is skipped on the way down
    skipped = range(2**31 - 1, primes[-1] - 1, -1)
    assert [c for c in skipped if c % n == 1 and c in primes] == primes
    assert not any(
        _is_prime_by_trial_division(c) for c in skipped if c % n == 1 and c not in primes
    )


@pytest.mark.parametrize("odd", [1, 3, 5])
def test_an_odd_side_and_its_double_share_one_list_of_primes(odd):
    # every prime is odd, so p = 1 (mod n) and p = 1 (mod 2n) agree for odd n;
    # the trivial group of a whole matrix (n = 1) takes the default odd primes
    primes = [polynomials._prime(i, odd) for i in range(5)]
    assert primes == [polynomials._prime(i, 2 * odd) for i in range(5)]
    assert odd not in polynomials._PRIMES
    assert polynomials._PRIMES[2 * odd][:5] == primes


def test_the_default_primes_are_the_odd_primes_counting_down():
    primes = [polynomials._prime(i) for i in range(3)]
    assert primes[0] == 2**31 - 1
    between = range(2**31 - 1, primes[-1] - 1, -1)
    assert [c for c in between if _is_prime_by_trial_division(c)] == primes


def test_the_primality_test_is_that_of_a_sieve_below_10_to_the_4():
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = [False] * len(range(f * f, limit, f))
    assert [polynomials._is_prime(n) for n in range(limit)] == sieve


def test_a_modulus_with_no_prime_left_below_2_to_the_31_is_refused(monkeypatch):
    # the candidates = 1 (mod 2^28) below 2^31 are 7 * 2^28 + 1, ..., 2^28 + 1,
    # none of them prime; a spy stops the search if it goes past them
    tested = []
    is_prime = polynomials._is_prime

    def guarded(n):
        tested.append(n)
        if len(tested) > 7:
            raise AssertionError(f"the search went on to {n}")
        return is_prime(n)

    monkeypatch.setattr(polynomials, "_is_prime", guarded)
    monkeypatch.setattr(polynomials, "_PRIMES", {})
    with pytest.raises(ZetawalkError, match=r"p = 1 \(mod 268435456\)"):
        polynomials._prime(0, 2**28)
    assert tested == [e * 2**28 + 1 for e in range(7, 0, -1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_the_root_of_unity_has_order_exactly_n(n):
    for i in range(3):
        p = polynomials._prime(i, n)
        omega = polynomials._root_of_unity(n, p)
        powers = [pow(omega, e, p) for e in range(1, n + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1]


@pytest.mark.parametrize(
    "d, n, graph",
    [
        pytest.param(2, 4, torus_graph(2, 4), id="2-4"),
        pytest.param(2, 5, torus_graph(2, 5), id="2-5"),
        pytest.param(3, 3, torus_graph(3, 3), id="3-3"),
        pytest.param(4, 2, hypercube_graph(4), id="hypercube(4)"),
        pytest.param(1, 6, complete_graph(6), id="complete(6)"),
        pytest.param(1, 7, cycle_graph(7), id="cycle(7)"),
        pytest.param(1, 5, petersen_graph(), id="petersen"),
    ],
)
def test_the_fourier_route_takes_primes_one_mod_the_side(d, n, graph, monkeypatch):
    seen = []
    route = polynomials._fourier_charpolys

    def spy(tori, primes):
        if tori[0].side > 1:
            seen.extend(primes[0])
        return route(tori, primes)

    monkeypatch.setattr(polynomials, "_fourier_charpolys", spy)
    _scale_and_coefficients(polynomials._operator(_built(graph, "U")))
    assert seen and all(p % n == 1 for p in seen)
    assert seen == [polynomials._prime(i, n) for i in range(len(seen))]
    assert arc_space(graph).cover[:2] == (d, n)


def _residues(rng, primes, shape, top=False):
    """Random residues mod each prime, one prime per leading row, or p - 1 throughout."""
    p = np.array(primes, dtype=np.int64).reshape((-1,) + (1,) * (len(shape) - 1))
    if top:
        return np.broadcast_to(p - 1, shape).copy()
    return rng.integers(0, 2**62, size=shape, dtype=np.int64) % p


# (rows, length, route): each side of the length switch at 32 coefficients
# and of the 2^16 terms under which short levels stay on the outer product
SWITCH_CASES = [
    (1, 32, "outer"),
    (64, 32, "outer"),
    (1, 33, "outer"),
    (60, 33, "outer"),
    (61, 33, "fft"),
    (1, 256, "outer"),
    (1, 257, "fft"),
    (3, 700, "fft"),
]


@pytest.mark.parametrize("rows, length, route", SWITCH_CASES)
@pytest.mark.parametrize("top", [False, True], ids=["random", "p-1"])
def test_each_product_route_matches_the_schoolbook_oracle(rows, length, route, top, monkeypatch):
    # the primes nearest 2^31 and residues up to p - 1 give the largest sums
    primes = [polynomials._prime(i) for i in range(rows)]
    rng = np.random.default_rng(rows * length)
    polys = _residues(rng, primes, (rows, 2, length), top)
    p = np.array(primes, dtype=np.int64)[:, None]
    taken = []
    for name in ("_outer_mod", "_fft_mod"):
        real = getattr(modular, name)
        monkeypatch.setattr(
            modular, name, lambda a, b, q, name=name, real=real: taken.append(name) or real(a, b, q)
        )
    assert (modular._product_mod(polys, p) == product_mod(polys, p)).all()
    assert taken == [f"_{route}_mod"]


@pytest.mark.parametrize("length", [1, 2, 5, 9, 33])
@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 7, 16, 33])
def test_the_product_tree_matches_the_schoolbook_oracle(blocks, length):
    # odd counts pad a level with the constant 1; one block is its own product
    primes = [polynomials._prime(i, 4) for i in range(3)]
    rng = np.random.default_rng(blocks * 100 + length)
    polys = _residues(rng, primes, (3, blocks, length))
    p = np.array(primes, dtype=np.int64)[:, None]
    product = modular._product_mod(polys, p)
    assert (product == product_mod(polys, p)).all()
    if blocks == 1:
        assert (product == polys[:, 0]).all()


@given(
    st.integers(1, 3),
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_the_product_tree_matches_the_schoolbook_oracle_property(rows, blocks, length, seed):
    primes = [polynomials._prime(i, 6) for i in range(rows)]
    rng = np.random.default_rng(seed)
    polys = _residues(rng, primes, (rows, blocks, length), top=seed % 5 == 0)
    p = np.array(primes, dtype=np.int64)[:, None]
    assert (modular._product_mod(polys, p) == product_mod(polys, p)).all()


def test_an_fft_product_off_an_integer_raises(monkeypatch):
    # a convolution further than 1/4 from an integer is refused, not rounded
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    primes = [polynomials._prime(0)]
    polys = _residues(np.random.default_rng(3), primes, (1, 2, 300))
    with pytest.raises(ArithmeticError):
        modular._fft_mod(polys[:, 0], polys[:, 1], np.array(primes, dtype=np.int64)[:, None])


def test_konno_sato_verifies_the_group_once_and_stacks_each_width(monkeypatch, fourier_calls):
    counts = {}

    def counting(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counting(graphs, "build_family")
    counting(zeta, "arc_space")
    counting(graphs, "_abelian_cover")
    counting(zeta, "_operator")
    counting(polynomials, "_hessenberg_charpolys")
    counting(polynomials, "_product_mod")
    assert konno_sato_check(torus_graph(2, 4)).all_hold
    # no rebuild of the tagged graph, and one arc space, which verifies the
    # cover once for all four operators; the route of each of them chosen
    # once; U with U+ and P with D - A, one stack each
    assert counts == {
        "arc_space": 1,
        "_abelian_cover": 1,
        "_operator": 4,
        "_hessenberg_charpolys": 2,
        "_product_mod": 2,
    }
    assert fourier_calls == [64, 64, 16, 16]


def test_a_root_of_unity_is_found_once_per_side_and_prime(monkeypatch):
    p = polynomials._prime(0, 8)
    omega = polynomials._root_of_unity(8, p)
    assert polynomials._ROOTS[8, p] == omega
    # a cached value is returned without a search
    monkeypatch.setitem(polynomials._ROOTS, (8, p), -1)
    assert polynomials._root_of_unity(8, p) == -1


@pytest.mark.parametrize(
    "graph",
    [torus_graph(2, 4), complete_graph(6), petersen_graph(), _relabelled(torus_graph(2, 4), None)],
    ids=lambda g: g.family or "untagged-torus(2,4)",
)
def test_a_stack_run_in_chunks_gives_the_same_report(graph, monkeypatch):
    # a budget of one element makes every (matrix, prime) row its own chunk;
    # off the Fourier route, a row is one whole matrix mod one prime
    report = konno_sato_check(graph)
    calls = []
    hessenberg = polynomials._hessenberg_charpolys
    monkeypatch.setattr(polynomials, "_FOURIER_BUDGET", 1)
    monkeypatch.setattr(
        polynomials, "_hessenberg_charpolys", lambda a, primes: calls.append(primes) or hessenberg(a, primes)
    )
    assert konno_sato_check(graph) == report
    cover = arc_space(graph).cover
    side, blocks = (cover[1], cover[1] ** cover[0]) if cover else (1, 1)
    bounds = [polynomials._coefficient_bound(polynomials._whole(_built(graph, name))) for name in BUILDERS]
    rows = sum(len(polynomials._primes_above(2 * bound, side)[0]) for bound in bounds)
    assert len(calls) == rows
    assert all(primes == primes[:1] * blocks for primes in calls)


# -- cycle counts: traces of powers, block by block --------------------------

TRACE_GRAPHS = (
    [cycle_graph(n) for n in range(3, 9)]
    + [complete_graph(n) for n in range(3, 10)]
    + [hypercube_graph(d) for d in range(2, 7)]
    + [torus_graph(2, n) for n in range(3, 6)]
    + [torus_graph(3, 3)]
)


@pytest.fixture
def trace_sides(monkeypatch):
    """The side of the group of every `_trace_residues` call, in call order;
    a whole matrix has side 1."""
    sides = []
    route = polynomials._trace_residues

    def spy(torus, primes, r_max):
        sides.append(torus.side)
        return route(torus, primes, r_max)

    monkeypatch.setattr(polynomials, "_trace_residues", spy)
    return sides


@pytest.mark.parametrize("name", list(ARC_OPERATORS))
@pytest.mark.parametrize("graph", TRACE_GRAPHS, ids=lambda g: g.family)
def test_traces_on_the_fourier_route_are_those_of_the_whole_matrix(graph, name, trace_sides):
    matrix = ARC_OPERATORS[name](graph)
    whole = trace_powers(matrix, 12)
    assert trace_sides == [1]
    # the dense oracle only where it takes well under a second; the whole
    # route is tied to it on every size by test_polynomials
    if matrix.rows <= 36:
        assert whole == naive_trace_powers(matrix, 12)
    operator = polynomials._operator(_built(graph, name))
    # each order takes its own primes, and odd and even orders their own pairing
    for r_max in range(1, 13):
        assert polynomials._traces(operator, r_max) == whole[:r_max]
    # r_max = 1 needs no powers: the arc operators have a zero diagonal
    assert trace_sides[1:] == [arc_space(graph).cover[1]] * 11


@pytest.mark.parametrize("name", list(VERTEX_OPERATORS))
def test_traces_of_a_vertex_operator_sum_runs_of_several_terms(name, trace_sides):
    graph = torus_graph(2, 4)
    matrix = VERTEX_OPERATORS[name](graph)
    torus = polynomials._operator(_built(graph, name))
    # the one 1 x 1 entry of each block sums a run of every step of the stencil
    keys, sums = polynomials._fourier_sums(torus, [polynomials._prime(0, 4)])
    assert keys.tolist() == [0] and len(torus.values) > 1 and sums.shape == (1, 16, 1)
    naive = naive_trace_powers(matrix, 12)
    for r_max in range(1, 13):
        assert polynomials._traces(torus, r_max) == naive[:r_max]
    assert set(trace_sides) == {4}


@pytest.mark.parametrize(
    "graph, side",
    [
        pytest.param(torus_graph(2, 4), 4, id="torus(2,4)"),
        pytest.param(torus_graph(3, 3), 3, id="torus(3,3)"),
        pytest.param(hypercube_graph(3), 2, id="hypercube(3)"),
        pytest.param(complete_graph(5), 5, id="complete(5)"),
        pytest.param(cycle_graph(6), 6, id="cycle(6)"),
        pytest.param(petersen_graph(), 5, id="petersen"),
        pytest.param(generalized_petersen_graph(8, 3), 8, id="gp(8,3)"),
        pytest.param(_relabelled(torus_graph(2, 4), None), 1, id="untagged-torus(2,4)"),
        pytest.param(
            _relabelled(hypercube_graph(4), "torus(2,4)"), 1, id="hypercube(4)-tagged-torus(2,4)"
        ),
    ],
)
def test_cycle_counts_take_the_route_of_their_graph(graph, side, trace_sides):
    weighted = zeta.weighted_cycle_counts(graph, 6).counts
    reduced = zeta.reduced_cycle_counts(graph, 6).counts
    assert trace_sides == [side, side]
    assert weighted == trace_powers(grover(graph, arc_space(graph)), 6)
    assert reduced == trace_powers(grover_positive_support(graph, arc_space(graph)), 6)
    assert trace_sides[2:] == [1, 1]


def test_the_series_check_keeps_its_trace_side_whole(trace_sides, fourier_calls):
    # the two sides of zeta_series_consistency share no Fourier code: the
    # determinant takes the blocks and the traces the whole matrix
    assert zeta_series_consistency(torus_graph(2, 4), 8).holds
    assert fourier_calls == [64] and trace_sides == [1]


def test_block_products_reduce_inside_their_sums():
    # two blocks of 16 x 16 (side 2, omega = -1) whose entries are near p / 2
    # for both primes: a product sums 16 terms of about p^2 / 4 each, past
    # 2^63 - 1, so the kernel must reduce inside the sum; the stencil's
    # steps 1 are multiples of both primes, so each block entry is a run of
    # two terms
    rng = random.Random(41)
    primes = [polynomials._prime(i, 2) for i in range(2)]
    width = 16
    stencil = []
    for s in range(width):
        for s2 in range(width):
            offset = rng.randrange(100)
            near_half = modular._crt([[(p - 1) // 2 - offset] for p in primes], primes, primes[0] * primes[1])
            stencil.append((s, s2, 0, near_half[0] % (primes[0] * primes[1])))
            stencil.append((s, s2, 1, primes[0] * primes[1] * rng.randint(1, 9)))
    pairs = np.array([s * width + s2 for s, s2, _, _ in stencil])
    steps = np.array([z for _, _, z, _ in stencil])
    values = _integers([t for _, _, _, t in stencil])
    torus = polynomials._Torus(1, 2, np.array([[0], [1]]), width, pairs, steps, values)
    assert all(16 * ((p - 1) // 2 - 100) * (p - 1) > 2**63 - 1 for p in primes)
    # the whole 32 x 32 matrix from (v, s) to (w, s') is t_ss'(w - v), in
    # Python integers
    table = {(s, s2, z): t for s, s2, z, t in stencil}
    n = 2 * width
    whole = [
        [table[i % width, j % width, (j // width - i // width) % 2] for j in range(n)]
        for i in range(n)
    ]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(8):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*whole)] for row in power]
        traces.append(sum(power[i][i] for i in range(n)))
    assert polynomials._trace_residues(torus, primes, 8) == [[t % p for t in traces] for p in primes]

