"""The Fourier route for torus determinants against the generic kernel.

On torus(d, N) every walk operator is translation invariant, and its
characteristic polynomial mod a prime p = 1 (mod N) is the product of small
Fourier blocks. The generic Hessenberg kernel on the whole matrix is the
oracle here; a spy on `polynomials._fourier_charpolys` tells which route ran.
"""

import math
from fractions import Fraction

import pytest

from zetawalk import (
    RatMatrix,
    arc_space,
    det_i_minus_u,
    graph_from_edges,
    grover_zeta_reciprocal,
    hypercube_graph,
    ihara_reciprocal_bass,
    ihara_reciprocal_edge,
    konno_sato_check,
    torus_graph,
    zeta_series_consistency,
)
from zetawalk import polynomials, zeta
from zetawalk.operators import grover, grover_positive_support, laplacian, transition

ARC_OPERATORS = {
    "U": lambda g: grover(g, arc_space(g)),
    "U+": lambda g: grover_positive_support(g, arc_space(g)),
}
VERTEX_OPERATORS = {"P": transition, "D-A": laplacian}

# (d, N) where the generic kernel takes under about a second
ARC_SIZES = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3)]
VERTEX_SIZES = [(d, n) for d in (1, 2, 3) for n in (3, 4, 5, 6)]


@pytest.fixture
def fourier_calls(monkeypatch):
    """The sizes of the matrices that took the Fourier route, in call order."""
    calls = []
    route = polynomials._fourier_charpolys

    def spy(torus, primes):
        calls.append(len(torus.coords) * torus.width)
        return route(torus, primes)

    monkeypatch.setattr(polynomials, "_fourier_charpolys", spy)
    return calls


def _cases(sizes, operators):
    return [
        pytest.param(d, n, name, id=f"torus-{d}-{n}-{name}")
        for d, n in sizes
        for name in operators
    ]


@pytest.mark.parametrize(
    "d, n, name", _cases(ARC_SIZES, ARC_OPERATORS) + _cases(VERTEX_SIZES, VERTEX_OPERATORS)
)
def test_fourier_route_reproduces_the_generic_kernel(d, n, name, fourier_calls):
    graph = torus_graph(d, n)
    matrix = {**ARC_OPERATORS, **VERTEX_OPERATORS}[name](graph)
    fourier = polynomials._scaled_charpoly(matrix, graph)
    assert fourier_calls == [matrix.rows]
    assert fourier == polynomials._scaled_charpoly(matrix)
    assert polynomials._det_i_minus_u(matrix, graph) == det_i_minus_u(matrix)
    assert len(fourier_calls) == 2


def _relabelled(graph, family):
    return graph_from_edges(graph.num_vertices, graph.edges(), family=family, vertex_transitive=True)


def test_hypercube_tagged_as_a_torus_takes_the_generic_route(fourier_calls):
    # Q4 is isomorphic to torus(2,4), but its vertices are labelled otherwise
    cube = _relabelled(hypercube_graph(4), "torus(2,4)")
    assert cube.adjacency != torus_graph(2, 4).adjacency
    for operator in (*ARC_OPERATORS.values(), *VERTEX_OPERATORS.values()):
        matrix = operator(cube)
        assert polynomials._det_i_minus_u(matrix, cube) == det_i_minus_u(matrix)
    assert fourier_calls == []
    # det(I - uU) does not depend on the labelling
    assert grover_zeta_reciprocal(cube) == grover_zeta_reciprocal(torus_graph(2, 4))
    assert len(fourier_calls) == 1


def test_another_cayley_graph_of_the_same_group_takes_the_generic_route(fourier_calls):
    # the circulant C8(1, 2) has the vertex count of torus(1,8) and operators
    # invariant under the same translations, but it is not the tagged graph
    edges = sorted({tuple(sorted((v, (v + j) % 8))) for v in range(8) for j in (1, 2)})
    circulant = graph_from_edges(8, edges, family="torus(1,8)", vertex_transitive=True)
    for operator in (*ARC_OPERATORS.values(), *VERTEX_OPERATORS.values()):
        matrix = operator(circulant)
        assert polynomials._det_i_minus_u(matrix, circulant) == det_i_minus_u(matrix)
    assert fourier_calls == []


@pytest.mark.parametrize("family", [None, "torus(2, 4)", "torus(2,5)", "torus(4,2)", "cycle(16)"])
def test_a_torus_without_its_exact_tag_takes_the_generic_route(family, fourier_calls):
    graph = _relabelled(torus_graph(2, 4), family)
    matrix = ARC_OPERATORS["U"](graph)
    assert polynomials._det_i_minus_u(matrix, graph) == det_i_minus_u(matrix)
    assert fourier_calls == []


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


@pytest.mark.parametrize("kind", ["entry-at-vertex-0", "entry", "zero", "removed"])
@pytest.mark.parametrize("name", [*ARC_OPERATORS, *VERTEX_OPERATORS])
def test_a_torus_operator_with_one_perturbed_entry_takes_the_generic_route(
    name, kind, fourier_calls
):
    graph = torus_graph(2, 4)
    original = {**ARC_OPERATORS, **VERTEX_OPERATORS}[name](graph)
    matrix = _perturbed(original, kind)
    assert polynomials._det_i_minus_u(matrix, graph) == det_i_minus_u(matrix)
    assert fourier_calls == []
    assert det_i_minus_u(matrix) != det_i_minus_u(original)


def test_the_bass_companion_stays_on_the_generic_route(fourier_calls):
    graph = torus_graph(1, 5)
    ihara_reciprocal_bass(graph)
    assert fourier_calls == []


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


def test_konno_sato_report_on_a_torus_is_that_of_the_generic_kernel(monkeypatch, fourier_calls):
    graph = torus_graph(2, 5)
    report = konno_sato_check(graph)
    assert len(fourier_calls) == 4
    generic = polynomials._scaled_charpoly
    monkeypatch.setattr(zeta, "_scaled_charpoly", lambda matrix, graph=None: generic(matrix))
    monkeypatch.setattr(zeta, "_det_i_minus_u", lambda matrix, graph=None: det_i_minus_u(matrix))
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


def test_the_default_primes_are_the_odd_primes_counting_down():
    primes = [polynomials._prime(i) for i in range(3)]
    assert primes[0] == 2**31 - 1
    between = range(2**31 - 1, primes[-1] - 1, -1)
    assert [c for c in between if _is_prime_by_trial_division(c)] == primes


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 12])
def test_the_root_of_unity_has_order_exactly_n(n):
    for i in range(3):
        p = polynomials._prime(i, n)
        omega = polynomials._root_of_unity(n, p)
        powers = [pow(omega, e, p) for e in range(1, n + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1]


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 3)])
def test_the_fourier_route_takes_primes_one_mod_the_side(d, n, monkeypatch):
    seen = []
    route = polynomials._fourier_charpolys

    def spy(torus, primes):
        seen.extend(primes)
        return route(torus, primes)

    monkeypatch.setattr(polynomials, "_fourier_charpolys", spy)
    graph = torus_graph(d, n)
    polynomials._scaled_charpoly(grover(graph, arc_space(graph)), graph)
    assert seen and all(p % n == 1 for p in seen)
    assert seen == [polynomials._prime(i, n) for i in range(len(seen))]
