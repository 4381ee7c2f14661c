import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    FAMILIES as SMALL_GRAPHS,
    RANDOM_GRAPHS,
    dense,
    frucht_graph,
    poly_mul,
    poly_pow,
    quadratic_pencil_det,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from zetawalk import (
    NonRegularGraphError,
    NotVertexTransitiveError,
    OracleGuardError,
    Poly,
    RatMatrix,
    SeriesCoefficients,
    TreeGraphError,
    ZetaDomainError,
    ZetawalkError,
    build_family,
    charpoly_zeta_reciprocal,
    complete_graph,
    cycle_graph,
    cycle_oracle,
    det_i_minus_u,
    finite_torus_zeta_reciprocal,
    graph_from_edges,
    graph_spectrum,
    grover_zeta_reciprocal,
    hypercube_graph,
    ihara_reciprocal_bass,
    ihara_reciprocal_edge,
    konno_sato_check,
    log_series,
    petersen_graph,
    reduced_cycle_counts,
    rooted_cycle_counts,
    spectral_zeta_reciprocal,
    torus_graph,
    torus_spectrum,
    trace_powers,
    weighted_cycle_counts,
    zeta_series_consistency,
)
from zetawalk import operators, zeta
from zetawalk.graphs import FAMILIES
from zetawalk.limits import vertex_factor_coefficients
from zetawalk.operators import adjacency, degree_matrix, laplacian, transition
from zetawalk.polynomials import _charpolys, _operator
from zetawalk.zeta import _closed_walk_counts, _require_vertex_transitive, _vertex_side

PAW = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
DIAMOND = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_triangle_all_three_routes_give_one_minus_u_cubed_squared():
    g = cycle_graph(3)
    expected = Poly([1, 0, 0, -1]) ** 2
    assert grover_zeta_reciprocal(g) == expected
    assert ihara_reciprocal_edge(g) == expected
    assert ihara_reciprocal_bass(g) == expected


def test_two_regular_grover_and_ihara_routes_coincide():
    for n in (4, 5, 6, 7):
        g = cycle_graph(n)
        assert grover_zeta_reciprocal(g) == ihara_reciprocal_edge(g)
        assert ihara_reciprocal_edge(g) == ihara_reciprocal_bass(g)


def test_complete_four_frozen_expansion_and_factored_form():
    g = complete_graph(4)
    frozen = Poly([1, 0, 0, -8, -6, 0, 16, 24, -3, -16, -24, 0, 16])
    # (1 - u^2)^2 (1 - u)(1 - 2u)(1 + u + 2u^2)^3, multiplied out by the
    # naive list convolutions from the test helpers
    factored = poly_mul(
        poly_pow([Fraction(1), Fraction(0), Fraction(-1)], 2),
        poly_mul(
            poly_mul([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(-2)]),
            poly_pow([Fraction(1), Fraction(1), Fraction(2)], 3),
        ),
    )
    assert Poly(factored) == frozen
    assert ihara_reciprocal_bass(g) == frozen
    assert ihara_reciprocal_edge(g) == frozen


def test_edge_and_bass_routes_agree_when_minimum_degree_is_two():
    assert ihara_reciprocal_edge(DIAMOND) == ihara_reciprocal_bass(DIAMOND)
    t23 = torus_graph(2, 3)
    assert ihara_reciprocal_edge(t23) == ihara_reciprocal_bass(t23)


def test_edge_and_bass_routes_diverge_at_a_leaf():
    # The positive support keeps the backtracking entry through the leaf,
    # so the determinants differ; both expansions are frozen here.
    edge = ihara_reciprocal_edge(PAW)
    bass = ihara_reciprocal_bass(PAW)
    assert edge == Poly([1, 0, 0, -2, 0, -2, 1, 0, 2])
    assert bass == Poly([1, 0, 0, -2, 0, 0, 1])
    assert edge != bass


def test_trees_are_rejected_by_both_ihara_routes():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TreeGraphError):
        ihara_reciprocal_edge(path)
    with pytest.raises(TreeGraphError):
        ihara_reciprocal_bass(path)
    # the weighted route stays defined: U exists on any graph
    assert grover_zeta_reciprocal(path)[0] == 1


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(5), complete_graph(4), petersen_graph(), torus_graph(2, 3), hypercube_graph(3)],
    ids=lambda g: g.summary(),
)
def test_konno_sato_identities_hold_exactly(graph):
    report = konno_sato_check(graph)
    assert report.all_hold
    assert report.failing() == ()
    assert report.regular_degree == graph.regular_degree
    assert {check.tag for check in report.identities} == {
        "grover-transition",
        "ihara-transition",
        "grover-laplacian",
        "ihara-laplacian",
    }
    for check in report.identities:
        assert check.lhs == check.rhs


def test_konno_sato_rejects_non_regular_graphs():
    with pytest.raises(NonRegularGraphError):
        konno_sato_check(PAW)


def test_konno_sato_rejects_a_regular_tree_before_any_determinant(monkeypatch):
    # K2 is 1-regular with m - nu = -1: the cocycle (1 - u^2)^(m - nu) has no
    # polynomial meaning
    def forbidden(*args):
        raise AssertionError("no determinant may run on a tree")

    monkeypatch.setattr(zeta, "_operator", forbidden)
    monkeypatch.setattr(zeta, "_charpolys", forbidden)
    with pytest.raises(TreeGraphError, match="exponent -1"):
        konno_sato_check(graph_from_edges(2, [(0, 1)]))


def test_konno_sato_builds_the_grover_matrix_once(monkeypatch):
    # U+ is the positive support of the U already built, not a second S @ C
    calls = []
    grover = operators.grover

    def counting_grover(graph, arcs):
        calls.append(graph)
        return grover(graph, arcs)

    monkeypatch.setattr(zeta, "grover", counting_grover)
    monkeypatch.setattr(operators, "grover", counting_grover)
    graph = torus_graph(2, 3)
    report = konno_sato_check(graph)
    assert len(calls) == 1
    monkeypatch.undo()
    lhs = {check.tag.split("-")[0]: check.lhs for check in report.identities}
    assert lhs["grover"] == grover_zeta_reciprocal(graph)
    assert lhs["ihara"] == ihara_reciprocal_edge(graph)


def test_series_consistency_builds_the_grover_matrix_once(monkeypatch):
    # det(I - uU) and the traces of U powers come from one U
    calls = []
    grover = operators.grover

    def counting_grover(graph, arcs):
        calls.append(graph)
        return grover(graph, arcs)

    monkeypatch.setattr(zeta, "grover", counting_grover)
    monkeypatch.setattr(operators, "grover", counting_grover)
    report = zeta_series_consistency(torus_graph(2, 3), 6)
    assert len(calls) == 1
    assert report.holds


def circulant_graph(n, jumps):
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return graph_from_edges(n, sorted(edges), family=f"circulant({n},{jumps})")


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(n) for n in range(3, 7)]
    + [complete_graph(n) for n in range(4, 8)]
    + [petersen_graph(), torus_graph(2, 3), torus_graph(3, 3)]
    + [hypercube_graph(3), hypercube_graph(4)]
    + [circulant_graph(7, (1, 2)), circulant_graph(8, (1, 4))],
    ids=lambda g: g.summary(),
)
def test_konno_sato_right_sides_match_the_companion_pencil(graph):
    # each right side read off det(I - uM) equals the 2nu x 2nu companion
    # determinant of the pencil I + u (a1 I + b M) + u^2 a2 I, times the cocycle
    q = graph.regular_degree - 1
    n = graph.num_vertices
    eye = np.identity(n, dtype=object)
    cocycle = graph.num_edges - n
    for route, mat in (("transition", transition(graph)), ("laplacian", laplacian(graph))):
        operator = _operator(mat)
        scale, coeffs = operator.scale, _charpolys([operator])[0]
        for which in ("grover", "ihara"):
            a1, a2, b_num, b_den = vertex_factor_coefficients(q, which, route)
            oracle = Poly(poly_pow([1, 0, -1], cocycle)) * quadratic_pencil_det(
                eye * a1 + np.array(dense(mat), dtype=object) * Fraction(b_num, b_den), eye * a2
            )
            rhs = _vertex_side(scale, coeffs, (a1, a2, b_num, b_den), cocycle)
            assert rhs == oracle, f"{which}-{route}"


@pytest.mark.parametrize(
    "graph", [PAW, DIAMOND, graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])]
    + [petersen_graph(), torus_graph(2, 3)],
    ids=lambda g: g.summary(),
)
def test_bass_form_matches_the_companion_pencil_times_the_cocycle(graph):
    n = graph.num_vertices
    a, d = (np.array(dense(m), dtype=object) for m in (adjacency(graph), degree_matrix(graph)))
    pencil = quadratic_pencil_det(-a, d - np.identity(n, dtype=object))
    assert ihara_reciprocal_bass(graph) == Poly(poly_pow([1, 0, -1], graph.num_edges - n)) * pencil


def test_konno_sato_right_sides_are_usable_polynomials():
    report = konno_sato_check(cycle_graph(4))
    for check in report.identities:
        assert check.rhs[0] == 1
        assert check.rhs.eval_exact(1) == 0


@pytest.mark.parametrize(
    "graph, r_max",
    [(cycle_graph(3), 5), (cycle_graph(5), 5), (complete_graph(4), 5)],
    ids=["C3", "C5", "K4"],
)
def test_weighted_counts_match_the_brute_force_oracle(graph, r_max):
    fast = weighted_cycle_counts(graph, r_max)
    slow = cycle_oracle(graph, r_max, kind="weighted")
    assert fast.counts == slow.counts
    assert fast.kind == "weighted"


@pytest.mark.parametrize(
    "graph, r_max",
    [(cycle_graph(3), 6), (cycle_graph(5), 6), (complete_graph(4), 5)],
    ids=["C3", "C5", "K4"],
)
def test_reduced_counts_match_the_brute_force_oracle(graph, r_max):
    fast = reduced_cycle_counts(graph, r_max)
    slow = cycle_oracle(graph, r_max, kind="reduced")
    assert fast.counts == slow.counts
    assert all(c.denominator == 1 for c in fast.counts)


def test_count_spot_values():
    assert weighted_cycle_counts(complete_graph(4), 2).counts == (0, Fraction(4, 3))
    assert reduced_cycle_counts(cycle_graph(3), 6).counts == (0, 0, 6, 0, 0, 6)
    for g in (cycle_graph(4), complete_graph(4), petersen_graph(), PAW):
        assert weighted_cycle_counts(g, 1).count(1) == 0


def test_series_coefficients_accessors():
    s = SeriesCoefficients(kind="weighted", counts=(Fraction(0), Fraction(3)))
    assert s.order == 2
    assert s.count(2) == 3
    with pytest.raises(IndexError):
        s.count(0)
    with pytest.raises(IndexError):
        s.count(3)
    with pytest.raises(ValueError):
        SeriesCoefficients(kind="mystery", counts=())


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectral_zeta_reciprocal(petersen_graph(), 0.1, "mystery"),
        lambda: spectral_zeta_reciprocal(petersen_graph(), 0.1, "grover", "mystery"),
        lambda: finite_torus_zeta_reciprocal(2, 3, 0.1, "mystery"),
        lambda: charpoly_zeta_reciprocal(petersen_graph(), Fraction(1, 10), "mystery"),
        lambda: graph_spectrum(petersen_graph(), "mystery"),
        lambda: torus_spectrum(2, 3, "mystery"),
        lambda: cycle_oracle(cycle_graph(3), 3, "mystery"),
        lambda: SeriesCoefficients(kind="mystery", counts=()),
        lambda: det_i_minus_u(RatMatrix(2, 3)),
        lambda: trace_powers(RatMatrix(2, 3), 2),
        lambda: trace_powers(RatMatrix(2, 2), -1),
        lambda: log_series(Poly([2, 1]), 3),
        lambda: log_series(Poly([1, 1]), -1),
    ],
    ids=[
        "spectral-kind", "spectral-route", "finite-torus-kind", "charpoly-kind",
        "graph-spectrum-operator", "torus-spectrum-operator", "oracle-kind",
        "series-kind", "det-non-square", "traces-non-square", "traces-negative-order",
        "log-constant-term", "log-negative-order",
    ],
)
def test_refused_arguments_raise_the_package_error(call):
    with pytest.raises(ZetawalkError):
        call()


def test_rooted_counts_divide_by_the_vertex_count():
    g = cycle_graph(3)
    rooted = rooted_cycle_counts(g, 4)
    total = weighted_cycle_counts(g, 4)
    assert rooted.kind == "rooted"
    assert rooted.counts == tuple(c / 3 for c in total.counts)


def test_rooted_counts_require_the_vertex_transitive_flag():
    square = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert square.is_regular
    with pytest.raises(NotVertexTransitiveError):
        rooted_cycle_counts(square, 3)


def test_cycle_oracle_guard_and_validation():
    with pytest.raises(OracleGuardError):
        cycle_oracle(petersen_graph(), 6)  # 30^6 sequences exceed 10^8
    with pytest.raises(ValueError):
        cycle_oracle(cycle_graph(3), 3, kind="rooted")
    with pytest.raises(ValueError):
        cycle_oracle(cycle_graph(3), 0)
    with pytest.raises(ValueError):
        weighted_cycle_counts(cycle_graph(3), 0)


def test_cycle_oracle_refuses_a_huge_order_without_forming_the_power():
    # (2m)^r_max is never formed: at r_max = 10^9 it would take hours
    start = time.perf_counter()
    with pytest.raises(OracleGuardError):
        cycle_oracle(complete_graph(4), 10**9)
    assert time.perf_counter() - start < 1


def test_series_consistency_report():
    report = zeta_series_consistency(cycle_graph(4), 8)
    assert report.holds
    assert bool(report)
    assert report.order == 8
    assert report.log_coefficients == report.scaled_counts
    with pytest.raises(OracleGuardError):
        zeta_series_consistency(cycle_graph(4), 13)
    with pytest.raises(ValueError):
        zeta_series_consistency(cycle_graph(4), 0)


@pytest.mark.parametrize("which", ["grover", "ihara"])
@pytest.mark.parametrize("u", [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4)])
def test_spectral_and_charpoly_evaluations_agree(which, u):
    g = complete_graph(4)
    spectral = spectral_zeta_reciprocal(g, float(u), which=which)
    exact = charpoly_zeta_reciprocal(g, u, which=which)
    assert math.isclose(spectral, exact, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("which", ["grover", "ihara"])
def test_transition_and_laplacian_routes_agree(which):
    g = torus_graph(2, 3)
    a = spectral_zeta_reciprocal(g, 0.2, which=which, route="transition")
    b = spectral_zeta_reciprocal(g, 0.2, which=which, route="laplacian")
    assert math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def test_zeta_reciprocal_is_one_at_the_origin():
    g = petersen_graph()
    assert spectral_zeta_reciprocal(g, 0.0, which="grover") == pytest.approx(1.0, abs=0)
    assert charpoly_zeta_reciprocal(g, Fraction(0), which="ihara") == 1.0


def test_spectral_evaluation_requires_regularity_and_the_flag():
    with pytest.raises(NonRegularGraphError):
        spectral_zeta_reciprocal(PAW, 0.1)
    square = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotVertexTransitiveError):
        spectral_zeta_reciprocal(square, 0.1)
    with pytest.raises(NotVertexTransitiveError):
        charpoly_zeta_reciprocal(square, Fraction(1, 10))


def test_a_false_vertex_transitive_flag_is_refuted_by_closed_walks():
    frucht = frucht_graph()
    assert frucht.regular_degree == 3 and frucht.num_edges == 18
    evaluations = [
        lambda g: spectral_zeta_reciprocal(g, 0.1),
        lambda g: spectral_zeta_reciprocal(g, 0.1, which="ihara", route="laplacian"),
        lambda g: charpoly_zeta_reciprocal(g, Fraction(1, 10)),
        lambda g: rooted_cycle_counts(g, 3),
    ]
    # two triangles meet at some vertices of the Frucht graph, none at others
    for evaluate in evaluations:
        with pytest.raises(NotVertexTransitiveError, match="from 0 to 2 closed walks of length 3"):
            evaluate(frucht)
    # cubic and triangle-free, with one 4-cycle through some vertices and
    # two through others
    squares = graph_from_edges(
        10,
        [(0, 4), (0, 6), (0, 8), (1, 4), (1, 5), (1, 9), (2, 6), (2, 8), (2, 9),
         (3, 5), (3, 7), (3, 9), (4, 7), (5, 6), (7, 8)],
        vertex_transitive=True,
    )
    for evaluate in evaluations:
        with pytest.raises(NotVertexTransitiveError, match="from 17 to 19 closed walks of length 4"):
            evaluate(squares)
    paw = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], vertex_transitive=True)
    with pytest.raises(NotVertexTransitiveError, match="closed walks of length 2"):
        rooted_cycle_counts(paw, 3)


def test_every_family_passes_the_walk_regularity_check():
    cases = [("cycle", {"N": 3}), ("cycle", {"N": 8}), ("torus", {"d": 1, "N": 5}),
             ("torus", {"d": 2, "N": 3}), ("torus", {"d": 2, "N": 4}),
             ("torus", {"d": 3, "N": 7}), ("complete", {"N": 3}), ("complete", {"N": 6}),
             ("petersen", {}), ("hypercube", {"d": 2}), ("hypercube", {"d": 4}),
             ("gp", {"N": 3, "k": 1}), ("gp", {"N": 8, "k": 3}), ("gp", {"N": 10, "k": 2})]
    assert {tag for tag, _ in cases} == set(FAMILIES)
    for tag, params in cases:
        graph = build_family(tag, **params)
        assert graph.claimed_vertex_transitive
        _require_vertex_transitive(graph, "walk-regularity check")


def _walk_diagonals(graph):
    """diag A^2, A^3 and A^4 from powers of A as an object array of Python ints."""
    n = graph.num_vertices
    a = np.zeros((n, n), dtype=object)
    for v, neighbors in enumerate(graph.adjacency):
        a[v, list(neighbors)] = 1
    power, diagonals = a, []
    for _ in range(3):
        power = power.dot(a)
        diagonals.append([int(x) for x in power.diagonal()])
    return diagonals


def _checked_walk_counts(graph):
    """`_closed_walk_counts` of the graph, checked against `_walk_diagonals`
    with chunks of every size from one origin vertex up."""
    expected = _walk_diagonals(graph)
    for chunk in (1, 5, 64, zeta._PATHS_PER_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zeta, "_PATHS_PER_CHUNK", chunk)
            counts = list(_closed_walk_counts(graph))
        assert [length for length, _ in counts] == [2, 3, 4]
        for (_, walks), diagonal in zip(counts, expected):
            assert walks.dtype == np.int64
            assert walks.tolist() == diagonal


def test_closed_walk_counts_equal_the_diagonals_of_adjacency_powers():
    graphs = SMALL_GRAPHS + RANDOM_GRAPHS + [frucht_graph(), hypercube_graph(4), complete_graph(7)]
    for graph in graphs:
        _checked_walk_counts(graph)


@st.composite
def random_graphs(draw):
    """A random connected graph: a random tree and a random set of chords."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=30)) if e[0] != e[1]}
    return graph_from_edges(n, sorted(edges))


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_closed_walk_counts_on_random_graphs_do_not_depend_on_the_chunks(graph):
    _checked_walk_counts(graph)


def test_spectral_evaluation_refuses_a_dense_spectrum_before_the_walk_check(monkeypatch):
    def walks(graph):
        raise AssertionError("the walk-regularity check ran")

    monkeypatch.setattr(zeta, "_closed_walk_counts", walks)
    # 5793^2 is just past the 2^25 entries of the point bound
    flagged = cycle_graph(5793)
    unflagged = graph_from_edges(5793, flagged.edges())
    for graph in (flagged, unflagged):
        start = time.perf_counter()
        with pytest.raises(ZetawalkError, match="needs a dense 5,793 x 5,793 matrix"):
            spectral_zeta_reciprocal(graph, 0.2)
        assert time.perf_counter() - start < 1
    # regularity comes first
    with pytest.raises(NonRegularGraphError):
        spectral_zeta_reciprocal(graph_from_edges(5794, list(flagged.edges()) + [(0, 5793)]), 0.2)


def test_spectral_evaluation_refuses_a_false_flag_before_u():
    for u in (float("nan"), 5.0, 10**400):
        with pytest.raises(NotVertexTransitiveError, match="closed walks of length 3"):
            spectral_zeta_reciprocal(frucht_graph(), u)


def test_spectral_domain_errors():
    g = complete_graph(4)
    with pytest.raises(ZetaDomainError):
        spectral_zeta_reciprocal(g, 1.0)
    with pytest.raises(ZetaDomainError):
        spectral_zeta_reciprocal(g, -1.5)
    # For the Ihara kind on K4 (q = 2), u = 0.7 makes the factor at the
    # top eigenvalue negative while |u| < 1 keeps the prefactor fine.
    with pytest.raises(ZetaDomainError, match="eigenvalue"):
        spectral_zeta_reciprocal(g, 0.7, which="ihara")


def test_charpoly_domain_error_at_the_unit_root():
    with pytest.raises(ZetaDomainError):
        charpoly_zeta_reciprocal(complete_graph(4), Fraction(1))


def test_charpoly_domain_error_at_a_determinant_too_long_to_print():
    # det(I - uU) at u = 10^400 has about 12,000 digits, beyond what str()
    # converts, so the message must not write it out
    with pytest.raises(ZetaDomainError, match="negative, not positive"):
        charpoly_zeta_reciprocal(petersen_graph(), Fraction(10**400))


def test_charpoly_evaluation_below_float_range():
    # det(I - uU) on torus(2,4) at u = 1 - 10^-20 is about 1e-346, below the
    # smallest float. The reference is the closed-form Konno-Sato product
    # over the rational torus spectrum, rooted in 60-digit decimal arithmetic.
    u = Fraction(99999999999999999999, 100000000000000000000)
    value = charpoly_zeta_reciprocal(torus_graph(2, 4), u)
    assert math.isclose(value, 1.1771323825530847381e-22, rel_tol=1e-14)


def test_charpoly_evaluation_above_float_range():
    # on K4, det(I - uU) = u^12 (1 + O(1/u)) with det U = 1, about 1e360 here
    value = charpoly_zeta_reciprocal(complete_graph(4), Fraction(10**30))
    assert math.isclose(value, 1e90, rel_tol=1e-14)


def test_charpoly_root_beyond_float_range_is_a_domain_error():
    # on K4 the root is about u^(12/4) = 10^1200
    with pytest.raises(ZetaDomainError, match="beyond the double range"):
        charpoly_zeta_reciprocal(complete_graph(4), Fraction(10**400))


def test_kind_and_route_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        spectral_zeta_reciprocal(g, 0.1, which="bass")
    with pytest.raises(ValueError):
        spectral_zeta_reciprocal(g, 0.1, route="edge")
    with pytest.raises(ValueError):
        charpoly_zeta_reciprocal(g, Fraction(1, 10), which="bass")
