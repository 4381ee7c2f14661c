import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import FAMILIES, RANDOM_GRAPHS, full_grid_finite_torus, full_grid_log_mean
from zetawalk import (
    ConvergenceStudy,
    FamilyParameterError,
    ZetaDomainError,
    ZetawalkError,
    convergence_study,
    cycle_graph,
    finite_torus_zeta_reciprocal,
    graph_spectrum,
    petersen_graph,
    spectral_zeta_reciprocal,
    torus_graph,
    torus_limit_log_mean,
    torus_limit_terms,
    torus_limit_zeta_reciprocal,
    torus_prefactor,
    torus_spectrum,
)
from zetawalk import limits
from zetawalk.limits import _weighted_fsum, vertex_factor, vertex_factor_coefficients

TORI = [(1, 5), (2, 3), (2, 4), (3, 3)]


@pytest.mark.parametrize("d, n", TORI)
def test_torus_spectrum_counts_and_ranges(d, n):
    p_spec = torus_spectrum(d, n, "transition")
    l_spec = torus_spectrum(d, n, "laplacian")
    a_spec = torus_spectrum(d, n, "adjacency")
    assert isinstance(p_spec, tuple)
    assert len(p_spec) == n**d
    assert all(-1.0 - 1e-12 <= x <= 1.0 + 1e-12 for x in p_spec)
    assert all(-1e-12 <= x <= 4 * d + 1e-12 for x in l_spec)
    # same lex-k order, so the three spectra correspond entry by entry
    for lp, ll, la in zip(p_spec, l_spec, a_spec):
        assert ll == pytest.approx(2 * d * (1.0 - lp), abs=1e-12)
        assert la == pytest.approx(2 * d * lp, abs=1e-12)


def test_one_dimensional_side_four_transition_spectrum():
    values = sorted(torus_spectrum(1, 4, "transition"))
    assert values == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("d, n", TORI)
def test_transition_spectrum_has_zero_mean(d, n):
    values = torus_spectrum(d, n, "transition")
    assert math.fsum(values) == pytest.approx(0.0, abs=1e-10)
    assert max(values) == pytest.approx(1.0, abs=1e-12)


def test_both_spectra_refuse_an_unknown_operator_with_one_message():
    message = "unknown operator 'bogus'; pick one of ('adjacency', 'transition', 'laplacian')"
    with pytest.raises(ZetawalkError, match=re.escape(message)):
        graph_spectrum(petersen_graph(), "bogus")
    with pytest.raises(ZetawalkError, match=re.escape(message)):
        torus_spectrum(2, 4, "bogus")


def test_both_spectra_read_the_vertex_operator_from_one_table(monkeypatch):
    # an operator added to the one table reaches both spectra
    twice = (lambda origins, termini, degrees: (2.0, 0.0), lambda total, d: 4.0 * total)
    monkeypatch.setitem(limits._OPERATORS, "twice-adjacency", twice)
    closed = sorted(torus_spectrum(2, 4, "twice-adjacency"))
    assert closed == sorted(2.0 * x for x in torus_spectrum(2, 4, "adjacency"))
    numeric = graph_spectrum(torus_graph(2, 4), "twice-adjacency")
    assert numeric == tuple(2.0 * x for x in graph_spectrum(torus_graph(2, 4), "adjacency"))
    assert np.allclose(numeric, closed, atol=1e-9)


@pytest.mark.parametrize("d, n", TORI)
@pytest.mark.parametrize("operator", ["adjacency", "transition", "laplacian"])
def test_closed_form_spectrum_matches_numeric_diagonalization(d, n, operator):
    closed = sorted(torus_spectrum(d, n, operator))
    numeric = sorted(graph_spectrum(torus_graph(d, n), operator))
    assert len(closed) == len(numeric)
    for a, b in zip(closed, numeric):
        assert a == pytest.approx(b, abs=1e-10)


def _dense_symmetric_form(graph, operator):
    """The symmetric form as a dense 0/1 adjacency matrix, filled in a
    double loop, and dense products with the degrees."""
    n = graph.num_vertices
    a = np.zeros((n, n), dtype=float)
    for i, neighbors in enumerate(graph.adjacency):
        for j in neighbors:
            a[i, j] = 1.0
    degrees = np.array(graph.degree_profile, dtype=float)
    if operator == "adjacency":
        return a
    if operator == "laplacian":
        return np.diag(degrees) - a
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


@pytest.mark.parametrize("operator", ["adjacency", "transition", "laplacian"])
@pytest.mark.parametrize(
    "graph", FAMILIES + RANDOM_GRAPHS + [torus_graph(3, 4)], ids=lambda g: g.summary()
)
def test_graph_spectrum_is_bitwise_that_of_the_dense_form(graph, operator, monkeypatch):
    # the form written at its nonzeros is the dense form bit for bit, and
    # so is its spectrum
    formed = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: formed.append(m.copy()) or eigvalsh(m))
    spectrum = graph_spectrum(graph, operator)
    dense = _dense_symmetric_form(graph, operator)
    assert [m.shape for m in formed] == [dense.shape]
    assert _bits(formed[0]) == _bits(dense)
    assert _bits(spectrum) == _bits(eigvalsh(dense))


def test_spectrum_list_validation():
    with pytest.raises(ValueError):
        torus_spectrum(2, 3, "shift")
    with pytest.raises(ValueError):
        graph_spectrum(petersen_graph(), "coin")


@pytest.mark.parametrize("which", ["grover", "ihara"])
@pytest.mark.parametrize(
    "d, u, grid",
    [(1, 0.3, 8), (2, 0.2, 12), (2, -0.15, 9), (3, 0.1, 8), (4, 0.1, 8), (8, 0.05, 16)],
)
def test_quadrature_on_grid_g_equals_side_g_torus(which, d, u, grid):
    # The trapezoid nodes on grid G enumerate the side-G torus spectrum, so
    # the limit quadrature reproduces the finite value to roundoff.
    limit = torus_limit_zeta_reciprocal(d, u, which, grid=grid)
    finite = finite_torus_zeta_reciprocal(d, grid, u, which)
    assert abs(limit - finite) <= 1e-13


GRIDS = (8, 9, 15, 16, 31, 32, 64)
# the (d, G) pairs whose full grid has at most 2^20 points, and the d = 4,
# G = 64 limit of the spectral-limit benchmark
ORACLE_CASES = [(d, g) for d in range(1, 6) for g in GRIDS if g**d <= 2**20] + [(4, 64)]


@pytest.mark.parametrize("d, grid", ORACLE_CASES)
def test_torus_values_are_bitwise_those_of_the_full_grid(d, grid):
    # The value classes keep every operand and every rounding but the one
    # of the final sum, which both sides round correctly: equal, not close.
    for which in ("grover", "ihara"):
        edge = 1.0 if which == "grover" else 1.0 / (2 * d - 1)
        for u in (-0.5 * edge, 0.2 * edge, 0.95 * edge):
            mean = full_grid_log_mean(d, u, which, grid)
            assert torus_limit_log_mean(d, u, which, grid) == mean
            assert torus_limit_zeta_reciprocal(
                d, u, which, grid
            ) == torus_prefactor(d, u) * math.exp(mean)
            if grid**d < 2**20:
                assert finite_torus_zeta_reciprocal(
                    d, grid, u, which
                ) == full_grid_finite_torus(d, grid, u, which)


@pytest.mark.parametrize("block", ["grid", 64, 2**20])
def test_quadrature_does_not_depend_on_the_block_size(monkeypatch, block):
    cases = [(2, 0.3, "grover", 31), (3, -0.1, "ihara", 16), (4, 0.2, "grover", 32),
             (3, 0.9, "grover", 64), (1, 0.4, "ihara", 9)]
    expected = [torus_limit_log_mean(d, u, which, grid) for d, u, which, grid in cases]
    for (d, u, which, grid), value in zip(cases, expected):
        monkeypatch.setattr(limits, "_BLOCK_POINTS", grid if block == "grid" else block)
        assert torus_limit_log_mean(d, u, which, grid) == value


def exact_weighted_sum(values, counts) -> float:
    """sum values[i] * counts[i] in fractions, rounded once."""
    total = sum(Fraction(float(v)) * int(c) for v, c in zip(values, counts))
    return float(total)


@pytest.mark.parametrize(
    "values, counts",
    [
        ([1e16, 1.0, -1e16], [1, 1, 1]),
        ([1e16, 0.1, -1e16, 3.0], [3, 7, 3, 2]),
        ([0.0, 0.0], [3, 5]),
        ([0.0, -2.5, 0.0, 1.25], [4, 1, 9, 2]),
        ([0.1], [7]),
        ([-1 / 3], [1]),
        ([2.0**-1074, 5e-324 * 3, 1e-310], [5, 2, 9]),
    ],
)
def test_weighted_fsum_is_fsum_over_the_repeated_values(values, counts):
    got = _weighted_fsum(np.array(values), np.array(counts, dtype=np.int64))
    assert got == math.fsum(np.repeat(values, counts))
    assert got == exact_weighted_sum(values, counts)


@pytest.mark.parametrize(
    "values, counts",
    [
        # counts at and past 2^26 fill the second 26-bit limb, past 2^52 the third
        ([0.1, -0.3, 1e16, -1e16], [2**26 + 5, 3 * 2**26 + 1, 2**26, 2**26]),
        ([1 / 3, -1 / 7], [2**62 + 1, 2**53 - 1]),
        ([0.7], [2**26]),
        ([1e16, 1.0, -1e16], [2**40, 2**40 + 3, 2**40]),
    ],
)
def test_weighted_fsum_with_counts_past_one_limb(values, counts):
    got = _weighted_fsum(np.array(values), np.array(counts, dtype=np.int64))
    assert got == exact_weighted_sum(values, counts)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e200, max_value=1e200),
            st.integers(min_value=1, max_value=2**62),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_weighted_fsum_rounds_the_exact_sum_once(pairs):
    values, counts = zip(*pairs)
    got = _weighted_fsum(np.array(values), np.array(counts, dtype=np.int64))
    assert got == exact_weighted_sum(values, counts)


def test_grid_beyond_a_64_bit_point_count_is_refused():
    # 8^21 = 2^63 head points would wrap the int64 multiplicities
    with pytest.raises(ZetawalkError, match="64-bit count"):
        torus_limit_log_mean(22, 0.01, grid=8)
    with pytest.raises(ZetawalkError, match="64-bit count"):
        finite_torus_zeta_reciprocal(21, 8, 0.01)
    assert math.isfinite(torus_limit_log_mean(21, 0.01, grid=8))


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda: torus_spectrum(10**9, 3), id="spectrum"),
        pytest.param(lambda: finite_torus_zeta_reciprocal(10**9, 3, 0.1), id="finite"),
        pytest.param(lambda: torus_limit_log_mean(10**9, 0.05, grid=8), id="limit"),
        pytest.param(lambda: convergence_study(10**9, 0.05, [3]), id="converge"),
    ],
)
def test_a_huge_dimension_is_refused_without_forming_the_grid_size(evaluate):
    # the number of grid points side^d is never formed: at d = 10^9 it
    # would take hours
    start = time.perf_counter()
    with pytest.raises(ZetawalkError):
        evaluate()
    assert time.perf_counter() - start < 1


def test_a_spectrum_whose_size_has_too_many_digits_is_refused_by_the_package():
    # 3^10000 has more digits than CPython converts to a string, and the
    # refusal names the first axis step past the bound, 3^16 points
    with pytest.raises(ZetawalkError, match="would form 43,046,721 grid points"):
        torus_spectrum(10000, 3)


def test_a_graph_spectrum_past_the_point_bound_is_refused_before_any_array():
    # 5793^2 is just past 2^25: a dense 5793 x 5793 form would take 268 MB
    start = time.perf_counter()
    with pytest.raises(ZetawalkError, match="5,793 x 5,793"):
        graph_spectrum(cycle_graph(5793))
    assert time.perf_counter() - start < 1


def test_graph_spectrum_refuses_exactly_past_the_point_bound(monkeypatch):
    monkeypatch.setattr(limits, "_MAX_POINTS", 100)
    assert len(graph_spectrum(cycle_graph(10))) == 10
    with pytest.raises(ZetawalkError, match="more than the 100 entries"):
        graph_spectrum(cycle_graph(11))


@pytest.mark.parametrize("n", [4, 6])
def test_even_side_grover_value_is_even_in_u(n):
    plus = finite_torus_zeta_reciprocal(2, n, 0.2, "grover")
    minus = finite_torus_zeta_reciprocal(2, n, -0.2, "grover")
    assert abs(plus - minus) <= 1e-13


def test_finite_torus_assembles_prefactor_and_spectral_average():
    d, n, u = 2, 5, 0.2
    values = torus_spectrum(d, n, "transition")
    q = 2 * d - 1
    mean_log = math.fsum(
        math.log((1 + q * u * u) - (q + 1) * u * lam) for lam in values
    ) / len(values)
    manual = torus_prefactor(d, u) * math.exp(mean_log)
    assert finite_torus_zeta_reciprocal(d, n, u, "ihara") == pytest.approx(
        manual, abs=1e-14
    )


def test_prefactor_values():
    assert torus_prefactor(1, 0.7) == 1.0
    assert torus_prefactor(2, 0.5) == pytest.approx(0.75, abs=0)
    assert torus_prefactor(3, 0.5) == pytest.approx(0.75**2, abs=1e-16)


@pytest.mark.parametrize("which", ["grover", "ihara"])
def test_value_at_zero_is_exactly_one(which):
    assert finite_torus_zeta_reciprocal(2, 7, 0.0, which) == 1.0
    assert torus_limit_zeta_reciprocal(2, 0.0, which, grid=16) == 1.0


def test_one_dimensional_kinds_coincide_exactly():
    # q = 1 makes the two determinant factors the same expression.
    for u in (0.3, -0.45, 0.05):
        g = finite_torus_zeta_reciprocal(1, 7, u, "grover")
        i = finite_torus_zeta_reciprocal(1, 7, u, "ihara")
        assert g == i
        assert torus_limit_zeta_reciprocal(1, u, "grover", grid=16) == (
            torus_limit_zeta_reciprocal(1, u, "ihara", grid=16)
        )


def test_finite_torus_matches_graph_spectral_route():
    g = torus_graph(2, 3)
    for which in ("grover", "ihara"):
        from_graph = spectral_zeta_reciprocal(g, 0.2, which=which)
        from_formula = finite_torus_zeta_reciprocal(2, 3, 0.2, which)
        assert abs(from_graph - from_formula) <= 1e-12


def base_refusal(u: float) -> str:
    """The pattern of the one prefactor-base refusal of the float routes at u."""
    return "^" + re.escape(f"prefactor base 1 - u^2 = {1.0 - u * u} is not positive at u = {u}") + "$"


def test_grover_kind_allows_u_beyond_one():
    # (1 + u^2) - 2u*lam > 0 for all |lam| <= 1 whenever u != +-1, but the
    # prefactor base 1 - u^2 is not positive for |u| >= 1, so the torus
    # routes refuse u there as the spectral route does
    for d in (1, 2):
        for u in (1.0, -1.0, 2.0, -2.0):
            with pytest.raises(ZetaDomainError, match=base_refusal(u)):
                finite_torus_zeta_reciprocal(d, 5, u, "grover")


def test_torus_overflow_is_a_domain_error():
    # a u this large is refused by its prefactor base, before any factor,
    # power or product is formed that could overflow
    with pytest.raises(ZetaDomainError, match=base_refusal(1e200)):
        finite_torus_zeta_reciprocal(2, 4, 1e200)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e200)):
        torus_limit_zeta_reciprocal(2, 1e200, grid=8)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e200)):
        torus_prefactor(2, 1e200)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e100)):
        torus_limit_zeta_reciprocal(3, 1e100, grid=8)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e100)):
        finite_torus_zeta_reciprocal(2, 4, 1e100)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e100)):
        torus_limit_zeta_reciprocal(2, 1e100, grid=8)
    with pytest.raises(ZetaDomainError, match=base_refusal(1e50)):
        torus_limit_zeta_reciprocal(2, 1e50, grid=8)


def _float_routes():
    """Every float entry point, with each kind and route it takes, as u -> call."""
    for name, graph in (("petersen", petersen_graph()), ("torus(2,4)", torus_graph(2, 4))):
        for which in ("grover", "ihara"):
            for route in ("transition", "laplacian"):
                yield pytest.param(
                    lambda u, g=graph, w=which, r=route: spectral_zeta_reciprocal(g, u, w, r),
                    id=f"spectral-{name}-{which}-{route}",
                )
    yield pytest.param(lambda u: torus_prefactor(2, u), id="torus_prefactor")
    for which in ("grover", "ihara"):
        for name, call in (
            ("finite_torus", lambda u, w: finite_torus_zeta_reciprocal(2, 4, u, w)),
            ("log_mean", lambda u, w: torus_limit_log_mean(2, u, w, grid=8)),
            ("limit", lambda u, w: torus_limit_zeta_reciprocal(2, u, w, grid=8)),
            ("terms", lambda u, w: torus_limit_terms(2, u, w, grid=8)),
            ("convergence_study", lambda u, w: convergence_study(2, u, [4], w)),
        ):
            yield pytest.param(lambda u, c=call, w=which: c(u, w), id=f"{name}-{which}")


@pytest.mark.parametrize("u", [1.0, -1.0, 1.5, -3.0, 1e200, math.inf])
@pytest.mark.parametrize("evaluate", list(_float_routes()))
def test_every_float_route_refuses_a_prefactor_base_that_is_not_positive(evaluate, u):
    with pytest.raises(ZetaDomainError, match=base_refusal(u)):
        evaluate(u)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda u: spectral_zeta_reciprocal(petersen_graph(), u),
        lambda u: torus_prefactor(2, u),
        lambda u: finite_torus_zeta_reciprocal(2, 4, u),
        lambda u: torus_limit_log_mean(2, u, grid=8),
        lambda u: torus_limit_zeta_reciprocal(2, u, grid=8),
        lambda u: convergence_study(2, u, [4]),
    ],
)
def test_u_beyond_double_range_is_a_domain_error(evaluate):
    with pytest.raises(ZetaDomainError, match=r"about 2\^1328\.8, outside the double range"):
        evaluate(Fraction(10**400))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda u: spectral_zeta_reciprocal(petersen_graph(), u),
        lambda u: torus_prefactor(2, u),
        lambda u: finite_torus_zeta_reciprocal(2, 4, u),
        lambda u: torus_limit_log_mean(2, u, grid=8),
        lambda u: torus_limit_zeta_reciprocal(2, u, grid=8),
        lambda u: convergence_study(2, u, [4]),
    ],
)
def test_nan_u_is_a_domain_error_naming_nan(evaluate):
    # NaN fails every positivity comparison, so without its own check it
    # either passed through as a NaN value or was reported as an overflow
    with pytest.raises(ZetaDomainError, match="u is NaN"):
        evaluate(math.nan)


# the four Konno-Sato vertex factors, written out term by term
KONNO_SATO_FACTORS = {
    ("grover", "transition"): lambda u, q, lam: 1 + u * u - 2 * u * lam,
    ("grover", "laplacian"): lambda u, q, lam: 1 - 2 * u + u * u + Fraction(2, q + 1) * u * lam,
    ("ihara", "transition"): lambda u, q, lam: 1 + q * u * u - (q + 1) * u * lam,
    ("ihara", "laplacian"): lambda u, q, lam: 1 - (q + 1) * u + q * u * u + u * lam,
}


@pytest.mark.parametrize("which, route", list(KONNO_SATO_FACTORS))
def test_factor_table_gives_the_konno_sato_factors_and_the_float_line(which, route):
    for q in range(1, 7):
        a1, a2, b_num, b_den = vertex_factor_coefficients(q, which, route)
        slope = Fraction(b_num, b_den)
        for u in (Fraction(1, 5), Fraction(-3, 7), Fraction(9, 10), Fraction(5, 2)):
            a, b = vertex_factor(float(u), q, which, route)
            scale = 1 + abs(a1 * u) + abs(a2 * u * u) + abs(slope * u)
            for lam in (-1, 0, 1):
                exact = 1 + a1 * u + a2 * u * u + slope * u * lam
                assert exact == KONNO_SATO_FACTORS[which, route](u, q, lam)
                assert abs(Fraction(a + b * lam) - exact) <= 8 * 2.0**-52 * scale


def test_ihara_kind_domain_boundary():
    # d = 2 gives q = 3: admissible positive u end at 1/q.
    assert finite_torus_zeta_reciprocal(2, 5, 0.3, "ihara") > 0.0
    with pytest.raises(ZetaDomainError):
        finite_torus_zeta_reciprocal(2, 5, 0.5, "ihara")
    with pytest.raises(ZetaDomainError):
        torus_limit_zeta_reciprocal(2, -0.5, "ihara", grid=16)


def test_parameter_validation():
    with pytest.raises(FamilyParameterError):
        torus_spectrum(0, 5)
    with pytest.raises(FamilyParameterError):
        torus_spectrum(2, 2)
    with pytest.raises(FamilyParameterError):
        finite_torus_zeta_reciprocal(0, 3, 0.1)
    with pytest.raises(FamilyParameterError):
        torus_limit_log_mean(0, 0.1)
    with pytest.raises(ValueError):
        torus_limit_log_mean(2, 0.1, grid=7)
    with pytest.raises(ValueError):
        torus_limit_zeta_reciprocal(2, 0.1, "bass", grid=16)


@pytest.mark.parametrize("limit", [torus_limit_log_mean, torus_limit_terms], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "d, u, grid, error, message",
    [
        (0, math.nan, 64, ZetaDomainError, "u is NaN"),
        (2, math.nan, 4, ZetaDomainError, "u is NaN"),
        (0, 2.0, 4, FamilyParameterError, "torus dimension"),
        (2, 2.0, 4, ZetawalkError, "grid must be at least 8"),
        (2, 2.0, 8, ZetaDomainError, "prefactor base"),
        (2.0, 2.0, 4, FamilyParameterError, "torus dimension must be an integer"),
        (2, 2.0, 8.0, ZetawalkError, "grid must be an integer"),
    ],
)
def test_both_limit_entry_points_refuse_in_one_order(limit, d, u, grid, error, message):
    # u as a double first, then d, then the grid, then the domain
    with pytest.raises(error, match=message):
        limit(d, u, grid=grid)


def test_high_dimensions_need_no_flag():
    spec = torus_spectrum(5, 3)
    assert len(spec) == 243
    value = torus_limit_zeta_reciprocal(5, 0.05, "grover", grid=8)
    assert value > 0.0


@pytest.mark.parametrize(
    "evaluate, d, grid, points",
    [
        (lambda: torus_limit_log_mean(3, 0.1, grid=20000), 3, 20000, None),
        (lambda: torus_limit_zeta_reciprocal(1, 0.1, grid=10**8), 1, 10**8, 10**8),
        (lambda: finite_torus_zeta_reciprocal(3, 20000, 0.05), 3, 20000, None),
        (lambda: torus_spectrum(5, 64), 5, 64, 64**5),
    ],
)
def test_grid_too_large_to_form_is_refused_before_allocating(evaluate, d, grid, points):
    # each is refused at its first step past the bound, so nothing near
    # that many points is ever allocated
    tracemalloc.start()
    try:
        with pytest.raises(ZetawalkError) as info:
            evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    pattern = rf"dimension {d} on grid {grid} would form ([\d,]+) grid points at once"
    count = int(re.match(pattern, str(info.value))[1].replace(",", ""))
    assert count > limits._MAX_POINTS
    assert count % grid == 0
    if points is not None:
        assert count == points


def test_convergence_study_shape_and_monotonicity():
    study = convergence_study(2, 0.2, [4, 8, 16], "grover", reference_grid=64)
    assert isinstance(study, ConvergenceStudy)
    assert [row.n for row in study.rows] == [4, 8, 16]
    assert study.reference_grid == 64
    assert study.errors_monotone()
    assert study.rows[-1].abs_error < study.rows[0].abs_error


def test_convergence_study_default_reference_grid():
    study = convergence_study(1, 0.1, [4, 8], "ihara")
    assert study.reference_grid == 32


def test_convergence_study_at_zero_is_flat():
    study = convergence_study(2, 0.0, [4, 8, 16], "grover")
    assert all(row.value == 1.0 for row in study.rows)
    assert all(row.abs_error == 0.0 for row in study.rows)
    assert study.errors_monotone()


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(2, 0.2, [])
    with pytest.raises(ValueError):
        convergence_study(2, 0.2, [8, 8])
    with pytest.raises(ValueError):
        convergence_study(2, 0.2, [4, 16, 8])
    with pytest.raises(ValueError):
        convergence_study(2, 0.2, [4, 8], reference_grid=16)


def test_convergence_study_checks_every_side_before_the_reference(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the reference was computed")

    monkeypatch.setattr(limits, "torus_limit_zeta_reciprocal", forbidden)
    with pytest.raises(FamilyParameterError, match="got 2"):
        convergence_study(4, 0.1, [2, 40])


@pytest.fixture
def store(monkeypatch):
    """An empty class store of `_grid_classes`, for this test alone."""
    fresh = {}
    monkeypatch.setattr(limits, "_CLASSES", fresh)
    return fresh


def test_a_second_call_returns_the_stored_arrays(store):
    values, counts = limits._grid_classes(3, 16, 4)
    again = limits._grid_classes(3, 16, 4)
    assert again[0] is values and again[1] is counts
    assert list(store) == [(3, 16)]


def test_stored_classes_are_read_only(store):
    torus_limit_log_mean(3, 0.2, grid=16)
    ((values, counts),) = store.values()
    with pytest.raises(ValueError):
        values[0] = 1.0
    with pytest.raises(ValueError):
        counts[0] = 2
    assert limits._grid_classes(2, 16, 3)[0] is values


def test_a_finite_torus_and_the_limit_one_dimension_up_share_one_entry(store):
    # the d = 3 torus of side 16 has the value classes of the d = 4 limit's
    # heads on grid 16: one entry, built once
    finite_torus_zeta_reciprocal(3, 16, 0.1)
    ((key, classes),) = store.items()
    assert key == (3, 16) and all(type(x) is int for x in key)
    torus_limit_log_mean(4, 0.1, grid=16)
    assert list(store.items()) == [(key, classes)]


@pytest.mark.parametrize(
    "evaluate, message",
    [
        (lambda: torus_limit_log_mean(3, 0.1, grid=20000), "would form"),
        (lambda: finite_torus_zeta_reciprocal(3, 20000, 0.05), "would form"),
        (lambda: finite_torus_zeta_reciprocal(21, 8, 0.01), "64-bit count"),
    ],
)
def test_a_refused_grid_is_not_stored_and_refuses_again(store, evaluate, message):
    for _ in range(2):
        with pytest.raises(ZetawalkError, match=message):
            evaluate()
        assert not store


def test_the_store_keeps_within_its_budget_and_drops_the_oldest_first(store, monkeypatch):
    keys = [(1, 16), (1, 32), (2, 8), (1, 64), (1, 9), (2, 9)]
    sizes = {key: limits._grid_classes(*key, key[0] + 1)[0].size for key in keys}
    store.clear()
    budget = 80
    assert max(sizes.values()) <= budget < sum(sizes.values())
    monkeypatch.setattr(limits, "_CLASS_BUDGET", budget)
    for i, key in enumerate(keys):
        limits._grid_classes(*key, key[0] + 1)
        held = list(store)
        assert sum(values.size for values, _ in store.values()) <= budget
        # what is held is the newest entries, as many as the budget allows
        assert held == keys[i + 1 - len(held):i + 1]
        if len(held) <= i:
            assert sum(sizes[k] for k in keys[i - len(held):i + 1]) > budget


def test_classes_larger_than_the_budget_are_returned_but_not_kept(store, monkeypatch):
    small = limits._grid_classes(1, 16, 2)
    monkeypatch.setattr(limits, "_CLASS_BUDGET", small[0].size)
    values, counts = limits._grid_classes(2, 16, 3)
    assert values.size > small[0].size
    assert list(store.items()) == [((1, 16), small)]
    assert limits._grid_classes(2, 16, 3)[0] is not values


SWEEP = (-0.5, 0.0, 0.2, 0.6, 0.95)


@pytest.mark.parametrize("d, grid", ORACLE_CASES)
def test_values_from_an_empty_store_are_bitwise_those_from_a_warm_one(store, d, grid):
    def values(which, u):
        edge = 1.0 if which == "grover" else 1.0 / (2 * d - 1)
        found = [torus_limit_log_mean(d, u * edge, which, grid),
                 torus_limit_terms(d, u * edge, which, grid)]
        if grid**d < 2**20:
            found.append(finite_torus_zeta_reciprocal(d, grid, u * edge, which))
        return found

    for which in ("grover", "ihara"):
        cold = []
        for u in SWEEP:
            store.clear()
            cold.append(values(which, u))
        assert (d - 1, grid) in store
        assert [values(which, u) for u in SWEEP] == cold


@pytest.mark.parametrize("d, grid, rows", [(2, 31, 5), (3, 16, 10), (4, 15, 11), (3, 64, 100)])
def test_a_partial_last_block_keeps_the_full_grid_value(monkeypatch, d, grid, rows):
    heads = limits._grid_classes(d - 1, grid, d)[0].size
    assert heads > rows and heads % rows != 0
    monkeypatch.setattr(limits, "_BLOCK_POINTS", rows * grid)
    for which, u in (("grover", 0.3), ("ihara", -0.2 / (2 * d - 1))):
        assert torus_limit_log_mean(d, u, which, grid) == full_grid_log_mean(d, u, which, grid)


@pytest.mark.parametrize(
    "evaluate, error, message",
    [
        pytest.param(lambda: torus_limit_log_mean(2.0, 0.1), FamilyParameterError,
            "torus dimension must be an integer, got 2.0", id="limit-d-2.0"),
        pytest.param(lambda: torus_limit_terms(True, 0.1), FamilyParameterError,
            "torus dimension must be an integer, got True", id="terms-d-True"),
        pytest.param(lambda: finite_torus_zeta_reciprocal(2.0, 6, 0.1), FamilyParameterError,
            "torus dimension must be an integer, got 2.0", id="finite-d-2.0"),
        pytest.param(lambda: finite_torus_zeta_reciprocal(2, 6.0, 0.1), FamilyParameterError,
            "torus side must be an integer, got 6.0", id="finite-side-6.0"),
        pytest.param(lambda: finite_torus_zeta_reciprocal(True, 6, 0.1), FamilyParameterError,
            "torus dimension must be an integer, got True", id="finite-d-True"),
        pytest.param(lambda: torus_spectrum(2, 6.0), FamilyParameterError,
            "torus side must be an integer, got 6.0", id="spectrum-side-6.0"),
        pytest.param(lambda: torus_spectrum(2, np.float64(6)), FamilyParameterError,
            "torus side must be an integer", id="spectrum-side-float64"),
        pytest.param(lambda: torus_graph(2, 6.0), FamilyParameterError,
            "torus side must be an integer, got 6.0", id="graph-side-6.0"),
        pytest.param(lambda: torus_graph(True, 6), FamilyParameterError,
            "torus dimension must be an integer, got True", id="graph-d-True"),
        pytest.param(lambda: torus_limit_log_mean(2, 0.1, grid=10.5), ZetawalkError,
            "grid must be an integer, got 10.5", id="grid-10.5"),
        pytest.param(lambda: torus_limit_zeta_reciprocal(2, 0.1, grid=64.0), ZetawalkError,
            "grid must be an integer, got 64.0", id="grid-64.0"),
        pytest.param(lambda: torus_limit_log_mean(2, 0.1, grid=np.True_), ZetawalkError,
            "grid must be an integer", id="grid-numpy-bool"),
        pytest.param(lambda: convergence_study(2, 0.1, [4, 8], reference_grid=64.0), ZetawalkError,
            "reference grid must be an integer, got 64.0", id="reference-grid-64.0"),
        pytest.param(lambda: convergence_study(2.0, 0.1, [4, 8]), FamilyParameterError,
            "torus dimension must be an integer, got 2.0", id="converge-d-2.0"),
        pytest.param(lambda: convergence_study(2, 0.1, [4, 8.0]), FamilyParameterError,
            "torus side must be an integer, got 8.0", id="converge-side-8.0"),
    ],
)
def test_torus_parameters_that_are_not_integers_are_refused_before_any_work(
    monkeypatch, evaluate, error, message
):
    def forbidden(g):
        raise AssertionError("a grid axis was formed")

    monkeypatch.setattr(limits, "_axis_terms", forbidden)
    with pytest.raises(error, match=message):
        evaluate()


def test_a_float_grid_never_reads_the_entry_of_its_integer(store):
    torus_limit_log_mean(2, 0.1, grid=64)
    assert list(store) == [(1, 64)]
    with pytest.raises(ZetawalkError, match="grid must be an integer"):
        torus_limit_log_mean(2, 0.1, grid=64.0)


def test_numpy_integer_torus_parameters_are_taken_at_their_value():
    d, n, grid = np.int64(3), np.int32(8), np.int64(16)
    assert torus_limit_log_mean(d, 0.2, grid=grid) == torus_limit_log_mean(3, 0.2, grid=16)
    assert finite_torus_zeta_reciprocal(d, n, 0.2) == finite_torus_zeta_reciprocal(3, 8, 0.2)
    assert torus_spectrum(d, n) == torus_spectrum(3, 8)
    assert torus_graph(d, n) == torus_graph(3, 8)
    study = convergence_study(d, 0.2, [n], reference_grid=np.int64(32))
    assert type(study.d) is int and type(study.reference_grid) is int
    assert type(study.rows[0].n) is int
