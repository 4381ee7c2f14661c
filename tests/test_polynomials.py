import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coefficient_bounds,
    dense,
    det_i_minus_t_times,
    gauss_det,
    naive_det_i_minus_u,
    naive_trace_powers,
    poly_mul,
    poly_pow,
    quadratic_pencil_det,
    random_rat_matrix,
)
from zetawalk import (
    Poly,
    RatMatrix,
    arc_space,
    complete_graph,
    cycle_graph,
    det_i_minus_u,
    graph_from_edges,
    grover,
    grover_positive_support,
    log_series,
    petersen_graph,
    shift,
    torus_graph,
    trace_powers,
)
from zetawalk import operators, polynomials


def test_poly_trims_trailing_zeros_and_reports_degree():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Poly.zero().degree == -1
    assert not Poly.zero()
    assert Poly.one().coeffs == (Fraction(1),)
    assert Poly((0, 1)).coeffs == (Fraction(0), Fraction(1))


def test_poly_arithmetic_identities():
    u = Poly((0, 1))
    one = Poly.one()
    p = one - u * u
    assert (p * p).coeffs == (1, 0, -2, 0, 1)
    assert p**2 == p * p
    assert p**0 == one
    assert p * Poly.zero() == Poly.zero()
    assert (p - p).is_zero()
    assert (2 * p).coeffs == (2, 0, -2)
    assert p[1] == 0 and p[99] == 0


def test_poly_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


def test_poly_evaluation():
    p = Poly([1, -3, 2])  # (1 - u)(1 - 2u)
    assert p.eval_exact(Fraction(1, 2)) == 0
    assert p.eval_exact(1) == 0
    assert p.eval_exact(Fraction(1, 3)) == Fraction(2, 9)


def test_det_i_minus_u_of_zero_matrix_is_one():
    assert det_i_minus_u(RatMatrix(4, 4)) == Poly.one()


def test_det_i_minus_u_requires_square():
    with pytest.raises(ValueError):
        det_i_minus_u(RatMatrix(2, 3))


def test_det_i_minus_u_of_cycle_shift():
    # The flip-flop shift on C3 is three disjoint swaps.
    arcs = arc_space(cycle_graph(3))
    assert det_i_minus_u(shift(arcs)) == Poly(poly_pow([1, 0, -1], 3))


def test_det_i_minus_u_constant_term_is_one():
    rng = random.Random(7)
    for n in (1, 2, 5):
        p = det_i_minus_u(random_rat_matrix(rng, n))
        assert p[0] == 1


def test_det_i_minus_u_cross_checked_by_gaussian_elimination():
    rng = random.Random(11)
    points = [Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(7)]
    for n in (2, 3, 4, 5):
        m = random_rat_matrix(rng, n)
        p = det_i_minus_u(m)
        for t in points:
            assert p.eval_exact(t) == det_i_minus_t_times(m, t)


def test_det_i_minus_u_invariant_under_simultaneous_permutation():
    rng = random.Random(3)
    n = 5
    m = random_rat_matrix(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    conjugated = RatMatrix(
        n, n, ((perm[i], perm[j], v) for i, j, v in m.nonzero_items())
    )
    assert det_i_minus_u(m) == det_i_minus_u(conjugated)


def test_det_i_minus_u_multiplies_over_block_diagonal():
    rng = random.Random(5)
    a = random_rat_matrix(rng, 3)
    b = random_rat_matrix(rng, 2)
    combined = RatMatrix(5, 5)
    entries = list(a.nonzero_items()) + [(i + 3, j + 3, v) for i, j, v in b.nonzero_items()]
    combined = RatMatrix(5, 5, entries)
    product = Poly(poly_mul(list(det_i_minus_u(a).coeffs), list(det_i_minus_u(b).coeffs)))
    assert det_i_minus_u(combined) == product


def test_det_matrix_polynomial_quadratic_pencil():
    # det(I + u B1 + u^2 B2) = det(I - uC) with C = [[-B1, -B2], [I, 0]]
    rng = random.Random(17)
    n = 4
    b1, b2 = random_rat_matrix(rng, n), random_rat_matrix(rng, n)
    p = quadratic_pencil_det(b1, b2)
    assert p.degree <= 2 * n
    for t in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 7)):
        pencil = RatMatrix.identity(n) + b1 * t + b2 * (t * t)
        assert p.eval_exact(t) == gauss_det(dense(pencil))


def test_an_operator_clears_denominators_and_its_charpoly_matches_det_i_minus_u():
    rng = random.Random(23)
    for n in (1, 2, 5, 8):
        m = random_rat_matrix(rng, n)
        operator = polynomials._operator(polynomials._cleared(m))
        scale, coeffs = operator.scale, polynomials._charpolys([operator])[0]
        assert len(operator.coords) * operator.width == n
        assert scale == math.lcm(1, *(v.denominator for _, _, v in m.nonzero_items()))
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        assert all(isinstance(c, int) for c in coeffs)
        assert Poly(Fraction(c, scale**k) for k, c in enumerate(coeffs)) == det_i_minus_u(m)


def test_integer_cocycle_matches_one_minus_u_squared_pow():
    assert polynomials._times_one_minus_u_squared([1], 0) == [1]
    assert polynomials._times_one_minus_u_squared([1], 1) == [1, 0, -1]
    assert polynomials._times_one_minus_u_squared([1], 3) == [1, 0, -3, 0, 3, 0, -1]
    rng = random.Random(29)
    for _ in range(20):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 9))]
        for e in range(6):
            out = polynomials._times_one_minus_u_squared(coeffs, e)
            assert all(isinstance(c, int) for c in out)
            assert Poly(out) == Poly(poly_mul(poly_pow([1, 0, -1], e), coeffs))


def test_det_i_minus_u_with_large_entries_needs_many_primes():
    # numerators up to 2^40 over denominators up to 2^20 push the
    # coefficient bound far past a single 31-bit prime
    rng = random.Random(23)
    points = [Fraction(1, 3), Fraction(-5, 2), Fraction(7)]
    heights = []
    for n in (2, 4, 6):
        entries = [
            (i, j, Fraction(rng.randint(-(2**40), 2**40), rng.randint(1, 2**20)))
            for i in range(n)
            for j in range(n)
        ]
        m = RatMatrix(n, n, entries)
        p = det_i_minus_u(m)
        assert p[0] == 1 and p.degree == n
        heights.append(max(c.denominator.bit_length() for c in p.coeffs))
        for t in points:
            assert p.eval_exact(t) == det_i_minus_t_times(m, t)
    assert max(heights) > 4 * 31


def test_det_i_minus_u_keeps_cleared_entries_past_2_to_the_63_exact():
    # entries near 10^30 over denominators 1..3: L*M has entries far past
    # 2^63, which the record keeps as exact Python ints, never int64
    rng = random.Random(37)
    n = 5
    m = RatMatrix(n, n, [
        (i, j, Fraction(10**30 + rng.randrange(10**29), rng.randint(1, 3)))
        for i in range(n) for j in range(n) if rng.random() < 0.7
    ])
    cleared = polynomials._cleared(m)
    assert cleared.values.dtype == object
    assert max(abs(v) for v in cleared.values.tolist()) > 2**63
    assert list(det_i_minus_u(m).coeffs) == naive_det_i_minus_u(m)


def _cleared_bounds(matrix: RatMatrix) -> tuple[int, list[int]]:
    cleared = polynomials._cleared(matrix)
    return cleared.scale, coefficient_bounds(matrix.rows, cleared.entries())


def _whole(n: int, entries: list[tuple[int, int, int]]):
    """The whole route of the n x n integer matrix with these entries."""
    return polynomials._whole(polynomials._cleared(RatMatrix(n, n, entries)))


def _charpoly_coefficients(matrix: RatMatrix) -> list[Fraction]:
    """c_0..c_n of det(xI - M) from naive traces and Newton's identities."""
    n = matrix.rows
    sums = naive_trace_powers(matrix, n)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    return [(-1) ** k * x for k, x in enumerate(e)]


@pytest.mark.parametrize("graph", [petersen_graph(), torus_graph(2, 3), cycle_graph(5)],
                         ids=["petersen", "torus-2-3", "cycle-5"])
def test_coefficient_bound_of_an_orthogonal_matrix_is_binomial_times_scale_power(graph):
    # U is orthogonal, so ||L*U||_F^2 / n = L^2 and the Frobenius bound is
    # C(n, k) L^k; for q >= 1 it is never above the row-sum bound
    u_mat = grover(graph, arc_space(graph))
    n = u_mat.rows
    scale, bounds = _cleared_bounds(u_mat)
    assert bounds == [math.comb(n, k) * scale**k for k in range(n + 1)]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-2, 3), Fraction(5)])
def test_coefficient_bound_is_attained_by_a_scalar_matrix(c):
    # det(xI - L*c*I) = (x - L*c)^n has |c_k| = C(n, k) |L*c|^k exactly
    n = 6
    matrix = RatMatrix(n, n, [(i, i, c) for i in range(n)])
    scale, bounds = _cleared_bounds(matrix)
    coefficients = _charpoly_coefficients(matrix * scale)
    assert [abs(x) for x in coefficients] == bounds


def test_coefficient_bound_is_never_exceeded_on_random_matrices():
    rng = random.Random(29)
    tight = 0
    for trial in range(40):
        n = rng.randint(1, 7)
        matrix = random_rat_matrix(rng, n, rng.choice([0.2, 0.5, 1.0]))
        scale, bounds = _cleared_bounds(matrix)
        coefficients = _charpoly_coefficients(matrix * scale)
        assert all(abs(x) <= b for x, b in zip(coefficients, bounds))
        # the row-sum bound alone, which the Frobenius term can only lower
        entries = polynomials._cleared(matrix).entries()
        rho = max([sum(abs(v) for i, _, v in entries if i == r) for r in range(n)])
        assert all(b <= math.comb(n, k) * rho**k for k, b in enumerate(bounds))
        tight += any(b < math.comb(n, k) * rho**k for k, b in enumerate(bounds))
    assert tight > 0


@pytest.mark.parametrize(
    "graph, operator, count",
    [
        (torus_graph(2, 4), grover, 4),
        (torus_graph(2, 4), grover_positive_support, 3),
        (petersen_graph(), grover, 2),
    ],
    ids=["torus-2-4-U", "torus-2-4-U+", "petersen-U"],
)
def test_prime_count_from_the_coefficient_bound(graph, operator, count):
    _, bounds = _cleared_bounds(operator(graph, arc_space(graph)))
    primes, modulus = polynomials._primes_above(2 * max(bounds))
    assert len(primes) == count and modulus == math.prod(primes)


def _bound_and_oracle(n: int, entries: list[tuple[int, int, int]]) -> tuple[int, int]:
    bound = polynomials._coefficient_bound(_whole(n, entries))
    return bound, max(coefficient_bounds(n, entries))


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)),
                ),
                max_size=n * n,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_coefficient_bound_is_the_largest_per_k_bound_property(case):
    n, raw = case
    entries = sorted({(i, j): v for i, j, v in raw if v}.items())
    bound, oracle = _bound_and_oracle(n, [(i, j, v) for (i, j), v in entries])
    assert bound == oracle


@pytest.mark.parametrize(
    "n, entries",
    [
        pytest.param(5, [], id="zero"),
        pytest.param(6, [(0, 1, 1), (3, 3, -1)], id="frobenius-below-n"),
        pytest.param(4, [(i, i, (-1) ** i) for i in range(4)], id="frobenius-equal-n"),
        pytest.param(7, [(i, i, 1) for i in range(7)] + [(0, 1, 1)], id="frobenius-n-plus-1"),
        pytest.param(1, [(0, 0, -5)], id="one-by-one"),
        pytest.param(8, [(i, i, 3) for i in range(8)], id="scalar"),
        pytest.param(9, [(i, j, 1) for i in range(9) for j in range(9)], id="all-ones"),
    ],
)
def test_coefficient_bound_in_each_regime_of_the_frobenius_mean(n, entries):
    bound, oracle = _bound_and_oracle(n, entries)
    assert bound == oracle


def test_coefficient_bound_on_a_grid_of_sizes_and_frobenius_norms():
    # the bound depends only on n and F = ||A||_F^2; F ones fill the first
    # F cells, so every F from n + 1 to 6n is met, with the mode of the
    # walk at every position it takes for these n
    for n in range(6, 41):
        for frobenius in range(n + 1, 6 * n + 1):
            entries = [(cell // n, cell % n, 1) for cell in range(frobenius)]
            bound, oracle = _bound_and_oracle(n, entries)
            assert bound == oracle, (n, frobenius)


def _circulant_entries(n: int, stencil: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    return sorted((i, (i + s) % n, v) for i in range(n) for s, v in stencil)


@pytest.mark.parametrize(
    "stencil",
    [
        # a row of L*U on a 6-regular graph: -2 and five 1s, F / n = 9
        [(1, -2), (2, 1), (3, 1), (5, 1), (7, 1), (11, 1)],
        # F = n + 1: the walk from the mode goes far on both sides
        [(0, 1)],
    ],
    ids=["grover-like", "frobenius-n-plus-1"],
)
def test_coefficient_bound_at_n_3072_is_the_oracle_maximum(stencil):
    n = 3072
    entries = _circulant_entries(n, stencil)
    if len(stencil) == 1:
        entries.append((0, 1, 1))
        entries.sort()
    bound, oracle = _bound_and_oracle(n, entries)
    assert bound == oracle


P0, P1 = polynomials._prime(0), polynomials._prime(1)


def _check_against_the_oracle(matrix: RatMatrix) -> None:
    # n + 1 points fix a polynomial of degree <= n
    p = det_i_minus_u(matrix)
    assert p[0] == 1 and p.degree <= matrix.rows
    for t in range(-1, matrix.rows):
        point = Fraction(t, 3)
        assert p.eval_exact(point) == det_i_minus_t_times(matrix, point)


def test_kernel_swaps_for_a_single_prime_whose_pivot_is_zero():
    # column 0 below the diagonal is (P0, 1, ...): every prime but P0 pivots
    # on row 1, P0 sees 0 there and takes its own swap with row 2
    column = [P0, 1, 3 * P0 + 5]
    n = len(column) + 1
    entries = [(i + 1, 0, v) for i, v in enumerate(column)]
    entries += [(i, j, (i * 7 + j * 3) % 5 - 2) for i in range(n) for j in range(1, n)]
    matrix = RatMatrix(n, n, entries)
    primes, _ = polynomials._primes_above(2 * max(_cleared_bounds(matrix)[1]))
    assert primes[:2] == [P0, P1]
    assert [v % P0 for v in column][:2] == [0, 1]
    assert all(column[0] % p for p in primes[1:])
    _check_against_the_oracle(matrix)


def test_kernel_leaves_a_prime_whose_column_is_zero_unchanged():
    # column 0 below the diagonal is a multiple of P0: zero for P0 alone,
    # so P0 skips the step while the other primes eliminate
    column = [P0, -2 * P0, P0 * P1, 7 * P0]
    n = len(column) + 1
    entries = [(0, 0, 2)] + [(i + 1, 0, v) for i, v in enumerate(column)]
    entries += [(i, j, (i + 2 * j) % 7 - 3) for i in range(n) for j in range(1, n)]
    matrix = RatMatrix(n, n, entries)
    primes, _ = polynomials._primes_above(2 * max(_cleared_bounds(matrix)[1]))
    assert primes[0] == P0 and len(primes) >= 3
    assert all(v % P0 == 0 for v in column)
    assert all(any(v % p for v in column) for p in primes[1:])
    _check_against_the_oracle(matrix)


def test_kernel_with_primes_that_disagree_on_later_steps():
    # entries near the primes throughout, so residues vanish for one prime
    # at pivots and columns of later elimination steps as well
    rng = random.Random(31)
    values = [P0, P1, 2 * P0, P0 * P1, -P1, 1, -1, 2, 0, 0, 0]
    for n in (3, 4, 5, 6):
        for _ in range(4):
            entries = [(i, j, rng.choice(values)) for i in range(n) for j in range(n)]
            _check_against_the_oracle(RatMatrix(n, n, entries))


@pytest.mark.parametrize(
    "matrix, expected",
    [
        # zero and nilpotent matrices have characteristic polynomial x^n
        (RatMatrix(3, 3), Poly.one()),
        (RatMatrix.from_rows([[Fraction(-7, 3)]]), Poly([1, Fraction(7, 3)])),
        (
            RatMatrix(4, 4, [(i, j, Fraction(i + 2 * j, 3)) for i in range(4) for j in range(i + 1, 4)]),
            Poly.one(),
        ),
    ],
    ids=["zero", "one-by-one", "strictly-upper-triangular"],
)
def test_det_i_minus_u_edge_cases_match_the_oracle(matrix, expected):
    p = det_i_minus_u(matrix)
    assert p == expected
    for t in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(9, 4)):
        assert p.eval_exact(t) == det_i_minus_t_times(matrix, t)


def test_log_series_of_geometric_factor():
    coeffs = log_series(Poly([1, -1]), 6)
    assert coeffs == tuple(Fraction(1, r) for r in range(1, 7))


def test_log_series_of_cycle_zeta_reciprocal():
    # log 1/(1 - u^3)^2 = 2 u^3 + u^6 + (2/3) u^9 + ...
    p = Poly([1, 0, 0, -1]) ** 2
    coeffs = log_series(p, 9)
    expected = [Fraction(0)] * 9
    expected[2] = Fraction(2)
    expected[5] = Fraction(1)
    expected[8] = Fraction(2, 3)
    assert coeffs == tuple(expected)


def test_log_series_edge_cases():
    assert log_series(Poly.one(), 5) == (Fraction(0),) * 5
    assert log_series(Poly([1, -1]), 0) == ()
    with pytest.raises(ValueError):
        log_series(Poly([2, 1]), 3)
    with pytest.raises(ValueError):
        log_series(Poly([1, 1]), -1)


def test_log_series_turns_products_into_sums():
    p = Poly([1, -2, 0, 5])
    q = Poly([1, 3, 1])
    lp = log_series(p, 8)
    lq = log_series(q, 8)
    lpq = log_series(p * q, 8)
    assert lpq == tuple(a + b for a, b in zip(lp, lq))


def test_log_series_recovers_matrix_power_traces():
    # Newton's identities: log det(I - uM)^-1 = sum_r Tr(M^r)/r u^r.
    rng = random.Random(19)
    m = random_rat_matrix(rng, 4)
    coeffs = log_series(det_i_minus_u(m), 6)
    traces = naive_trace_powers(m, 6)
    for r in range(1, 7):
        assert coeffs[r - 1] * r == traces[r - 1]


def _newton_traces(matrix: RatMatrix, r_max: int) -> tuple[Fraction, ...]:
    # Tr M^r = r * [u^r] log 1/det(I - uM), through the determinant kernel
    return tuple(r * c for r, c in enumerate(log_series(det_i_minus_u(matrix), r_max), start=1))


@pytest.mark.parametrize("seed", range(8))
def test_trace_powers_match_the_naive_oracle_and_newton(seed):
    rng = random.Random(300 + seed)
    m = random_rat_matrix(rng, 1 + seed % 6, sparsity=0.3 + 0.1 * (seed % 5))
    traces = trace_powers(m, 8)
    assert len(traces) == 8
    assert traces == naive_trace_powers(m, 8)
    assert traces == _newton_traces(m, 8)


def _degrees_two_to_ten_graph():
    # vertices 0..10, i ~ j iff i + j >= 9: every degree from 2 to 10
    # occurs, so the Grover entries have the denominators 2..10 and the
    # cleared matrix is scaled by their lcm, 2520
    g = graph_from_edges(11, [(i, j) for i in range(11) for j in range(i + 1, 11) if i + j >= 9])
    assert set(g.degree_profile) == set(range(2, 11))
    return g


@pytest.mark.parametrize("operator", [grover, grover_positive_support])
def test_trace_powers_on_a_non_regular_graph_with_lcm_2520(operator):
    g = _degrees_two_to_ten_graph()
    m = operator(g, arc_space(g))
    traces = trace_powers(m, 8)
    assert traces == naive_trace_powers(m, 8)
    assert traces == _newton_traces(m, 8)


def test_trace_powers_do_not_use_the_determinant_route(monkeypatch):
    # zeta_series_consistency compares the two routes, so the traces must
    # not be derived from the determinant, whole or in Fourier blocks
    def forbidden(*args):
        raise AssertionError("trace_powers went through the determinant route")

    monkeypatch.setattr(polynomials, "det_i_minus_u", forbidden)
    monkeypatch.setattr(polynomials, "log_series", forbidden)
    monkeypatch.setattr(polynomials, "_charpolys", forbidden)
    monkeypatch.setattr(polynomials, "_coefficient_bound", forbidden)
    monkeypatch.setattr(polynomials, "_hessenberg_charpolys", forbidden)
    monkeypatch.setattr(polynomials, "_fourier_charpolys", forbidden)
    monkeypatch.setattr(polynomials, "_fourier_blocks", forbidden)
    monkeypatch.setattr(polynomials, "_product_mod", forbidden)
    m = random_rat_matrix(random.Random(23), 5)
    assert polynomials.trace_powers(m, 6) == naive_trace_powers(m, 6)
    graph = torus_graph(2, 4)
    u_mat = grover(graph, arc_space(graph))
    record = operators._grover(graph, arc_space(graph))
    operator = polynomials._operator(record)
    counts = polynomials._traces(operator, 6)
    assert counts == naive_trace_powers(u_mat, 6)


def test_trace_powers_edge_cases():
    a = Fraction(-3, 7)
    one_by_one = RatMatrix.from_rows([[a]])
    assert trace_powers(one_by_one, 6) == tuple(a**r for r in range(1, 7))
    nilpotent = RatMatrix.from_rows(
        [[0, Fraction(1, 2), 3], [0, 0, Fraction(-5, 3)], [0, 0, 0]]
    )
    upper_shift = RatMatrix(5, 5, [(i, i + 1, Fraction(1)) for i in range(4)])
    for m in (RatMatrix(1, 1), RatMatrix(4, 4), nilpotent, upper_shift):
        for r_max in range(10):
            assert trace_powers(m, r_max) == (Fraction(0),) * r_max
    for m in (RatMatrix(4, 4), one_by_one, nilpotent):
        assert trace_powers(m, 5) == naive_trace_powers(m, 5) == _newton_traces(m, 5)
    assert trace_powers(one_by_one, 0) == ()
    with pytest.raises(ValueError):
        trace_powers(one_by_one, -1)
    with pytest.raises(ValueError):
        trace_powers(RatMatrix(2, 3), 2)


def _trace_primes(matrix: RatMatrix, r_max: int) -> list[int]:
    route = polynomials._whole(polynomials._cleared(matrix))
    return polynomials._primes_above(2 * polynomials._trace_bound(route, r_max))[0]


def test_trace_powers_of_entries_near_10_to_the_30():
    # dense rows of 16 entries whose residues are spread over (-p/2, p/2],
    # so that one product's unreduced sum would pass 2^63 - 1: the running
    # bound makes the kernel reduce the sum inside the product
    rng = random.Random(31)
    n = 16
    m = RatMatrix(n, n, [
        (i, j, Fraction(10**30 + rng.randrange(10**29), rng.randint(1, 3)))
        for i in range(n) for j in range(n)
    ])
    primes = _trace_primes(m, 6)
    entries = polynomials._cleared(m).entries()
    slot_bounds = [
        max(abs(min(v % p, v % p - p, key=abs)) for _, _, v in entries[t::n] for p in primes)
        for t in range(n)
    ]
    assert sum(slot_bounds) * (max(primes) - 1) > 2**63 - 1
    assert trace_powers(m, 6) == naive_trace_powers(m, 6)


def test_trace_powers_with_one_dense_row_and_empty_rows():
    # rows of widths 7, 0, 1, 0, 0, 2, 0 padded to the widest
    n = 7
    m = RatMatrix(n, n, [(0, j, Fraction(j - 3, j + 1)) for j in range(n) if j != 3]
                  + [(0, 3, Fraction(5)), (2, 0, Fraction(-2, 3)), (5, 0, Fraction(1, 2)),
                     (5, 5, Fraction(7, 4))])
    for r_max in range(10):
        assert trace_powers(m, r_max) == naive_trace_powers(m, r_max)


def test_trace_powers_of_k4_at_order_200_take_many_primes():
    g = complete_graph(4)
    u_mat = grover(g, arc_space(g))
    assert len(_trace_primes(u_mat, 200)) > 5
    assert trace_powers(u_mat, 200) == _newton_traces(u_mat, 200)


def test_trace_bound_is_attained_by_the_all_ones_matrix():
    # J^r = n^(r-1) J, so Tr J^r = n^r: the diagonal sum at r = 1, and
    # rho^(r-2) ||J||_F^2 = n^(r-2) n^2 for r >= 2
    for n in range(1, 7):
        ones = RatMatrix(n, n, [(i, j, Fraction(1)) for i in range(n) for j in range(n)])
        route = polynomials._whole(polynomials._cleared(ones))
        for r in range(1, 9):
            assert polynomials._trace_bound(route, r) == n**r
        assert trace_powers(ones, 8) == tuple(Fraction(n**r) for r in range(1, 9))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
@settings(max_examples=60, deadline=None)
def test_trace_bound_is_never_exceeded_property(rows):
    m = RatMatrix.from_rows(rows)
    cleared = polynomials._cleared(m)
    scale, route = cleared.scale, polynomials._whole(cleared)
    for r, trace in enumerate(naive_trace_powers(m, 9), start=1):
        assert abs(trace * scale**r) <= polynomials._trace_bound(route, r)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(max_examples=60, deadline=None)
def test_trace_powers_match_the_naive_oracle_at_every_order_property(rows):
    # trace_powers reads odd and even orders from different pairings of
    # powers, so every order 0..9 is checked
    m = RatMatrix.from_rows(rows)
    naive = naive_trace_powers(m, 9)
    for r_max in range(10):
        assert trace_powers(m, r_max) == naive[:r_max]


small_ints = st.integers(min_value=-4, max_value=4)


@given(
    st.lists(small_ints, min_size=0, max_size=5),
    st.lists(small_ints, min_size=0, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_log_series_additivity_property(tail_p, tail_q):
    p = Poly([1] + tail_p)
    q = Poly([1] + tail_q)
    lp = log_series(p, 7)
    lq = log_series(q, 7)
    assert log_series(p * q, 7) == tuple(a + b for a, b in zip(lp, lq))


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9), max_size=8),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_log_series_satisfies_its_defining_relation_property(tail, order):
    # log(1/p)' = -p'/p, so -p' = p * sum_r r c_r u^(r-1) modulo u^order
    p = [Fraction(1)] + tail
    sums = [r * c for r, c in enumerate(log_series(Poly(p), order), start=1)]
    assert len(sums) == order
    product = poly_mul(p, sums)
    minus_derivative = [-k * c for k, c in enumerate(p)][1:]

    def low(coeffs):
        return (coeffs + [Fraction(0)] * order)[:order]

    assert low(product) == low(minus_derivative)


@given(
    st.lists(
        st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3
    ),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)]),
)
@settings(max_examples=60, deadline=None)
def test_det_i_minus_u_matches_oracle_property(rows, t):
    m = RatMatrix.from_rows([[Fraction(x) for x in row] for row in rows])
    assert det_i_minus_u(m).eval_exact(t) == det_i_minus_t_times(m, t)
