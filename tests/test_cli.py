import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zetawalk
from helpers import frucht_graph
from zetawalk import (
    IdentityCheck,
    KonnoSatoReport,
    Poly,
    RatMatrix,
    ZetawalkError,
    arc_space,
    cli,
    complete_graph,
    cycle_oracle,
    errors,
    grover_zeta_reciprocal,
    ihara_reciprocal_bass,
    ihara_reciprocal_edge,
    limits,
    load_graph,
    operators,
    reduced_cycle_counts,
    save_graph,
    weighted_cycle_counts,
)
from zetawalk.cli import entrypoint


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    assert entrypoint(["gen", "--family", "complete", "--N", "4", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def c3_path(tmp_path):
    path = tmp_path / "c3.json"
    assert entrypoint(["gen", "--family", "cycle", "--N", "3", "--out", str(path)]) == 0
    return str(path)


def run_cli(capsys, argv):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_stdout_json(capsys):
    code, out, err = run_cli(capsys, ["gen", "--family", "petersen"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 10
    assert len(payload["edges"]) == 15
    assert err == ""


def test_gen_output_file_round_trips(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, out, _ = run_cli(
        capsys, ["gen", "--family", "torus", "--d", "2", "--N", "3", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    g = load_graph(path)
    assert g.num_vertices == 9
    assert g.regular_degree == 4


@pytest.mark.parametrize(
    "name, args",
    [
        ("cycle-5", "cycle --N 5"),
        ("cycle-8", "cycle --N 8"),
        ("torus-2-3", "torus --d 2 --N 3"),
        ("torus-3-4", "torus --d 3 --N 4"),
        ("complete-6", "complete --N 6"),
        ("complete-7", "complete --N 7"),
        ("hypercube-3", "hypercube --d 3"),
        ("hypercube-4", "hypercube --d 4"),
        ("petersen", "petersen"),
        ("gp-7-2", "gp --N 7 --k 2"),
        ("gp-12-5", "gp --N 12 --k 5"),
    ],
)
def test_gen_writes_each_committed_family_file_byte_for_byte(tmp_path, name, args):
    path = tmp_path / f"{name}.json"
    assert entrypoint(["gen", "--family", *args.split(), "--out", str(path)]) == 0
    fixture = Path(__file__).parent / "fixtures" / "families" / f"{name}.json"
    assert path.read_bytes() == fixture.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "cycle"],
        ["gen", "--family", "petersen", "--N", "5"],
        ["gen", "--family", "torus", "--N", "3"],
        ["gen", "--family", "hypercube", "--N", "3"],
        ["gen", "--family", "cycle", "--N", "2"],
    ],
)
def test_gen_parameter_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "error:" in err


def test_matrix_dump_schema(capsys, k4_path):
    code, out, _ = run_cli(
        capsys, ["matrix", "dump", "--graph", k4_path, "--operator", "transition"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "cols", "entries"}
    assert payload["rows"] == 4 and payload["cols"] == 4
    assert all(v == "1/3" for _, _, v in payload["entries"])
    coords = [(i, j) for i, j, _ in payload["entries"]]
    assert coords == sorted(coords)


def test_matrix_dump_arc_operators(capsys, c3_path):
    code, out, _ = run_cli(
        capsys, ["matrix", "dump", "--graph", c3_path, "--operator", "shift"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == payload["cols"] == 6
    assert len(payload["entries"]) == 6
    code, out, _ = run_cli(
        capsys, ["matrix", "dump", "--graph", c3_path, "--operator", "grover"]
    )
    assert json.loads(out)["rows"] == 6


def _sparse(matrix):
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[i, j, str(v)] for i, j, v in matrix.nonzero_items()],
    }


def _coeffs(reciprocal):
    return lambda g: {"coeffs": [str(c) for c in reciprocal(g).coeffs]}


def _counts(series):
    return lambda g: {"N": [str(c) for c in series(g).counts]}


# every choice of the three choice tables, with the library call it names,
# serialized as the command prints it
CHOICES = {
    ("matrix dump", "adjacency"): lambda g: _sparse(operators.adjacency(g)),
    ("matrix dump", "degree"): lambda g: _sparse(operators.degree_matrix(g)),
    ("matrix dump", "transition"): lambda g: _sparse(operators.transition(g)),
    ("matrix dump", "laplacian"): lambda g: _sparse(operators.laplacian(g)),
    ("matrix dump", "shift"): lambda g: _sparse(operators.shift(arc_space(g))),
    ("matrix dump", "coin"): lambda g: _sparse(operators.coin(g, arc_space(g))),
    ("matrix dump", "grover"): lambda g: _sparse(operators.grover(g, arc_space(g))),
    ("matrix dump", "positive-support"):
        lambda g: _sparse(operators.grover_positive_support(g, arc_space(g))),
    ("charpoly", "grover"): _coeffs(grover_zeta_reciprocal),
    ("charpoly", "positive-support"): _coeffs(ihara_reciprocal_edge),
    ("charpoly", "bass"): _coeffs(ihara_reciprocal_bass),
    ("series", "grover"): _counts(lambda g: weighted_cycle_counts(g, 5)),
    ("series", "ihara"): _counts(lambda g: reduced_cycle_counts(g, 5)),
    ("series", "oracle-weighted"): _counts(lambda g: cycle_oracle(g, 5, "weighted")),
    ("series", "oracle-reduced"): _counts(lambda g: cycle_oracle(g, 5, "reduced")),
}


def test_every_table_choice_is_exercised():
    tables = {"matrix dump": cli._OPERATORS, "charpoly": cli._RECIPROCALS, "series": cli._SERIES}
    assert set(CHOICES) == {
        (command, choice) for command, table in tables.items() for choice in table
    }


@pytest.mark.parametrize("command, choice", list(CHOICES))
def test_each_choice_prints_the_library_call_it_names(capsys, k4_path, command, choice):
    argv = {
        "matrix dump": ["matrix", "dump", "--operator", choice],
        "charpoly": ["charpoly", "--matrix", choice],
        "series": ["series", "--which", choice, "--order", "5", "--json"],
    }[command] + ["--graph", k4_path]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(CHOICES[command, choice](load_graph(k4_path)), indent=2) + "\n"


def test_charpoly_of_triangle(capsys, c3_path):
    expected = ["1", "0", "0", "-2", "0", "0", "1"]
    for matrix in ("grover", "positive-support", "bass"):
        code, out, _ = run_cli(
            capsys, ["charpoly", "--graph", c3_path, "--matrix", matrix]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"coeffs"}
        assert payload["coeffs"] == expected


def test_verify_konno_sato_text_and_json(capsys, k4_path):
    code, out, _ = run_cli(capsys, ["verify", "konno-sato", "--graph", k4_path])
    assert code == 0
    assert "all identities hold" in out
    assert out.count(": ok") == 4

    code, out, _ = run_cli(
        capsys, ["verify", "konno-sato", "--graph", k4_path, "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert payload["failing"] == []
    assert len(payload["identities"]) == 4
    assert payload["regular_degree"] == 3


def test_verify_failure_exits_1(capsys, monkeypatch, c3_path):
    lhs = Poly([1, 1])
    rhs = Poly([1, 2])
    fake = KonnoSatoReport(
        graph_summary="stub",
        regular_degree=2,
        identities=(
            IdentityCheck(tag="grover-transition", holds=False, lhs=lhs, rhs=rhs),
        ),
    )
    monkeypatch.setattr("zetawalk.zeta.konno_sato_check", lambda g: fake)
    code, out, _ = run_cli(capsys, ["verify", "konno-sato", "--graph", c3_path])
    assert code == 1
    assert "FAIL" in out

    code, out, _ = run_cli(
        capsys, ["verify", "konno-sato", "--graph", c3_path, "--json"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["all_hold"] is False
    assert payload["failing"] == [
        {"tag": "grover-transition", "lhs": ["1", "1"], "rhs": ["1", "2"]}
    ]


def test_series_json_and_text(capsys, c3_path):
    code, out, _ = run_cli(
        capsys,
        ["series", "--graph", c3_path, "--order", "6", "--which", "oracle-reduced", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {"N": ["0", "0", "6", "0", "0", "6"]}

    code, out, _ = run_cli(
        capsys, ["series", "--graph", c3_path, "--order", "3", "--which", "ihara"]
    )
    assert code == 0
    assert out.splitlines() == ["1 0", "2 0", "3 6"]


def test_series_trace_and_oracle_routes_agree(capsys, k4_path):
    _, fast, _ = run_cli(
        capsys, ["series", "--graph", k4_path, "--order", "4", "--which", "grover", "--json"]
    )
    _, slow, _ = run_cli(
        capsys,
        ["series", "--graph", k4_path, "--order", "4", "--which", "oracle-weighted", "--json"],
    )
    assert fast == slow
    assert json.loads(fast)["N"][1] == "4/3"


_DIGIT_LIMIT = pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-to-str digit limit")


@pytest.fixture
def digits_640():
    """CPython's int-to-str limit lowered to 640 digits for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def _complete_path(tmp_path, n):
    path = str(tmp_path / f"complete-{n}.json")
    assert entrypoint(["gen", "--family", "complete", "--N", str(n), "--out", path]) == 0
    return path


# complete graphs whose charpoly prints under a 640-digit limit, with the
# most digits of a numerator or denominator in it; the coefficient bound of
# each operator passes the limit, so only the printed numbers can decide
_PRINTED_AT_640 = [("grover", 24, 98), ("positive-support", 29, 154), ("bass", 57, 561), ("bass", 61, 639)]


@pytest.mark.parametrize("matrix, n, digits", _PRINTED_AT_640)
def test_charpoly_prints_every_polynomial_that_converts(capsys, tmp_path, digits_640, matrix, n, digits):
    path = _complete_path(tmp_path, n)
    code, out, err = run_cli(capsys, ["charpoly", "--graph", path, "--matrix", matrix])
    assert (code, err) == (0, "")
    assert out == json.dumps(CHOICES["charpoly", matrix](complete_graph(n)), indent=2) + "\n"
    parts = [part.lstrip("-") for c in json.loads(out)["coeffs"] for part in c.split("/")]
    assert max(map(len, parts)) == digits


def test_charpoly_refuses_a_coefficient_too_long_to_print(capsys, tmp_path, digits_640):
    # the Bass form of complete(62) has a coefficient of 659 digits
    path = _complete_path(tmp_path, 62)
    code, out, err = run_cli(capsys, ["charpoly", "--graph", path, "--matrix", "bass"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "more than 640 digits" in err


def _count_calls(monkeypatch, targets):
    """The names of the (module, name) targets, once per call, in call order."""
    calls = []
    for module, name in targets:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    return calls


# the steps of one walk operator: its graph's cover, which its arc space
# verifies, its route, the one state space that the route builds, and its
# determinant bound
_ROUTE_STEPS = [
    (zetawalk.graphs, "_abelian_cover"),
    (zetawalk.polynomials, "_torus_stencil"),
    (zetawalk.polynomials, "_state_space"),
    (zetawalk.polynomials, "_coefficient_bound"),
]


@pytest.mark.parametrize("matrix, grovers", [("grover", 1), ("positive-support", 1), ("bass", 0)])
def test_charpoly_chooses_the_route_of_its_operator_once(
    capsys, monkeypatch, k4_path, matrix, grovers
):
    # the reciprocal builds and routes its operator once, and the kernel
    # computes its bound once
    targets = [(zetawalk.zeta, "grover"), (operators, "grover"), *_ROUTE_STEPS]
    calls = _count_calls(monkeypatch, targets)
    code, out, err = run_cli(capsys, ["charpoly", "--graph", k4_path, "--matrix", matrix])
    assert (code, err) == (0, "")
    steps = ["_abelian_cover", "_torus_stencil", "_state_space", "_coefficient_bound"]
    assert [name for name in calls if name != "grover"] == steps
    assert calls.count("grover") == grovers
    assert out == json.dumps(CHOICES["charpoly", matrix](load_graph(k4_path)), indent=2) + "\n"


@pytest.mark.parametrize("which", ["grover", "ihara"])
def test_series_chooses_the_route_of_its_operator_once(capsys, monkeypatch, k4_path, which):
    # the digit refusal and the traces share one routed operator, and the
    # determinant bound is never computed
    calls = _count_calls(monkeypatch, _ROUTE_STEPS)
    argv = ["series", "--graph", k4_path, "--which", which, "--order", "5", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert calls == ["_abelian_cover", "_torus_stencil", "_state_space"]
    assert out == json.dumps(CHOICES["series", which](load_graph(k4_path)), indent=2) + "\n"


@_DIGIT_LIMIT
def test_series_refuses_counts_too_long_to_print(capsys, k4_path):
    # the counts of U on K4 at order 9100 have denominators 3^9100
    argv = ["series", "--graph", k4_path, "--order", "9100", "--which", "grover"]
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, argv + extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in err


@_DIGIT_LIMIT
@pytest.mark.parametrize("which, order", [("grover", 6152), ("grover", 10**6), ("ihara", 14282)])
def test_series_refuses_long_counts_before_the_powers(capsys, monkeypatch, k4_path, which, order):
    # on K4 the trace bound 108 * 5^(order - 2) of U reaches 10^4300 at
    # order 6152 (and L^order = 3^order at 9013); that of U+, 6 * 2^order
    # with L = 1, at order 14282
    def forbidden(*args):
        raise AssertionError("the powers were formed")

    monkeypatch.setattr(zetawalk.polynomials, "_trace_residues", forbidden)
    argv = ["series", "--graph", k4_path, "--order", str(order), "--which", which]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_series_digit_check_is_exact_where_the_bound_is_attained():
    # M = (10): Tr M^r = 10^r is the bound itself, with r + 1 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # a matrix built from its entries has no cover, so it goes whole
        ten = RatMatrix(1, 1, [(0, 0, 10)])
        counts = cli._trace_counts(ten, 639)
        assert [str(c) for c in counts][-1] == "1" + "0" * 639
        with pytest.raises(ZetawalkError, match="more than 640 digits"):
            cli._trace_counts(ten, 640)
        # M = (1/10): the denominator 10^640 alone is refused
        with pytest.raises(ZetawalkError, match="more than 640 digits"):
            tenth = RatMatrix(1, 1, [(0, 0, Fraction(1, 10))])
            cli._trace_counts(tenth, 640)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("which", list(cli._SERIES))
def test_series_names_the_order_flag_below_1(capsys, k4_path, which, order):
    argv = ["series", "--graph", k4_path, "--which", which, "--order", order]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: --order must be at least 1, got {order}\n"


@pytest.mark.parametrize("which", ["grover", "ihara"])
def test_series_takes_the_fourier_route_on_a_tagged_cayley_graph(
    capsys, monkeypatch, tmp_path, which
):
    sides = []
    route = zetawalk.polynomials._trace_residues
    monkeypatch.setattr(
        zetawalk.polynomials,
        "_trace_residues",
        lambda torus, primes, r_max: sides.append(torus.side) or route(torus, primes, r_max),
    )
    torus = zetawalk.torus_graph(2, 4)
    untagged = zetawalk.graph_from_edges(16, torus.edges())
    outputs = []
    for graph in (torus, untagged, zetawalk.petersen_graph()):
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        argv = ["series", "--graph", str(path), "--which", which, "--order", "8", "--json"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    # Petersen is a Z_5-cover
    assert sides == [4, 1, 5]
    # the same labelled graph with and without its tag: the same counts
    assert outputs[0] == outputs[1]


@_DIGIT_LIMIT
def test_series_digit_check_passes_counts_that_stay_small_at_any_order(monkeypatch):
    # U+ of a cycle is a permutation: L = 1 and rho = 1, so every count is
    # 0 or 2N, and no order is refused
    monkeypatch.setattr(zetawalk.polynomials, "_traces", lambda operator, order: "formed")
    g = zetawalk.cycle_graph(5)
    support = operators.grover_positive_support(g, zetawalk.arc_space(g))
    assert cli._trace_counts(support, 10**9) == "formed"


def test_zeta_eval_both_methods_agree(capsys, k4_path):
    code, out, _ = run_cli(
        capsys, ["zeta-eval", "--graph", k4_path, "--u", "1/5", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["u"] == "1/5"
    assert abs(payload["spectral"] - payload["charpoly"]) <= 1e-12


def test_zeta_eval_single_method_text(capsys, k4_path):
    code, out, _ = run_cli(
        capsys,
        ["zeta-eval", "--graph", k4_path, "--u", "0.2", "--method", "spectral"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spectral ")

    code, out, _ = run_cli(
        capsys,
        ["zeta-eval", "--graph", k4_path, "--u", "1/5", "--method", "charpoly", "--json"],
    )
    payload = json.loads(out)
    assert "spectral" not in payload
    assert "agree" not in payload


def test_zeta_eval_disagreement_exits_1(capsys, monkeypatch, k4_path):
    monkeypatch.setattr(
        "zetawalk.zeta.spectral_zeta_reciprocal",
        lambda g, u, which="grover", route="transition": 2.0,
    )
    code, out, _ = run_cli(capsys, ["zeta-eval", "--graph", k4_path, "--u", "1/5"])
    assert code == 1
    assert "NO" in out


@pytest.mark.parametrize("method", ["spectral", "charpoly", "both"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_zeta_eval_refuses_a_tolerance_outside_its_domain(capsys, tmp_path, k4_path, method, tol):
    # checked before the graph is read, so a missing file gives the same error
    expected = (2, "", f"error: --tol must be a finite number >= 0, got {float(tol)!r}\n")
    for graph in (k4_path, str(tmp_path / "missing.json")):
        argv = ["zeta-eval", "--graph", graph, "--u", "1/5", "--method", method, "--tol", tol, "--json"]
        assert run_cli(capsys, argv) == expected
    argv = ["zeta-eval", "--graph", k4_path, "--u", "1/5", "--method", method, "--tol", "0"]
    assert run_cli(capsys, argv)[0] in (0, 1)


@pytest.mark.parametrize("method", ["spectral", "charpoly"])
def test_zeta_eval_json_refuses_a_u_too_long_to_write(capsys, tmp_path, k4_path, method):
    # 1e-5000 has a denominator of 5001 digits, past the int-to-str limit;
    # JSON writes u exactly, so it is refused before the graph is read
    for graph in (k4_path, str(tmp_path / "missing.json")):
        argv = ["zeta-eval", "--graph", graph, "--u", "1e-5000", "--method", method, "--json"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --u ") and err.count("\n") == 1
        assert str(sys.get_int_max_str_digits()) in err
    argv = ["zeta-eval", "--graph", k4_path, "--u", "1e-5000", "--method", method]
    assert run_cli(capsys, argv) == (0, f"{method} 1\n", "")


def test_zeta_eval_domain_error_exits_2(capsys, k4_path):
    code, _, err = run_cli(capsys, ["zeta-eval", "--graph", k4_path, "--u", "3/2"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("method", ["spectral", "charpoly"])
def test_zeta_eval_refutes_a_false_vertex_transitive_flag(capsys, tmp_path, method):
    path = tmp_path / "frucht.json"
    save_graph(frucht_graph(), path)
    code, out, err = run_cli(
        capsys, ["zeta-eval", "--graph", str(path), "--u", "1/10", "--method", method]
    )
    assert (code, out) == (2, "")
    assert "closed walks of length 3" in err


def test_torus_limit_at_zero_is_one(capsys):
    code, out, _ = run_cli(
        capsys, ["torus-limit", "--d", "2", "--u", "0", "--grid", "16"]
    )
    assert code == 0
    assert out.strip() == "1"


def test_torus_limit_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["torus-limit", "--d", "2", "--u", "1/5", "--grid", "32", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "grid", "prefactor"}
    assert payload["grid"] == 32
    assert payload["prefactor"] == pytest.approx(1 - 0.04, abs=1e-15)
    assert 0.9 < payload["value"] < 1.0


def test_torus_limit_ihara_margin(capsys):
    # the ihara kind keeps the library's domain and no margin of its own:
    # |u| = 0.4 is beyond the positivity bound 1/(2*2-1), so a factor at
    # the spectrum endpoint 1 is not positive
    code, out, err = run_cli(
        capsys, ["torus-limit", "--d", "2", "--u", "2/5", "--which", "ihara"]
    )
    a, b = limits.vertex_factor(0.4, 3, "ihara")
    assert (code, out) == (2, "")
    assert err == (
        f"error: determinant factor {a + b} at spectrum endpoint 1.0 is not "
        f"positive for u = 0.4 (ihara kind, dimension 2)\n"
    )

    # 0.3 < 1/3 is inside the positivity domain
    code, out, err = run_cli(
        capsys,
        ["torus-limit", "--d", "2", "--u", "3/10", "--which", "ihara", "--grid", "16"],
    )
    assert (code, err) == (0, "")
    assert out == f"{zetawalk.torus_limit_zeta_reciprocal(2, 0.3, 'ihara', 16):.15g}\n"

    # --full-domain is not an option
    code, out, err = run_cli(
        capsys,
        ["torus-limit", "--d", "2", "--u", "1/5", "--which", "ihara", "--full-domain"],
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --full-domain" in err


@pytest.mark.parametrize("d", [2, 3])
def test_ihara_kind_runs_at_095_of_the_positivity_bound(capsys, d):
    u = Fraction(95, 100 * (2 * d - 1))
    argv = ["torus-limit", "--d", str(d), "--u", str(u), "--which", "ihara", "--grid", "16", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    value, prefactor = zetawalk.torus_limit_terms(d, float(u), "ihara", 16)
    expected = {"value": float(f"{value:.15g}"), "grid": 16, "prefactor": float(f"{prefactor:.15g}")}
    assert out == json.dumps(expected, indent=2) + "\n"

    argv = ["converge", "--d", str(d), "--u", str(u), "--N", "4,8", "--which", "ihara"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    study = zetawalk.convergence_study(d, float(u), [4, 8], "ihara")
    rows = [f"{row.n},{row.value:.15g},{row.abs_error:.15g}" for row in study.rows]
    assert out == "\n".join(["N,value,abs_error", *rows]) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-limit", "--d", "5", "--u", "1/20"],
        ["converge", "--d", "6", "--u", "1/20", "--N", "4,8"],
    ],
)
def test_high_dimensions_run_without_a_flag(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--which", "oracle-weighted", "--order", "1000000000"],
        ["converge", "--d", "100000000", "--u", "1/20", "--N", "3"],
    ],
    ids=["oracle-order", "converge-dimension"],
)
def test_a_size_guard_exits_2_without_forming_the_power(capsys, k4_path, argv):
    if argv[0] == "series":
        argv = argv + ["--graph", k4_path]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_grid_too_large_to_form_exits_2(capsys):
    argv = ["torus-limit", "--d", "3", "--u", "1/5", "--grid", "20000"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension 3 on grid 20000 would form ")
    assert err.count("\n") == 1 and "grid points at once" in err


def test_converge_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["converge", "--d", "2", "--u", "1/5", "--N", "4,8", "--require-monotone"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,value,abs_error"
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[2].startswith("8,")


def test_converge_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["converge", "--d", "1", "--u", "1/5", "--N", "4,8", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reference_grid"] == 32
    assert [row["N"] for row in payload["rows"]] == [4, 8]
    assert payload["errors_monotone"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--d", "2", "--u", "1/5", "--N", "4,x"],
        ["converge", "--d", "2", "--u", "1/5", "--N", ""],
        ["converge", "--d", "2", "--u", "1/5", "--N", "4,8", "--reference-grid", "16"],
    ],
)
def test_converge_bad_inputs_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta-eval", "--graph", "{k4}", "--u", "1e400", "--method", "spectral"],
        ["torus-limit", "--d", "2", "--u", "1e400"],
        ["converge", "--d", "2", "--u", "1e400", "--N", "4"],
    ],
)
def test_u_beyond_double_range_exits_2(capsys, k4_path, argv):
    code, out, err = run_cli(capsys, [arg.format(k4=k4_path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err == "error: |u| is about 2^1328.8, outside the double range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta-eval", "--graph", "{k4}", "--u", "{u}", "--json"],
        ["zeta-eval", "--graph", "{k4}", "--u", "{u}", "--which", "ihara"],
        ["torus-limit", "--d", "2", "--u", "{u}", "--grid", "16"],
        ["converge", "--d", "2", "--u", "{u}", "--N", "4,8", "--json"],
    ],
)
@pytest.mark.parametrize("u", ["-1/7", "-3/20", "-0.15"])
def test_negative_u_after_a_space_reads_as_with_an_equals_sign(capsys, k4_path, argv, u):
    # argparse takes "-1/7" for an option of its own unless it is attached
    spaced = [arg.format(k4=k4_path, u=u) for arg in argv]
    joined = [arg for arg in spaced if arg != u]
    joined[joined.index("--u")] = f"--u={u}"
    assert run_cli(capsys, spaced) == run_cli(capsys, joined)
    code, out, err = run_cli(capsys, spaced)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command", [["torus-limit"], ["converge", "--N", "4,8"]])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_ihara_dimension_is_checked_before_the_margin(capsys, command, d):
    argv = command + ["--d", d, "--u", "1/10", "--which", "ihara"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: torus dimension must be at least 1, got {d}\n"


def test_charpoly_determinant_too_long_to_print_exits_2(capsys, tmp_path):
    path = str(tmp_path / "petersen.json")
    assert entrypoint(["gen", "--family", "petersen", "--out", path]) == 0
    argv = ["zeta-eval", "--graph", path, "--u", "1e400", "--method", "charpoly"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["torus-limit", "--d", "2", "--u", "1e200"],
        ["torus-limit", "--d", "2", "--u", "1e200", "--json"],
        ["torus-limit", "--d", "2", "--u", "1e100"],
        ["torus-limit", "--d", "3", "--u", "1e100"],
        ["torus-limit", "--d", "4", "--u", "1e60", "--grid", "8"],
        ["converge", "--d", "2", "--u", "1e200", "--N", "4"],
    ],
)
def test_torus_overflow_exits_2(capsys, argv):
    # a u this large is refused by its prefactor base, before any factor,
    # power or product is formed that could overflow
    code, out, err = run_cli(capsys, argv)
    u = float(argv[argv.index("--u") + 1])
    assert code == 2
    assert out == ""
    assert err == f"error: prefactor base 1 - u^2 = {1.0 - u * u} is not positive at u = {u}\n"


def test_output_is_deterministic_across_runs(capsys, k4_path):
    argv = ["zeta-eval", "--graph", k4_path, "--u", "1/5", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["charpoly"],
        ["gen", "--family", "dodecahedron"],
        ["matrix", "dump", "--graph", "x.json", "--operator", "hamiltonian"],
        ["charpoly", "--graph", "x.json", "--workers", "2"],
        ["torus-limit", "--d", "5", "--u", "1/20", "--allow-high-dimension"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert entrypoint(argv) == 2
    capsys.readouterr()


def test_missing_graph_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["charpoly", "--graph", str(tmp_path / "absent.json")]
    )
    assert code == 2
    assert "error:" in err


def test_invalid_graph_document_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 4, "edges": [[0, 1], [2, 3]]}')
    code, _, err = run_cli(capsys, ["charpoly", "--graph", str(path)])
    assert code == 2
    assert "not connected" in err


def test_konno_sato_on_a_regular_tree_exits_2(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1]]}')
    for argv in (["verify", "konno-sato"], ["verify", "konno-sato", "--json"]):
        code, out, err = run_cli(capsys, argv + ["--graph", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "tree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--order", "3", "--which", "grover"],
        ["charpoly"],
        ["verify", "konno-sato"],
        ["zeta-eval", "--method", "spectral", "--u", "1/5"],
    ],
)
def test_edgeless_graph_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "edgeless.json"
    path.write_text('{"vertices": 1, "edges": [], "vertex_transitive": true}')
    code, out, err = run_cli(capsys, argv + ["--graph", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "no edges" in err


def test_every_package_error_derives_from_one_base():
    classes = [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, Exception)
    ]
    assert len(classes) > 10
    assert all(issubclass(cls, ZetawalkError) for cls in classes)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta-eval", "--graph", "{k4}", "--u", "abc"],
        ["zeta-eval", "--graph", "{k4}", "--u", "1/0"],
        ["torus-limit", "--d", "2", "--u", "1/0"],
        ["converge", "--d", "2", "--u", "nan", "--N", "4"],
        ["torus-limit", "--d", "2", "--u", "1/5", "--grid", "4"],
        ["converge", "--d", "2", "--u", "1/5", "--N", "8,4"],
        ["series", "--graph", "{k4}", "--order", "0", "--which", "grover"],
        ["series", "--graph", "{k4}", "--order", "0", "--which", "oracle-weighted"],
        ["charpoly", "--graph", "{binary}"],
    ],
)
def test_input_errors_are_package_errors_and_exit_2(capsys, tmp_path, k4_path, argv):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, [a.format(k4=k4_path, binary=binary) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [ZeroDivisionError("boom"), ValueError("boom"), KeyError("boom")])
def test_internal_errors_are_not_domain_errors(monkeypatch, k4_path, exc):
    def broken(*form):
        raise exc

    monkeypatch.setattr(zetawalk.zeta, "_reciprocal", broken)
    with pytest.raises(type(exc), match="boom"):
        entrypoint(["charpoly", "--graph", k4_path])


def _child_env() -> dict[str, str]:
    # the child imports the same package as this process, installed or not
    source = str(Path(zetawalk.__file__).resolve().parents[1])
    path = [source, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_an_internal_error_exits_1_with_a_traceback(k4_path):
    env = _child_env()
    program = (
        "import zetawalk.zeta\n"
        "def broken(*form):\n"
        "    raise ValueError('boom')\n"
        "zetawalk.zeta._reciprocal = broken\n"
        "from zetawalk.cli import main\n"
        "main()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program, "charpoly", "--graph", k4_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" in result.stderr and "ValueError: boom" in result.stderr


@pytest.mark.parametrize("which, u", [("grover", "1/5"), ("ihara", "3/20"), ("grover", "9/10")])
def test_torus_limit_json_converts_u_once_and_computes_the_prefactor_once(
    capsys, monkeypatch, which, u
):
    calls = {"to_double": 0, "prefactor": 0}

    def spy(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)

        return wrapped

    monkeypatch.setattr(limits, "to_double", spy("to_double", limits.to_double))
    monkeypatch.setattr(limits, "_prefactor", spy("prefactor", limits._prefactor))
    argv = ["torus-limit", "--d", "3", "--u", u, "--which", which, "--grid", "16", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    # the command turns the string into a double; the library checks it once
    assert calls == {"to_double": 2, "prefactor": 1}
    monkeypatch.undo()
    value = zetawalk.torus_limit_zeta_reciprocal(3, float(Fraction(u)), which, 16)
    prefactor = zetawalk.torus_prefactor(3, float(Fraction(u)))
    expected = {"value": float(f"{value:.15g}"), "grid": 16, "prefactor": float(f"{prefactor:.15g}")}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_module_and_console_entrypoints():
    env = _child_env()
    result = subprocess.run(
        [sys.executable, "-m", "zetawalk", "gen", "--family", "petersen"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["vertices"] == 10


def test_the_reused_parser_keeps_no_state(capsys, monkeypatch, k4_path):
    # help wraps at the terminal width: the same width for both processes
    monkeypatch.setenv("COLUMNS", "80")
    commands = [
        ["charpoly", "--graph", k4_path, "--workers", "2"],
        ["--help"],
        ["zeta-eval", "--help"],
        ["torus-limit", "--d", "2", "--u", "-1/7", "--grid", "16"],
        ["zeta-eval", "--graph", k4_path, "--u", "3/2"],
        ["converge", "--d", "2", "--u", "-9/10", "--N", "3,4", "--require-monotone"],
        ["charpoly", "--graph", k4_path],
        ["torus-limit", "--d", "3", "--u", "1/5", "--grid", "16", "--json"],
        ["series", "--graph", k4_path, "--which", "grover", "--order", "5", "--json"],
    ]
    env = _child_env()
    fresh = []
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-m", "zetawalk", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((result.returncode, result.stdout, result.stderr))
    # a usage error, help, a package error and a failed check among the runs
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 1, 0, 0, 0]
    for order in (range(len(commands)), reversed(range(len(commands)))):
        for i in order:
            assert run_cli(capsys, commands[i]) == fresh[i], commands[i]


def test_entrypoint_builds_the_parser_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "zetawalk":
            built.append(self)
        init(self, *args, **kwargs)

    argv = ["torus-limit", "--d", "2", "--u", "1/5", "--grid", "8"]
    assert entrypoint(argv) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(5):
        assert entrypoint(argv) == 0
    assert built == []
    assert capsys.readouterr() == ("0.979297913382384\n" * 6, "")
    # the public builder still returns a new parser on every call
    assert cli.build_parser() is not cli.build_parser()
    assert len(built) == 2
