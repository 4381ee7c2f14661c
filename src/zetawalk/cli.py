"""Command-line interface.

Subcommands: gen, matrix dump, charpoly, verify konno-sato, series,
zeta-eval, torus-limit, converge. `entrypoint` builds the parser once per
process and reuses it; `build_parser` returns a fresh one. Exit codes: 0
for success (including a verification that holds), 1 for a verification
that fails, 2 for usage errors, file errors and package errors
(`ZetawalkError`). Any other exception is a bug: it is not caught, so it
ends the process with a traceback and exit code 1. Output is
deterministic: rationals print exactly as "p/q" via str(Fraction), floats
with 15 significant digits, JSON with two-space indentation and fixed key
order.

A choice that selects a library call is written once, in a table from
choice to call whose keys are also the argparse choices: `graphs.FAMILIES`
for gen --family, and `_OPERATORS`, `_RECIPROCALS` and `_SERIES` here for
matrix dump --operator, charpoly --matrix and series --which.

The float commands (zeta-eval --method spectral, torus-limit, converge)
take their domain from the library: 1 - u^2 > 0 and every vertex factor
positive, the same rule for both kinds; outside it they exit 2.

An exact number with more digits than CPython converts to a string is
refused with exit 2; the library stays unlimited. charpoly and zeta-eval
--json refuse where they convert (`_strings`), so charpoly refuses, after
the kernel, exactly the polynomials that do not print. series --which
grover|ihara, whose cost grows with --order, refuses an order whose counts
could pass the limit before any power is formed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import graphs, limits, operators, polynomials, rational, zeta
from .errors import ZetawalkError
from .polynomials import Poly

FLOAT_FORMAT = ".15g"
DEFAULT_TOLERANCE = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def _json_float(x: float) -> float:
    # round-trip through the printed precision so JSON and text agree
    return float(_fmt(x))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _poly_strings(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _strings(values: Sequence, subject: str) -> list[str]:
    """str() of each value; ZetawalkError when one has more digits than
    CPython converts to a string."""
    try:
        return [str(v) for v in values]
    except ValueError as exc:  # CPython's limit on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        raise ZetawalkError(
            f"{subject} has more than {limit} digits, more than Python converts to a string"
        ) from exc


def _parse_u(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ZetawalkError(f"--u must be a rational or decimal number, got {text!r}") from exc


# -- gen ----------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    g = graphs.build_family(args.family, N=args.N, d=args.d, k=args.k)
    if args.out is None:
        print(json.dumps(graphs.graph_payload(g), indent=2, sort_keys=True))
    else:
        graphs.save_graph(g, args.out)
    return 0


# -- matrix dump ----------------------------------------------------------


# The calls of a choice table look the library function up when they run,
# so a wrapper set on the module attribute (perfbench's tracer) sees them.

# --operator -> the walk operator of a graph
_OPERATORS = {
    "adjacency": lambda g: operators.adjacency(g),
    "degree": lambda g: operators.degree_matrix(g),
    "transition": lambda g: operators.transition(g),
    "laplacian": lambda g: operators.laplacian(g),
    "shift": lambda g: operators.shift(graphs.arc_space(g)),
    "coin": lambda g: operators.coin(g, graphs.arc_space(g)),
    "grover": lambda g: operators.grover(g, graphs.arc_space(g)),
    "positive-support": lambda g: operators.grover_positive_support(g, graphs.arc_space(g)),
}


def _cmd_matrix_dump(args: argparse.Namespace) -> int:
    matrix = _OPERATORS[args.operator](graphs.load_graph(args.graph))
    _emit(
        {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "entries": [[i, j, str(v)] for i, j, v in matrix.nonzero_items()],
        }
    )
    return 0


# -- charpoly -------------------------------------------------------------


# --matrix -> the exact zeta reciprocal of a graph
_RECIPROCALS = {
    "grover": lambda g: zeta.grover_zeta_reciprocal(g),
    "positive-support": lambda g: zeta.ihara_reciprocal_edge(g),
    "bass": lambda g: zeta.ihara_reciprocal_bass(g),
}


def _cmd_charpoly(args: argparse.Namespace) -> int:
    reciprocal = _RECIPROCALS[args.matrix](graphs.load_graph(args.graph))
    _emit({"coeffs": _strings(reciprocal.coeffs, "a coefficient")})
    return 0


# -- verify konno-sato -----------------------------------------------------


def _cmd_verify_konno_sato(args: argparse.Namespace) -> int:
    report = zeta.konno_sato_check(graphs.load_graph(args.graph))
    if args.json:
        payload = {
            "graph": report.graph_summary,
            "regular_degree": report.regular_degree,
            "identities": [
                {"tag": check.tag, "holds": check.holds}
                for check in report.identities
            ],
            "failing": [
                {
                    "tag": check.tag,
                    "lhs": _poly_strings(check.lhs),
                    "rhs": _poly_strings(check.rhs),
                }
                for check in report.failing()
            ],
            "all_hold": report.all_hold,
        }
        _emit(payload)
    else:
        print(report.graph_summary)
        for check in report.identities:
            print(f"{check.tag}: {'ok' if check.holds else 'FAIL'}")
        if report.all_hold:
            print("all identities hold")
        else:
            print(f"{len(report.failing())} identity check(s) failed")
    return 0 if report.all_hold else 1


# -- series ---------------------------------------------------------------


# --which -> the cycle counts N_1..N_order of a graph: the trace powers of
# an arc operator, on the graph's Fourier route, or a brute-force oracle
_SERIES = {
    "grover": lambda g, order: _trace_counts(operators._grover(g, graphs.arc_space(g)), order),
    "ihara": lambda g, order: _trace_counts(
        operators._grover_positive_support(g, graphs.arc_space(g)), order
    ),
    "oracle-weighted": lambda g, order: zeta.cycle_oracle(g, order, "weighted").counts,
    "oracle-reduced": lambda g, order: zeta.cycle_oracle(g, order, "reduced").counts,
}


def _trace_counts(record: rational._Cleared, order: int) -> tuple[Fraction, ...]:
    """Tr M^1..Tr M^order of the record's matrix M, for order >= 1, refused
    before the powers are formed when a count could not be printed.

    Each count is T_r / L^r with |T_r| <= B, L the record's scale and B
    the trace bound, so every numerator and denominator prints when B and
    L^order have at most as many digits as CPython converts to a string.
    Both grow with the order, by a factor of at least 2 per step unless
    they stay put (L = 1, rho <= 1), so the answer at order 4 * limit,
    where 2^(4 * limit - 2) > 10^limit, holds for every higher order.
    """
    operator = polynomials._operator(record)
    limit = sys.get_int_max_str_digits()
    if limit:
        checked = min(order, 4 * limit)
        bound = polynomials._trace_bound(operator, checked)
        if max(operator.scale**checked, bound) >= 10**limit:
            raise ZetawalkError(
                f"cycle counts of order {order} could have more than {limit} digits, "
                "more than Python converts to a string"
            )
    return polynomials._traces(operator, order)


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 1:
        raise ZetawalkError(f"--order must be at least 1, got {args.order}")
    counts = _SERIES[args.which](graphs.load_graph(args.graph), args.order)
    if args.json:
        _emit({"N": [str(c) for c in counts]})
    else:
        for r, value in enumerate(counts, start=1):
            print(f"{r} {value}")
    return 0


# -- zeta-eval --------------------------------------------------------------


def _cmd_zeta_eval(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ZetawalkError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    u = _parse_u(args.u)
    u_text = _strings([u], "--u as an exact fraction")[0] if args.json else None
    g = graphs.load_graph(args.graph)
    spectral = None
    charpoly = None
    if args.method in ("spectral", "both"):
        spectral = zeta.spectral_zeta_reciprocal(g, u, args.which, args.route)
    if args.method in ("charpoly", "both"):
        charpoly = zeta.charpoly_zeta_reciprocal(g, u, args.which)

    agree = None
    if args.method == "both":
        agree = abs(spectral - charpoly) <= args.tol

    if args.json:
        payload = {
            "u": u_text,
            "which": args.which,
            "route": args.route,
            "method": args.method,
        }
        if spectral is not None:
            payload["spectral"] = _json_float(spectral)
        if charpoly is not None:
            payload["charpoly"] = _json_float(charpoly)
        if agree is not None:
            payload["tolerance"] = args.tol
            payload["agree"] = agree
        _emit(payload)
    else:
        if spectral is not None:
            print(f"spectral {_fmt(spectral)}")
        if charpoly is not None:
            print(f"charpoly {_fmt(charpoly)}")
        if agree is not None:
            print(f"difference {_fmt(abs(spectral - charpoly))}")
            print(f"agree within {_fmt(args.tol)}: {'yes' if agree else 'NO'}")
    return 0 if agree in (None, True) else 1


# -- torus-limit -------------------------------------------------------------


def _cmd_torus_limit(args: argparse.Namespace) -> int:
    u = limits.to_double(_parse_u(args.u))
    value, prefactor = limits.torus_limit_terms(args.d, u, args.which, args.grid)
    if args.json:
        _emit(
            {
                "value": _json_float(value),
                "grid": args.grid,
                "prefactor": _json_float(prefactor),
            }
        )
    else:
        print(_fmt(value))
    return 0


# -- converge ----------------------------------------------------------------


def _cmd_converge(args: argparse.Namespace) -> int:
    sides = _parse_sides(args.N)
    u = limits.to_double(_parse_u(args.u))
    study = limits.convergence_study(
        args.d, u, sides, args.which, reference_grid=args.reference_grid
    )
    monotone = study.errors_monotone()
    if args.json:
        _emit(
            {
                "d": study.d,
                "u": _json_float(study.u),
                "which": study.which,
                "reference_grid": study.reference_grid,
                "reference_value": _json_float(study.reference_value),
                "rows": [
                    {
                        "N": row.n,
                        "value": _json_float(row.value),
                        "abs_error": _json_float(row.abs_error),
                    }
                    for row in study.rows
                ],
                "errors_monotone": monotone,
            }
        )
    else:
        print("N,value,abs_error")
        for row in study.rows:
            print(f"{row.n},{_fmt(row.value)},{_fmt(row.abs_error)}")
    if args.require_monotone and not monotone:
        return 1
    return 0


def _parse_sides(text: str) -> list[int]:
    try:
        sides = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ZetawalkError(f"--N must be comma-separated integers, got {text!r}") from exc
    if not sides:
        raise ZetawalkError("--N must list at least one torus side")
    return sides


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetawalk",
        description="Exact zeta functions of Grover walks on finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named graph family as JSON")
    gen.add_argument(
        "--family",
        required=True,
        choices=list(graphs.FAMILIES),
    )
    gen.add_argument("--N", type=int, default=None, help="side or vertex count")
    gen.add_argument("--d", type=int, default=None, help="dimension parameter")
    gen.add_argument("--k", type=int, default=None, help="inner step of gp")
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    matrix = sub.add_parser("matrix", help="matrix operations")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)
    dump = matrix_sub.add_parser("dump", help="dump a walk operator as sparse JSON")
    dump.add_argument("--graph", required=True, help="graph JSON path")
    dump.add_argument("--operator", required=True, choices=list(_OPERATORS))
    dump.set_defaults(func=_cmd_matrix_dump)

    charpoly = sub.add_parser(
        "charpoly", help="exact zeta reciprocal polynomial as JSON coefficients"
    )
    charpoly.add_argument("--graph", required=True)
    charpoly.add_argument(
        "--matrix",
        default="grover",
        choices=list(_RECIPROCALS),
        help="grover: det(I-uU); positive-support: det(I-uU+); bass: Ihara-Bass form",
    )
    charpoly.set_defaults(func=_cmd_charpoly)

    verify = sub.add_parser("verify", help="verification suites")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    ks = verify_sub.add_parser(
        "konno-sato", help="check the four determinant factorizations exactly"
    )
    ks.add_argument("--graph", required=True)
    ks.add_argument("--json", action="store_true")
    ks.set_defaults(func=_cmd_verify_konno_sato)

    series = sub.add_parser("series", help="cycle-count series N_1..N_K")
    series.add_argument("--graph", required=True)
    series.add_argument("--order", type=int, required=True)
    series.add_argument(
        "--which",
        required=True,
        choices=list(_SERIES),
        help="grover: Tr U^r; ihara: Tr (U+)^r; oracle-*: brute-force enumeration",
    )
    series.add_argument("--json", action="store_true")
    series.set_defaults(func=_cmd_series)

    zeta_eval = sub.add_parser(
        "zeta-eval", help="evaluate the generalized zeta reciprocal at a point"
    )
    zeta_eval.add_argument("--graph", required=True)
    zeta_eval.add_argument("--u", required=True, help='rational or decimal, e.g. "1/5" or "0.2"')
    zeta_eval.add_argument("--which", default="grover", choices=["grover", "ihara"])
    zeta_eval.add_argument(
        "--route", default="transition", choices=["transition", "laplacian"]
    )
    zeta_eval.add_argument(
        "--method", default="both", choices=["spectral", "charpoly", "both"]
    )
    zeta_eval.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    zeta_eval.add_argument("--json", action="store_true")
    zeta_eval.set_defaults(func=_cmd_zeta_eval)

    torus_limit = sub.add_parser(
        "torus-limit", help="infinite-volume torus zeta reciprocal by quadrature"
    )
    torus_limit.add_argument("--d", type=int, required=True)
    torus_limit.add_argument("--u", required=True)
    torus_limit.add_argument("--which", default="grover", choices=["grover", "ihara"])
    torus_limit.add_argument("--grid", type=int, default=64)
    torus_limit.add_argument("--json", action="store_true")
    torus_limit.set_defaults(func=_cmd_torus_limit)

    converge = sub.add_parser(
        "converge", help="finite torus values against the limit reference (CSV)"
    )
    converge.add_argument("--d", type=int, required=True)
    converge.add_argument("--u", required=True)
    converge.add_argument("--N", required=True, help="comma-separated sides, e.g. 4,8,16,32")
    converge.add_argument("--which", default="grover", choices=["grover", "ihara"])
    converge.add_argument("--reference-grid", type=int, default=None)
    converge.add_argument("--require-monotone", action="store_true")
    converge.add_argument("--json", action="store_true")
    converge.set_defaults(func=_cmd_converge)

    return parser


def _attach_negative_u(argv: Sequence[str]) -> list[str]:
    """argv with each negative value of --u attached, as in "--u=-1/7".

    argparse reads "-0.3" after an option as its value but "-1/7" as an
    option of its own, which leaves --u without a value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--u" and re.match(r"-\.?\d", token):
            out[-1] = f"--u={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state on the parser: every parse makes a new
    # Namespace, no default is mutable, and help takes the terminal width
    # when it is printed
    return build_parser()


def entrypoint(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_attach_negative_u(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ZetawalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
