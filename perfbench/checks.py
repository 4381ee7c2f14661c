"""Reference computations and output checkers for the zetawalk benchmark.

Nothing here imports zetawalk. Graphs are read from the JSON edge lists that
`zetawalk gen` wrote, and every reference is recomputed from the definitions:
the Grover and Hashimoto matrices from the entry rule, trace powers by
integer matrix products, determinants by numpy `slogdet` and by elimination
modulo a prime, and torus values from closed-form spectra, a numpy grid
average and the return-probability series.

A checker returns None when an output is right and a message when it is not.
`perturb` makes one small wrong change to an output (one coefficient, a count
off by one, a float off by 1e-9), so a run can confirm that the checker for
every job rejects it.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# relative tolerance on printed zeta values (printed with 15 significant
# digits, so 1e-10 leaves room for float error and still rejects 1e-9)
FLOAT_REL_TOL = 1e-10
# absolute tolerance on torus log means
LOG_MEAN_TOL = 1e-12
# relative tolerance of a numpy slogdet against an exact polynomial value
SLOGDET_REL_TOL = 1e-9
PRIME = 2**31 - 1


# -- graphs and arc operators -------------------------------------------------


@lru_cache(maxsize=None)
def read_graph(path: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["vertices"], tuple((int(i), int(j)) for i, j in payload["edges"])


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


@lru_cache(maxsize=None)
def arc_operator(path: str, route: str) -> tuple[int, dict[tuple[int, int], Fraction]]:
    """Sparse Grover matrix ("grover") or its positive support ("hashimoto").

    U[e, f] = 2/deg(t(f)) - [f = inverse(e)] when t(f) = o(e), zero otherwise.
    """
    n, edges = read_graph(path)
    deg = degrees(n, edges)
    arcs = [(i, j) for i, j in edges] + [(j, i) for i, j in edges]
    index = {arc: k for k, arc in enumerate(arcs)}
    into: list[list[int]] = [[] for _ in range(n)]
    for f, (_, t) in enumerate(arcs):
        into[t].append(f)
    entries = {}
    for e, (o, t) in enumerate(arcs):
        inverse = index[(t, o)]
        for f in into[o]:
            w = Fraction(2, deg[o]) - (1 if f == inverse else 0)
            if route == "hashimoto":
                w = Fraction(1) if w > 0 else Fraction(0)
            if w:
                entries[(e, f)] = w
    return len(arcs), entries


def _scaled_int(size: int, entries) -> tuple[np.ndarray, int]:
    scale = math.lcm(*(w.denominator for w in entries.values()))
    m = np.zeros((size, size), dtype=np.int64)
    for (e, f), w in entries.items():
        m[e, f] = int(w * scale)
    return m, scale


@lru_cache(maxsize=None)
def trace_powers(path: str, route: str, order: int) -> tuple[Fraction, ...]:
    """Tr(U^r) = Tr((L U)^r) / L^r for r = 1..order, by int64 matrix powers."""
    size, entries = arc_operator(path, route)
    m, scale = _scaled_int(size, entries)
    # every entry of (L U)^r, and every partial sum forming it, is at most
    # the r-th power of the largest absolute row sum
    norm = int(np.abs(m).sum(axis=1).max())
    if norm**order >= 2**63:
        raise OverflowError(f"int64 trace powers of order {order} could overflow")
    counts = []
    power = m
    for r in range(1, order + 1):
        counts.append(Fraction(sum(int(x) for x in np.diagonal(power)), scale**r))
        if r < order:
            power = power @ m
    return tuple(counts)


@lru_cache(maxsize=None)
def slogdet_at(path: str, route: str, u: Fraction) -> tuple[float, float]:
    """(sign, log|det|) of I - u M from numpy."""
    size, entries = arc_operator(path, route)
    a = np.eye(size)
    for (e, f), w in entries.items():
        a[e, f] -= float(u) * float(w)
    sign, logdet = np.linalg.slogdet(a)
    return float(sign), float(logdet)


def _det_mod(a: np.ndarray) -> int:
    """Determinant modulo PRIME of an int64 matrix with entries in [0, PRIME)."""
    a = a.copy()
    n = a.shape[0]
    det = 1
    for k in range(n):
        nonzero = np.flatnonzero(a[k:, k])
        if nonzero.size == 0:
            return 0
        p = k + int(nonzero[0])
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % PRIME
        factor = a[k + 1 :, k] * pow(pivot, PRIME - 2, PRIME) % PRIME
        a[k + 1 :, k:] = (a[k + 1 :, k:] - factor[:, None] * a[k, k:][None, :] % PRIME) % PRIME
    return det % PRIME


@lru_cache(maxsize=None)
def det_values_mod(path: str, route: str) -> tuple[int, ...]:
    """det(I - tM) mod PRIME at the integer nodes t = 0..size."""
    size, entries = arc_operator(path, route)
    m, scale = _scaled_int(size, entries)
    unscale = pow(pow(scale, size, PRIME), PRIME - 2, PRIME)
    eye = np.eye(size, dtype=np.int64) * scale
    return tuple(
        _det_mod((eye - t * m) % PRIME) * unscale % PRIME for t in range(size + 1)
    )


def _mod(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME


def _poly_mod_at(coeffs: list[Fraction], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + _mod(c)) % PRIME
    return acc


def _exact_log_abs(value: Fraction) -> float:
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def _eval(coeffs: list[Fraction], u: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


# -- torus and hypercube spectra ---------------------------------------------


def torus_factor(u: float, d: int, which: str, lam):
    if which == "grover":
        return (1.0 + u * u) - 2.0 * u * lam
    q = 2 * d - 1
    return (1.0 + q * u * u) - (q + 1) * u * lam


@lru_cache(maxsize=None)
def grid_log_mean(d: int, u: float, which: str, grid: int) -> float:
    """Average of log factor((1/d) sum cos theta_j) over the uniform grid^d grid.

    The last two axes are summed as one array; the leading axes are looped
    over, which keeps memory at grid^2 values.
    """
    axis = np.cos(2.0 * np.pi * np.arange(grid) / grid)
    tail = np.zeros(1)
    for _ in range(min(d, 2)):
        tail = (tail[:, None] + axis[None, :]).reshape(-1)
    sums = [
        float(np.sum(np.log(torus_factor(u, d, which, (sum(axis[list(head)]) + tail) / d))))
        for head in itertools.product(range(grid), repeat=max(d - 2, 0))
    ]
    return math.fsum(sums) / grid**d


@lru_cache(maxsize=None)
def d2_series_log_mean(u: float, which: str) -> float:
    """Limit log mean for d = 2 from simple-random-walk return probabilities.

    log(1 + q u^2) - sum_k x^(2k) p_2k / (2k) with p_2k = (C(2k,k) / 4^k)^2,
    q = 1 and x = 2u / (1 + u^2) for the Grover kind, q = 3 and
    x = 4u / (1 + 3u^2) for the Ihara kind.
    """
    q = 1 if which == "grover" else 3
    x = (q + 1) * u / (1.0 + q * u * u)
    if not abs(x) < 1.0:
        raise ValueError(f"series diverges at x = {x}")
    central = 1.0  # C(2k, k) / 4^k
    xpow = 1.0
    terms = []
    for k in range(1, 100_000):
        central *= (2 * k - 1) / (2 * k)
        xpow *= x * x
        term = xpow * central * central / (2 * k)
        terms.append(term)
        if term < 1e-22:
            return math.log(1.0 + q * u * u) - math.fsum(terms)
    raise ValueError(f"series did not converge at x = {x}")


def hypercube_log_mean(k: int, u: float) -> float:
    """Mean Grover log factor over the hypercube transition spectrum 1 - 2j/k."""
    total = math.fsum(
        math.comb(k, j) * math.log(torus_factor(u, 1, "grover", 1.0 - 2.0 * j / k))
        for j in range(k + 1)
    )
    return total / 2**k


def exact_torus_grover_root(d: int, u: Fraction) -> float:
    """nu-th root of det(I - uU) on torus(d, 4), from its exact spectrum.

    det(I - uU) = (1 - u^2)^(m - n) prod_lambda ((1 + u^2) - 2u lambda). On
    side 4 the axis cosines are 1, 0, -1, 0, so every transition eigenvalue
    lambda is rational. The root is taken in logs of exact integers, so no
    float underflows.
    """
    cosines = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
    n = 4**d
    det = (1 - u * u) ** ((d - 1) * n)
    sums = [Fraction(0)]
    for _ in range(d):
        sums = [total + c for total in sums for c in cosines]
    for total in sums:
        det *= (1 + u * u) - 2 * u * total / d
    return math.exp(_exact_log_abs(det) / n)


# -- checkers -------------------------------------------------------------------


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _check_arc_poly(path: str, route: str, coeffs: list[Fraction], u0: Fraction) -> str | None:
    size, _ = arc_operator(path, route)
    if len(coeffs) - 1 > size:
        return f"degree {len(coeffs) - 1} exceeds the arc count {size}"
    if coeffs[0] != 1:
        return f"constant term {coeffs[0]} is not 1"
    expected = det_values_mod(path, route)
    for t in range(size + 1):
        if _poly_mod_at(coeffs, t) != expected[t]:
            return f"value at u = {t} differs from det(I - {t}M) mod {PRIME}"
    sign, logdet = slogdet_at(path, route, u0)
    value = _eval(coeffs, u0)
    if value == 0 or (value > 0) != (sign > 0):
        return f"sign at u0 = {u0} differs from numpy slogdet"
    if abs(_exact_log_abs(value) - logdet) > SLOGDET_REL_TOL:
        return f"value at u0 = {u0} differs from numpy slogdet"
    return None


def _grover_properties(coeffs: list[Fraction], arcs: int) -> str | None:
    if len(coeffs) - 1 != arcs:
        return f"degree {len(coeffs) - 1} is not 2m = {arcs}"
    lead = coeffs[-1]
    if coeffs[0] != 1 or coeffs[1] != 0 or abs(lead) != 1:
        return "c0 = 1, c1 = 0, c_2m = +-1 do not all hold"
    if sum(coeffs) != 0:
        return "p(1) is not 0"
    if any(coeffs[k] != lead * coeffs[arcs - k] for k in range(arcs + 1)):
        return "c_k = c_2m c_(2m-k) does not hold"
    return None


def check_charpoly(spec: dict, out: dict) -> str | None:
    coeffs = [Fraction(c) for c in out["coeffs"]]
    route = "grover" if spec["matrix"] == "grover" else "hashimoto"
    if spec["matrix"] == "grover":
        size, _ = arc_operator(spec["path"], route)
        problem = _grover_properties(coeffs, size)
        if problem:
            return problem
    # the Bass form equals det(I - uH) when the minimum degree is at least 2
    return _check_arc_poly(spec["path"], route, coeffs, spec["u0"])


def check_verify(spec: dict, out: dict) -> str | None:
    n, edges = read_graph(spec["path"])
    tags = [item["tag"] for item in out["identities"]]
    if sorted(tags) != sorted(
        ["grover-transition", "ihara-transition", "grover-laplacian", "ihara-laplacian"]
    ):
        return f"identity tags {tags}"
    if not out["all_hold"] or out["failing"] or not all(i["holds"] for i in out["identities"]):
        return "an identity does not hold"
    if set(degrees(n, edges)) != {out["regular_degree"]}:
        return f"regular degree {out['regular_degree']} is wrong"
    return None


def check_series(spec: dict, out: dict) -> str | None:
    route = "grover" if spec["which"] == "grover" else "hashimoto"
    counts = [Fraction(c) for c in out["N"]]
    if spec["which"] == "ihara" and any(c.denominator != 1 for c in counts):
        return "a reduced count is not an integer"
    if tuple(counts) != trace_powers(spec["path"], route, spec["order"]):
        return "counts differ from integer trace powers"
    return None


def check_consistency(spec: dict, out: dict) -> str | None:
    expected = [c / r for r, c in enumerate(trace_powers(spec["path"], "grover", spec["order"]), 1)]
    if not out["holds"]:
        return "the report does not hold"
    if out["scaled"] != expected or out["log"] != expected:
        return "coefficients differ from N_r / r by integer trace powers"
    return None


def zeta_reference(spec: dict) -> float:
    u = spec["u"]
    family = spec["family"]
    if family[0] == "exact-torus-4":
        return exact_torus_grover_root(family[1], u)
    if spec["method"] == "both":
        n, _ = read_graph(spec["path"])
        sign, logdet = slogdet_at(spec["path"], "grover", u)
        if sign <= 0:
            raise ValueError("reference determinant is not positive")
        return math.exp(logdet / n)
    uf = float(u)
    if family[0] == "torus":
        _, d, side = family
        return (1 - uf * uf) ** (d - 1) * math.exp(grid_log_mean(d, uf, "grover", side))
    k = family[1]
    return (1 - uf * uf) ** ((k - 2) / 2) * math.exp(hypercube_log_mean(k, uf))


def check_zeta_eval(spec: dict, out: dict) -> str | None:
    reference = zeta_reference(spec)
    keys = ("spectral", "charpoly") if spec["method"] == "both" else (spec["method"],)
    for key in keys:
        if _rel_err(out[key], reference) > FLOAT_REL_TOL:
            return f"{key} value {out[key]} differs from reference {reference!r}"
    if spec["method"] == "both" and out.get("agree") is not True:
        return "spectral and charpoly do not agree"
    return None


def _torus_log_mean(d: int, u: float, which: str, grid: int) -> float:
    mean = grid_log_mean(d, u, which, grid)
    if d == 2:
        series = d2_series_log_mean(u, which)
        if abs(series - mean) > LOG_MEAN_TOL:
            raise ValueError(f"grid average and series disagree by {abs(series - mean)}")
    return mean


def check_torus_limit(spec: dict, out: dict) -> str | None:
    d, u, which, grid = spec["d"], float(spec["u"]), spec["which"], spec["grid"]
    prefactor = (1 - u * u) ** (d - 1)
    if out["grid"] != grid or _rel_err(out["prefactor"], prefactor) > FLOAT_REL_TOL:
        return "grid or prefactor is wrong"
    log_mean = math.log(out["value"]) - math.log(prefactor)
    reference = _torus_log_mean(d, u, which, grid)
    if abs(log_mean - reference) > LOG_MEAN_TOL:
        return f"log mean {log_mean!r} differs from reference {reference!r}"
    return None


def check_converge(spec: dict, out: dict) -> str | None:
    d, u, which, sides = spec["d"], float(spec["u"]), spec["which"], spec["sides"]
    log_prefactor = (d - 1) * math.log(1 - u * u)
    grid = 4 * max(sides)
    if out["reference_grid"] != grid or [row["N"] for row in out["rows"]] != sides:
        return "reference grid or sides are wrong"
    pairs = [(out["reference_value"], grid)] + [(row["value"], row["N"]) for row in out["rows"]]
    for value, g in pairs:
        reference = log_prefactor + grid_log_mean(d, u, which, g)
        if abs(math.log(value) - reference) > LOG_MEAN_TOL:
            return f"value {value!r} on grid {g} differs from reference"
    for row in out["rows"]:
        diff = abs(row["value"] - out["reference_value"])
        if abs(row["abs_error"] - diff) > 1e-14 * out["reference_value"] + 1e-12 * diff:
            return f"abs_error {row['abs_error']!r} is not |value - reference|"
    return None


CHECKERS = {
    "verify": check_verify,
    "charpoly": check_charpoly,
    "zeta_eval": check_zeta_eval,
    "series": check_series,
    "consistency": check_consistency,
    "torus_limit": check_torus_limit,
    "converge": check_converge,
}


def check(kind: str, spec: dict, out: dict) -> str | None:
    try:
        return CHECKERS[kind](spec, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def check_pass(results) -> list[str]:
    """Cross-job checks: Bass and positive-support outputs of a graph are equal."""
    routes: dict[str, dict[str, list]] = {}
    for job, out in results:
        if job.kind == "charpoly" and out is not None:
            routes.setdefault(job.spec["path"], {})[job.spec["matrix"]] = out["coeffs"]
    return [
        f"bass and positive-support differ on {path}"
        for path, by_route in routes.items()
        if "bass" in by_route
        and "positive-support" in by_route
        and by_route["bass"] != by_route["positive-support"]
    ]


def perturb(kind: str, out: dict) -> dict:
    """One small wrong change to an output, which its checker must reject."""
    bad = copy.deepcopy(out)
    if kind == "verify":
        bad["identities"][1]["holds"] = False
    elif kind == "charpoly":
        middle = len(bad["coeffs"]) // 2
        bad["coeffs"][middle] = str(Fraction(bad["coeffs"][middle]) + 1)
    elif kind == "series":
        bad["N"][-1] = str(Fraction(bad["N"][-1]) + 1)
    elif kind == "consistency":
        bad["scaled"][0] += 1
    elif kind == "zeta_eval":
        key = "spectral" if "spectral" in bad else "charpoly"
        bad[key] *= 1 + 1e-9
    elif kind == "torus_limit":
        bad["value"] *= 1 + 1e-9
    else:
        bad["rows"][0]["value"] *= 1 + 1e-9
    return bad
