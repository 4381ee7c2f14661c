"""Finite simple graphs, built-in regular families and the free abelian
group actions on them, and oriented arc spaces.

Graphs are immutable after construction and validated eagerly: simple
(no loops, no parallel edges), symmetric, and connected. All arc-indexed
operators downstream rely on the deterministic lexicographic arc order
fixed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from operator import gt, index
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    FamilyParameterError,
    GraphFormatError,
    LoopEdgeError,
)


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph with sorted neighbor lists.

    It also carries its 2m arcs, the read-only int64 arrays (origins,
    termini) in `ArcSpace` order, which `_arc_arrays` hands out; they are
    outside equality and repr, and are read off the neighbor lists when the
    constructor is not given them.
    """

    num_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    num_edges: int
    degree_profile: tuple[int, ...]
    regular_degree: int | None
    family: str | None
    claimed_vertex_transitive: bool
    _arcs: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._arcs is None:
            # the neighbor lists are sorted, so they are read in arc order
            origins = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degree_profile)
            termini = np.fromiter(chain.from_iterable(self.adjacency), np.int64, len(origins))
            object.__setattr__(self, "_arcs", (origins, termini))
        for array in self._arcs:
            array.flags.writeable = False

    @property
    def betti_number(self) -> int:
        """m - nu + 1 for a connected graph."""
        return self.num_edges - self.num_vertices + 1

    @property
    def is_regular(self) -> bool:
        return self.regular_degree is not None

    def degree(self, v: int) -> int:
        return self.degree_profile[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as (i, j) with i < j, lexicographic: the arcs
        with origin below terminus, which come in that order."""
        origins, termini = self._arcs
        outward = origins < termini
        return zip(origins[outward].tolist(), termini[outward].tolist())

    def summary(self) -> str:
        name = self.family if self.family is not None else "custom"
        deg = f", {self.regular_degree}-regular" if self.is_regular else ""
        return f"{name}: {self.num_vertices} vertices, {self.num_edges} edges{deg}"


class ArcSpace:
    """The 2m oriented arcs of a graph with the inverse-pairing involution,
    and the graph's cover.

    Arcs are ordered lexicographically by (origin, terminus); all arc-indexed
    matrices use this order for rows and columns. The arcs are made once, as
    the read-only int64 arrays `origins`, `termini` and `inverses`, which the
    operator builders read, and so is the graph's cover (`_abelian_cover`),
    which every operator built from the arc space carries.
    """

    __slots__ = ("origins", "termini", "inverses", "cover")

    def __init__(self, graph: Graph):
        origins, termini = _arc_arrays(graph)
        # the keys o nu + t ascend with the arcs, so the inverse (t, o) of
        # each arc is found by bisection
        nu = graph.num_vertices
        inverses = np.searchsorted(origins * nu + termini, termini * nu + origins)
        for array in (origins, termini, inverses):
            array.flags.writeable = False
        self.origins, self.termini, self.inverses = origins, termini, inverses
        self.cover = _abelian_cover(graph, origins, termini)

    @property
    def num_arcs(self) -> int:
        return len(self.origins)

    def __repr__(self) -> str:
        return f"ArcSpace({self.num_arcs} arcs)"


def _arc_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The origins and the termini of the 2m arcs in `ArcSpace` order, as
    read-only int64 arrays: those the graph carries."""
    return graph._arcs


def arc_space(graph: Graph) -> ArcSpace:
    """Build the oriented arc space of a validated graph."""
    return ArcSpace(graph)


# -- construction and validation -----------------------------------------


def graph_from_edges(
    num_vertices: int,
    edges: Iterable[Sequence[int]] | np.ndarray,
    family: str | None = None,
    vertex_transitive: bool = False,
) -> Graph:
    """Validate an edge list and build an immutable Graph.

    The edges are (i, j) pairs: an (m, 2) integer array, or an iterable of
    pairs whose ids are converted as `int` converts them. Raises
    GraphFormatError for a vertex count that is not an integer (`_integer`)
    or is below 1, an entry that is not a pair
    or an empty edge list: every operator of the package needs at least one
    arc. Then the first edge in input order that breaks a rule raises
    GraphFormatError for a vertex outside the range, LoopEdgeError for a
    loop, or DuplicateEdgeError when it was given before in either
    orientation; and a graph that is not connected raises
    DisconnectedGraphError.

    Each rule is a few numpy passes over the whole edge array. A connected
    graph has nu <= m + 1, and until that holds, nothing is sized by the
    declared vertex count: past m + 1 the vertices that edges touch are
    numbered apart. The sort that finds duplicates also puts the arcs in
    `ArcSpace` order, and the graph keeps them.
    """
    num_vertices = _integer(num_vertices, "vertex count", GraphFormatError)
    if num_vertices < 1:
        raise GraphFormatError(f"vertex count must be positive, got {num_vertices}")
    ids = _edge_ids(edges)
    if not len(ids):
        raise GraphFormatError("the graph has no edges; at least one is required")
    # (input position, rule) of the first edge that breaks each rule; each
    # rule is checked on the edges before those found so far, and located
    # only when it fails
    broken = []
    valid = ids
    if ids.min() < 0 or ids.max() >= num_vertices:
        outside = np.flatnonzero(((ids < 0) | (ids >= num_vertices)).any(axis=1))[0]
        broken.append((outside, "range"))
        valid = ids[:outside]
    if num_vertices <= len(ids) + 1:
        ends, width, zero = valid.astype(np.int64, copy=False), num_vertices, 0
    else:
        touched, labels = np.unique(valid, return_inverse=True)
        ends, width = labels.reshape(-1, 2).astype(np.int64), len(touched)
        zero = 0 if len(touched) and touched[0] == 0 else None
    heads, tails = ends[:, 0], ends[:, 1]
    keys = np.concatenate([heads * width + tails, tails * width + heads])
    keys.sort()
    # a loop or a repeated edge repeats an arc
    if (keys[1:] == keys[:-1]).any():
        loops = heads == tails
        if loops.any():
            loop = int(loops.argmax())
            broken.append((loop, "loop"))
            heads, tails = heads[:loop], tails[:loop]
        edge_keys = np.minimum(heads, tails) * width + np.maximum(heads, tails)
        repeat = _first_repeat(edge_keys)
        if repeat is not None:
            broken.append((repeat, "duplicate"))
    if broken:
        position, rule = min(broken)
        i, j = int(ids[position, 0]), int(ids[position, 1])
        if rule == "range":
            raise GraphFormatError(
                f"edge ({i}, {j}) references a vertex outside 0..{num_vertices - 1}"
            )
        if rule == "loop":
            raise LoopEdgeError(f"loop edge ({i}, {j}) is not allowed in a simple graph")
        raise DuplicateEdgeError(f"edge {(min(i, j), max(i, j))} appears more than once")

    # the arcs in `ArcSpace` order, of the touched vertices until connected
    origins, termini = np.divmod(keys, width)
    reached = 1 if zero is None else _reached(width, zero, origins, termini)
    if reached != num_vertices:
        raise DisconnectedGraphError(
            f"graph is not connected: reached {reached} of {num_vertices} vertices"
        )
    degrees = np.bincount(origins, minlength=num_vertices).tolist()
    neighbors = iter(termini.tolist())
    adjacency = tuple(tuple(islice(neighbors, degree)) for degree in degrees)
    return Graph(
        num_vertices=num_vertices,
        adjacency=adjacency,
        num_edges=len(ids),
        degree_profile=tuple(degrees),
        regular_degree=degrees[0] if min(degrees) == max(degrees) else None,
        family=family,
        claimed_vertex_transitive=vertex_transitive,
        _arcs=(origins, termini),
    )


def _edge_ids(edges: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The edges as an (m, 2) array of ids: int64, or Python ints in an
    object array when one of them does not fit int64."""
    if isinstance(edges, np.ndarray):
        ids = edges.astype(np.int64, copy=False)
    else:
        pairs = edges if isinstance(edges, list) else list(edges)
        if set(map(len, pairs)) - {2}:
            raise GraphFormatError("every edge must be an (i, j) pair")
        try:
            ids = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
        except OverflowError:
            ids = np.array(list(map(int, chain.from_iterable(pairs))), dtype=object)
        ids = ids.reshape(-1, 2)
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise GraphFormatError("every edge must be an (i, j) pair")
    return ids


def _first_repeat(keys: np.ndarray) -> int | None:
    """The least position whose key occurs at an earlier position, or None."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # a stable sort keeps the first occurrence of each key ahead of its repeats
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if len(repeats) else None


def _reached(num: int, start: int, origins: np.ndarray, termini: np.ndarray) -> int:
    """How many of the vertices 0..num-1 the arcs (origins[k], termini[k]),
    with each arc's inverse among them, join to the vertex `start`, counting
    itself.

    Hook and compress: every vertex points at a root. Each round points
    every root at the least root that its arcs reach, then jumps pointers
    until each vertex points at its root again: a path of pointers is
    shorter than num, and each jump halves it. The arcs whose ends now share
    a root are dropped. Pointers only go down, so no cycle forms, and each
    round joins two components at least, so the rounds end when no arc is
    left.
    """
    root = np.arange(num)
    while True:
        np.minimum.at(root, root[origins], root[termini])
        for _ in range(num.bit_length()):
            root = root[root]
        apart = root[origins] != root[termini]
        if not apart.any():
            return int(np.count_nonzero(root == root[start]))
        origins, termini = origins[apart], termini[apart]


# -- built-in families ------------------------------------------------------


def _tag(name: str, params: Sequence[int]) -> str:
    """The family tag of a built graph: the name, with the parameters in
    `FAMILIES` order in parentheses when the family takes any."""
    return f"{name}({','.join(map(str, params))})" if params else name


def _integer(value, what: str, error: type = FamilyParameterError) -> int:
    """`value` as an exact int, numpy integers included; `error` for a bool
    or any value that is not an integer, 6.0 too, as `load_graph` refuses
    such vertex ids."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


# the most edges of a family graph, checked before any array is made
_MAX_EDGES = 2**20


class _Base(NamedTuple):
    """A family graph as the derived cover of a base graph whose edges carry
    voltages in Z_side^d (Gross and Tucker, Topological Graph Theory, 1987,
    ch. 2): the family's parameters as exact ints, the `fibers` base
    vertices, the base edges (a, b, z), z a d-tuple, as an iterator read
    only after the size check (`_cover_edges`), and the vertex_transitive
    flag of the family graph.

    The cover has vertex f side^d + g for the element g of Z_side^d in fiber
    f, an element being a flat index whose base-side digits, least
    significant first, are its coordinates; each base edge gives the edges
    (a, g) ~ (b, g + z), and the element h moves the vertex of g in fiber f
    to the vertex of g + h in fiber f.
    """

    params: tuple[int, ...]
    fibers: int
    d: int
    side: int
    edges: Iterator[tuple[int, int, tuple[int, ...]]]
    transitive: bool = True


def _loops(d: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The loops on base vertex 0 of voltages e_1..e_d."""
    return ((0, 0, (0,) * j + (1,) + (0,) * (d - 1 - j)) for j in range(d))


def _cycle(n: int) -> _Base:
    """cycle(N): one loop of voltage 1 on Z_N."""
    n = _integer(n, "cycle N")
    if n < 3:
        raise FamilyParameterError(
            f"cycle needs N >= 3, got {n}: N <= 2 would create a loop or parallel edges"
        )
    return _Base((n,), 1, 1, n, _loops(1))


def check_torus(d: int, n: int | None = None) -> tuple[int, int | None]:
    """Refuse a torus dimension below 1 and, when given, a side below 3.

    Returns (d, n) as exact ints; a bool or a non-integer dimension or side
    is refused. A side of 2 would collapse the two directions per axis into
    parallel edges, breaking the simple-graph assumption. The one torus
    check of the package: the torus graph, its closed-form spectrum and
    values, and the torus limit all call it.
    """
    d = _integer(d, "torus dimension")
    if d < 1:
        raise FamilyParameterError(f"torus dimension must be at least 1, got {d}")
    if n is not None:
        n = _integer(n, "torus side")
        if n < 3:
            raise FamilyParameterError(
                f"torus side must be at least 3 to avoid parallel edges, got {n}"
            )
    return d, n


def _torus(d: int, n: int) -> _Base:
    """torus(d, N): loops of voltages e_1..e_d on Z_N^d."""
    d, n = check_torus(d, n)
    return _Base((d, n), 1, d, n, _loops(d))


def _complete(n: int) -> _Base:
    """complete(n): loops of voltages 1..n div 2 on Z_n, so every nonzero
    element is a step; for even n the loop n / 2 has order 2."""
    n = _integer(n, "complete graph n")
    if n < 3:
        raise FamilyParameterError(
            f"complete graph needs n >= 3, got {n}: n = 2 is a tree with trivial zeta"
        )
    return _Base((n,), 1, 1, n, ((0, 0, (z,)) for z in range(1, n // 2 + 1)))


def _hypercube(d: int) -> _Base:
    """hypercube(d): loops of voltages e_1..e_d on Z_2^d, each of order 2."""
    d = _integer(d, "hypercube d")
    if d < 2:
        raise FamilyParameterError(
            f"hypercube needs d >= 2, got {d}: d = 1 is a single edge (a tree)"
        )
    return _Base((d,), 1, d, 2, _loops(d))


def _generalized_petersen(n: int, k: int) -> _Base:
    """gp(n, k) on Z_n, outer vertex i and inner vertex n + i being element i
    in fibers 0 and 1: a loop of voltage 1 on fiber 0 (the outer cycle), a
    loop of voltage k on fiber 1 (the inner star polygon) and the spoke 0-1
    of voltage 0.

    Needs n >= 3 and 1 <= k < n / 2: k = n / 2 would give the inner vertices
    parallel edges. gp(n, k) is vertex-transitive exactly when
    k^2 = +-1 (mod n) or (n, k) = (10, 2) (Frucht, Graver and Watkins, 1971).
    """
    n, k = _integer(n, "generalized Petersen N"), _integer(k, "generalized Petersen k")
    if n < 3 or not 1 <= k < n / 2:
        raise FamilyParameterError(
            f"generalized Petersen graph needs N >= 3 and 1 <= k < N/2, got N = {n}, k = {k}"
        )
    transitive = (k * k) % n in (1, n - 1) or (n, k) == (10, 2)
    return _Base((n, k), 2, 1, n, iter([(0, 0, (1,)), (1, 1, (k,)), (0, 1, (0,))]), transitive)


# family tag -> (the parameters it takes, in call order; its base graph
# (`_Base`) from them, FamilyParameterError for parameters it refuses)
FAMILIES = {
    "cycle": (("N",), _cycle),
    "torus": (("d", "N"), _torus),
    "complete": (("N",), _complete),
    "petersen": ((), lambda: _generalized_petersen(5, 2)._replace(params=())),
    "hypercube": (("d",), _hypercube),
    "gp": (("N", "k"), _generalized_petersen),
}


def _cover_edges(tag: str, base: _Base) -> np.ndarray:
    """The edges of the family graph `tag`, the cover of `base`, as an (m, 2)
    int64 array: (a, g) ~ (b, g + z) for every base edge (a, b, z) and
    element g, in one broadcast over base edges x elements. A loop whose
    voltage has order 2 gives each of its edges twice, and keeps them once.

    FamilyParameterError when the graph would have more than `_MAX_EDGES`
    edges, before any array is made: side^d is capped where it passes the
    bound, and at most 2 `_MAX_EDGES` / side^d + 1 base edges are read.
    """
    side, d, bound = base.side, base.d, 2 * _MAX_EDGES
    order = min(side, bound + 1) ** min(d, bound.bit_length())
    listed = list(islice(base.edges, bound // order + 1)) if order <= bound else []
    # edges per element, doubled: 1 for a loop of order 2, else 2
    halves = [1 if a == b and not any(2 * x % side for x in z) else 2 for a, b, z in listed]
    if order > bound or order * sum(halves) > bound:
        raise FamilyParameterError(f"{tag} would have more than {_MAX_EDGES:,} edges")
    # row (a, b, z) per base edge, and the d coordinates of every element
    table = np.array([(a, b, *z) for a, b, z in listed], dtype=np.int64)
    element, place = np.arange(order), side ** np.arange(d)
    coords = element // place[:, None] % side
    heads, tails = table[:, :1] * order + element, table[:, 1:2] * order
    for axis in range(d):
        tails = tails + (coords[axis] + table[:, 2 + axis, None]) % side * place[axis]
    if 1 in halves:
        once = (heads < tails) | (np.array(halves) == 2)[:, None]
        heads, tails = heads[once], tails[once]
    return np.stack([heads.ravel(), tails.ravel()], axis=1)


def _family_graph(name: str, *params: int) -> Graph:
    """The graph of the family `name` with the given parameters: the cover of
    its base graph, validated."""
    base = FAMILIES[name][1](*params)
    tag = _tag(name, base.params)
    edges = _cover_edges(tag, base)
    return graph_from_edges(
        base.fibers * base.side**base.d, edges, family=tag, vertex_transitive=base.transitive
    )


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices (2-regular)."""
    return _family_graph("cycle", n)


def torus_graph(d: int, n: int) -> Graph:
    """d-dimensional discrete torus on n^d vertices (2d-regular); see `check_torus`."""
    return _family_graph("torus", d, n)


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 3 vertices ((n-1)-regular)."""
    return _family_graph("complete", n)


def petersen_graph() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular; gp(5, 2) edge for edge."""
    return _family_graph("petersen")


def generalized_petersen_graph(n: int, k: int) -> Graph:
    """The generalized Petersen graph gp(n, k) on 2n vertices (3-regular): the
    outer cycle i ~ i + 1 on 0..n-1, the inner star polygon n + i ~
    n + (i + k) mod n and the spokes i ~ n + i; see `_generalized_petersen`."""
    return _family_graph("gp", n, k)


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices (d-regular)."""
    return _family_graph("hypercube", d)


def build_family(
    tag: str, N: int | None = None, d: int | None = None, k: int | None = None
) -> Graph:
    """Build a named family: cycle(N), torus(d, N), complete(N), petersen,
    hypercube(d), gp(N, k).

    Raises FamilyParameterError for an unknown tag, or when a parameter the
    family takes is missing or one it does not take is given.
    """
    if tag not in FAMILIES:
        raise FamilyParameterError(f"unknown graph family {tag!r}")
    takes = FAMILIES[tag][0]
    given = {"N": N, "d": d, "k": k}
    for name, value in given.items():
        if name in takes and value is None:
            raise FamilyParameterError(f"family {tag!r} requires {name}")
        if name not in takes and value is not None:
            raise FamilyParameterError(f"family {tag!r} does not take {name}")
    return _family_graph(tag, *(given[name] for name in takes))


def _abelian_cover(graph: Graph, origins: np.ndarray, termini: np.ndarray) -> tuple | None:
    """(d, side, fibers) when the graph is verified to be the cover of the base
    graph of the family (`FAMILIES`) that its tag names, else None; origins
    and termini are the graph's arcs (`_arc_arrays`).

    The tag must name a family, with integer parameters that the family takes
    when it takes any, and side^d times the fibers must be the vertex count,
    which is checked before any edge is made, so a tag of another size costs
    nothing. The tag must then be the one the family's builder writes
    (`_tag`), and the cover's edges (`_cover_edges`) must be the graph's edge
    for edge, so a tag alone is not trusted; the two are compared as sorted
    arrays of arc keys, and no graph is built. That the group acts freely on
    the states of an operator, and leaves the operator invariant, is checked
    where the operator is routed (`polynomials._torus_stencil`).
    """
    name, paren, rest = (graph.family or "").partition("(")
    if name not in FAMILIES or (paren and not rest.endswith(")")):
        return None
    try:
        params = [int(text) for text in rest[:-1].split(",")] if paren else []
        base = FAMILIES[name][1](*params)
    except (TypeError, ValueError, FamilyParameterError):
        return None
    d, side, fibers = base.d, base.side, base.fibers
    nu = graph.num_vertices
    # side >= 2, so side^d <= nu needs d <= log2(nu)
    if not (d <= nu.bit_length() and side**d * fibers == nu) or graph.family != _tag(name, params):
        return None
    try:
        edges = _cover_edges(graph.family, base)
    except FamilyParameterError:
        return None
    if len(edges) != graph.num_edges:
        return None
    # the keys o nu + t of the two arcs of each edge; the graph's arcs come
    # sorted, so its keys ascend
    heads, tails = edges.T
    keys = np.concatenate([heads * nu + tails, tails * nu + heads])
    keys.sort()
    if not np.array_equal(keys, origins * nu + termini):
        return None
    return d, side, fibers


# -- JSON persistence --------------------------------------------------------


def graph_payload(graph: Graph) -> dict:
    """JSON-ready edge-list form: 0-based ids, i < j per edge, sorted."""
    return {
        "vertices": graph.num_vertices,
        "edges": [[i, j] for i, j in graph.edges()],
        "family": graph.family,
        "vertex_transitive": graph.claimed_vertex_transitive,
    }


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write the JSON edge-list form to a file."""
    text = json.dumps(graph_payload(graph), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_graph(path: str | Path) -> Graph:
    """Load and validate a graph from its JSON edge-list form."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    if "vertices" not in payload or "edges" not in payload:
        raise GraphFormatError('missing required keys "vertices" and "edges"')
    vertices = payload["vertices"]
    edges = payload["edges"]
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise GraphFormatError('"vertices" must be an integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [i, j] pairs')
    # every entry a list of two ints, i <= j, checked at C speed; the loop
    # names the first entry that is not, only when one is not
    if (
        set(map(type, edges)) - {list}
        or set(map(len, edges)) - {2}
        or set(map(type, chain.from_iterable(edges))) - {int}
        or any(starmap(gt, edges))
    ):
        for entry in edges:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
            ):
                raise GraphFormatError(f"edge entry {entry!r} is not an [i, j] integer pair")
            i, j = entry
            if i > j:
                raise GraphFormatError(f"edge [{i}, {j}] must be written with i < j")
    family = payload.get("family")
    if family is not None and not isinstance(family, str):
        raise GraphFormatError('"family" must be a string or null')
    vertex_transitive = payload.get("vertex_transitive", False)
    if not isinstance(vertex_transitive, bool):
        raise GraphFormatError('"vertex_transitive" must be a boolean')
    return graph_from_edges(vertices, edges, family=family, vertex_transitive=vertex_transitive)
