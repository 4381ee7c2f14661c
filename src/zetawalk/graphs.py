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
from typing import Iterable, Iterator, Sequence

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
        """Undirected edges as (i, j) with i < j, lexicographic."""
        for i, neighbors in enumerate(self.adjacency):
            for j in neighbors:
                if i < j:
                    yield (i, j)

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
    GraphFormatError for a vertex count below 1, an entry that is not a pair
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


# the most edges of a family graph, checked before any array is made
_MAX_EDGES = 2**20


def _check_edges(tag: str, factor: int, base: int, exponent: int = 1) -> None:
    """FamilyParameterError when the family graph `tag` would have
    factor * base^exponent > `_MAX_EDGES` edges, base >= 2 and exponent >= 1,
    each capped where the power passes the bound, so none larger is formed."""
    if factor * min(base, _MAX_EDGES + 1) ** min(exponent, _MAX_EDGES.bit_length()) > _MAX_EDGES:
        raise FamilyParameterError(f"{tag} would have more than {_MAX_EDGES:,} edges")


def _cycle_edges(n: int) -> np.ndarray:
    """The edges i ~ i + 1 mod n of the cycle, as an (n, 2) int64 array."""
    if n < 3:
        raise FamilyParameterError(
            f"cycle needs N >= 3, got {n}: N <= 2 would create a loop or parallel edges"
        )
    _check_edges(_tag("cycle", (n,)), 1, n)
    ring = np.arange(n)
    return np.stack([ring, (ring + 1) % n], axis=1)


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices (2-regular)."""
    edges = _cycle_edges(n)
    return graph_from_edges(n, edges, family=_tag("cycle", (n,)), vertex_transitive=True)


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


def _torus_edges(d: int, n: int) -> np.ndarray:
    """The edges v ~ v + e_j of the torus, one per vertex and axis; vertex v
    has the base-n digits of v, least significant first, as coordinates."""
    d, n = check_torus(d, n)
    _check_edges(_tag("torus", (d, n)), d, n, d)
    v = np.arange(n**d)
    ends = []
    for axis in range(d):
        stride = n**axis
        digit = v // stride % n
        ends.append(v + ((digit + 1) % n - digit) * stride)
    return np.stack([np.tile(v, d), np.concatenate(ends)], axis=1)


def torus_graph(d: int, n: int) -> Graph:
    """d-dimensional discrete torus on n^d vertices (2d-regular); see `check_torus`."""
    d, n = check_torus(d, n)
    edges = _torus_edges(d, n)
    return graph_from_edges(n**d, edges, family=_tag("torus", (d, n)), vertex_transitive=True)


def _complete_edges(n: int) -> np.ndarray:
    """Every pair i < j of the n vertices."""
    if n < 3:
        raise FamilyParameterError(
            f"complete graph needs n >= 3, got {n}: n = 2 is a tree with trivial zeta"
        )
    _check_edges(_tag("complete", (n,)), 1, n * (n - 1) // 2)
    return np.stack(np.triu_indices(n, 1), axis=1)


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 3 vertices ((n-1)-regular)."""
    edges = _complete_edges(n)
    return graph_from_edges(n, edges, family=_tag("complete", (n,)), vertex_transitive=True)


def _generalized_petersen_edges(n: int, k: int) -> np.ndarray:
    """The outer cycle i ~ i + 1 on 0..n-1, the inner star polygon n + i ~
    n + (i + k) mod n on n..2n-1, and the spokes i ~ n + i.

    Needs n >= 3 and 1 <= k < n / 2: k = n / 2 would give the inner vertices
    parallel edges.
    """
    if n < 3 or not 1 <= k < n / 2:
        raise FamilyParameterError(
            f"generalized Petersen graph needs N >= 3 and 1 <= k < N/2, got N = {n}, k = {k}"
        )
    _check_edges(_tag("gp", (n, k)), 3, n)
    i = np.arange(n)
    return np.stack(
        [np.concatenate([i, n + i, i]), np.concatenate([(i + 1) % n, n + (i + k) % n, n + i])],
        axis=1,
    )


def petersen_graph() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular; gp(5, 2) edge for edge."""
    edges = _generalized_petersen_edges(5, 2)
    return graph_from_edges(10, edges, family=_tag("petersen", ()), vertex_transitive=True)


def generalized_petersen_graph(n: int, k: int) -> Graph:
    """The generalized Petersen graph gp(n, k) on 2n vertices (3-regular).

    Needs n >= 3 and 1 <= k < n / 2: k = n / 2 would give the inner vertices
    parallel edges. The vertex_transitive flag follows Frucht, Graver and
    Watkins (1971): gp(n, k) is vertex-transitive exactly when
    k^2 = +-1 (mod n) or (n, k) = (10, 2).
    """
    edges = _generalized_petersen_edges(n, k)
    transitive = (k * k) % n in (1, n - 1) or (n, k) == (10, 2)
    return graph_from_edges(
        2 * n, edges, family=_tag("gp", (n, k)), vertex_transitive=transitive
    )


def _hypercube_edges(d: int) -> np.ndarray:
    """The edges v ~ v xor 2^b with v < v xor 2^b."""
    if d < 2:
        raise FamilyParameterError(
            f"hypercube needs d >= 2, got {d}: d = 1 is a single edge (a tree)"
        )
    _check_edges(_tag("hypercube", (d,)), d, 2, d - 1)
    v = np.arange(1 << d)
    ends = [np.stack([v, v ^ (1 << b)], axis=1) for b in range(d)]
    edges = np.concatenate(ends)
    return edges[edges[:, 0] < edges[:, 1]]


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices (d-regular)."""
    edges = _hypercube_edges(d)
    return graph_from_edges(1 << d, edges, family=_tag("hypercube", (d,)), vertex_transitive=True)


# family tag -> (builder, the parameters it takes, in call order)
FAMILIES = {
    "cycle": (cycle_graph, ("N",)),
    "torus": (torus_graph, ("d", "N")),
    "complete": (complete_graph, ("N",)),
    "petersen": (petersen_graph, ()),
    "hypercube": (hypercube_graph, ("d",)),
    "gp": (generalized_petersen_graph, ("N", "k")),
}

# family tag -> the edges of the family's graph as an (m, 2) int64 array,
# from the parameters in `FAMILIES` order; FamilyParameterError as the
# builder for parameters it refuses
_EDGES = {
    "cycle": _cycle_edges,
    "torus": _torus_edges,
    "complete": _complete_edges,
    "petersen": lambda: _generalized_petersen_edges(5, 2),
    "hypercube": _hypercube_edges,
    "gp": _generalized_petersen_edges,
}


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
    builder, takes = FAMILIES[tag]
    given = {"N": N, "d": d, "k": k}
    for name, value in given.items():
        if name in takes and value is None:
            raise FamilyParameterError(f"family {tag!r} requires {name}")
        if name not in takes and value is not None:
            raise FamilyParameterError(f"family {tag!r} does not take {name}")
    return builder(*(given[name] for name in takes))


# family tag -> a free action of the abelian group Z_side^d on the family's
# graph, from the parameters in `FAMILIES` order: (d, side, fibers). The
# graph is a cover of a base graph on `fibers` vertices, with side^d
# vertices in each fiber, and on every family, vertex v is the group element
# v mod side^d in fiber v div side^d. An element is a flat index whose
# base-side digits, least significant first, are its coordinates, and the
# element h moves the vertex of element g in fiber f to the vertex of
# element g + h in fiber f. A Cayley family is the case of one fiber, with
# element v: the edges join the elements that differ by a generator, +-e_j
# on the torus and the cycle, e_j on the hypercube, every nonzero element on
# the complete graph. On gp(n, k) and Petersen = gp(5, 2), Z_n turns the
# outer and the inner polygon: the outer vertex i and the inner vertex
# n + i are element i in fibers 0 and 1.
_COVERS = {
    "cycle": lambda n: (1, n, 1),
    "torus": lambda d, n: (d, n, 1),
    "complete": lambda n: (1, n, 1),
    "hypercube": lambda d: (d, 2, 1),
    "petersen": lambda: (1, 5, 2),
    "gp": lambda n, k: (1, n, 2),
}


def _abelian_cover(graph: Graph, origins: np.ndarray, termini: np.ndarray) -> tuple | None:
    """(d, side, fibers) when the graph is verified to be the graph of
    `_COVERS` that its family tag names, else None; origins and termini are
    the graph's arcs (`_arc_arrays`).

    The tag must name a family of the table, with integer parameters when it
    takes any, and side^d times the fibers must be the vertex count, which is
    checked before any edge is made, so a tag of another size costs nothing.
    The tag must then be the one the family's builder writes (`_tag`), and
    the family's edges (`_EDGES`) must be the graph's edge for edge, so a tag
    alone is not trusted; the two edge sets are compared as sorted arrays,
    and no graph is built. That the group acts freely on the states of an
    operator, and leaves the operator invariant, is checked where the
    operator is routed (`polynomials._torus_stencil`).
    """
    name, paren, rest = (graph.family or "").partition("(")
    if name not in _COVERS or (paren and not rest.endswith(")")):
        return None
    try:
        params = [int(text) for text in rest[:-1].split(",")] if paren else []
        d, side, fibers = _COVERS[name](*params)
    except (TypeError, ValueError):
        return None
    nu = graph.num_vertices
    # side >= 2, so side^d <= nu needs d <= log2(nu)
    if not (1 <= d <= nu.bit_length() and side >= 2 and fibers >= 1 and side**d * fibers == nu):
        return None
    if graph.family != _tag(name, params):
        return None
    try:
        edges = _EDGES[name](*params)
    except FamilyParameterError:
        return None
    if len(edges) != graph.num_edges:
        return None
    # each edge as the key i nu + j of its arc with i < j: the graph's arcs
    # come sorted, so its keys ascend
    low, high = edges.min(axis=1), edges.max(axis=1)
    outward = origins < termini
    if not np.array_equal(np.sort(low * nu + high), origins[outward] * nu + termini[outward]):
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
