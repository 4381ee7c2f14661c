"""Finite simple graphs, built-in regular families and the free abelian
group actions on them, and oriented arc spaces.

Graphs are immutable after construction and validated eagerly: simple
(no loops, no parallel edges), symmetric, and connected. All arc-indexed
operators downstream rely on the deterministic lexicographic arc order
fixed here.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    FamilyParameterError,
    GraphFormatError,
    LoopEdgeError,
)


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph with sorted neighbor lists."""

    num_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    num_edges: int
    degree_profile: tuple[int, ...]
    regular_degree: int | None
    family: str | None
    claimed_vertex_transitive: bool

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
    """The 2m oriented arcs of a graph with the inverse-pairing involution.

    Arcs are ordered lexicographically by (origin, terminus); all arc-indexed
    matrices use this order for rows and columns.
    """

    __slots__ = ("arcs", "inverse", "arc_index")

    def __init__(self, graph: Graph):
        arcs: list[tuple[int, int]] = []
        for i, j in graph.edges():
            arcs.append((i, j))
            arcs.append((j, i))
        arcs.sort()
        index = {arc: k for k, arc in enumerate(arcs)}
        self.arcs: tuple[tuple[int, int], ...] = tuple(arcs)
        self.arc_index: dict[tuple[int, int], int] = index
        self.inverse: tuple[int, ...] = tuple(index[(t, o)] for (o, t) in arcs)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def origin(self, e: int) -> int:
        return self.arcs[e][0]

    def terminus(self, e: int) -> int:
        return self.arcs[e][1]

    def __repr__(self) -> str:
        return f"ArcSpace({self.num_arcs} arcs)"


def arc_space(graph: Graph) -> ArcSpace:
    """Build the oriented arc space of a validated graph."""
    return ArcSpace(graph)


# -- construction and validation -----------------------------------------


def graph_from_edges(
    num_vertices: int,
    edges: Iterable[Sequence[int]],
    family: str | None = None,
    vertex_transitive: bool = False,
) -> Graph:
    """Validate an edge list and build an immutable Graph.

    Raises LoopEdgeError, DuplicateEdgeError, or DisconnectedGraphError for
    the corresponding simplicity/connectivity violations, and
    GraphFormatError for a vertex outside the range or an empty edge list:
    every operator of the package needs at least one arc.
    """
    if num_vertices < 1:
        raise GraphFormatError(f"vertex count must be positive, got {num_vertices}")
    seen: set[tuple[int, int]] = set()
    # only the vertices edges touch: nothing is sized by the declared count
    # before the connectivity check, since a connected graph has nu <= m + 1
    neighbor_sets: defaultdict[int, set[int]] = defaultdict(set)
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if not (0 <= i < num_vertices and 0 <= j < num_vertices):
            raise GraphFormatError(f"edge ({i}, {j}) references a vertex outside 0..{num_vertices - 1}")
        if i == j:
            raise LoopEdgeError(f"loop edge ({i}, {j}) is not allowed in a simple graph")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} appears more than once")
        seen.add(key)
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    if not seen:
        raise GraphFormatError("the graph has no edges; at least one is required")

    _require_connected(num_vertices, neighbor_sets)

    adjacency = tuple(tuple(sorted(neighbor_sets[v])) for v in range(num_vertices))
    degrees = tuple(len(s) for s in adjacency)
    regular = degrees[0] if len(set(degrees)) == 1 else None
    return Graph(
        num_vertices=num_vertices,
        adjacency=adjacency,
        num_edges=len(seen),
        degree_profile=degrees,
        regular_degree=regular,
        family=family,
        claimed_vertex_transitive=vertex_transitive,
    )


def _require_connected(num_vertices: int, neighbor_sets: Mapping[int, set[int]]) -> None:
    reached = {0}
    queue = deque([0])
    while queue:
        for w in neighbor_sets.get(queue.popleft(), ()):
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != num_vertices:
        raise DisconnectedGraphError(
            f"graph is not connected: reached {len(reached)} of {num_vertices} vertices"
        )


# -- built-in families ------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices (2-regular)."""
    if n < 3:
        raise FamilyParameterError(
            f"cycle needs N >= 3, got {n}: N <= 2 would create a loop or parallel edges"
        )
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(n, edges, family=f"cycle({n})", vertex_transitive=True)


def check_torus(d: int, n: int | None = None) -> None:
    """Refuse a torus dimension below 1 and, when given, a side below 3.

    A side of 2 would collapse the two directions per axis into parallel
    edges, breaking the simple-graph assumption. The one torus check of the
    package: the torus graph, its closed-form spectrum and values, and the
    torus limit all call it.
    """
    if d < 1:
        raise FamilyParameterError(f"torus dimension must be at least 1, got {d}")
    if n is not None and n < 3:
        raise FamilyParameterError(
            f"torus side must be at least 3 to avoid parallel edges, got {n}"
        )


def torus_graph(d: int, n: int) -> Graph:
    """d-dimensional discrete torus on n^d vertices (2d-regular); see `check_torus`."""
    check_torus(d, n)
    num_vertices = n**d
    strides = [n**k for k in range(d)]

    def index(coords: tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coords, strides))

    edges = []
    for coords in product(range(n), repeat=d):
        v = index(coords)
        for axis in range(d):
            shifted = list(coords)
            shifted[axis] = (shifted[axis] + 1) % n
            edges.append((v, index(tuple(shifted))))
    return graph_from_edges(
        num_vertices, edges, family=f"torus({d},{n})", vertex_transitive=True
    )


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 3 vertices ((n-1)-regular)."""
    if n < 3:
        raise FamilyParameterError(
            f"complete graph needs n >= 3, got {n}: n = 2 is a tree with trivial zeta"
        )
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(n, edges, family=f"complete({n})", vertex_transitive=True)


def _generalized_petersen_edges(n: int, k: int) -> list[tuple[int, int]]:
    """The outer cycle i ~ i + 1 on 0..n-1, the inner star polygon n + i ~
    n + (i + k) mod n on n..2n-1, and the spokes i ~ n + i."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return edges


def petersen_graph() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular; gp(5, 2) edge for edge."""
    return graph_from_edges(
        10, _generalized_petersen_edges(5, 2), family="petersen", vertex_transitive=True
    )


def generalized_petersen_graph(n: int, k: int) -> Graph:
    """The generalized Petersen graph gp(n, k) on 2n vertices (3-regular).

    Needs n >= 3 and 1 <= k < n / 2: k = n / 2 would give the inner vertices
    parallel edges. The vertex_transitive flag follows Frucht, Graver and
    Watkins (1971): gp(n, k) is vertex-transitive exactly when
    k^2 = +-1 (mod n) or (n, k) = (10, 2).
    """
    if n < 3 or not 1 <= k < n / 2:
        raise FamilyParameterError(
            f"generalized Petersen graph needs N >= 3 and 1 <= k < N/2, got N = {n}, k = {k}"
        )
    transitive = (k * k) % n in (1, n - 1) or (n, k) == (10, 2)
    return graph_from_edges(
        2 * n,
        _generalized_petersen_edges(n, k),
        family=f"gp({n},{k})",
        vertex_transitive=transitive,
    )


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on 2^d vertices (d-regular)."""
    if d < 2:
        raise FamilyParameterError(
            f"hypercube needs d >= 2, got {d}: d = 1 is a single edge (a tree)"
        )
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return graph_from_edges(n, edges, family=f"hypercube({d})", vertex_transitive=True)


# family tag -> (builder, the parameters it takes, in call order)
FAMILIES = {
    "cycle": (cycle_graph, ("N",)),
    "torus": (torus_graph, ("d", "N")),
    "complete": (complete_graph, ("N",)),
    "petersen": (petersen_graph, ()),
    "hypercube": (hypercube_graph, ("d",)),
    "gp": (generalized_petersen_graph, ("N", "k")),
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


def _cayley_label(v: int) -> tuple[int, int]:
    """Vertex v of a Cayley family is group element v, in the one fiber."""
    return v, 0


def _rings(n: int) -> Callable[[int], tuple[int, int]]:
    """The labelling of gp(n, k): vertex v is element v mod n in fiber v div n."""
    return lambda v: (v % n, v // n)


# family tag -> a free action of the abelian group Z_side^d on the family's
# graph, from the parameters in `FAMILIES` order: (d, side, fibers, label).
# The graph is a cover of a base graph on `fibers` vertices, with side^d
# vertices in each fiber, and label(v) is the group element and the fiber of
# vertex v. An element is a flat index whose base-side digits, least
# significant first, are its coordinates, and the element h moves the vertex
# of element g in fiber f to the vertex of element g + h in fiber f. A
# Cayley family is the case of one fiber, with element v: the edges join the
# elements that differ by a generator, +-e_j on the torus and the cycle, e_j
# on the hypercube, every nonzero element on the complete graph. On gp(n, k)
# and Petersen = gp(5, 2), Z_n turns the outer and the inner polygon: the
# outer vertex i and the inner vertex n + i are element i in fibers 0 and 1.
_COVERS = {
    "cycle": lambda n: (1, n, 1, _cayley_label),
    "torus": lambda d, n: (d, n, 1, _cayley_label),
    "complete": lambda n: (1, n, 1, _cayley_label),
    "hypercube": lambda d: (d, 2, 1, _cayley_label),
    "petersen": lambda: (1, 5, 2, _rings(5)),
    "gp": lambda n, k: (1, n, 2, _rings(n)),
}


def _abelian_cover(graph: Graph) -> tuple[int, int, list[tuple[int, int]]] | None:
    """(d, side, labels) when the graph is verified to be the graph of
    `_COVERS` that its family tag names, else None; labels[v] is the group
    element and the fiber of vertex v.

    The tag must name a family of the table, with integer parameters when it
    takes any, and side^d times the fibers must be the vertex count, which is
    checked before any graph is built, so a tag of another size costs
    nothing. `build_family` then rebuilds the graph: its tag must equal the
    given one exactly and its adjacency the graph's, so a tag alone is not
    trusted. That the labelling is a free action of the group is checked
    where its states are read (`polynomials._fourier_group`).
    """
    name, paren, rest = (graph.family or "").partition("(")
    if name not in _COVERS or (paren and not rest.endswith(")")):
        return None
    try:
        params = [int(text) for text in rest[:-1].split(",")] if paren else []
        d, side, fibers, label = _COVERS[name](*params)
    except (TypeError, ValueError):
        return None
    nu = graph.num_vertices
    # side >= 2, so side^d <= nu needs d <= log2(nu)
    if not (1 <= d <= nu.bit_length() and side >= 2 and fibers >= 1 and side**d * fibers == nu):
        return None
    try:
        built = build_family(name, **dict(zip(FAMILIES[name][1], params)))
    except FamilyParameterError:
        return None
    if built.family != graph.family or built.adjacency != graph.adjacency:
        return None
    return d, side, [label(v) for v in range(nu)]


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
    checked = []
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
        checked.append((i, j))
    family = payload.get("family")
    if family is not None and not isinstance(family, str):
        raise GraphFormatError('"family" must be a string or null')
    vertex_transitive = payload.get("vertex_transitive", False)
    if not isinstance(vertex_transitive, bool):
        raise GraphFormatError('"vertex_transitive" must be a boolean')
    return graph_from_edges(vertices, checked, family=family, vertex_transitive=vertex_transitive)
