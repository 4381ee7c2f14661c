"""Exception types shared across the package."""


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class GraphFormatError(GraphError):
    """Graph file does not conform to the JSON edge-list schema."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself; only simple graphs are supported."""


class DuplicateEdgeError(GraphError):
    """An edge appears more than once; only simple graphs are supported."""


class DisconnectedGraphError(GraphError):
    """The edge set does not form a single connected component."""


class FamilyParameterError(GraphError):
    """A graph-family parameter is below the minimum that keeps the graph simple."""


class CoinError(ValueError):
    """A supplied coin vector violates its support or unit-norm contract."""


class NonRegularGraphError(ValueError):
    """The operation is defined for regular graphs only."""


class NotVertexTransitiveError(ValueError):
    """The operation requires a graph flagged as vertex-transitive."""


class TreeGraphError(ValueError):
    """Zeta functions of trees are trivial and are not computed."""


class ZetaDomainError(ValueError):
    """A float evaluation hit a non-positive logarithm argument or left the double range."""


class OracleGuardError(ValueError):
    """Brute-force enumeration was refused because it exceeds the cost guard."""
