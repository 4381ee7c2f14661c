"""Exception types shared across the package.

Every package error derives from `ZetawalkError`: an input or a value the
package refuses on purpose. The command line turns these (and file errors)
into exit code 2; any other exception is a bug and is not caught there.
`ZetawalkError` is a `ValueError`, so callers that catch `ValueError` keep
working.
"""


class ZetawalkError(ValueError):
    """Base class of every error the package raises on purpose."""


class GraphError(ZetawalkError):
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


class NonRegularGraphError(ZetawalkError):
    """The operation is defined for regular graphs only."""


class NotVertexTransitiveError(ZetawalkError):
    """The operation requires a graph flagged as vertex-transitive."""


class TreeGraphError(ZetawalkError):
    """Zeta functions of trees are trivial and are not computed."""


class ZetaDomainError(ZetawalkError):
    """A float evaluation hit a non-positive logarithm argument or left the double range."""


class OracleGuardError(ZetawalkError):
    """Brute-force enumeration was refused because it exceeds the cost guard."""
