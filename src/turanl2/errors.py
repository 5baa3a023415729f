"""Exception types shared across the package."""


class TuranL2Error(Exception):
    """Base class for every package-specific error."""


class InvalidArgument(TuranL2Error, ValueError):
    """An argument lies outside the values an operation accepts.

    Also a ``ValueError``, so callers that catch that keep working."""


class VertexOutOfRange(TuranL2Error):
    """A vertex label is negative or >= the ambient vertex count."""


class DegenerateEdge(TuranL2Error):
    """An edge repeats a vertex or has the wrong arity."""


class SizeLimitExceeded(TuranL2Error):
    """An exact-search operation was asked to run beyond its configured cap."""


class SameVertex(TuranL2Error):
    """An operation that needs two distinct vertices got the same one twice."""


class TooFewVertices(TuranL2Error):
    """The graph is too small for the requested density quantity."""


class PartitionMismatch(TuranL2Error):
    """A partition does not cover the graph's vertex set exactly."""


class CrossPartClasses(TuranL2Error):
    """Class symmetrization needs both classes inside one part."""


class SameClass(TuranL2Error):
    """Class symmetrization needs two distinct classes."""


class NotLocallySymmetrized(TuranL2Error):
    """A check that presumes a locally symmetrized graph got one that is not."""


class MalformedPath(TuranL2Error):
    """A vertex sequence is not a directed path of the required shape."""


class UnknownFamily(TuranL2Error):
    """An edge-family identifier is not one of the six classified families."""


class EdgePhaseMismatch(TuranL2Error):
    """The pair's position (internal/crossing) does not match the toggle phase;
    ``TogglePhase.fit_pair``, the one pair-fit check, raises a subclass below."""


class EdgeNotInternal(EdgePhaseMismatch):
    """The pair must lie inside a single part (phase one)."""


class EdgeNotCrossing(EdgePhaseMismatch):
    """The pair must cross two distinct parts (phase two)."""


class EdgeNotInShadow(TuranL2Error):
    """The pair must be covered by at least one edge of the 3-graph."""


class FormatError(TuranL2Error):
    """A text artifact (.h3/.p3/.cg) does not parse."""
