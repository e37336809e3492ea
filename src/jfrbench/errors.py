"""Exception types shared across the toolkit."""


class JfrError(Exception):
    """Base class for all toolkit errors."""


# --- graph construction / validation ---

class IndexOutOfRange(JfrError):
    """An edge endpoint is not an int in [0, n)."""


class NonFiniteWeight(JfrError):
    """An edge weight is NaN, infinite, or not an int or float."""


class InexactWeight(JfrError):
    """A weight off the 10^-6 grid, or |weights| past 2^52 micro-units."""


class NegativeSelfLoop(JfrError):
    """A self-loop with negative weight (a trivial negative cycle)."""


class GraphTooLarge(JfrError):
    """A vertex or edge count too large to index or to allocate."""


# --- edge-list text format ---

class ParseError(JfrError):
    """Malformed edge-list text.  Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class HeaderMismatch(JfrError):
    """Declared edge count in the header does not match the edge lines."""


# --- generators ---

class SpecInvalid(JfrError):
    """A generator parameter is out of its valid range."""


# --- algorithms ---

class NoCycleRecorded(JfrError):
    """A result names no cycle: it flags none, its witness is not a vertex
    or its parent chain meets no cycle, or its parents hold none."""


class MissingEdge(JfrError):
    """A cycle steps from a vertex to one the graph has no edge to."""


# --- metrics ---

class ZeroOps(JfrError):
    """A comparison was requested against a run with zero operations."""


class ModeMismatch(JfrError):
    """The bound check applies only to strict-mode runs with a matching k."""


class NegCycleResult(JfrError):
    """Optimality conditions are undefined for a negative-cycle result."""


# --- CLI ---

class UnknownAlgorithm(JfrError):
    """Algorithm name not recognised by the CLI."""
