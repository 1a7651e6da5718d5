"""Exception types shared across the package."""


class KpxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(KpxError):
    """A graph specification is malformed (duplicate ids, bad colors, ...)."""


class MissingEndpoint(InvalidSpec):
    """An edge refers to a vertex that does not exist."""


class BadSquare(InvalidSpec):
    """A commuting square is malformed (colors, composability, endpoints)."""


class NotBijective(InvalidSpec):
    """The commuting squares do not pair bicolored edge paths bijectively."""


class CubeInconsistent(InvalidSpec):
    """Tricolored words normalize differently along different swap orders."""


class NotComposable(KpxError):
    """Attempted to compose paths whose endpoints do not match."""


class DegreeOutOfRange(KpxError):
    """A requested degree is not within the degree of the given path."""


class RangeMismatch(KpxError):
    """A path collection does not share the required range vertex."""


class NotAcyclic(KpxError):
    """An operation requiring an acyclic graph was called on a cyclic one."""


class UnknownId(KpxError):
    """A vertex, edge, or path id is not present in the graph."""


class CoefficientNotInRing(KpxError):
    """A literal coefficient cannot be interpreted in the chosen ring."""


class NotField(KpxError):
    """An operation requiring a field was called with a non-field ring."""


class ParseError(KpxError):
    """A textual input (graph file or element expression) failed to parse."""

    def __init__(self, message, line=None, column=None):
        if column is not None:  # 1-based; the message ends with the location
            where = f"column {column}" if line is None else f"line {line}, column {column}"
            message += f" ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


def quoted(literal, form=repr):
    """form(literal) for a message; a str of more than 32 characters gives
    only form(its first 8) and its length, so no long input makes a long
    message (a path error quotes its literal twice; Path's repr uses str)."""
    if type(literal) is str and len(literal) > 32:
        return f"{form(literal[:8])}... ({len(literal)} chars)"
    return form(literal)
