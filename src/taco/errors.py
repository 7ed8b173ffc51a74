"""Exception types shared across the package, the length bound below which
a signal is :class:`TooShort`, and the signals that stop a run.

Every error raised by the library derives from :class:`TacoError` so callers
can catch one base class at pipeline boundaries.  The CLI maps these onto its
exit-code contract (data errors -> 2, external-service errors -> 3).
"""


class TacoError(Exception):
    """Base class for all library errors."""


class InvalidSignal(TacoError):
    """Input signal violates basic invariants (non-finite values, too short)."""


#: Minimum length accepted at detector entry points: every score procedure
#: needs at least 2 samples per segment at the smallest usable segmentation.
MIN_SERIES_LEN = 16


#: Names of the signals besides Ctrl-C's that end a CLI run the way Ctrl-C
#: does (SIGTERM is what ``timeout`` and ``kill`` send); each that the
#: platform has is handled.  Pool workers take their default action instead.
STOP_SIGNALS = ("SIGTERM", "SIGHUP")


class TooShort(InvalidSignal):
    """Signal is shorter than :data:`MIN_SERIES_LEN` or than its segmentation needs."""


class InvalidArgument(TacoError, ValueError):
    """A parameter is outside its documented domain."""


class Degenerate(TacoError):
    """Operation undefined on a constant (zero-variance) signal."""


class InvalidSpec(TacoError):
    """Synthesis spec names an unknown shape or overlay."""


class InvalidConfig(TacoError):
    """Threshold configuration is missing, malformed or inconsistent."""


class ParseError(TacoError):
    """Input file could not be parsed; carries location information."""

    def __init__(self, message: str, *, line: int | None = None,
                 row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.line = line
        self.row = row
        self.column = column


class EmptyIndex(TacoError):
    """Retrieval index contains no entries."""


class AlignmentError(TacoError):
    """Candidate and reference files do not share the same record ids."""

    def __init__(self, message: str, ids: list[str] | None = None):
        super().__init__(message)
        self.ids = ids or []


class ServiceError(TacoError):
    """The rephrasing endpoint failed; the CLI exits 3."""


class Unavailable(ServiceError):
    """Rephrasing endpoint could not be reached."""


class ProtocolError(ServiceError):
    """Rephrasing endpoint returned a malformed response body."""


class EmptyCompletion(ServiceError):
    """Rephrasing endpoint returned an empty completion."""
