"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the failure class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is malformed or a referenced column does not exist."""


class ParseError(ReproError):
    """A query string could not be parsed.

    Carries the offending position so callers can point at the problem.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class QueryError(ReproError):
    """A structurally valid query is semantically invalid.

    Examples: a preference over an attribute that no mapping produces, or a
    join condition that references an unknown table alias.
    """


class BindingError(ReproError):
    """A query could not be bound to the supplied tables."""


class RegistryError(ReproError, KeyError):
    """An algorithm name could not be resolved against a registry.

    Derives from :class:`KeyError` so mapping-style lookups
    (``registry["nope"]``) fail the way dictionary users expect.
    """

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message.
        return self.args[0] if self.args else ""


class ExecutionError(ReproError):
    """Query execution cannot go on: the message names why.

    Either an internal invariant broke — a bug in the engine — or the input
    is one the engine refuses mid-run: a source mutated in place under a
    follow query, or a NaN in a mapped attribute.
    """


class ServeError(ReproError):
    """The streaming server edge could not honour a request or operation."""


class ProtocolError(ServeError):
    """A serving request violates the wire protocol (malformed or invalid).

    The server edge maps this onto an HTTP 400 response; the message is the
    client-facing explanation.
    """
