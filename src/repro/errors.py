"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """An edge list or serialized graph could not be parsed."""


class VertexError(ReproError, IndexError):
    """A vertex id is outside the valid range ``[0, n)`` of a graph."""

    def __init__(self, vertex: int, n: int) -> None:
        super().__init__(f"vertex {vertex} out of range for graph with {n} vertices")
        self.vertex = vertex
        self.n = n


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid (e.g. decay factor outside (0, 1))."""


class IndexNotBuiltError(ReproError, RuntimeError):
    """A query was issued before :meth:`SimRankEngine.preprocess` was run."""


class DatasetError(ReproError, KeyError):
    """An unknown dataset name was requested from the registry."""


class SerializationError(ReproError):
    """A saved index or graph file is corrupt or of an unsupported version."""


class ContractViolationError(ReproError, TypeError):
    """A numpy kernel's declared dtype/shape contract was violated, or a
    contract declaration itself is malformed."""


class ServeError(ReproError):
    """A request to a :mod:`repro.serve` server failed server-side."""


class ProtocolError(ServeError):
    """A line on the wire was not a valid newline-delimited-JSON message."""


class ServerOverloadedError(ServeError):
    """The admission queue was full and the request was shed (HTTP 503 moral)."""


class DeadlineExceededError(ServeError):
    """The request's deadline passed before the server could execute it."""


class ShardError(ReproError):
    """An operation against a :class:`repro.shard.ShardPool`
    failed (a worker replied with an error, or the pool is closed)."""


class ShardCrashError(ShardError):
    """A shard worker process died while requests were outstanding."""


class ShardTimeoutError(ShardError):
    """A shard worker did not reply within the pool's gather timeout."""
