"""Versioned benchmark-sidecar schema: one header, one loader.

The repo's benchmark gates persist machine-readable sidecars at the
repo root — ``BENCH_kernels.json`` (kernel micro-benchmarks),
``BENCH_shard.json`` (query-routing throughput), ``BENCH_tune.json``
(offline controller tuning), ``BENCH_lint.json`` (analyzer wall time,
cold vs. warm cache), ``BENCH_dynamic.json`` (dynamic-write pipeline
throughput).  Before this module each writer invented
its own top-level shape and every consumer (CI checks, docs tooling)
had to guess which file it was holding.  Now every sidecar carries the
same header::

    {"schema": {"name": "repro-bench-sidecar", "version": 1,
                "kind": "shard"}, ...payload...}

- :func:`write_sidecar` stamps the header and writes the file
  atomically-enough for CI (single ``write_text``);
- :func:`load_sidecar` validates the header and returns the payload,
  accepting header-less files as *legacy version 0* so pre-existing
  committed sidecars keep loading during the transition.

Bump :data:`SCHEMA_VERSION` only for breaking header changes; payload
shapes are owned by each ``kind`` and may evolve freely.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import SerializationError

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "sidecar_header",
    "write_sidecar",
    "load_sidecar",
]

SCHEMA_NAME = "repro-bench-sidecar"
SCHEMA_VERSION = 1

#: The sidecar kinds in use; new benchmarks register here so the loader
#: can reject a typo'd kind instead of silently accepting anything.
KNOWN_KINDS = ("kernels", "shard", "tune", "lint", "dynamic")


def sidecar_header(kind: str) -> Dict[str, Any]:
    """The ``schema`` block every sidecar leads with."""
    if kind not in KNOWN_KINDS:
        raise SerializationError(
            f"unknown sidecar kind {kind!r}; known kinds: {KNOWN_KINDS}"
        )
    return {"name": SCHEMA_NAME, "version": SCHEMA_VERSION, "kind": kind}


def write_sidecar(
    path: Union[str, Path], kind: str, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Stamp ``payload`` with the schema header and write it to ``path``.

    Returns the full document that was written.  ``payload`` must not
    already contain a ``schema`` key (that would silently shadow the
    stamp).
    """
    if "schema" in payload:
        raise SerializationError("payload already has a 'schema' key")
    document: Dict[str, Any] = {"schema": sidecar_header(kind)}
    document.update(payload)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def load_sidecar(
    path: Union[str, Path],
    kind: Optional[str] = None,
    allow_legacy: bool = True,
) -> Dict[str, Any]:
    """Read, validate, and return a sidecar document.

    ``kind`` (when given) must match the header's kind.  Files without
    a ``schema`` block are treated as legacy version 0 and passed
    through when ``allow_legacy`` is true — their kind is unverifiable,
    so a requested ``kind`` is not enforced against them.
    """
    p = Path(path)
    try:
        document = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read sidecar {p}: {exc}") from exc
    if not isinstance(document, dict):
        raise SerializationError(f"sidecar {p} is not a JSON object")
    schema = document.get("schema")
    if schema is None:
        if not allow_legacy:
            raise SerializationError(f"sidecar {p} has no schema header")
        return document
    if not isinstance(schema, dict) or schema.get("name") != SCHEMA_NAME:
        raise SerializationError(
            f"sidecar {p} has a foreign schema header: {schema!r}"
        )
    version = schema.get("version")
    if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
        raise SerializationError(
            f"sidecar {p} schema version {version!r} is outside the supported "
            f"range [1, {SCHEMA_VERSION}]"
        )
    if kind is not None and schema.get("kind") != kind:
        raise SerializationError(
            f"sidecar {p} is kind {schema.get('kind')!r}, expected {kind!r}"
        )
    return document
