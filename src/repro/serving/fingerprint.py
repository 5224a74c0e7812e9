"""The identity of a modelling request, and the sweep artifact's hash.

A cached answer is valid exactly as long as every input that produced it
is unchanged.  :class:`RequestDescriptor` is the request's part of that
identity — endpoint family, topology, model selector and parameters —
and the result cache keys an answer by the tuple ``(descriptor, plan
revision, data_version)`` (:meth:`RequestDescriptor.cache_key`): the
tracker bumps the revision on every register/update and the store the
data version on every write that can touch the topology's series, so any
input change yields another key and a stale entry can never be
addressed, let alone served.  The dict lookup hashes the tuple; nothing
is digested to name an entry.

:func:`fingerprint` (SHA-256 over :func:`canonical_json`) is what the
plan-sweep payload reports as its ``artifact.hash``: a name that leaves
the process.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any, NamedTuple

__all__ = ["RequestDescriptor", "canonical_json", "fingerprint"]


def canonical_json(value: Any) -> str:
    """A deterministic JSON encoding: sorted keys, minimal separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fingerprint(fields: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical encoding of ``fields``."""
    encoded = canonical_json(dict(fields)).encode("utf8")
    return hashlib.sha256(encoded).hexdigest()


class RequestDescriptor(NamedTuple):
    """The replayable identity of one modelling request.

    ``kind`` is the endpoint family (``"traffic"``, ``"performance"`` or
    ``"plan_sweep"``), ``model`` the ``?model=`` selector (``None`` = all
    enabled), and ``params`` the remaining request parameters as a
    canonical-JSON string.  A tuple of strings: it hashes and compares
    in C wherever it keys something — result-cache entries, done and
    pending, and popularity tracking.
    """

    kind: str
    topology: str
    model: str | None
    params: str

    @classmethod
    def of(
        cls,
        kind: str,
        topology: str,
        model: str | None,
        params: Mapping[str, Any],
    ) -> "RequestDescriptor":
        return cls(kind, topology, model, canonical_json(dict(params)))

    def cache_key(
        self, plan_revision: int, data_version: int
    ) -> tuple["RequestDescriptor", int, int]:
        """The result-cache key at a given input state."""
        return self, plan_revision, data_version
