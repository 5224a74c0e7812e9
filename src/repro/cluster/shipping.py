"""WAL-segment shipping: stream a shard's log to its follower.

The shipper runs inside a worker process next to its
:class:`~repro.durability.store.DurableMetricsStore`.  On every pass it

1. flushes the WAL so buffered group-commit bytes reach the segment
   files,
2. ships ``checkpoint.json`` whenever it changed (the follower resets
   its replica store from it), and
3. appends each segment's new bytes — from the last offset the follower
   acknowledged to the current end of file — via
   ``POST /replica/segment?name=…&offset=…``.

Bytes are shipped verbatim: the follower receives the same CRC-framed
stream the shard fsyncs, so the replica's ``wal/`` directory is
byte-identical to the shard's (up to the shipped offset) and remains a
valid data directory for :func:`repro.durability.recovery.open_data_dir`
— that is what makes rescuing a lost shard from its follower possible.

Offsets are the consistency protocol: the follower answers 409 with the
offset it actually holds when the shipper's bookkeeping disagrees (a
follower restart, a truncated transfer), and the shipper rewinds.  A
shipped chunk may end mid-frame; the follower only *applies* whole
frames, so torn tails are invisible to replica reads.

The transport is a single-shot
:class:`~repro.api.client.CaladriusClient` (``exchange``: a keep-alive
socket per shipping thread, one reconnect when a reused socket has gone
stale).  :meth:`SegmentShipper._post` turns what comes back into the
shipper's contract: ``OSError`` for no response, for any status ≥ 500
and for a fencing 409; a plain 409 is an offset to rewind to, and one
without a usable offset fails the pass.  Files are read through the
store's disk (:mod:`repro.durability.disk`).

Epoch fencing rides the same transport: every post carries
``epoch=<writer generation>`` and a follower that has seen a newer
generation answers 409 with ``"fenced": true`` — *not* an offset
rewind.  A fenced shipper stops shipping permanently (``fenced``); its
process belongs to a superseded primary and must never mutate replica
state again.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Any

from repro.api.client import SOCKET_TRANSPORT, CaladriusClient, Transport
from repro.clock import SYSTEM_CLOCK
from repro.durability.checkpoint import CHECKPOINT_FILENAME
from repro.durability.store import DurableMetricsStore
from repro.errors import ApiError, DurabilityError

__all__ = ["SegmentShipper"]

logger = logging.getLogger("repro.cluster.shipping")

_CHUNK_BYTES = 1024 * 1024


class SegmentShipper:
    """Streams sealed and active WAL segments to a follower process.

    Parameters
    ----------
    store:
        The shard's durable store (owns the WAL being shipped).
    target:
        ``"host:port"`` of the follower's replica endpoint.
    interval_seconds:
        Ship cadence of the background thread; :meth:`ship_now` can be
        called at any time for a synchronous pass (tests, drain).
    epoch:
        The worker's writer generation, stamped onto every post so the
        follower can fence off superseded shippers.  ``None`` ships
        unstamped (single-process and test deployments).
    transport:
        How a post reaches the follower
        (:class:`~repro.api.client.CaladriusClient`'s seam).

    The ``shipping.*`` counters go to the store's telemetry registry;
    :attr:`offsets` and :attr:`fenced` are the shipper's position.
    """

    def __init__(
        self,
        store: DurableMetricsStore,
        target: str,
        interval_seconds: float = 0.5,
        timeout: float = 10.0,
        epoch: int | None = None,
        transport: Transport = SOCKET_TRANSPORT,
    ) -> None:
        host, _, port = target.rpartition(":")
        self.store = store
        self.host = host or "127.0.0.1"
        self.port = int(port)
        self.interval_seconds = interval_seconds
        self.timeout = timeout
        self.epoch = epoch
        self._disk = store.wal.disk
        self.fenced = False
        self.telemetry = store.telemetry
        # Replaced, never mutated: ``/healthz`` reads it without the
        # mutex a shipping pass holds across its network calls.
        self.offsets: dict[str, int] = {}
        self._checkpoint_sig: tuple[int, int] | None = None
        self._client = CaladriusClient(
            self.host, self.port, timeout=timeout, retries=0, transport=transport
        )
        self._mutex = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="wal-shipper", daemon=True
        )
        self._thread.start()

    def stop(self, final_ship: bool = True) -> None:
        """Stop the loop; by default ship once more so drain loses nothing."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + 5)
            self._thread = None
        if final_ship:
            try:
                self.ship_now()
            except OSError:
                logger.warning("final ship to %s:%d failed", self.host, self.port)
        self._client.close()

    def _loop(self) -> None:
        while not SYSTEM_CLOCK.wait(self._stop, self.interval_seconds):
            if not self.ship_pass():
                return  # permanently superseded; stop burning passes

    def ship_pass(self) -> bool:
        """One background pass, failures counted; ``False`` once fenced."""
        try:
            self.ship_now()
        except OSError as exc:
            self.telemetry.count("shipping.failures")
            logger.debug("ship pass failed: %s", exc)
        return not self.fenced

    # ------------------------------------------------------------------
    # One shipping pass
    # ------------------------------------------------------------------
    def ship_now(self) -> dict[str, Any]:
        """Flush the WAL and push every outstanding byte to the follower."""
        with self._mutex:
            if self.fenced:
                # A newer writer generation owns the replica now; this
                # process's bytes must never land there again.
                raise OSError(
                    f"shipper fenced off by follower {self.host}:{self.port} "
                    f"(our epoch {self.epoch} is superseded)"
                )
            failed = getattr(self.store.wal, "failed", None)
            if failed:
                # A failed WAL may have a torn frame on disk (injected
                # or real).  Shipping it would poison the follower's
                # byte mirror at an offset the primary will truncate on
                # reopen, desynchronising the two forever.
                raise OSError(
                    f"WAL is failed ({failed}); refusing to ship a "
                    "possibly-torn tail"
                )
            try:
                self.store.flush()
            except DurabilityError as exc:
                raise OSError(f"WAL flush failed: {exc}") from exc
            shipped = self._ship_checkpoint()
            live = set()
            for path in self.store.wal.segments():
                live.add(path.name)
                shipped += self._ship_segment(path)
            # Segments reclaimed by a checkpoint vanish from the shard;
            # forget their offsets so a reused name starts clean.
            self.offsets = {
                name: offset
                for name, offset in self.offsets.items()
                if name in live
            }
            self.telemetry.count("shipping.passes")
            return {
                "shipped_bytes": shipped,
                "segments": sorted(live),
                "offsets": dict(self.offsets),
            }

    def _ship_checkpoint(self) -> int:
        path = self.store.data_dir / CHECKPOINT_FILENAME
        try:
            stat = self._disk.stat(path)
        except FileNotFoundError:
            return 0
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._checkpoint_sig:
            return 0
        with self._disk.open_read(path) as handle:
            payload = handle.read()
        self._post(f"/replica/{CHECKPOINT_FILENAME}", payload)
        self._checkpoint_sig = signature
        self.telemetry.count("shipping.shipped_bytes", len(payload))
        return len(payload)

    def _ship_segment(self, path: Path) -> int:
        name = path.name
        offset = self.offsets.get(name, 0)
        try:
            size = self._disk.size(path)
        except FileNotFoundError:
            return 0  # pruned between listing and shipping
        shipped = 0
        while offset < size:
            with self._disk.open_read(path) as handle:
                handle.seek(offset)
                chunk = handle.read(min(_CHUNK_BYTES, size - offset))
            if not chunk:
                break
            status, body = self._post(
                f"/replica/segment?name={name}&offset={offset}", chunk
            )
            if status == 409:
                # A non-fenced 409 (``_post`` raised on the fenced kind)
                # means the follower holds a different prefix (it
                # restarted or a transfer tore); trust its offset and
                # rewind/advance.
                offset = body.get("offset")
                if (
                    not isinstance(offset, int)
                    or isinstance(offset, bool)
                    or offset < 0
                ):
                    raise OSError(
                        f"follower {self.host}:{self.port} answered 409 "
                        f"without a usable offset: {body!r}"
                    )
                self.offsets = {**self.offsets, name: offset}
                continue
            offset += len(chunk)
            shipped += len(chunk)
            # Counted as each acknowledged chunk lands: a later chunk's
            # failure must not lose the bytes already shipped.
            self.telemetry.count("shipping.shipped_bytes", len(chunk))
            self.offsets = {**self.offsets, name: offset}
        return shipped

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _post(self, path: str, body: bytes) -> tuple[int, dict[str, Any]]:
        if self.epoch is not None:
            separator = "&" if "?" in path else "?"
            path = f"{path}{separator}epoch={self.epoch}"
        try:
            status, payload, _ = self._client.exchange(
                "POST", path, body, content_type="application/octet-stream"
            )
        except ApiError as exc:
            # Not a JSON document: judge the answer by its status alone.
            status, payload = exc.status, {}
        if status >= 500:
            raise OSError(
                f"follower {self.host}:{self.port} answered "
                f"{status} for {path}"
            )
        if status == 409 and payload.get("fenced"):
            # Not an offset disagreement: the follower belongs to a
            # newer writer generation.  Stop shipping for good —
            # rewinding would loop forever against a fence.
            self.fenced = True
            self.telemetry.count("shipping.fencing_409s")
            raise OSError(
                f"follower {self.host}:{self.port} fenced off epoch "
                f"{self.epoch} (follower epoch "
                f"{payload.get('follower_epoch')})"
            )
        return status, payload
