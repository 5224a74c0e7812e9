"""The disk seam: every file operation the durability layer makes.

The write-ahead log, the checkpoint, :class:`DurableMetricsStore`, the
follower's byte mirror, the WAL shipper's reads, the shard manager's
promotion renames and the epoch file open, size, list, rename, truncate,
unlink and sync files only through a :class:`Disk`, passed as ``disk=``
(the store hands its disk to its log, and the checkpoint manager and the
shipper use the store's).
The one implementation here is the operating system.  Tests substitute a
disk that models the page cache, fails the way real disks fail (``ENOSPC``
on a write, ``EIO`` on a sync) and crashes between any two operations —
so a fault reaches the log through the very call the OS raises it from.

Handles are ordinary binary file objects: ``write`` fills a user-space
buffer, ``flush`` hands it to the kernel (a process crash loses what was
not flushed), and only :meth:`Disk.sync` makes it durable (a power loss
loses what was not synced — and a file created, renamed or deleted since
its directory's last :meth:`Disk.sync_directory`).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO

__all__ = ["Disk", "OS_DISK"]

#: User-space buffer of an append handle, so the frames of one commit
#: group reach the kernel in one write.
_APPEND_BUFFER = 256 * 1024


class Disk:
    """File operations as the operating system performs them."""

    def open_append(self, path: Path) -> BinaryIO:
        """Open (creating) ``path`` for appending, buffered."""
        return open(path, "ab", buffering=_APPEND_BUFFER)

    def open_read(self, path: Path) -> BinaryIO:
        return open(path, "rb")

    def open_temp(self, path: Path) -> tuple[BinaryIO, Path]:
        """A new file beside ``path`` (same filesystem, so it can be
        renamed over it), opened for writing; returns it and its path."""
        fd, name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        return os.fdopen(fd, "wb"), Path(name)

    def size(self, path: Path) -> int:
        return os.stat(path).st_size

    def stat(self, path: Path) -> os.stat_result:
        """``st_size`` and ``st_mtime_ns``: whether a file changed."""
        return os.stat(path)

    def listdir(self, directory: Path) -> list[str]:
        return os.listdir(directory)

    def makedirs(self, directory: Path) -> None:
        os.makedirs(directory, exist_ok=True)

    def truncate(self, path: Path, size: int) -> None:
        os.truncate(path, size)

    def replace(self, source: Path, target: Path) -> None:
        """Rename a file over ``target``, or a directory to an unused name."""
        os.replace(source, target)

    def unlink(self, path: Path) -> None:
        os.unlink(path)

    def sync(self, handle: BinaryIO) -> None:
        """Make what was flushed to ``handle`` durable (``fsync``)."""
        os.fsync(handle.fileno())

    def sync_directory(self, directory: Path) -> None:
        """Make ``directory``'s entries durable: files created, renamed
        into it or deleted from it since its last sync."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms without directory fds; best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def atomic_write(self, path: Path, data: bytes) -> None:
        """Replace ``path`` with ``data``: a reader — or a recovery after
        a crash at any instant — sees the old file or the new one, never
        a mix.  Temp file, flush, sync, rename over ``path``, then sync
        the directory so the rename itself survives a power loss.
        """
        handle, temp = self.open_temp(path)
        try:
            with handle:
                handle.write(data)
                handle.flush()
                self.sync(handle)
            self.replace(temp, path)
        except BaseException:
            try:
                self.unlink(temp)
            except OSError:
                pass
            raise
        self.sync_directory(path.parent)


#: The operating system's disk: what every ``disk=`` defaults to.
OS_DISK = Disk()
