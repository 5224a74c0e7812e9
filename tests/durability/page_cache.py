"""A :class:`~repro.durability.disk.Disk` that keeps its files in memory
and models the page cache, so a test can fail and crash it at any point.

Every file has three layers:

* user space — what a handle's ``write`` buffered and ``flush`` has not
  yet handed to the kernel;
* the page cache — what the running system reads;
* the platter — what :meth:`sync` made durable.

Directory entries are layered the same way: a create, rename or unlink is
in the cache at once and on the platter after the next
:meth:`sync_directory` of its directory.  Directories themselves are
durable once made (the data directory is made once, at first boot), and
so is a directory's rename: its subtree moves with it, in both layers.
:meth:`remove_tree` is ``rm -rf`` from outside the process (a wiped disk).

:meth:`crash` returns the disk a restarted process finds: after a process
crash, the page cache as it was (user-space buffers are gone, and what
was not synced is still not durable); after a power loss, only the
synced directory entries, each file's synced bytes and — as a real disk
may keep — a prefix of its unsynced tail.

Faults strike the next call of their kind: :attr:`fail_next_write` makes
the next write to the kernel (a handle's ``flush``) raise ``ENOSPC`` with
nothing written, :attr:`fail_next_sync` the next ``sync`` or
``sync_directory`` raise ``EIO`` with nothing made durable.  With
:attr:`crash_at` set to *n*, the *n*-th state-changing operation takes
effect and then raises :class:`Crash`, as does every call after it — the
process died there.  :attr:`trace` names every state-changing operation,
so a failure can say which one it followed.

``atomic_write`` is not modelled: the inherited one runs, composed of the
primitives below, so a crash can land between any two of its steps.
"""

from __future__ import annotations

import errno
import io
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace

from repro.durability.disk import Disk


class Crash(BaseException):
    """The process died at a crash point (not an ``Exception``: no
    handler in the code under test may swallow it)."""


class _File:
    __slots__ = ("cached", "durable", "changed")

    def __init__(self, cached: bytes = b"", durable: bytes = b"") -> None:
        self.cached = bytearray(cached)
        self.durable = durable
        self.changed = 0  # how many operations the disk had done by then


class _Handle:
    """An append handle: ``write`` buffers, ``flush`` reaches the cache."""

    def __init__(self, disk: "PageCacheDisk", file: _File, name: str) -> None:
        self.disk, self.file, self.name = disk, file, name
        self.buffer = bytearray()
        self.closed = False

    def write(self, data: bytes) -> int:
        self._check()
        self.buffer += data
        return len(data)

    def flush(self) -> None:
        self._check()
        if self.buffer:
            self.disk._write(self)

    def close(self) -> None:
        if not self.closed:
            try:
                self.flush()
            finally:
                self.closed = True

    def _check(self) -> None:
        if self.closed:
            raise ValueError("I/O operation on closed file")

    def __enter__(self) -> "_Handle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PageCacheDisk(Disk):
    """In-memory files with a modelled page cache; see the module doc."""

    def __init__(self) -> None:
        self.dirs: dict[Path, dict[str, _File]] = {}
        self.durable_dirs: dict[Path, dict[str, _File]] = {}
        self.fail_next_write = False
        self.fail_next_sync = False
        self.crash_at: int | None = None
        self.trace: list[str] = []
        self._temps = 0

    # -- bookkeeping ----------------------------------------------------
    def _alive(self) -> None:
        if self.crash_at is not None and len(self.trace) >= self.crash_at:
            raise Crash(self.trace[-1])

    def _done(self, what: str) -> None:
        self.trace.append(what)
        self._alive()

    def _entries(self, directory: Path) -> dict[str, _File]:
        self._alive()
        try:
            return self.dirs[Path(directory)]
        except KeyError:
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(directory))

    def _file(self, path: Path) -> _File:
        try:
            return self._entries(path.parent)[path.name]
        except KeyError:
            raise FileNotFoundError(errno.ENOENT, "no such file", str(path)) from None

    def _write(self, handle: _Handle) -> None:
        self._alive()
        if self.fail_next_write:
            self.fail_next_write = False
            raise OSError(errno.ENOSPC, "No space left on device (modelled)")
        handle.file.cached += handle.buffer
        handle.buffer.clear()
        handle.file.changed = len(self.trace)
        self._done(f"write {handle.name}")

    def _failing_sync(self) -> None:
        self._alive()
        if self.fail_next_sync:
            self.fail_next_sync = False
            raise OSError(errno.EIO, "Input/output error (modelled)")

    # -- the Disk -------------------------------------------------------
    def open_append(self, path: Path) -> _Handle:
        entries = self._entries(path.parent)
        file = entries.get(path.name)
        if file is None:
            file = entries[path.name] = _File()
            self._done(f"create {path.name}")
        return _Handle(self, file, path.name)

    def open_read(self, path: Path) -> io.BytesIO:
        return io.BytesIO(bytes(self._file(path).cached))

    def open_temp(self, path: Path) -> tuple[_Handle, Path]:
        self._temps += 1
        temp = path.with_name(f"{path.name}.{self._temps}.tmp")
        return self.open_append(temp), temp

    def size(self, path: Path) -> int:
        return len(self._file(path).cached)

    def stat(self, path: Path) -> SimpleNamespace:
        file = self._file(path)
        return SimpleNamespace(st_size=len(file.cached), st_mtime_ns=file.changed)

    def listdir(self, directory: Path) -> list[str]:
        return list(self._entries(directory))

    def makedirs(self, directory: Path) -> None:
        self._alive()
        for made in (Path(directory), *Path(directory).parents):
            self.dirs.setdefault(made, {})
            self.durable_dirs.setdefault(made, {})

    def truncate(self, path: Path, size: int) -> None:
        file = self._file(path)
        del file.cached[size:]
        file.changed = len(self.trace)
        self._done(f"truncate {path.name} to {size}")

    def _subtree(self, layer: dict[Path, dict[str, _File]], top: Path) -> list[Path]:
        return [d for d in layer if d == top or top in d.parents]

    def replace(self, source: Path, target: Path) -> None:
        source, target = Path(source), Path(target)
        if source in self.dirs:
            self._alive()
            if target in self.dirs:
                raise OSError(errno.EEXIST, "directory exists", str(target))
            for layer in (self.dirs, self.durable_dirs):
                for directory in self._subtree(layer, source):
                    layer[target / directory.relative_to(source)] = layer.pop(directory)
            self._done(f"rename {source.name}/ to {target.name}/")
            return
        self._file(source)
        entries = self._entries(source.parent)
        entries[target.name] = entries.pop(source.name)
        self._done(f"rename {source.name} over {target.name}")

    def unlink(self, path: Path) -> None:
        self._file(path)
        del self.dirs[path.parent][path.name]
        self._done(f"unlink {path.name}")

    def sync(self, handle: _Handle) -> None:
        handle._check()
        self._failing_sync()
        handle.file.durable = bytes(handle.file.cached)
        self._done(f"sync {handle.name}")

    def sync_directory(self, directory: Path) -> None:
        entries = self._entries(directory)
        self._failing_sync()
        self.durable_dirs[Path(directory)] = dict(entries)
        self._done(f"sync directory {Path(directory).name}/")

    def remove_tree(self, directory: Path) -> None:
        """Delete ``directory`` and everything under it, cache and platter."""
        for layer in (self.dirs, self.durable_dirs):
            for gone in self._subtree(layer, Path(directory)):
                del layer[gone]

    # -- crashing -------------------------------------------------------
    def crash(
        self,
        lose_power: bool = False,
        keep: Callable[[int], int] = lambda unsynced: 0,
    ) -> "PageCacheDisk":
        """The disk a restarted process finds (this one is left as is).

        ``keep(n)`` is how many bytes of a file's ``n``-byte unsynced tail
        survive a power loss; a file rewritten (truncated) since its last
        sync comes back as synced.
        """
        after = PageCacheDisk()
        copies: dict[int, _File] = {}

        def survivor(file: _File) -> _File:
            if id(file) not in copies:
                content, durable = bytes(file.cached), file.durable
                if lose_power:
                    tail = content[len(durable):] if content.startswith(durable) else b""
                    content = durable = durable + tail[: keep(len(tail))]
                copies[id(file)] = _File(content, durable)
            return copies[id(file)]

        layers = (
            (self.durable_dirs, after.durable_dirs),
            (self.durable_dirs if lose_power else self.dirs, after.dirs),
        )
        for layer, kept in layers:
            for directory, entries in layer.items():
                kept[directory] = {name: survivor(f) for name, f in entries.items()}
        return after
