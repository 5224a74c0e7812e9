"""Crash points: the durability contract at every disk operation.

:class:`DurableMetricsStore` and :class:`CheckpointManager` run on
:class:`~tests.durability.page_cache.PageCacheDisk`, which fails and
crashes the way a real disk does, against a dict model of what each
process was told.  After every reopen:

* under ``fsync="always"`` every acknowledged sample is there;
* under every policy the recovered state is a prefix of the sequence of
  writes (one that raised may or may not have survived);
* a second reopen recovers the same state;
* appends resume.

A Hypothesis state machine explores interleavings of writes, frame
ingest, clears, checkpoints, rotations, ``ENOSPC``, ``EIO``, process
crashes, power losses and clean reopens (and checks that every change a
reader can see moves that topology's ``data_version``); an exhaustive
pass crashes a fixed workload after each of its disk operations in turn.
The named cases at the end pin single faults.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.durability import CheckpointManager, DurableMetricsStore
from repro.durability.wal import FSYNC_ALWAYS, FSYNC_INTERVAL, FSYNC_POLICIES
from repro.errors import DurabilityError
from repro.timeseries.store import write_head, write_record
from tests.durability.page_cache import Crash, PageCacheDisk

#: Where the store lives on the modelled disk (no host file is touched).
DATA = Path("data")
RETENTION = 600
NAMES = ("m", "n")
TOPOLOGIES = ("a", "b")
SERIES = [(name, topology) for name in NAMES for topology in TOPOLOGIES]
#: Seconds between consecutive samples: some writes trim the others.
GAPS = st.sampled_from((60, 240, 480))
CLEAR = "clear"


def open_store(disk: PageCacheDisk, policy: str) -> DurableMetricsStore:
    return DurableMetricsStore(
        DATA,
        retention_seconds=RETENTION,
        fsync=policy,
        fsync_interval_seconds=3600,  # the tick never fires in a test
        segment_max_bytes=1024,  # ~12 records a segment: rotations happen
        disk=disk,
    )


def abandon(store: DurableMetricsStore) -> None:
    """The process died: its fsync tick must not outlive it."""
    store.wal._flusher_stop.set()


def apply(state: dict, event) -> None:
    """The reference model: one sample (or a clear) and the store's
    retention rule — every timestamp is the latest, so each write trims
    what fell out of the window behind it."""
    if event == CLEAR:
        state.clear()
        return
    series, ts, value = event
    state.setdefault(series, []).append((ts, value))
    for samples in state.values():
        while samples and samples[0][0] < ts - RETENTION:
            del samples[0]


def frozen(state: dict) -> dict:
    return {series: tuple(samples) for series, samples in state.items() if samples}


def contents(store: DurableMetricsStore) -> dict:
    found = {}
    for name in NAMES:
        for key, series in store.query(name).items():
            if len(series):
                found[name, key.topology] = tuple(
                    zip(series.timestamps.tolist(), series.values.tolist())
                )
    return found


class Journal:
    """What one process was told: the events since it opened (on top of
    the ``base`` state it recovered) and how many a recovery must keep."""

    def __init__(self, base: dict) -> None:
        self.base = base
        self.events: list = []
        self.floor = 0

    def attempt(self, events: list, call, durable: bool, errors=DurabilityError):
        """Run ``call`` for ``events``; if it returns, they were
        acknowledged, and with ``durable`` so is everything before them."""
        self.events += events
        try:
            call()
        except errors:
            return False
        if durable:
            self.floor = len(self.events)
        return True

    def recovered(self, store: DurableMetricsStore, where: str) -> dict:
        """Check what ``store`` recovered; returns it."""
        got = contents(store)
        state = {series: list(samples) for series, samples in self.base.items()}
        for event in self.events[: self.floor]:
            apply(state, event)
        acked = frozen(state)
        candidates = [acked]
        for event in self.events[self.floor :]:
            apply(state, event)
            candidates.append(frozen(state))
        if got not in candidates:
            lost = sorted(
                (series, sample)
                for series, samples in acked.items()
                for sample in samples
                if sample not in got.get(series, ())
            )
            raise AssertionError(
                f"{where}: "
                + (
                    f"acknowledged sample {lost[0]} lost ({len(lost)} in all)"
                    if lost
                    else "the recovered state is no prefix of the writes"
                )
                + f"; recovered {got}"
            )
        return got


class Process:
    """One store on one disk, the journal of what it acknowledged, and
    the clock its samples are stamped from."""

    def __init__(self, disk: PageCacheDisk, policy: str, clock: int = 0) -> None:
        self.disk, self.policy, self.clock = disk, policy, clock
        #: Whether an acknowledged write is a durable one.
        self.synced = policy == FSYNC_ALWAYS
        self.journal = Journal({})
        self.store = open_store(disk, policy)
        self.checkpointer = CheckpointManager(self.store)

    def _samples(self, gaps) -> list[tuple[int, float]]:
        stamps = []
        for gap in gaps:
            self.clock += gap
            stamps.append((self.clock, self.clock + 0.25))
        return stamps

    def write(self, series, gaps) -> bool:
        name, topology = series
        samples = self._samples(gaps)
        tags = {"topology": topology}
        if len(samples) == 1:
            call = lambda: self.store.write(name, *samples[0], tags)  # noqa: E731
        else:
            call = lambda: self.store.write_many(name, samples, tags)  # noqa: E731
        return self.journal.attempt(
            [(series, *sample) for sample in samples], call, durable=self.synced
        )

    def ingest(self, frames) -> bool:
        events, payloads = [], []
        for (name, topology), gap in frames:
            ((ts, value),) = self._samples([gap])
            events.append(((name, topology), ts, value))
            payloads.append(
                write_record(write_head(name, {"topology": topology}), ts, value)
            )

        def call():
            assert self.store.ingest_frames(payloads)["acked"] == len(payloads)

        return self.journal.attempt(events, call, durable=self.synced)

    def clear(self) -> bool:
        return self.journal.attempt([CLEAR], self.store.clear, durable=self.synced)

    def checkpoint(self) -> bool:
        return self.journal.attempt(
            [], self.checkpointer.checkpoint, durable=True,
            errors=(DurabilityError, OSError),
        )

    def restart(self, disk: PageCacheDisk, where: str) -> "Process":
        """The process that boots on ``disk`` after this one died: it must
        recover a state this one allowed, recover it again after a second
        restart, and take a write that a third restart recovers."""
        abandon(self.store)
        got = self._reopen(disk, self.journal, where)
        after = Process(disk.crash(), self.policy, self.clock)
        after.journal.base = got
        assert contents(after.store) == got, f"{where}: a second reopen differs"
        assert after.write(SERIES[0], [60]), f"{where}: appends do not resume"
        self._reopen(after.disk.crash(), after.journal, f"{where}, then an append")
        return after

    def _reopen(self, disk: PageCacheDisk, journal: Journal, where: str) -> dict:
        """Open ``disk`` and check it against ``journal``; the state."""
        try:
            store = open_store(disk, self.policy)
        except DurabilityError as exc:
            raise AssertionError(f"{where}: the reopen failed: {exc}") from exc
        abandon(store)
        return journal.recovered(store, where)


def workload(process: Process) -> None:
    """The fixed sequence the exhaustive pass crashes at every step of:
    single and batched writes across two rotations, frames, two
    checkpoints and a clear between them."""
    for index in range(6):
        process.write(SERIES[index % 4], [60])
    process.write(SERIES[1], [60, 60, 240])
    process.ingest([(SERIES[index], 60) for index in range(4)])
    for index in range(8):
        process.write(SERIES[index % 4], [240 if index == 5 else 60])
    process.checkpoint()
    process.write(SERIES[2], [60, 60])
    process.clear()
    process.write(SERIES[3], [60])
    process.ingest([(SERIES[0], 60), (SERIES[3], 480)])
    process.checkpoint()
    process.write(SERIES[0], [60])


def run_until_crash(disk: PageCacheDisk, policy: str) -> Process:
    """The workload on ``disk`` up to its crash point: what it was told."""
    try:
        process = Process(disk, policy)
    except Crash:
        # Died while opening: told nothing, like a process that never
        # wrote (whose journal is all a restart checks against).
        return Process(PageCacheDisk(), policy)
    with contextlib.suppress(Crash):
        workload(process)
    return process


@pytest.mark.parametrize("policy", [FSYNC_ALWAYS, FSYNC_INTERVAL])
def test_a_crash_after_any_disk_operation_keeps_what_was_acknowledged(policy):
    """Crash the workload after its 1st, 2nd, ... disk operation; each
    time recover from the page cache (process crash) and from the platter
    with none and with half of every unsynced tail (power loss)."""
    clean = PageCacheDisk()
    run_until_crash(clean, policy)
    total = len(clean.trace)
    # Segments were rotated, checkpoints renamed in and segments pruned.
    assert sum(op.startswith("create wal-") for op in clean.trace) >= 3
    assert sum(op.startswith("rename") for op in clean.trace) == 2
    assert any(op.startswith("unlink wal-") for op in clean.trace)
    for point in range(1, total + 1):
        disk = PageCacheDisk()
        disk.crash_at = point
        process = run_until_crash(disk, policy)
        for how, after in (
            ("process crash", disk.crash()),
            ("power loss", disk.crash(lose_power=True)),
            ("power loss keeping half of each unsynced tail",
             disk.crash(lose_power=True, keep=lambda unsynced: unsynced // 2)),
        ):
            where = f"{how} after disk operation {point}/{total} ({disk.trace[-1]})"
            abandon(process.restart(after, where).store)


class CrashPointMachine(RuleBasedStateMachine):
    """Writes, faults and crashes in any order, on any fsync policy."""

    @initialize(policy=st.sampled_from(FSYNC_POLICIES))
    def boot(self, policy):
        self.process = Process(PageCacheDisk(), policy)
        self.seen: dict = {}

    @rule(series=st.sampled_from(SERIES), gaps=st.lists(GAPS, min_size=1, max_size=4))
    def write(self, series, gaps):
        self.process.write(series, gaps)

    @rule(frames=st.lists(st.tuples(st.sampled_from(SERIES), GAPS), min_size=1, max_size=4))
    def ingest_frames(self, frames):
        self.process.ingest(frames)

    @rule()
    def clear(self):
        self.process.clear()

    @rule()
    def checkpoint(self):
        self.process.checkpoint()

    @rule()
    def rotate(self):
        self.process.journal.attempt([], self.process.store.wal.rotate, durable=True)

    @rule()
    def enospc_on_the_next_write(self):
        self.process.disk.fail_next_write = True

    @rule()
    def eio_on_the_next_sync(self):
        self.process.disk.fail_next_sync = True

    @rule()
    def process_crash(self):
        self._restart(self.process.disk.crash(), "process crash")

    @rule(sevenths=st.integers(0, 7))
    def power_loss(self, sevenths):
        # Sevenths: a tail of one to four equal frames is cut mid-frame.
        self._restart(
            self.process.disk.crash(
                lose_power=True, keep=lambda unsynced: unsynced * sevenths // 7
            ),
            f"power loss keeping {sevenths}/7 of each unsynced tail",
        )

    @rule()
    def reopen(self):
        self.process.journal.attempt([], self.process.store.close, durable=True)
        self._restart(self.process.disk.crash(), "clean reopen")

    def _restart(self, disk: PageCacheDisk, how: str) -> None:
        self.process = self.process.restart(disk, how)
        self.seen = {}

    @invariant()
    def every_visible_change_moves_the_data_version(self):
        """A write, a clear or a retention trim — of this topology or
        caused by a write to another — that changes what a reader of a
        topology gets must move that topology's ``data_version``."""
        if not hasattr(self, "process"):
            return
        store = self.process.store
        state = contents(store)
        for topology in TOPOLOGIES:
            view = {series: s for series, s in state.items() if series[1] == topology}
            version = store.data_version(topology)
            before = self.seen.get(topology)
            if before is not None and view != before[0]:
                assert version > before[1], (
                    f"topology {topology!r} changed without a data_version move"
                )
            self.seen[topology] = (view, version)

    def teardown(self):
        if hasattr(self, "process"):
            abandon(self.process.store)


CrashPointMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    database=None,
    derandomize=True,
)
TestCrashPointMachine = CrashPointMachine.TestCase


class TestNamedFaults:
    """One fault at a time, each with the contract it must keep."""

    def test_disk_full_fails_only_the_write(self):
        disk = PageCacheDisk()
        store = open_store(disk, FSYNC_ALWAYS)
        for minute in range(1, 4):
            store.write("m", 60 * minute, float(minute))
        disk.fail_next_write = True
        with pytest.raises(DurabilityError, match="flush failed.*No space left"):
            store.write("m", 240, 4.0)
        with pytest.raises(DurabilityError, match="reopen the data directory"):
            store.write("m", 300, 5.0)
        abandon(store)
        recovered = open_store(disk.crash(lose_power=True), FSYNC_ALWAYS)
        assert list(recovered.get("m").values) == [1.0, 2.0, 3.0]

    def test_a_torn_write_is_cut_off_and_appends_resume(self):
        disk = PageCacheDisk()
        store = open_store(disk, FSYNC_ALWAYS)
        store.write("m", 60, 1.0)
        store.write("m", 120, 2.0)
        disk.fail_next_sync = True  # the third frame reaches the cache only
        with pytest.raises(DurabilityError):
            store.write("m", 180, 3.0)
        abandon(store)
        torn = disk.crash(lose_power=True, keep=lambda unsynced: unsynced - 3)
        recovered = open_store(torn, FSYNC_ALWAYS)
        assert recovered.recovery.torn_records == 1
        assert list(recovered.get("m").values) == [1.0, 2.0]
        recovered.write("m", 180, 3.0)  # on the repaired log
        abandon(recovered)
        final = open_store(torn.crash(lose_power=True), FSYNC_ALWAYS)
        assert list(final.get("m").values) == [1.0, 2.0, 3.0]
        assert final.recovery.torn_records == 0

    def test_a_failed_fsync_is_not_an_acknowledgement(self):
        """A real ``EIO`` from the sync fails the write *and* the log: a
        retried fsync may report success for pages the kernel dropped."""
        disk = PageCacheDisk()
        store = open_store(disk, FSYNC_ALWAYS)
        store.write("m", 60, 1.0)
        disk.fail_next_sync = True
        with pytest.raises(DurabilityError, match="flush failed.*Input/output"):
            store.write("m", 120, 2.0)
        assert store.wal.failed
        with pytest.raises(DurabilityError, match="reopen the data directory"):
            store.write("m", 180, 3.0)
        with pytest.raises(DurabilityError, match="reopen the data directory"):
            store.flush()
        abandon(store)
        recovered = open_store(disk.crash(lose_power=True), FSYNC_ALWAYS)
        assert list(recovered.get("m").values) == [1.0]

    def test_an_interval_fsync_error_is_raised_on_flush(self):
        disk = PageCacheDisk()
        store = open_store(disk, FSYNC_INTERVAL)
        store.write("m", 60, 1.0)
        store.flush()  # opens the segment
        store.write("m", 120, 2.0)  # buffered; the tick has not run
        disk.fail_next_sync = True
        with pytest.raises(DurabilityError, match="flush failed.*Input/output"):
            store.flush()
        assert store.wal.failed
        abandon(store)

    def test_a_reopen_makes_the_log_it_read_durable(self):
        """A record whose sync failed stays in the page cache, and the
        next process reads it back.  Unless opening the log syncs it, once
        that process's appends move on to a new segment a power loss can
        tear the old one — no longer the last, so no reopen gets past it."""

        def fill(disk: PageCacheDisk, records: int) -> DurableMetricsStore:
            store = open_store(disk, FSYNC_ALWAYS)
            for second in range(1, records + 1):  # all inside the retention
                store.write("m", second, 0.5)
            return store

        first_of_second = fill(PageCacheDisk(), 40).wal.segments()[1].name
        full = int(first_of_second[len("wal-") : -len(".log")]) - 1
        disk = PageCacheDisk()
        store = fill(disk, full - 1)
        disk.fail_next_sync = True
        with pytest.raises(DurabilityError):
            store.write("m", full, 0.5)  # the first segment's last record
        disk = disk.crash()
        store = open_store(disk, FSYNC_ALWAYS)
        assert len(store.get("m")) == full
        store.write("m", full + 1, 0.5)
        assert len(store.wal.segments()) == 2
        torn = disk.crash(lose_power=True, keep=lambda unsynced: unsynced // 2)
        assert len(open_store(torn, FSYNC_ALWAYS).get("m")) == full + 1

    def test_the_wal_watchdog_exits_70_once_the_log_fails(self, monkeypatch):
        """``serve``'s watchdog turns a failed log into a shard respawn."""
        from repro.cli import _start_wal_watchdog

        disk = PageCacheDisk()
        store = open_store(disk, FSYNC_ALWAYS)
        disk.fail_next_sync = True
        with pytest.raises(DurabilityError):
            store.write("m", 60, 1.0)
        exited: list[int] = []
        done = threading.Event()

        def _exit(code):
            exited.append(code)
            done.set()

        monkeypatch.setattr(os, "_exit", _exit)
        _start_wal_watchdog(store, poll_seconds=0.01)
        assert done.wait(5)
        assert exited == [70]
        abandon(store)
