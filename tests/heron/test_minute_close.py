"""The simulator's one minute close.

Every minute is filled into the same vector over the same compiled
series table; only its delivery differs — keyed through
``apply_sample_batch`` or prepared through ``append_minute_batch``.
These tests pin that the two deliveries are the same minute, which store
calls the simulator makes and when (the contract a recording store such
as the performance ledger's ``FeedStore`` builds on), and that a crash
and a metric dropout on one instance suppress it independently.
"""

from __future__ import annotations

import pytest

from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore

TOPOLOGY = "word-count"
FOREIGN = "written-by-someone-else"


class RecordingStore(MetricsStore):
    """Remembers the write calls it receives, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []
        self.resolved: list[list] = []
        self.appended: list[tuple[int, list[float]]] = []

    def apply_sample_batch(self, entries, bodies=None):
        self.calls.append("keyed")
        return super().apply_sample_batch(entries, bodies)

    def make_minute_batch(self, keys):
        self.calls.append("make")
        self.resolved.append(list(keys))
        return super().make_minute_batch(keys)

    def append_minute_batch(self, batch, timestamp, values, topology=None):
        self.calls.append("append")
        self.appended.append((timestamp, list(values)))
        super().append_minute_batch(batch, timestamp, values, topology)


def word_count(store):
    topology, packing, logic = build_word_count(WordCountParams())
    sim = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=42)
    )
    sim.set_source_rate("sentence-spout", 0.8 * 60_000)
    return sim


def simulate(minutes, events=None, foreign_writes=False):
    """Run Word Count minute by minute on a recording store.

    ``events[m]`` is called with the simulation before minute ``m``
    runs.  With ``foreign_writes`` somebody else writes one sample under
    the same topology between every pair of minutes, which moves its
    ``data_version`` and so forces every close to go keyed.  Returns the
    store and, per minute, ``(store calls, data_version delta, listener
    calls)`` of that minute's ``run`` alone.
    """
    store = RecordingStore()
    heard: list = []
    store.add_invalidation_listener(heard.append)
    sim = word_count(store)
    per_minute = []
    for minute in range(minutes):
        if events and minute in events:
            events[minute](sim)
        calls, version = len(store.calls), store.data_version(TOPOLOGY)
        listened = len(heard)
        sim.run(1)
        per_minute.append(
            (
                store.calls[calls:],
                store.data_version(TOPOLOGY) - version,
                heard[listened:],
            )
        )
        if foreign_writes:
            store.write(FOREIGN, minute * 60, 1.0, {"topology": TOPOLOGY})
    return store, per_minute


def simulated_series(store):
    """What the simulation wrote, in series-creation order."""
    return [
        (key, list(buffer.timestamps), list(buffer.values))
        for key, buffer in store._series.items()
        if key.name != FOREIGN
    ]


def counter_dropout(active):
    return lambda sim: sim.set_metric_dropout("counter", 0, active)


SCENARIOS = {
    "undisturbed": {},
    "dropout_window": {2: counter_dropout(True), 3: counter_dropout(False)},
    "dark_first_minute": {0: counter_dropout(True), 1: counter_dropout(False)},
}


class TestKeyedEqualsPrepared:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_forced_keyed_run_leaves_identical_series(self, scenario):
        events = SCENARIOS[scenario]
        prepared, prepared_minutes = simulate(5, events)
        keyed, keyed_minutes = simulate(5, events, foreign_writes=True)
        # The comparison is between the two deliveries, not of one with
        # itself: the foreign writes kept the second run off the batch.
        assert "append" in prepared.calls
        assert "append" not in keyed.calls
        # Values, timestamps and series-creation order ...
        assert simulated_series(keyed) == simulated_series(prepared)
        # ... and what a reader keyed on the version or a listener sees.
        assert [m[1:] for m in keyed_minutes] == [
            m[1:] for m in prepared_minutes
        ]
        assert all(
            heard == [TOPOLOGY] for _, _, heard in prepared_minutes
        )

    def test_late_series_appear_in_layout_order(self):
        complete, _ = simulate(3)
        late, _ = simulate(3, SCENARIOS["dark_first_minute"])
        order = [key for key, _, _ in simulated_series(complete)]
        dark = [
            key for key in order
            if key.tag_dict().get("instance") == "counter_0"
        ]
        # The dark instance's series are created a minute late, after
        # everyone else's, in the order the layout lists them.
        assert [key for key, _, _ in simulated_series(late)] == [
            key for key in order if key not in dark
        ] + dark
        for key, timestamps, _ in simulated_series(late):
            assert timestamps == ([60, 120] if key in dark else [0, 60, 120])


class TestStoreCalls:
    """Minute 1 keyed, then one ``make_minute_batch`` and prepared appends;
    keyed again (and resolved again) whenever the batch cannot be used."""

    def test_steady_state_sequence(self):
        store, minutes = simulate(4)
        assert [calls for calls, _, _ in minutes] == [
            ["keyed", "make"], ["append"], ["append"], ["append"]
        ]
        # Resolved once, over exactly the series the keyed minute
        # created, in their creation order; appended values line up.
        [keys] = store.resolved
        assert keys == list(store._series)
        assert [timestamp for timestamp, _ in store.appended] == [60, 120, 180]
        for minute, (_, values) in enumerate(store.appended, start=1):
            assert values == [
                store._series[key].values[minute] for key in keys
            ]

    def test_foreign_write_forces_keyed_and_a_new_resolution(self):
        store, minutes = simulate(3, foreign_writes=True)
        assert [calls for calls, _, _ in minutes] == [["keyed", "make"]] * 3
        assert store.resolved[0] == store.resolved[1] == store.resolved[2]

    def test_dropout_window_goes_keyed_without_resolving(self):
        _, minutes = simulate(5, SCENARIOS["dropout_window"])
        assert [calls for calls, _, _ in minutes] == [
            ["keyed", "make"],
            ["append"],
            ["keyed"],          # somebody is dark: no batch can say so
            ["keyed", "make"],  # first complete minute after the window
            ["append"],
        ]

    def test_dark_first_minute_resolves_on_the_first_complete_one(self):
        _, minutes = simulate(3, SCENARIOS["dark_first_minute"])
        assert [calls for calls, _, _ in minutes] == [
            ["keyed"], ["keyed", "make"], ["append"]
        ]


class TestCrashAndDropoutOverlap:
    """A crash and an instance-scoped dropout on the same instance are
    two reasons to be dark; ending one does not end the other."""

    @staticmethod
    def reported_minutes(store):
        return list(
            store.aggregate(
                MetricNames.EXECUTE_COUNT,
                {"topology": TOPOLOGY, "instance": "counter_0"},
            ).timestamps
        )

    def test_dropout_ending_does_not_revive_a_crashed_instance(self):
        store = MetricsStore()
        sim = word_count(store)
        sim.run(1)
        sim.crash_instance("counter", 0)
        sim.set_metric_dropout("counter", 0, True)
        sim.run(1)
        sim.set_metric_dropout("counter", 0, False)
        sim.run(1)
        assert sim.instance_down("counter", 0)
        assert self.reported_minutes(store) == [0]
        sim.restore_instance("counter", 0)
        sim.run(1)
        assert self.reported_minutes(store) == [0, 180]

    def test_restore_does_not_end_a_dropout(self):
        store = MetricsStore()
        sim = word_count(store)
        sim.run(1)
        sim.set_metric_dropout("counter", 0, True)
        sim.crash_instance("counter", 0)
        sim.run(1)
        sim.restore_instance("counter", 0)
        sim.run(1)
        assert not sim.instance_down("counter", 0)
        assert self.reported_minutes(store) == [0]
        sim.set_metric_dropout("counter", 0, False)
        sim.run(1)
        assert self.reported_minutes(store) == [0, 180]
