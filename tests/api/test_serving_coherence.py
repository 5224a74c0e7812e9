"""Serving coherence: no answer the serving layer gives is stale.

A Hypothesis state machine drives one in-process
:class:`~repro.api.app.CaladriusApp` on a :class:`~tests.clock.ManualClock`
with a result cache small enough to evict, beside a twin with serving
disabled over the same store and tracker (the *reference*).  Its rules
interleave, on two topologies:

* metric writes — one ``POST /metrics/write`` per series, or one
  ``POST /metrics/write_batch`` — each a simulated minute;
* a retention trim (a write far enough ahead that the other topology's
  oldest minutes fall out of the window) and a store ``clear``;
* a plan change on the tracker;
* traffic, performance and plan-sweep queries, asked the way the HTTP
  listener asks: ``handle_nonblocking`` on the loop thread, ``handle``
  with ``encoded`` in the pool when that declines (the sweep proposes a
  two-key plan whose keys are not in sorted order);
* ``precompute_now()``, the re-warm pass, and a TTL advance;
* a question asked, its topology written, the re-warm run and the
  question asked again: the second answer is the re-warmed one.

Three rules ask from windows a running service has:

* *in the window* of a write or a plan change — from a store or tracker
  listener registered ahead of the serving layer's, so the change is
  visible but nothing has been invalidated yet: the state a request
  racing the change sees;
* *across a write* — one asker's computation, made before a write, is
  held before it resolves its pending entry; the write is acknowledged;
  a second asker then asks the same question.

Invariants: every answer (status and body) is byte-equal to the
reference's answer to the same request at the same moment — the answers
carry no timing field, so the bytes are compared as they are — and,
between rules, the table holds no pending entry and no entry a request
can no longer reach: each key is the one the layer computes for its
descriptor now.

Seeded mutants of the serving layer each fail the machine: a key
without the plan revision (an ask in a plan change's window hits the old
plan's answer), a precomputer that stores a pre-write answer under the
post-write key (the next ask hits it), a pending entry keyed without
``data_version`` (the asker inside a write joins the computation made
before it) and an ``invalidate_topology`` that skips one topology (its
entries outlive their versions).  Circuit breakers are out of the
comparison: the serving app also computes to re-warm, so the two apps
see different failure windows, and an open circuit's 503 says nothing
about the store.
"""

from __future__ import annotations

import functools
import json
import threading
from collections.abc import Callable
from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api.app import CaladriusApp
from repro.api.ingest import encode_frames
from repro.config import load_config
from repro.durability.breaker import CircuitBreaker
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.heron.workloads import AdsPipelineParams, build_ads_pipeline
from repro.serving.cache import Pending
from repro.timeseries.store import MetricsStore
from tests.clock import JOIN, Call, ManualClock
from tests.live import poll_until

M = 1e6
#: Seconds of metrics the store keeps: ten simulated minutes.
RETENTION = 600
#: Simulated minutes every example starts from, and minutes in each feed.
BASE_MINUTES = 6
FEED_MINUTES = 60
#: Minutes a retention trim jumps ahead in its topology's feed.
SKIP = RETENTION // 60 - 3
TTL = 120.0
MODELS = {
    "traffic_models": ["stats-summary"],
    "performance_models": ["throughput-prediction"],
}
#: About three answers: every few computed answers evict one.
SERVING = {"cache_mb": 0.005, "ttl_seconds": TTL}


@dataclass(frozen=True)
class Deployment:
    """A topology, its two plans and a feed of simulated minutes."""

    name: str
    plans: tuple  # ((topology, packing), (topology, packing))
    minutes: tuple  # per minute: ((name, tags, ts, value), ...)
    requests: tuple  # (method, path, query, body)


def _deployment(build, params, alternate, spout, bolt, other, rates) -> Deployment:
    """``other`` is a bolt whose name sorts before ``bolt``'s."""
    topology, packing, logic = build(params)
    simulated = MetricsStore()
    simulation = HeronSimulation(
        topology, packing, logic, simulated, SimulationConfig(seed=5)
    )
    for minute in range(FEED_MINUTES):
        simulation.set_source_rate(spout, rates[minute % len(rates)])
        simulation.run(1)
    minutes: list[list] = [[] for _ in range(FEED_MINUTES)]
    for key in simulated.keys():
        series = simulated.get(key.name, key.tag_dict())
        for ts, value in zip(series.timestamps.tolist(), series.values.tolist()):
            minutes[ts // 60].append((key.name, key.tag_dict(), ts, value))
    name = topology.name
    alternative = build(alternate)[:2]
    return Deployment(
        name,
        ((topology, packing), alternative),
        tuple(tuple(minute) for minute in minutes),
        (
            ("GET", f"/model/traffic/heron/{name}", {"horizon_minutes": "5"}, None),
            ("POST", f"/model/topology/heron/{name}", {}, {"source_rate": 8 * M}),
            ("POST", f"/model/topology/heron/{name}", {}, {}),
            (
                "POST", f"/model/topology/heron/{name}", {},
                {"source_rate": 20 * M, "parallelisms": {bolt: 3}},
            ),
            (
                "POST", f"/model/plan_sweep/heron/{name}", {},
                {"source_rate": 8 * M, "plans": [{bolt: 1}, {bolt: 3, other: 2}]},
            ),
        ),
    )


@functools.cache
def deployments() -> tuple[Deployment, ...]:
    """Word Count and the ads pipeline, simulated once per test run."""
    return (
        _deployment(
            build_word_count,
            WordCountParams(spout_parallelism=2, splitter_parallelism=2,
                            counter_parallelism=2),
            WordCountParams(spout_parallelism=2, splitter_parallelism=3,
                            counter_parallelism=2),
            "sentence-spout", "splitter", "counter",
            (4 * M, 12 * M, 20 * M, 28 * M, 36 * M),
        ),
        _deployment(
            build_ads_pipeline,
            AdsPipelineParams(spout_parallelism=2, parser_parallelism=2),
            AdsPipelineParams(spout_parallelism=2, parser_parallelism=3),
            "event-spout", "parser", "filterer",
            (1 * M, 4 * M, 8 * M, 14 * M, 20 * M),
        ),
    )


TOPOLOGY = st.sampled_from([0, 1])
#: The index of the plan sweep in a deployment's requests.
SWEEP = 4
REQUEST = st.tuples(TOPOLOGY, st.integers(0, SWEEP))


class HeldComputation:
    """Holds the next computation the app's scheduler finishes, before it
    returns: its answer is computed, its pending entry not yet resolved."""

    def __init__(self, scheduler) -> None:
        self.reached = threading.Event()
        self.release = threading.Event()
        honest = scheduler.run

        def run(fn, *args, **kwargs):
            result = honest(fn, *args, **kwargs)
            if not self.reached.is_set():
                self.reached.set()
                assert self.release.wait(JOIN)
            return result

        scheduler.run = run


class CoherenceMachine(RuleBasedStateMachine):
    """Writes, trims, clears, plan changes, TTL and re-warms against
    queries, each answer checked against a service without a cache."""

    #: Requests asked at least once: what the windows ask again.
    asked = Bundle("asked")

    @initialize()
    def deploy(self):
        self.deployments = deployments()
        self.clock = ManualClock()
        self.store = MetricsStore(retention_seconds=RETENTION)
        self.tracker = TopologyTracker()
        self.plan = [0] * len(self.deployments)
        self.cursor = [BASE_MINUTES] * len(self.deployments)
        for deployment in self.deployments:
            self.tracker.register(*deployment.plans[0])
            for minute in deployment.minutes[:BASE_MINUTES]:
                self.store.apply_sample_batch([
                    (self.store.key_of(name, tags), ts, value)
                    for name, tags, ts, value in minute
                ])
        # Ahead of every listener the apps add: the window rules ask from
        # inside a change the serving layer has not yet been told of.
        self.in_window: Callable[[], None] | None = None
        self.store.add_invalidation_listener(self._run_in_window)
        self.tracker.add_listener(self._run_in_window)
        self.app = CaladriusApp(
            load_config({**MODELS, "serving": SERVING}),
            self.tracker, self.store, max_workers=1, clock=self.clock,
        )
        self.reference = CaladriusApp(
            load_config({**MODELS, "serving": {"enabled": False}}),
            self.tracker, self.store, max_workers=1, clock=self.clock,
        )
        for app in (self.app, self.reference):
            # Two outcomes are never trusted from a window of one: these
            # breakers stay closed.
            app.breaker = CircuitBreaker(window=1, min_calls=2, clock=self.clock)

    def teardown(self):
        if hasattr(self, "app"):
            self.app.shutdown()
            self.reference.shutdown()

    # ------------------------------------------------------------------
    # Asking
    # ------------------------------------------------------------------
    def _request(self, which: tuple[int, int]) -> tuple:
        topology, index = which
        return self.deployments[topology].requests[index]

    def _served(self, request: tuple) -> tuple[int, bytes]:
        """Answered as the listener answers: on the loop thread when the
        app can, else in the pool, as the bytes it writes."""
        answer = self.app.handle_nonblocking(*request)
        if answer is None:
            answer = self.app.handle(*request, None, True)
        status, payload = answer
        if not isinstance(payload, bytes):
            payload = json.dumps(payload).encode("utf8")
        return status, payload

    def _expected(self, request: tuple) -> tuple[int, bytes]:
        status, payload = self.reference.handle(*request)
        return status, json.dumps(payload).encode("utf8")

    def _check(self, request: tuple) -> None:
        expected = self._expected(request)
        assert self._served(request) == expected, request

    def _run_in_window(self, _topology: str | None) -> None:
        if self.in_window is not None:
            step, self.in_window = self.in_window, None
            step()

    def _reached_the_table(self) -> int:
        counters = self.app.telemetry.snapshot()["counters"]
        return sum(
            counters.get(f"serving.singleflight.{role}", 0)
            for role in ("led", "coalesced")
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write_batch(self, minute) -> None:
        body = encode_frames((name, ts, value, tags) for name, tags, ts, value in minute)
        status, result = self.app.handle("POST", "/metrics/write_batch", {}, body)
        assert status == 200 and not result["rejected"], result

    def _next_minute(self, topology: int, skip: int = 0):
        self.cursor[topology] += skip
        minute = self.deployments[topology].minutes[self.cursor[topology]]
        self.cursor[topology] += 1
        return minute

    def _room(self, needed: int) -> bool:
        return max(self.cursor) + needed < FEED_MINUTES

    @precondition(lambda self: self._room(1))
    @rule(topology=TOPOLOGY, batched=st.booleans())
    def write(self, topology, batched):
        """The next minute: one ``write_batch``, or a ``write`` a series."""
        minute = self._next_minute(topology)
        if batched:
            self._write_batch(minute)
            return
        for name, tags, ts, value in minute:
            status, result = self.app.handle(
                "POST", "/metrics/write", {},
                {"name": name, "tags": tags, "samples": [[ts, value]]},
            )
            assert status == 200, result

    @precondition(lambda self: self._room(SKIP + 1))
    @rule(topology=TOPOLOGY)
    def retention_trim(self, topology):
        """Jump ahead: the other topology's oldest minutes expire."""
        self._write_batch(self._next_minute(topology, skip=SKIP))

    @rule()
    def clear(self):
        self.store.clear()

    @rule(topology=TOPOLOGY)
    def plan_change(self, topology):
        self.plan[topology] ^= 1
        deployment = self.deployments[topology]
        self.tracker.update(deployment.name, *deployment.plans[self.plan[topology]])

    # ------------------------------------------------------------------
    # Queries, re-warm, time
    # ------------------------------------------------------------------
    @rule(target=asked, which=REQUEST)
    def ask(self, which):
        self._check(self._request(which))
        return which

    @precondition(lambda self: self._room(1))
    @rule(which=asked, topology=TOPOLOGY, write=st.booleans())
    def ask_in_a_window(self, which, topology, write):
        """Ask again from inside a write or a plan change."""
        self.in_window = functools.partial(self._check, self._request(which))
        if write:
            self._write_batch(self._next_minute(topology))
        else:
            self.plan_change(topology)
        assert self.in_window is None

    @precondition(lambda self: self._room(1))
    @rule(which=REQUEST, topology=TOPOLOGY)
    def ask_across_a_write(self, which, topology):
        """A first asker computes before a write and is held before it
        resolves; a second asks from inside the write's window and has
        reached the table — led, or joined an answer — before the write
        is invalidated.  Each gets the answer of the state it asked in."""
        request = self._request(which)
        before = self._expected(request)
        held = HeldComputation(self.app.serving.scheduler)

        def first_asker():
            try:
                return self._served(request)
            finally:
                held.reached.set()  # held, or done without computing

        first = Call(first_asker)
        second: list[Call] = []
        answered = threading.Event()

        def second_asker():
            try:
                return self._served(request)
            finally:
                answered.set()

        def ask_in_the_window():
            reached = self._reached_the_table() + 1
            second.append(Call(second_asker))
            assert poll_until(
                lambda: self._reached_the_table() >= reached or answered.is_set(),
                JOIN,
            )

        try:
            assert held.reached.wait(JOIN)
            self.in_window = ask_in_the_window
            self._write_batch(self._next_minute(topology))
            assert self.in_window is None
        finally:
            held.release.set()
        after = self._expected(request)
        assert first.result() == before, request
        assert second[0].result() == after, request
        del self.app.serving.scheduler.run  # the class's own again

    @precondition(lambda self: self._room(1))
    @rule(which=REQUEST)
    def ask_across_a_rewarm(self, which):
        """Ask, write the question's topology, re-warm, ask again: the
        second answer is the one the re-warm stored, and it is the
        fresh answer."""
        request = self._request(which)
        self._check(request)
        self._write_batch(self._next_minute(which[0]))
        self.app.serving.precompute_now()
        self._check(request)

    @rule()
    def precompute(self):
        self.app.serving.precompute_now()

    @rule(seconds=st.sampled_from([30.0, TTL]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    # ------------------------------------------------------------------
    # The table
    # ------------------------------------------------------------------
    @invariant()
    def every_entry_is_done_and_reachable(self):
        if not hasattr(self, "app"):
            return
        serving = self.app.serving
        for key, entry in list(serving.cache._entries.items()):
            assert entry.__class__ is not Pending, key
            assert key == serving._key(key[0]), f"unreachable entry {key}"


CoherenceMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    database=None,
    derandomize=True,
)
TestCoherenceMachine = CoherenceMachine.TestCase


def test_an_unsorted_plan_is_one_answer_fresh_and_rewarmed():
    """A sweep proposing ``{bolt: 3, other: 2}`` is answered alike when
    asked fresh, after a write's re-warm and by the service without a
    table, on both topologies: every echoed plan in sorted-key order,
    the order of the request's descriptor."""
    machine = CoherenceMachine()
    try:
        machine.deploy()
        for topology in range(len(machine.deployments)):
            before = machine.app.serving.stats()["precomputed"]
            machine.ask_across_a_rewarm((topology, SWEEP))
            assert machine.app.serving.stats()["precomputed"] > before
            status, payload = machine._served(machine._request((topology, SWEEP)))
            plans = [entry["plan"] for entry in json.loads(payload)["ranked"]]
            assert status == 200 and len(plans) == 2
            assert all(list(plan) == sorted(plan) for plan in plans)
    finally:
        machine.teardown()
