"""A cost ratchet on one cache hit answered on the listener's loop thread.

A warm modelling request is the service's most common one, and it is
answered inside one ``data_received`` call: framing, the app's
``handle_nonblocking`` (routing, validation, the ``(descriptor, plan
revision, data_version)`` key, the cache lookup) and the response write.
Its cost is counted in bytecode, the way
``tests/durability/test_write_path_cost.py`` counts the write path
(``sys.settrace`` with ``f_trace_opcodes``, the cyclic collector off,
everything counted twice and the second pass kept), over a connection
whose transport only records what it is given.  Two numbers:

* the whole hit, ``_Connection.data_received`` of one request;
* the app's part, ``handle_nonblocking`` of the same request as the
  listener hands it over.

On CPython 3.11 a hit ran 2,029 opcodes, 1,427 of them in the app's
part, which ran 1,688 while the key was a SHA-256 over canonical JSON.
(The stream-reader listener before this one spread a hit over two loop
passes and a task, so it has no count to compare.)  The listener's part
may be at most :data:`LISTENER_OVER_APP` of the app's on every
interpreter; the whole hit is bounded per interpreter in
:data:`HIT_OPCODES`.  Run as a module
(``python -m tests.api.test_hit_cost``) it prints the counts as JSON.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.api.app import CaladriusApp
from repro.api.server import CaladriusServer, _Connection
from repro.config import load_config
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.tracker import TopologyTracker
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from tests.durability.test_write_path_cost import count

PATH = "/model/topology/heron/word-count"
PLAN = {"source_rate": 2e7, "parallelisms": {"splitter": 3}}

#: The listener's opcodes per hit over the app's, on any interpreter
#: (0.42 on 3.11 when set).
LISTENER_OVER_APP = 0.5
#: Opcodes per hit, per interpreter (2,029 on 3.11 when set).
HIT_OPCODES = {(3, 11): 2100}


class _Transport:
    """Takes every write; never full, never closing."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, data: bytes) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return False

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def _app() -> CaladriusApp:
    """The Word Count deployment of ``tests/conftest.py``, built here so
    the module also runs on its own."""
    topology, packing, logic = build_word_count(
        WordCountParams(
            spout_parallelism=4, splitter_parallelism=2, counter_parallelism=4
        )
    )
    store = MetricsStore()
    simulation = HeronSimulation(
        topology, packing, logic, store, SimulationConfig(seed=42)
    )
    for rate in np.arange(4e6, 44e6 + 1, 8e6):
        simulation.set_source_rate("sentence-spout", float(rate))
        simulation.run(2)
    tracker = TopologyTracker()
    tracker.register(topology, packing)
    config = load_config(
        {
            "traffic_models": ["stats-summary"],
            "performance_models": ["throughput-prediction"],
        }
    )
    return CaladriusApp(config, tracker, store)


def measure() -> dict[str, float]:
    """Opcodes and Python calls of one hit, and of the app's part of it."""
    app = _app()
    server = CaladriusServer(app, port=0)
    try:
        body = json.dumps(PLAN).encode()
        raw = b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s" % (
            PATH.encode(), len(body), body,
        )
        headers = {"host": "t", "content-length": str(len(body))}
        status, payload = app.handle("POST", PATH, {}, PLAN, headers, True)
        assert status == 200
        transport = _Transport()
        connection = _Connection(server)
        connection.connection_made(transport)

        def hit() -> None:
            connection.data_received(raw)

        def app_part() -> None:
            app.handle_nonblocking("POST", PATH, {}, json.loads(body), headers)

        counts = {}
        for name, work in (("hit", hit), ("app", app_part)):
            count(work)  # from 3.12 on, a first traced run misses opcodes
            counts[f"{name}_opcodes"], counts[f"{name}_calls"] = count(work)
        # Every hit was answered, in full, with the stored bytes.
        assert transport.written.endswith(payload)
        assert transport.written.count(b"HTTP/1.1 200 OK") == 2
        return counts
    finally:
        server._pool.shutdown(wait=True)
        app.shutdown()


@pytest.fixture(scope="module")
def costs() -> dict[str, float]:
    return measure()


def test_the_listener_costs_a_bounded_share_of_the_app(costs):
    listener = costs["hit_opcodes"] - costs["app_opcodes"]
    assert listener <= LISTENER_OVER_APP * costs["app_opcodes"]


@pytest.mark.skipif(
    sys.version_info[:2] not in HIT_OPCODES,
    reason="no bound measured on this interpreter",
)
def test_a_hit_costs_no_more_opcodes_than_it_did(costs):
    assert costs["hit_opcodes"] <= HIT_OPCODES[sys.version_info[:2]]


if __name__ == "__main__":
    print(json.dumps(measure(), sort_keys=True))
