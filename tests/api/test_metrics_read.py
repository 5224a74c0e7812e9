"""``GET /metrics/read`` is one ``store.query`` — and the same document.

The route used to list every key of the name (copy + sort), rebuild each
key's tags and fetch each hit with its own lock acquisition; a ``clear``
between those holds turned a follower read into a 400.  The parent's
route is kept here as the reference: same series, same ``(name, tags)``
order, same values, on permuted-tag and multi-topology stores.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api.app import CaladriusApp
from repro.config import load_config
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore

CONFIG = load_config({})
CONFIG = replace(CONFIG, serving=replace(CONFIG.serving, enabled=False))


def parent_metrics_read(store, query):
    """``CaladriusApp._metrics_read`` of the parent commit."""
    name = query["name"]
    filters = {k: v for k, v in query.items() if k != "name"}
    series = []
    for key in store.keys(name):
        tags = key.tag_dict()
        if all(tags.get(k) == v for k, v in filters.items()):
            full = store.get(key.name, tags)
            series.append({
                "name": key.name,
                "tags": tags,
                "timestamps": [int(t) for t in full.timestamps],
                "values": [float(v) for v in full.values],
            })
    return {"series": series}


@pytest.fixture()
def service():
    store = MetricsStore()
    app = CaladriusApp(CONFIG, TopologyTracker(), store)
    yield app, store
    app.shutdown()


def fill(store):
    for topology in ("wc-b", "wc-a", None):
        for component in ("splitter", "counter"):
            for index in (1, 0):
                tags = {"component": component, "instance": f"{component}_{index}"}
                if topology is not None:
                    tags["topology"] = topology
                if index:  # the same tags, arriving in another order
                    tags = dict(reversed(tags.items()))
                store.write_many(
                    "emit-count",
                    [(60 * m, m + index / 4 + len(component)) for m in range(1, 5)],
                    tags,
                )
    store.write("emit-count", 60, -0.0, {"topology": "wc-a", "lane": "probe"})
    store.write("cpu-load", 60, 0.5, {"topology": "wc-a", "component": "splitter"})


QUERIES = [
    {"name": "emit-count"},
    {"name": "emit-count", "topology": "wc-a"},
    {"name": "emit-count", "topology": "wc-b", "component": "counter"},
    {"name": "emit-count", "component": "splitter"},
    {"name": "emit-count", "instance": "counter_1", "topology": "wc-a"},
    {"name": "emit-count", "topology": "nowhere"},
    {"name": "emit-count", "lane": "probe"},
    {"name": "cpu-load", "topology": "wc-a"},
    {"name": "never-written"},
]


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: "&".join(q.values()))
def test_document_equals_the_parents(service, query):
    app, store = service
    fill(store)
    status, document = app.handle("GET", "/metrics/read", query)
    assert status == 200
    assert json.dumps(document) == json.dumps(parent_metrics_read(store, query))


def test_order_is_by_name_and_tags_not_by_creation(service):
    app, store = service
    fill(store)
    _, document = app.handle("GET", "/metrics/read", {"name": "emit-count"})
    tags = [sorted(entry["tags"].items()) for entry in document["series"]]
    assert tags == sorted(tags) and len(tags) == 13


def test_name_is_required(service):
    app, _ = service
    status, document = app.handle("GET", "/metrics/read", {"topology": "wc-a"})
    assert status == 400 and "name query parameter" in document["error"]
