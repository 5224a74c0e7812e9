"""Golden differential: every ``/model/topology`` answer, as recorded.

``tests/data/golden_model_answers.json`` holds, per request of
``tests/model_corpus.py`` (the five ledger workloads' request mixes on two
seeds, and an edge set), the SHA-256 of the answer the last commit before
the one-pass evaluation gave.  The tree has to give the same ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests import model_corpus

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "data" / "golden_model_answers.json").read_text("utf8")
)

#: ``label -> why the answer differs from the recorded one, on purpose``.
INTENDED: dict[str, str] = {}


@pytest.fixture(scope="module")
def answers() -> dict[str, str]:
    return model_corpus.answers()


def test_every_recorded_answer_is_reproduced(answers):
    assert sorted(answers) == sorted(GOLDEN)  # the corpus itself is pinned
    assert len(GOLDEN) > 250
    differing = sorted(label for label in GOLDEN if answers[label] != GOLDEN[label])
    assert differing == sorted(INTENDED)


def test_an_empty_plan_and_no_plan_are_one_answer(answers):
    for shape in ("diamond", "fanin", "deep_chain", "multi_spout"):
        assert (
            answers[f"edge/{shape}/empty-plan"]
            == answers[f"edge/{shape}/absent-plan"]
            == answers[f"edge/{shape}/null-plan"]
        )


def test_the_two_models_of_a_request_answer_as_each_does_alone():
    """One pass read by two models: ``results`` of the default request is
    the two ``?model=`` answers, in the configured order."""
    app, requests = model_corpus.edge_service()
    try:
        alone = [r for r in requests if "/only-" in r[0]]
        assert len(alone) == 8
        for first, second in zip(alone[::2], alone[1::2]):
            _, method, path, _, body = first
            assert second[2:] == (path, {"model": "backpressure-evaluation"}, body)
            status, both = app.handle(method, path, {}, body)
            assert status == 200
            assert both["results"] == [
                app.handle(method, path, query, body)[1]["results"][0]
                for query in (first[3], second[3])
            ]
        # A forecast is read at its mean by one model and at its peak by
        # the other: two rates, two passes, still each model's own answer.
        driven = [r for r in requests if r[0].endswith("/forecast-driven")]
        assert len(driven) == 4
        for _, method, path, _, body in driven:
            both = app.handle(method, path, {}, body)[1]["results"]
            assert both[0]["source_rate"] < both[1]["source_rate"]
            assert both == [
                app.handle(method, path, {"model": r["model"]}, body)[1]["results"][0]
                for r in both
            ]
    finally:
        app.shutdown()
