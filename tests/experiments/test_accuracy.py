"""The accuracy ratchet: no record may get worse than ``ACCURACY.json``.

The session's quick run is held against the committed quick slice (the
CI ``accuracy`` job holds a full-scale run against the full records the
same way).  A failure names each record that got worse, or whose other
fields (``unit``, ``better``, ``paper``, ``reason``) no longer match what
the code reports: the experiment functions are their only source.  To
accept a worse value, give its record a ``reason`` in the experiment
function and regenerate the file, which is also how a better value or
any other change to a record is banked:

    PYTHONPATH=src python -m repro.experiments.runner > ACCURACY.json
    PYTHONPATH=src python -m tests.experiments.accuracy
"""

from __future__ import annotations

from repro.experiments.records import dumps
from repro.experiments.runner import SECTIONS
from tests.experiments import accuracy


def test_quick_records_are_no_worse_than_committed(quick_run, committed):
    problems = accuracy.regressions(committed["quick"], quick_run.records(SECTIONS))
    assert not problems, "\n".join(problems)


def test_committed_file_is_canonical_and_complete(committed):
    assert accuracy.ACCURACY.read_text("utf8") == dumps(committed)
    assert list(committed) == ["full", "quick"]
    for sections in committed.values():
        assert set(sections) == set(SECTIONS)
        for records in sections.values():
            assert records
            assert all(entry["better"] in ("lower", "higher") for entry in records)


def test_experiments_tables_are_rendered_from_the_committed_file(committed):
    text = accuracy.EXPERIMENTS.read_text("utf8")
    for table in ("figures", "beyond"):
        assert text.count(f"<!-- accuracy:{table} -->") == 1
        assert text.count(f"<!-- /accuracy:{table} -->") == 1
    assert accuracy.tables(text, committed["full"]) == text


class TestRatchet:
    RECORD = {
        "experiment": "fig08", "config": "splitter p=2", "metric": "st_error",
        "value": 0.01, "unit": "ratio", "better": "lower",
    }

    def check(self, committed: dict, **fresh) -> list[str]:
        return accuracy.regressions(
            {"fig07-08": [committed]}, {"fig07-08": [{**committed, **fresh}]}
        )

    def test_equal_or_better_passes(self):
        assert self.check(self.RECORD) == self.check(self.RECORD, value=0.005) == []

    def test_worse_fails_naming_the_record(self):
        [problem] = self.check(self.RECORD, value=0.03)
        assert problem.startswith("fig07-08: fig08 splitter p=2 st_error: 0.03 is worse")
        higher = {**self.RECORD, "better": "higher", "reason": "known"}
        assert "is worse" in self.check(higher, value=0.001)[0]
        assert self.check(higher, value=0.02) == []
        assert self.check(self.RECORD, value=float("nan"))

    def test_fields_other_than_the_value_come_from_the_code(self):
        for change in ({"reason": "known"}, {"paper": 0.029}, {"unit": "ms"}):
            assert "regenerate" in self.check(self.RECORD, **change)[0]
        assert "regenerate" in self.check({**self.RECORD, "reason": "known"},
                                          reason=None)[0]

    def test_added_or_dropped_records_fail(self):
        assert accuracy.regressions({"fig07-08": [self.RECORD]}, {"fig07-08": []})
        assert accuracy.regressions({"fig07-08": []}, {"fig07-08": [self.RECORD]})
