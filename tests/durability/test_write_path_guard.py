"""Structure guards: one keyed write loop, one journal override, one
frame decoder, one write-record renderer, one frame-validating body.

The store used to carry four write paths kept apart by a base class that
inspected its own subclasses, the log was parsed by a per-record file
reader on disk and a second loop on the wire, and a write record was
spelled out by the client encoder and twice by the durable store.  These
checks read the source so the duplicates cannot quietly come back.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``MetricsStore`` methods that change what the store holds.
MUTATIONS = {
    "write",
    "write_many",
    "apply_sample_batch",
    "ingest_frames",
    "_apply_frames",
    "make_minute_batch",
    "append_minute_batch",
    "clear",
}


def _sources() -> dict[Path, str]:
    return {path: path.read_text("utf8") for path in sorted(SRC.rglob("*.py"))}


def test_retired_write_paths_are_gone():
    retired = ("_write_keyed", "_append_batch_locked", "supports_batched_appends")
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path, source in _sources().items()
        for name in retired
        if name in source
    ]
    assert offenders == []


def test_only_the_durable_store_overrides_a_mutation():
    overriding = {}
    for path, source in _sources().items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            }
            if not bases & {"MetricsStore", "DurableMetricsStore"}:
                continue
            overriding[node.name] = MUTATIONS & {
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            }
    assert set(overriding) == {"DurableMetricsStore"}
    # ``_apply_frames`` (apply + journal + LSN range under the journal
    # lock), not ``ingest_frames``: validation stays outside the lock.
    assert overriding["DurableMetricsStore"] == {
        "write", "apply_sample_batch", "_apply_frames", "append_minute_batch",
        "clear",
    }


def test_two_bodies_append_to_a_series():
    """The keyed loop and the prepared minute batch, nothing else."""
    appenders = []
    for path in sorted((SRC / "timeseries").glob("*.py")):
        source = path.read_text("utf8")
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = ast.get_source_segment(source, node)
            if "timestamps.append(" in body or "list.append, batch.ts_lists" in body:
                appenders.append(node.name)
    assert appenders == ["apply_sample_batch", "append_minute_batch"]


def test_one_wal_record_replay_function():
    replaying = [
        str(path.relative_to(SRC))
        for path, source in _sources().items()
        if 'op == "clear"' in source
    ]
    assert replaying == ["durability/store.py"]


def _functions_containing(needle: str) -> list[str]:
    found = []
    for path, source in _sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and needle in (
                ast.get_source_segment(source, node) or ""
            ):
                found.append(f"{path.relative_to(SRC)}:{node.name}")
    return found


def test_one_function_unpacks_a_frame_header():
    """On disk and on the wire: the chunked walk, nothing beside it."""
    assert _functions_containing("unpack") == ["durability/wal.py:_split_frames"]


def test_no_per_record_read_loop_remains():
    """Segments are read a block at a time, by the decoder alone; nothing
    under ``durability/`` or ``api/ingest.py`` reads a header's worth."""
    assert _functions_containing("_HEADER.size)") == []
    reading = [
        name
        for name in _functions_containing(".read(")
        if name.startswith(("durability/", "api/ingest.py"))
    ]
    assert reading == ["durability/wal.py:frame_windows"]


def test_frames_are_validated_in_one_place():
    """``frame_sample`` is defined once and called once, by the store's
    validating body; the API tier only words what that body raises."""
    assert _functions_containing("frame_sample(") == [
        "timeseries/store.py:frame_sample",
        "timeseries/store.py:frame_samples",
    ]
    app = (SRC / "api" / "app.py").read_text("utf8")
    assert "frame_sample(" not in app and "rejected.append" not in app
    assert _functions_containing("def _decode_window(") == [
        "durability/wal.py:_decode_window"
    ]


def test_one_function_renders_a_write_record_head():
    assert _functions_containing('{"op":"write"') == [
        "timeseries/store.py:write_head"
    ]
    spelled = re.compile(r"""["']op["']\s*:\s*["']write["']""")
    elsewhere = [
        str(path.relative_to(SRC))
        for path, source in _sources().items()
        if path.parent.name in ("api", "durability") and spelled.search(source)
    ]
    assert elsewhere == []
