"""Structure guards: one keyed write loop, one journal hook, one
frame decoder, one write-record renderer, one frame-validating body, one
disk seam — the cluster tier's files included.

The store used to carry four write paths kept apart by a base class that
inspected its own subclasses, the log was parsed by a per-record file
reader on disk and a second loop on the wire, and a write record was
spelled out by the client encoder and twice by the durable store.  These
checks read the source so the duplicates cannot quietly come back.
"""

from __future__ import annotations

import ast
import re

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


def test_retired_write_paths_are_gone(src_index):
    retired = ("_write_keyed", "_append_batch_locked", "supports_batched_appends")
    offenders = [
        (path, name)
        for path, file in src_index.items()
        for name in retired
        if name in file.source
    ]
    assert offenders == []


def test_only_the_durable_store_overrides_a_mutation(src_index):
    overriding = {}
    for file in src_index.values():
        for node in ast.walk(file.tree):
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
    # Journaling is the ``_journal`` hook, not a mutation: only
    # ``_apply_frames`` (apply + journal + LSN range under the store
    # lock; validation stays outside it) and ``clear`` are overridden.
    assert overriding["DurableMetricsStore"] == {"_apply_frames", "clear"}


def test_one_hook_meets_the_log(src_index):
    """Every batch reaches the WAL through ``DurableMetricsStore._journal``;
    nothing outside the WAL's own wrappers appends bodies or templates."""
    appending = sorted(
        function.name
        for function in src_index.functions()
        if not function.name.startswith("durability/wal.py:")
        and re.search(r"\.append_(bodies|template)\(", function.text)
    )
    assert appending == ["durability/store.py:DurableMetricsStore._journal"]


def test_no_unbound_store_call_reaches_past_the_durable_store(src_index):
    """``MetricsStore.apply_sample_batch(store, ...)`` would skip the
    journal hook's owner; replay calls the store's own methods."""
    unbound = re.compile(r"\bMetricsStore\.\w+\(")
    offenders = [
        path
        for path, file in src_index.items()
        if path.startswith("durability/") and unbound.search(file.source)
    ]
    assert offenders == []


def test_two_bodies_append_to_a_series(src_index):
    """The keyed loop (``apply_sample_batch`` up to the lock's release)
    and the prepared minute batch, nothing else."""
    appenders = [
        function.node.name
        for function in src_index.functions()
        if function.name.startswith("timeseries/")
        and isinstance(function.node, ast.FunctionDef)
        and (
            "timestamps.append(" in function.text
            or "list.append, batch.ts_lists" in function.text
        )
    ]
    assert appenders == ["_apply_entries", "append_minute_batch"]
    callers = src_index.functions_containing("._apply_entries(")
    assert callers == ["timeseries/store.py:apply_sample_batch"]


def test_one_wal_record_replay_function(src_index):
    replaying = [
        path for path, file in src_index.items() if 'op == "clear"' in file.source
    ]
    assert replaying == ["durability/store.py"]


def test_one_function_unpacks_a_frame_header(src_index):
    """On disk and on the wire: the chunked walk, nothing beside it."""
    assert src_index.functions_containing("unpack") == [
        "durability/wal.py:_split_frames"
    ]


def test_no_per_record_read_loop_remains(src_index):
    """Segments are read a block at a time, by the decoder alone; nothing
    under ``durability/`` or ``api/ingest.py`` reads a header's worth."""
    assert src_index.functions_containing("_HEADER.size)") == []
    reading = [
        name
        for name in src_index.functions_containing(".read(")
        if name.startswith(("durability/", "api/ingest.py"))
    ]
    assert reading == ["durability/wal.py:frame_windows"]


def test_frames_are_validated_in_one_place(src_index):
    """``frame_sample`` is defined once and called once, by the store's
    validating body; the API tier only words what that body raises."""
    assert src_index.functions_containing("frame_sample(") == [
        "timeseries/store.py:frame_sample",
        "timeseries/store.py:frame_samples",
    ]
    app = src_index["api/app.py"].source
    assert "frame_sample(" not in app and "rejected.append" not in app
    assert src_index.functions_containing("def _decode_window(") == [
        "durability/wal.py:_decode_window"
    ]


def test_one_function_renders_a_write_record_head(src_index):
    assert src_index.functions_containing('{"op":"write"') == [
        "timeseries/store.py:write_head"
    ]
    spelled = re.compile(r"""["']op["']\s*:\s*["']write["']""")
    elsewhere = [
        path
        for path, file in src_index.items()
        if path.split("/")[0] in ("api", "durability") and spelled.search(file.source)
    ]
    assert elsewhere == []


def test_only_the_disk_syncs_renames_or_makes_temp_files(src_index):
    """Every durability-critical file operation goes through the one disk
    seam, so the crash-point suite's modelled disk sees all of them."""
    using = {
        path
        for path, file in src_index.items()
        for call in ("os.fsync", "os.replace", "tempfile.mkstemp", "mkstemp(")
        if call in file.source
    }
    assert using == {"durability/disk.py"}


#: Calls that touch a file themselves unless made on a ``Disk``.
FILE_CALLS = {
    "open", "stat", "exists", "is_dir", "is_file", "glob", "iterdir",
    "read_bytes", "read_text", "write_bytes", "write_text", "rename",
    "replace", "mkdir", "makedirs", "unlink", "rmdir", "listdir",
    "truncate", "fsync",
}


def test_the_cluster_tier_touches_files_only_through_the_disk(src_index):
    """Shipper reads, the follower's mirror, the epoch file and the
    promotion renames go through the disk seam, so a simulated cluster on
    the modelled disk sees every one of them."""
    offenders = []
    for path, file in src_index.items():
        if not path.startswith("cluster/"):
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                offenders.append((path, node.lineno, "open"))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in FILE_CALLS
                and not ast.unparse(func.value).lower().endswith("disk")
            ):
                offenders.append((path, node.lineno, ast.unparse(func)))
    assert offenders == []
