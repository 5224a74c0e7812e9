"""Structure guards: one HTTP caller, one retry loop, one batch merge.

The service's tiers call each other over HTTP (router → shard, client →
shard, manager → worker, shipper → follower).  Each of those hops used
to open its own ``http.client.HTTPConnection`` (now one hand-parsed
keep-alive wire under ``CaladriusClient.exchange``), the cluster client
wrapped the base client's retry loop in a second one, and the router and
the cluster client each grouped a batch by ring owner and merged the
acks on their own.  These checks read the source (AST, not grep) so the
duplicates cannot quietly come back.
"""

from __future__ import annotations

import ast
import functools
import re

from tests.source_index import ROOT

#: Loops that sleep between client calls but are *not* retry policies:
#: they wait for a condition until a deadline, not for a call to succeed
#: within a budget of attempts.  Listed by name so a new one is a
#: decision, and each must really be a ``while … < deadline`` loop.
DEADLINE_POLLS = {
    "api/client.py:CaladriusClient.wait_ready": (
        "polls /readyz until the process admits work"
    ),
    "api/client.py:CaladriusClient.performance_async": (
        "polls /model/result/<id> until the submitted job finishes"
    ),
}

RETIRED = (
    "_proxy_to",
    "_router_call",
    "failover_retries",
    "retry_after_waits",
    "retry_after_seconds",
    "_probe_once",
    "_attempt",
)


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


@functools.cache  # nodes come from the session's one parsed copy of src/
def _calls(node: ast.AST) -> frozenset[str]:
    return frozenset(name for n in ast.walk(node) if (name := _called_name(n)))


def test_one_function_opens_an_http_connection(src_index):
    """One function connects a socket — the client's own wire — and
    nothing under ``src/repro`` imports ``http.client`` (its reason
    phrases come from ``http.HTTPStatus``), so no process pays for
    ``http.client`` + ``email`` + ``ssl`` at start."""
    opening = [
        name
        for name, node, _ in src_index.functions()
        if _calls(node)
        & {"create_connection", "HTTPConnection", "HTTPSConnection"}
    ]
    assert opening == ["api/client.py:_Wire.__init__"]
    importing = []
    for name, file in src_index.items():
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            importing += [
                name for module in modules if module.startswith("http.client")
            ]
    assert importing == []


def test_no_other_http_or_socket_caller(src_index):
    offenders = []
    for name, file in src_index.items():
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "urllib":
                    modules += [f"urllib.{a.name}" for a in node.names]
                if node.module == "socket":
                    modules += [f"socket.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                modules = [f"socket.{node.attr}"] if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "socket"
                ) else []
            else:
                continue
            offenders += [
                (name, module)
                for module in modules
                if module.startswith("urllib.request")
                or module == "socket.create_connection"
            ]
    # The one caller the test above names.
    assert offenders == [("api/client.py", "socket.create_connection")]


def _client_methods(src_index) -> set[str]:
    """What a call on one of the two clients can be named."""
    names = set()
    for path in ("api/client.py", "cluster/client.py"):
        for node in ast.walk(src_index[path].tree):
            if isinstance(node, ast.ClassDef) and node.name in (
                "CaladriusClient", "ClusterClient"
            ):
                names |= {
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
    return {n for n in names if not n.startswith("__")} - {"close"}


def _sleeping_call_loops(src_index):
    """``(function, loop)`` for every loop that sleeps and either calls
    a client or counts its rounds (``for … in range(…)``): the shape of
    "try, wait, try again"."""
    methods = _client_methods(src_index)
    for name, function, _ in src_index.functions():
        for loop in ast.walk(function):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            called = _calls(loop)
            counted = isinstance(loop, ast.For) and (
                _called_name(loop.iter) == "range"
            )
            if "sleep" in called and (counted or called & methods):
                yield name, loop
                break


def test_one_loop_retries_with_a_sleep_between_attempts(src_index):
    found = dict(_sleeping_call_loops(src_index))
    retrying = sorted(set(found) - set(DEADLINE_POLLS))
    assert retrying == ["api/client.py:CaladriusClient._request"]
    # The allow-list is exact, and each entry is a deadline poll in form.
    assert set(found) - set(retrying) == set(DEADLINE_POLLS)
    for name in DEADLINE_POLLS:
        loop = found[name]
        assert isinstance(loop, ast.While), name
        assert "deadline" in {
            n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)
        }, name
    # …while the retry loop counts attempts.
    assert isinstance(found[retrying[0]], ast.For)


def test_refused_groups_are_rebased_in_one_place(src_index):
    callers = [
        name
        for name, node, _ in src_index.functions()
        if "rebase_refused" in _calls(node)
    ]
    assert callers == ["api/ingest.py:merge_owner_acks"]


def test_owner_split_and_merge_have_one_caller_per_tier(src_index):
    """The router and the cluster client both call the shared split and
    merge; neither carries its own."""
    users = {
        helper: sorted(
            name.split(":")[0]
            for name, node, _ in src_index.functions()
            if helper in _calls(node)
        )
        for helper in ("split_by_owner", "merge_owner_acks")
    }
    assert users == {
        "split_by_owner": ["cluster/client.py", "cluster/router.py"],
        "merge_owner_acks": ["cluster/client.py", "cluster/router.py"],
    }


def test_the_routing_key_is_spelled_once(src_index):
    """Neither tier reads a ``topology`` tag itself (the ``/topology/…``
    path segment the router matches is not a tag)."""
    readers = []
    for name in ("cluster/router.py", "cluster/client.py"):
        for node in ast.walk(src_index[name].tree):
            key = None
            if _called_name(node) == "get" and node.args:
                key = node.args[0]
            elif isinstance(node, ast.Subscript):
                key = node.slice
            if isinstance(key, ast.Constant) and key.value == "topology":
                readers.append((name, node.lineno))
    assert readers == []


def test_retired_names_are_gone_from_source_and_docs(src_index):
    whole = re.compile(
        r"(?<![A-Za-z0-9_])(" + "|".join(RETIRED) + r")(?![A-Za-z0-9_])"
    )
    texts = {f"src/repro/{path}": file.source for path, file in src_index.items()}
    for path in sorted((ROOT / "docs").rglob("*.md")):
        texts[str(path.relative_to(ROOT))] = path.read_text("utf8")
    offenders = [
        (name, match.group(1))
        for name, text in texts.items()
        for match in whole.finditer(text)
    ]
    assert offenders == []
