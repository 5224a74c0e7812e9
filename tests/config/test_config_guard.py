"""Structure guard: each setting is declared once, in ``config/loader.py``.

A setting used to be spelled up to five times — the dataclass field, a
``known`` key set, a per-section parse branch, a ``serve`` flag with its
override call and a re-spelled ``if`` in the cluster's worker command
line — and the copies drifted apart.  These checks read the source so a
second declaration cannot quietly come back.
"""

from __future__ import annotations

import ast
from dataclasses import fields, is_dataclass

from repro.cli import SETTING_FLAGS
from repro.config import loader, registry

SECTIONS = {"config", "api", "serving", "durability", "cluster", "ingest"}


def _fields(cls=loader.CaladriusConfig, prefix=""):
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from _fields(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


def test_every_config_field_has_a_rule():
    assert [key for key, f in _fields() if "rule" not in f.metadata] == []


def test_every_setting_flag_names_an_existing_field():
    keys = dict(_fields())
    assert [
        flag for flag, (key, _, _) in SETTING_FLAGS.items() if key not in keys
    ] == []


def test_the_loader_holds_no_literal_set_of_key_names(src_index):
    names = {key.rsplit(".", 1)[-1] for key, _ in _fields()}
    names |= SECTIONS - {"config"}
    tree = src_index["config/loader.py"].tree
    spelled = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Set, ast.List, ast.Tuple, ast.Dict))
        and any(
            isinstance(item, ast.Constant) and item.value in names
            for item in ast.walk(node)
        )
    ]
    assert spelled == []


def test_only_the_loader_replaces_a_config_section(src_index):
    def is_section(node: ast.expr) -> bool:
        text = ast.unparse(node).rsplit(".", 1)[-1].lower()
        return text in SECTIONS or text.endswith("config")

    replacing = []
    for rel, file in src_index.items():
        imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"
            and any(alias.name == "replace" for alias in node.names)
            for node in ast.walk(file.tree)
        )
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = ast.unparse(node.func)
            is_replace = func == "dataclasses.replace" or (
                imported and func == "replace"
            )
            if is_replace and is_section(node.args[0]) and rel != "config/loader.py":
                replacing.append(f"{rel}:{node.lineno}")
    assert replacing == []


def test_every_selectable_model_has_a_constructor():
    assert tuple(registry._TRAFFIC) == loader._KNOWN_TRAFFIC_MODELS
    assert tuple(registry._PERFORMANCE) == loader._KNOWN_PERFORMANCE_MODELS
