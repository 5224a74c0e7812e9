"""Every setting refuses a wrong type and an out-of-range value, naming
``section.key``, whether it came from YAML or from a ``serve`` flag; and
the settings that must agree are held to that at start-up."""

from __future__ import annotations

import math
import re
from dataclasses import fields, is_dataclass

import pytest

from repro import cli
from repro.config import build_registry, load_config
from repro.config.loader import CaladriusConfig
from repro.errors import ConfigError
from repro.heron.tracker import TopologyTracker
from repro.timeseries.store import MetricsStore


def _settings(cls=CaladriusConfig, prefix=""):
    """``"section.key" -> Rule`` for every setting of every section."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from _settings(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.metadata["rule"]


SETTINGS = dict(_settings())
WRONG_TYPE = {
    bool: ["yes", 1],
    int: [2.5, "3", True],
    float: ["lots", True, math.nan, math.inf],
    str: [5, ["a"]],
    tuple: ["prophet", [1]],
    dict: [["prophet"], {"prophet": "yes"}],
}


def _out_of_range(rule) -> list:
    if rule.kind is tuple:
        return [[], ["arima"]]
    if rule.kind is dict:
        return [{"arima": {}}]  # options for a model that is not enabled
    if rule.kind is str:
        return [""] + (["nope"] if rule.choices else [])
    bad = []
    if rule.gt is not None:
        bad.append(rule.gt)
    if rule.ge is not None:
        bad.append(rule.ge - 1)
    if rule.le is not None:
        bad.append(rule.le + 1)
    return bad


CASES = [
    (key, value)
    for key, rule in SETTINGS.items()
    for value in WRONG_TYPE[rule.kind] + _out_of_range(rule)
]
FLAG_OF = {key: flag for flag, (key, switch, _) in cli.SETTING_FLAGS.items()
           if switch is None}
#: What a command line can say wrong: text that is no number of the kind.
FLAG_WRONG_TYPE = {int: ["2.5", "many"], float: ["lots", "nan", "inf"], str: []}
FLAG_CASES = [
    (key, text)
    for key, flag in FLAG_OF.items()
    for text in FLAG_WRONG_TYPE[SETTINGS[key].kind]
    + [str(value) for value in _out_of_range(SETTINGS[key])]
]


def _document(key: str, value) -> dict:
    """``"serving.cache_mb"`` → ``{"serving": {"cache_mb": value}}``."""
    *sections, name = key.split(".")
    document = {name: value}
    for section in reversed(sections):
        document = {section: document}
    return document


def test_every_setting_has_a_bad_value_of_each_sort():
    assert len(SETTINGS) == 29
    ranged = {key for key, rule in SETTINGS.items() if _out_of_range(rule)}
    assert set(SETTINGS) - ranged == {
        "serving.enabled", "cluster.replicate", "cluster.sync_ship"
    }


@pytest.mark.parametrize("key, value", CASES, ids=[f"{k}={v!r}" for k, v in CASES])
def test_yaml_value_is_refused_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(_document(key, value))


@pytest.mark.parametrize(
    "key, text", FLAG_CASES, ids=[f"{FLAG_OF[k]}={t}" for k, t in FLAG_CASES]
)
def test_flag_value_is_refused_naming_its_key(key, text):
    args = cli.build_parser().parse_args(["serve", f"{FLAG_OF[key]}={text}"])
    with pytest.raises(ConfigError, match=re.escape(key)):
        cli._resolve(args)


def test_an_unknown_key_is_refused_at_every_level():
    for key in ["degraded_treshold", "servng.cache_mb", "api.hostname"] + [
        f"{section}.bogus" for section in
        ("api", "serving", "durability", "cluster", "ingest")
    ]:
        with pytest.raises(ConfigError, match="unknown"):
            load_config(_document(key, 1))


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--drain-timeout", "-5"], "durability.drain_timeout_seconds"),
        (["--shards", "0"], "cluster.shards"),
        (["--replicate", "--data-dir", "{tmp}/d"], "cluster.replicate"),
        (["--sync-ship"], "cluster.sync_ship"),
        (["--config", "degraded_treshold: 0.9"], "degraded_treshold"),
        (["--config", "servng: {cache_mb: 1}"], "servng"),
        (["--config", "api: {hostname: x}"], "hostname"),
        (["--config", "model_options: {prophet: {bogus: 1}}"], "bogus"),
        (["--config", "model_options: {holt-winters: {}}"], "holt-winters"),
    ],
)
def test_serve_exits_2_on_a_setting_it_cannot_run(argv, says, tmp_path, capsys):
    if argv[0] == "--config":
        (tmp_path / "c.yaml").write_text(argv[1] + "\n")
        argv = ["--config", str(tmp_path / "c.yaml")]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = cli.main(["serve", *argv, "--port", "0", "--once"])
    assert code == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, says",
    [
        ({"prophet": {"bogus": 1}}, "unexpected keyword argument 'bogus'"),
        ({"stats-summary": {"bogus": 1}}, "unexpected keyword argument 'bogus'"),
        ({"throughput-prediction": {"bogus": 1}}, "'bogus'"),
    ],
)
def test_a_model_option_nothing_takes_fails_the_registry(options, says):
    config = load_config({"model_options": options})
    with pytest.raises(ConfigError, match=f"model_options.{list(options)[0]}: .*{says}"):
        build_registry(config, TopologyTracker(), MetricsStore())
