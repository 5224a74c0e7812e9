"""Tests for the declarative YAML topology loader."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, TopologyError
from repro.heron.groupings import FieldsGrouping, ShuffleGrouping
from repro.heron.metrics import MetricNames
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.topology_yaml import (
    dump_topology_yaml,
    load_topology_yaml,
    parse_topology_document,
)
from repro.timeseries.store import MetricsStore
from repro.workloads import SHAPES, generate_workload

WORD_COUNT_YAML = """
topology: yaml-word-count
containers: 4
components:
  spout:
    kind: spout
    parallelism: 4
    streams: {default: 1.0}
  splitter:
    kind: bolt
    parallelism: 2
    capacity_tpm: 11000000
    input_tuple_bytes: 60
    streams: {default: 7.635}
  counter:
    kind: bolt
    parallelism: 2
    capacity_tpm: 70000000
    input_tuple_bytes: 16
connections:
  - {from: spout, to: splitter, grouping: shuffle}
  - {from: splitter, to: counter, grouping: fields,
     fields: [word], keys: 500, key_skew: 0.4}
"""


@pytest.fixture()
def yaml_file(tmp_path):
    path = tmp_path / "topology.yaml"
    path.write_text(WORD_COUNT_YAML)
    return path


class TestLoading:
    def test_structure(self, yaml_file):
        topology, packing, logic = load_topology_yaml(yaml_file)
        assert topology.name == "yaml-word-count"
        assert topology.parallelism("splitter") == 2
        assert packing.num_containers() == 4
        (shuffle_in,) = topology.inputs("splitter")
        assert isinstance(shuffle_in.grouping, ShuffleGrouping)
        (fields_in,) = topology.inputs("counter")
        assert isinstance(fields_in.grouping, FieldsGrouping)
        assert fields_in.grouping.fields == ("word",)

    def test_units_convert_to_per_second(self, yaml_file):
        _, _, logic = load_topology_yaml(yaml_file)
        assert logic["splitter"].capacity_tps == pytest.approx(11e6 / 60)
        assert logic["splitter"].alphas["default"] == 7.635

    def test_default_container_density(self):
        document = {
            "topology": "t",
            "components": {
                "s": {"kind": "spout", "parallelism": 2,
                      "streams": {"default": 1.0}},
                "b": {"kind": "bolt", "parallelism": 2,
                      "capacity_tpm": 1e6},
            },
            "connections": [{"from": "s", "to": "b"}],
        }
        _, packing, _ = parse_topology_document(document)
        assert packing.num_containers() == 2  # 4 instances, density 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_topology_yaml(tmp_path / "nope.yaml")

    def test_loaded_topology_simulates(self, yaml_file):
        topology, packing, logic = load_topology_yaml(yaml_file)
        store = MetricsStore()
        sim = HeronSimulation(
            topology, packing, logic, store, SimulationConfig(seed=1)
        )
        sim.set_source_rate("spout", 8e6)
        sim.run(2)
        emitted = store.aggregate(
            MetricNames.EMIT_COUNT, {"component": "splitter"}
        )
        assert emitted.values[-1] == pytest.approx(7.635 * 8e6, rel=0.02)


class TestValidation:
    def base_document(self):
        return {
            "topology": "t",
            "components": {
                "s": {"kind": "spout", "parallelism": 1,
                      "streams": {"default": 1.0}},
                "b": {"kind": "bolt", "parallelism": 1, "capacity_tpm": 1e6},
            },
            "connections": [{"from": "s", "to": "b"}],
        }

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_topology_document(["not", "a", "mapping"])

    def test_name_required(self):
        document = self.base_document()
        del document["topology"]
        with pytest.raises(ConfigError, match="'topology'"):
            parse_topology_document(document)

    def test_unknown_kind(self):
        document = self.base_document()
        document["components"]["b"]["kind"] = "mapper"
        with pytest.raises(ConfigError, match="spout or bolt"):
            parse_topology_document(document)

    def test_bolt_needs_capacity(self):
        document = self.base_document()
        del document["components"]["b"]["capacity_tpm"]
        with pytest.raises(ConfigError, match="capacity_tpm"):
            parse_topology_document(document)

    def test_connection_references_unknown_component(self):
        document = self.base_document()
        document["connections"].append({"from": "s", "to": "ghost"})
        with pytest.raises(ConfigError, match="unknown components"):
            parse_topology_document(document)

    def test_fields_grouping_needs_fields(self):
        document = self.base_document()
        document["connections"][0]["grouping"] = "fields"
        with pytest.raises(ConfigError, match="'fields' list"):
            parse_topology_document(document)

    def test_explicit_key_list(self):
        document = self.base_document()
        document["connections"][0].update(
            {"grouping": "fields", "fields": ["k"], "key_list": ["a", "b"]}
        )
        topology, _, _ = parse_topology_document(document)
        (stream,) = topology.inputs("b")
        assert stream.grouping.key_distribution.keys == ("a", "b")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_key_weights_must_be_finite(self, bad):
        document = self.base_document()
        document["connections"][0].update(
            {"grouping": "fields", "fields": ["k"],
             "key_list": ["a", "b", "c"], "key_weights": [bad, 1, 1]}
        )
        with pytest.raises(TopologyError, match="finite"):
            parse_topology_document(document)

    def test_key_skew_must_be_a_number(self):
        document = self.base_document()
        document["connections"][0].update(
            {"grouping": "fields", "fields": ["k"], "keys": 10,
             "key_skew": float("nan")}
        )
        with pytest.raises(TopologyError, match="exponent"):
            parse_topology_document(document)

    def test_unknown_grouping(self):
        document = self.base_document()
        document["connections"][0]["grouping"] = "magic"
        with pytest.raises(ConfigError, match="unknown grouping"):
            parse_topology_document(document)

    def test_bad_containers(self):
        document = self.base_document()
        document["containers"] = 0
        with pytest.raises(ConfigError, match="'containers'"):
            parse_topology_document(document)


class TestRoundTrip:
    """dump -> load -> dump must be byte-identical (satellite fix).

    The dumper used to drop spout entries beyond the first and rename
    fields-grouping metadata, so multi-spout topologies silently lost
    structure on a save/load cycle.  The contract now is exact: the
    second dump equals the first byte for byte, and the reloaded
    deployment carries the same packing and exact capacities.
    """

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dump_load_dump_is_byte_identical(self, shape):
        workload = generate_workload(shape, seed=7)
        first = dump_topology_yaml(*workload.deployment())
        import yaml

        topology, packing, logic = parse_topology_document(
            yaml.safe_load(first)
        )
        second = dump_topology_yaml(topology, packing, logic)
        assert second == first

    def test_multi_spout_preserves_every_spout(self):
        workload = generate_workload("multi_spout", seed=3)
        text = dump_topology_yaml(*workload.deployment())
        import yaml

        topology, _, _ = parse_topology_document(yaml.safe_load(text))
        original = workload.topology
        spouts = [
            name for name, spec in topology.components.items()
            if spec.is_spout
        ]
        assert sorted(spouts) == sorted(
            name for name, spec in original.components.items()
            if spec.is_spout
        )
        assert len(spouts) == 3

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reload_preserves_exact_capacities(self, shape):
        workload = generate_workload(shape, seed=5)
        text = dump_topology_yaml(*workload.deployment())
        import yaml

        _, packing, logic = parse_topology_document(yaml.safe_load(text))
        _, original_packing, original_logic = workload.deployment()
        assert packing.num_containers() == original_packing.num_containers()
        for name, spec in original_logic.items():
            if hasattr(spec, "capacity_tps"):
                assert logic[name].capacity_tps == spec.capacity_tps

    def test_fields_grouping_key_distribution_survives(self):
        workload = generate_workload("diamond", seed=7)
        text = dump_topology_yaml(*workload.deployment())
        import yaml

        topology, _, _ = parse_topology_document(yaml.safe_load(text))
        original = workload.topology
        for name in topology.components:
            for reloaded, first in zip(
                topology.inputs(name), original.inputs(name)
            ):
                if isinstance(first.grouping, FieldsGrouping):
                    assert isinstance(reloaded.grouping, FieldsGrouping)
                    assert (
                        reloaded.grouping.key_distribution
                        == first.grouping.key_distribution
                    )
