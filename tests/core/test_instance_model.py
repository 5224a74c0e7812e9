"""Tests for the instance throughput model (paper Eq. 1-5)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.instance_model import InstanceModel
from repro.errors import ModelError


@pytest.fixture()
def splitter() -> InstanceModel:
    """The paper's Splitter instance: alpha 7.63, SP 11 M tuples/min."""
    return InstanceModel({"default": 7.63}, 11e6)


class TestEquation2:
    """T(t) = min(alpha * t, ST) — single input, single output."""

    def test_linear_below_sp(self, splitter):
        assert splitter.output_rate(1e6) == pytest.approx(7.63e6)
        assert splitter.output_rate(10e6) == pytest.approx(76.3e6)

    def test_clips_at_st_above_sp(self, splitter):
        st_value = splitter.saturation_throughput()
        assert st_value == pytest.approx(7.63 * 11e6)
        assert splitter.output_rate(11e6) == pytest.approx(st_value)
        assert splitter.output_rate(20e6) == pytest.approx(st_value)

    def test_zero_input(self, splitter):
        assert splitter.output_rate(0.0) == 0.0

    def test_negative_input_rejected(self, splitter):
        with pytest.raises(ModelError):
            splitter.output_rate(-1.0)

    def test_processed_rate_pins_at_sp(self, splitter):
        assert splitter.processed_rate(5e6) == 5e6
        assert splitter.processed_rate(15e6) == 11e6

    def test_saturation_check(self, splitter):
        assert not splitter.is_saturated(10.9e6)
        assert splitter.is_saturated(11e6)


class TestEquations4And5:
    """Multiple output streams share the SP, each with its own alpha."""

    def test_per_stream_rates(self):
        model = InstanceModel({"words": 7.6, "errors": 0.01}, 1e6)
        assert model.output_rate(0.5e6, "words") == pytest.approx(7.6 * 0.5e6)
        assert model.output_rate(0.5e6, "errors") == pytest.approx(0.01 * 0.5e6)

    def test_streams_saturate_together(self):
        model = InstanceModel({"a": 2.0, "b": 3.0}, 100.0)
        assert model.output_rate(500.0, "a") == pytest.approx(200.0)
        assert model.output_rate(500.0, "b") == pytest.approx(300.0)

    def test_unknown_stream(self, splitter):
        with pytest.raises(ModelError, match="no output stream"):
            splitter.output_rate(1.0, stream="missing")


class TestConstructionAndDerivation:
    def test_sink_has_no_streams(self):
        sink = InstanceModel({}, 1e6)
        assert sink.alphas == {}
        assert sink.processed_rate(2e6) == 1e6

    def test_unsaturable_instance(self):
        model = InstanceModel({"s": 2.0})
        assert math.isinf(model.saturation_point)
        assert model.output_rate(1e12, "s") == 2e12
        assert not model.is_saturated(1e12)

    def test_validation(self):
        with pytest.raises(ModelError):
            InstanceModel({}, 0.0)
        with pytest.raises(ModelError):
            InstanceModel({"s": -1.0}, 1.0)

    def test_scaled(self, splitter):
        faster = splitter.scaled(2.0)
        assert faster.saturation_point == 22e6
        assert faster.alpha() == splitter.alpha()
        with pytest.raises(ModelError):
            splitter.scaled(0.0)


# ----------------------------------------------------------------------
# Properties of the piecewise-linear form
# ----------------------------------------------------------------------
rates = st.floats(min_value=0.0, max_value=1e12)


@given(
    alpha=st.floats(min_value=0.001, max_value=100.0),
    sp=st.floats(min_value=1.0, max_value=1e9),
    t1=rates,
    t2=rates,
)
def test_property_output_monotone_in_input(alpha, sp, t1, t2):
    model = InstanceModel({"s": alpha}, sp)
    lo, hi = sorted((t1, t2))
    assert model.output_rate(lo, "s") <= model.output_rate(hi, "s") + 1e-9


@given(
    alpha=st.floats(min_value=0.001, max_value=100.0),
    sp=st.floats(min_value=1.0, max_value=1e9),
    t=rates,
)
def test_property_output_bounded_by_st(alpha, sp, t):
    model = InstanceModel({"s": alpha}, sp)
    assert model.output_rate(t, "s") <= model.saturation_throughput("s") * (
        1 + 1e-12
    )
