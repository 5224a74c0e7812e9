"""Tests for the component model (paper Eq. 6-11)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.component_model import ComponentModel
from repro.core.instance_model import InstanceModel
from repro.errors import ModelError


def splitter_component(parallelism=3, shares=None):
    instance = InstanceModel({"default": 7.63}, 11e6)
    return ComponentModel("splitter", instance, parallelism, shares)


class TestEquations6And7:
    def test_uniform_split(self):
        model = splitter_component(3)
        rates = model.instance_input_rates(30e6)
        assert np.allclose(rates, 10e6)

    def test_component_output_is_sum_of_instances(self):
        model = splitter_component(3)
        # 30M over 3 instances: each below SP -> fully linear.
        assert model.output_rate(30e6) == pytest.approx(7.63 * 30e6)

    def test_partial_saturation_with_bias(self):
        model = splitter_component(2, shares=[0.8, 0.2])
        # At 20M: hot instance gets 16M (saturated at 11M), cold 4M.
        expected = 7.63 * (11e6 + 4e6)
        assert model.output_rate(20e6) == pytest.approx(expected)

    def test_share_validation(self):
        with pytest.raises(ModelError, match="sum to 1"):
            splitter_component(2, shares=[0.5, 0.4])
        with pytest.raises(ModelError, match="shares for parallelism"):
            splitter_component(2, shares=[1.0])
        with pytest.raises(ModelError, match="non-negative"):
            splitter_component(2, shares=[1.5, -0.5])
        with pytest.raises(ModelError, match=">= 1"):
            splitter_component(0)


class TestSaturationPoints:
    def test_uniform_sp_scales_with_parallelism(self):
        assert splitter_component(1).saturation_point() == pytest.approx(11e6)
        assert splitter_component(3).saturation_point() == pytest.approx(33e6)

    def test_biased_sp_set_by_hottest_instance(self):
        model = splitter_component(2, shares=[0.75, 0.25])
        assert model.saturation_point() == pytest.approx(11e6 / 0.75)

    def test_saturation_throughput_counts_active_instances(self):
        model = splitter_component(2, shares=[1.0, 0.0])
        assert model.saturation_throughput() == pytest.approx(7.63 * 11e6)

    def test_unsaturable_component(self):
        instance = InstanceModel({"default": 2.0})
        model = ComponentModel("c", instance, 4)
        assert math.isinf(model.saturation_point())


class TestEquation9:
    """Parallelism scaling for shuffle / load-balanced connections."""

    def test_gamma_scaling(self):
        p3 = splitter_component(3)
        p6 = p3.with_parallelism(6)
        # Double the parallelism, double both SP and ST.
        assert p6.saturation_point() == pytest.approx(2 * p3.saturation_point())
        assert p6.saturation_throughput() == pytest.approx(
            2 * p3.saturation_throughput()
        )

    def test_p1_reduces_to_instance(self):
        p1 = splitter_component(1)
        instance = p1.instance
        for rate in (1e6, 5e6, 20e6):
            assert p1.output_rate(rate) == pytest.approx(
                instance.output_rate(rate)
            )

    def test_scaling_biased_component_requires_new_shares(self):
        biased = splitter_component(2, shares=[0.7, 0.3])
        with pytest.raises(ModelError, match="new_shares"):
            biased.with_parallelism(4)
        rescaled = biased.with_parallelism(4, new_shares=[0.25] * 4)
        assert rescaled.saturation_point() == pytest.approx(44e6)

    def test_linear_region_output_unchanged_by_parallelism(self):
        # Below everyone's SP the output rate only depends on alpha.
        p2 = splitter_component(2)
        p4 = p2.with_parallelism(4)
        assert p2.output_rate(10e6) == pytest.approx(p4.output_rate(10e6))


class TestEquation11:
    """Traffic scaling at fixed parallelism."""

    def test_beta_scaling_in_linear_region(self):
        model = splitter_component(3)
        base = model.output_rate(10e6)
        assert model.output_rate(10e6 * 2.0) == pytest.approx(2 * base)

    def test_beta_scaling_clips_at_st(self):
        model = splitter_component(3)
        scaled = model.output_rate(20e6 * 4.0)  # 80M >> SP
        assert scaled == pytest.approx(model.saturation_throughput())

    def test_biased_shares_clip_per_instance(self):
        model = splitter_component(2, shares=[0.8, 0.2])
        # beta pushes only the hot instance past SP.
        out = model.output_rate(10e6 * 1.6)  # 16M total
        hot = min(0.8 * 16e6, 11e6)
        cold = 0.2 * 16e6
        assert out == pytest.approx(7.63 * (hot + cold))


@given(
    parallelism=st.integers(min_value=1, max_value=12),
    rate=st.floats(min_value=0, max_value=2e8),
)
def test_property_component_output_bounded(parallelism, rate):
    model = splitter_component(parallelism)
    out = model.output_rate(rate)
    assert out <= model.saturation_throughput() * (1 + 1e-9)
    assert out <= 7.63 * rate * (1 + 1e-9)


@given(
    parallelism=st.integers(min_value=1, max_value=8),
    r1=st.floats(min_value=0, max_value=1e8),
    r2=st.floats(min_value=0, max_value=1e8),
)
def test_property_component_output_monotone(parallelism, r1, r2):
    model = splitter_component(parallelism)
    lo, hi = sorted((r1, r2))
    assert model.output_rate(lo) <= model.output_rate(hi) + 1e-6


@given(
    shares=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
    )
)
def test_property_biased_sp_never_exceeds_uniform_sp(shares):
    shares = np.asarray(shares)
    shares = shares / shares.sum()
    p = shares.shape[0]
    biased = splitter_component(p, shares=list(shares))
    uniform = splitter_component(p)
    assert biased.saturation_point() <= uniform.saturation_point() * (1 + 1e-9)
