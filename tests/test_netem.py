"""Unit tests for RTT-variation emulation: components, profiles, delay stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem.components import (
    HIGH_LOAD,
    HYPERVISOR,
    NETWORK_STACK,
    SLB,
    TABLE1_CASES,
    sample_case_rtts,
)
from repro.netem.delay import FlowDelayStage, install_delay_stage
from repro.netem.profiles import RttProfile
from repro.sim.network import Network
from repro.sim.units import us

from conftest import make_packet


class TestComponents:
    def test_stack_calibration(self):
        rng = np.random.default_rng(1)
        samples = NETWORK_STACK.sample(rng, 50_000)
        assert np.mean(samples) == pytest.approx(us(39.3), rel=0.03)
        assert np.std(samples) == pytest.approx(us(12.2), rel=0.1)

    def test_samples_positive(self):
        rng = np.random.default_rng(2)
        for component in (NETWORK_STACK, SLB, HYPERVISOR, HIGH_LOAD):
            assert np.all(component.sample(rng, 1_000) > 0)

    def test_table1_case_order_matches_paper(self):
        names = list(TABLE1_CASES)
        assert names[0] == "Networking Stack"
        assert "high load" in names[-1]
        assert len(names) == 5

    def test_combined_case_means_increase(self):
        rng = np.random.default_rng(3)
        means = [
            float(np.mean(sample_case_rtts(components, rng, 20_000)))
            for components in TABLE1_CASES.values()
        ]
        assert means == sorted(means)

    def test_headline_variation_ratio(self):
        """Table 1's claim: worst case mean is ~2.7x the bare stack."""
        rng = np.random.default_rng(4)
        first = float(np.mean(sample_case_rtts(TABLE1_CASES["Networking Stack"], rng, 30_000)))
        last_name = list(TABLE1_CASES)[-1]
        last = float(np.mean(sample_case_rtts(TABLE1_CASES[last_name], rng, 30_000)))
        assert last / first == pytest.approx(2.68, abs=0.3)

    def test_wire_rtt_added(self):
        rng = np.random.default_rng(5)
        samples = sample_case_rtts([NETWORK_STACK], rng, 1_000, wire_rtt=us(10))
        assert np.min(samples) > us(10)

    def test_invalid_sample_count(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_case_rtts([NETWORK_STACK], rng, 0)


class TestRttProfile:
    def test_from_variation(self):
        profile = RttProfile.from_variation(us(70), 3.0)
        assert profile.rtt_max == pytest.approx(us(210))
        assert profile.variation == pytest.approx(3.0)

    def test_samples_within_bounds(self):
        profile = RttProfile.from_variation(us(70), 3.0)
        rng = np.random.default_rng(7)
        samples = profile.sample(rng, 50_000)
        assert np.all(samples >= us(70) - 1e-12)
        assert np.all(samples <= us(210) + 1e-12)

    def test_long_tail_shape(self):
        """Mean well below the midpoint of mean/max -- most flows are fast,
        a heavy tail is slow (Figure 1's shape)."""
        profile = RttProfile.from_variation(us(80), 3.0)
        rng = np.random.default_rng(8)
        stats = profile.statistics(rng, 100_000)
        assert stats.p50 < stats.mean or stats.p90 > 2 * stats.p50

    def test_leafspine_calibration(self):
        """Section 5.3 quotes average ~137us and p90 ~220us for 80-240us."""
        profile = RttProfile.from_variation(us(80), 3.0)
        rng = np.random.default_rng(9)
        stats = profile.statistics(rng, 200_000)
        assert stats.mean == pytest.approx(us(137), rel=0.15)
        assert stats.p90 == pytest.approx(us(220), rel=0.1)

    def test_variation_one_is_constant(self):
        profile = RttProfile.from_variation(us(100), 1.0)
        rng = np.random.default_rng(10)
        samples = profile.sample(rng, 100)
        assert np.all(samples == us(100))

    def test_invalid_variation(self):
        with pytest.raises(ValueError):
            RttProfile.from_variation(us(70), 0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RttProfile(rtt_min=0, rtt_max=us(100))
        with pytest.raises(ValueError):
            RttProfile(rtt_min=us(100), rtt_max=us(50))

    def test_percentile_bounds_check(self):
        profile = RttProfile.from_variation(us(70), 2.0)
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            profile.percentile(101, rng)

    @given(variation=st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_any_variation_samples_in_range(self, variation):
        profile = RttProfile.from_variation(us(50), variation)
        rng = np.random.default_rng(0)
        samples = profile.sample(rng, 2_000)
        assert np.all(samples >= profile.rtt_min - 1e-12)
        assert np.all(samples <= profile.rtt_max + 1e-12)


ONE_CLUSTER = ((0.3, 2.0, 0.2),)  # a weight that is not 1 before normalising


class TestRttDraws:
    """``sample_one`` is ``sample(rng, 1)[0]`` bit for bit, and leaves the
    generator where ``sample`` does: the packet and fluid rigs draw every
    base RTT through it, so the populations hang on this equality."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shape=st.sampled_from(["fabric", "testbed", "one-cluster"]),
        variation=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=8.0)),
        draws=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_draw_is_the_vector_draw(self, seed, shape, variation, draws):
        if shape == "one-cluster":
            profile = RttProfile(us(60), us(60) * variation, clusters=ONE_CLUSTER)
        else:
            profile = RttProfile.from_variation(us(60), variation, shape=shape)
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            one = profile.sample_one(scalar)
            assert type(one) is float
            assert repr(one) == repr(float(profile.sample(vector, 1)[0]))
        assert scalar.random() == vector.random()

    def test_zero_span_consumes_no_bits(self):
        profile = RttProfile.from_variation(us(100), 1.0)
        rng = np.random.default_rng(12)
        assert profile.sample_one(rng) == us(100)
        assert rng.random() == np.random.default_rng(12).random()

    # Captured before the mixture was precomputed: fixed generator in, the
    # same Monte-Carlo estimates out.
    def test_percentile_is_pinned(self):
        profile = RttProfile.from_variation(us(70), 3.0, shape="testbed")
        assert profile.percentile(90, np.random.default_rng(3), n=5000) == (
            0.0001971101403937925)

    def test_statistics_are_pinned(self):
        stats = RttProfile.from_variation(us(80), 3.0).statistics(
            np.random.default_rng(4), n=5000)
        assert (stats.mean, stats.p50, stats.p90, stats.p99) == (
            0.00014396478020036515, 0.00013975590515328558,
            0.00022069024459458152, 0.00023392500037028603)


class TestFlowDelayStage:
    def test_unknown_flow_zero_delay(self):
        stage = FlowDelayStage()
        assert stage.delay_for(make_packet(flow_id=9)) == 0.0

    def test_registered_delay(self):
        stage = FlowDelayStage()
        stage.set_flow_delay(3, us(120))
        assert stage.delay_for(make_packet(flow_id=3)) == us(120)

    def test_clear_flow(self):
        stage = FlowDelayStage()
        stage.set_flow_delay(3, us(120))
        stage.clear_flow(3)
        assert stage.delay_for(make_packet(flow_id=3)) == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FlowDelayStage().set_flow_delay(1, -1e-6)

    def test_install_is_idempotent(self):
        net = Network()
        host = net.add_host("h")
        first = install_delay_stage(host)
        second = install_delay_stage(host)
        assert first is second

    def test_install_refuses_foreign_delay_fn(self):
        net = Network()
        host = net.add_host("h")
        host.egress_delay_fn = lambda packet: 0.0
        with pytest.raises(RuntimeError):
            install_delay_stage(host)

    def test_stage_is_callable(self):
        stage = FlowDelayStage()
        stage.set_flow_delay(1, us(10))
        assert stage(make_packet(flow_id=1)) == us(10)
