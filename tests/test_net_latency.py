"""Unit tests for latency models."""

import random

import pytest

from repro.net.latency import AtmLinkModel, BandwidthLatency


@pytest.fixture
def rng():
    return random.Random(1)


def test_bandwidth_latency_scales_with_size(rng):
    model = BandwidthLatency(bandwidth_bps=8e6, propagation=0.001)
    small = model.sample(1_000, rng)
    large = model.sample(1_000_000, rng)
    assert large > small
    # 1 MB over 8 Mb/s = 1 second of transmission
    assert large == pytest.approx(0.001 + 1.0)


def test_bandwidth_latency_jitter_bounded(rng):
    model = BandwidthLatency(bandwidth_bps=8e6, propagation=0.001, jitter_fraction=0.5)
    base = 0.001 + 1_000 * 8 / 8e6
    for _ in range(100):
        value = model.sample(1_000, rng)
        assert base <= value <= base * 1.5 + 1e-12


def test_bandwidth_rejects_nonpositive():
    with pytest.raises(ValueError):
        BandwidthLatency(bandwidth_bps=0)


def test_atm_model_small_message_sub_millisecond(rng):
    model = AtmLinkModel()
    # control messages must be cheap relative to storage/detection: the
    # paper's "about milliseconds" claim rests on this
    for _ in range(50):
        assert model.sample(200, rng) < 0.002


def test_atm_model_bandwidth_is_155mbps():
    assert AtmLinkModel().bandwidth_bps == 155e6


def test_model_is_callable(rng):
    model = BandwidthLatency(bandwidth_bps=8e6, propagation=0.5)
    assert model(123, rng) == model.sample(123, rng)
