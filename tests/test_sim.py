"""Unit tests for the simulated clock, devices, and counters."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from repro.sim.clock import SIM_EPOCH, SimClock
from repro.sim.device import SAS_10K, SLC_SSD, ZERO_COST, SimDevice
from repro.sim.iostats import IoStats


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(12.5).now() == 12.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now() == pytest.approx(4.0)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_datetime_round_trip(self):
        clock = SimClock()
        clock.advance(3600)
        moment = clock.to_datetime()
        assert SimClock.from_datetime(moment) == pytest.approx(3600.0)

    def test_epoch_rendering(self):
        assert SimClock().to_datetime(0.0) == SIM_EPOCH

    def test_naive_datetime_assumed_utc(self):
        naive = datetime(2012, 3, 22, 13, 0, 0)
        aware = datetime(2012, 3, 22, 13, 0, 0, tzinfo=timezone.utc)
        assert SimClock.from_datetime(naive) == SimClock.from_datetime(aware)


class TestDeviceProfiles:
    def test_sas_random_read_slower_than_ssd(self):
        assert SAS_10K.rand_read_time(8192) > 10 * SLC_SSD.rand_read_time(8192)

    def test_sequential_faster_than_random_on_sas(self):
        # Per byte, streaming beats seeking by a wide margin on spindles.
        seq = SAS_10K.seq_read_time(1 << 20) / (1 << 20)
        rand = SAS_10K.rand_read_time(8192) / 8192
        assert rand > 50 * seq

    def test_zero_cost_is_free(self):
        assert ZERO_COST.rand_read_time(8192) == 0.0
        assert ZERO_COST.seq_write_time(1 << 30) == 0.0

    def test_transfer_term_scales_with_size(self):
        small = SLC_SSD.seq_read_time(4096)
        large = SLC_SSD.seq_read_time(40960)
        assert large > small


class TestSimDevice:
    def test_read_advances_clock(self):
        clock = SimClock()
        device = SimDevice(SAS_10K, clock)
        spent = device.read_random(8192)
        assert clock.now() == pytest.approx(spent)
        assert spent == pytest.approx(SAS_10K.rand_read_time(8192))

    def test_busy_seconds_accumulate(self):
        clock = SimClock()
        device = SimDevice(SLC_SSD, clock)
        device.write_seq(1 << 20)
        device.read_random(8192)
        assert device.busy_seconds == pytest.approx(clock.now())
        assert device.ops == 2

    def test_shared_clock_serializes_devices(self):
        clock = SimClock()
        data = SimDevice(SAS_10K, clock)
        log = SimDevice(SLC_SSD, clock)
        data.read_random(8192)
        log.write_seq(4096)
        assert clock.now() == pytest.approx(data.busy_seconds + log.busy_seconds)


class TestIoStats:
    def test_counters_start_zero(self):
        stats = IoStats()
        assert stats.page_reads == 0
        assert stats.undo_log_reads == 0

    def test_snapshot_is_frozen_copy(self):
        stats = IoStats()
        stats.page_reads = 7
        snap = stats.snapshot()
        stats.page_reads = 10
        assert snap.page_reads == 7

    def test_delta(self):
        stats = IoStats()
        stats.page_reads = 5
        before = stats.snapshot()
        stats.page_reads = 12
        diff = stats.delta(before)
        assert diff.page_reads == 7
        assert diff.page_writes == 0

    def test_reset(self):
        stats = IoStats()
        stats.page_reads = 5
        stats.reset()
        assert stats.page_reads == 0

    def test_concurrent_clock_advances_all_land(self):
        """SimClock.advance is a locked read-modify-write: concurrent
        advances must sum exactly, never lose an increment."""
        import threading

        clock = SimClock()
        barrier = threading.Barrier(4)

        def advancer():
            barrier.wait(10.0)
            for _ in range(1000):
                clock.advance(0.5)

        threads = [threading.Thread(target=advancer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert clock.now() == pytest.approx(4 * 1000 * 0.5)
