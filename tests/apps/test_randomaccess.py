"""Tests for HPCC RandomAccess."""

import numpy as np
import pytest

from repro.apps.randomaccess import (
    RAConfig,
    hpcc_starts,
    hpcc_stream,
    run_randomaccess,
    _owner_and_index,
)


class TestStream:
    def test_starts_zero_is_one(self):
        assert hpcc_starts(0) == 1

    def test_starts_matches_sequential_iteration(self):
        # jump-ahead must agree with stepping the LFSR directly
        seq = hpcc_stream(1, 64)
        for n in (1, 2, 5, 17, 63):
            assert hpcc_starts(n) == int(seq[n - 1])

    def test_stream_values_are_64bit(self):
        s = hpcc_stream(hpcc_starts(100), 100)
        assert s.dtype == np.uint64
        assert int(s.max()) <= (1 << 64) - 1

    def test_stream_deterministic(self):
        assert hpcc_stream(1, 32).tolist() == hpcc_stream(1, 32).tolist()

    def test_disjoint_segments_chain(self):
        whole = hpcc_stream(1, 100)
        second_half = hpcc_stream(hpcc_starts(50), 50)
        assert whole[50:].tolist() == second_half.tolist()


class TestJumpAhead:
    """``hpcc_starts`` at large ``n``, pinned to the values of the
    bit-at-a-time reference port it replaced (the property tests compare
    it with ``hpcc_stream`` only at small ``n``)."""

    def test_two_to_the_forty_plus_k(self):
        assert [hpcc_starts(2**40 + k) for k in (0, 1, 2, 3, 5, 8, 13)] == [
            0x100000116, 0x20000022c, 0x400000458, 0x8000008b0,
            0x20000022c0, 0x10000011600, 0x20000022c000]
        assert [hpcc_starts(2**40 + k) for k in (999_983, 123_456_789)] == [
            0xc50a1dbe7fa723c0, 0x753f5e7197014ba7]

    def test_near_two_to_the_sixty_three(self):
        # 2**63 - 1 is a multiple of the period
        assert [hpcc_starts(2**63 + d) for d in (-3, -2, -1, 0, 1, 2)] == [
            0xc000000000000002, 0x8000000000000003, 0x1, 0x2, 0x4, 0x8]
        assert [hpcc_starts(2**62 + k) for k in (0, 1, 7, 12345)] == [
            0x100000003, 0x200000006, 0x8000000180, 0xc20000f13a000111]
        assert [hpcc_starts(n) for n in (
            0x123456789abcdef, 2**63 + 999_983, 2**64 - 1, 10**18)] == [
            0x4ce330b5daf8e6e3, 0xd85bc0de85b06ad4, 0x2,
            0xba6adaeb2e8cf33c]

    def test_randomaccess_offsets(self):
        """The 64 images' starts of the benchmark's RandomAccess stream,
        999 983 + 128·r."""
        starts = [hpcc_starts(999_983 + 128 * r) for r in range(64)]
        assert starts[:4] == [0x6c2de06f42d8356a, 0x1e446726643bb677,
                              0x831389d9b76e08dc, 0xbe6533241c36a65a]
        assert starts[63] == 0xd78c7937950ac587
        folded = 0
        for value in starts:
            folded ^= value
        assert folded == 0xe1bb98d99bc4498a

    def test_small_n_and_the_period(self):
        assert [hpcc_starts(n) for n in (
            1, 2, 3, 63, 64, 65, 127, 128, 1000, 999_983)] == [
            2, 4, 8, 9223372036854775808, 7, 14, 9223372036854775817, 21,
            13165951353710706947, 7795133298515653994]
        period = 1317624576693539401
        assert [hpcc_starts(period + d) for d in (-1, 0, 1)] == [
            0x8000000000000003, 0x1, 0x2]


class TestIndexing:
    def test_owner_and_index_cover_table(self):
        ran = hpcc_stream(1, 1000)
        owner, local = _owner_and_index(ran, n_images=4, local_size=256)
        assert owner.min() >= 0 and owner.max() < 4
        assert local.min() >= 0 and local.max() < 256

    def test_global_index_decomposition(self):
        ran = np.array([0x12345678ABCDEF01], dtype=np.uint64)
        owner, local = _owner_and_index(ran, n_images=2, local_size=8)
        g = int(ran[0]) & 15
        assert owner[0] == g // 8
        assert local[0] == g % 8


class TestConfig:
    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="variant"):
            RAConfig(variant="magic")

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RAConfig(log2_local_table=0)
        with pytest.raises(ValueError):
            RAConfig(bunch_size=0)

    def test_non_power_of_two_images_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            run_randomaccess(3, RAConfig(updates_per_image=4))


class TestRuns:
    def test_function_shipping_checksum_exact(self):
        """FS updates are atomic: the final table xor equals the initial
        xor xored with every update value."""
        cfg = RAConfig(variant="function-shipping", updates_per_image=64,
                       log2_local_table=8, bunch_size=16)
        n = 4
        local = 2 ** cfg.log2_local_table
        expected = 0
        for i in range(n * local):
            expected ^= i
        for r in range(n):
            stream = hpcc_stream(
                hpcc_starts(cfg.stream_offset + cfg.updates_per_image * r),
                cfg.updates_per_image)
            for v in stream:
                expected ^= int(v)
        result = run_randomaccess(n, cfg)
        assert result.checksum == expected
        assert result.total_updates == n * cfg.updates_per_image

    def test_get_update_put_runs(self):
        cfg = RAConfig(variant="get-update-put", updates_per_image=32,
                       log2_local_table=8, window=4)
        result = run_randomaccess(4, cfg)
        assert result.sim_time > 0
        assert result.total_updates == 128
        assert result.finish_blocks == 0

    def test_finish_block_count(self):
        cfg = RAConfig(variant="function-shipping", updates_per_image=64,
                       bunch_size=16)
        result = run_randomaccess(2, cfg)
        # 64/16 = 4 blocks per image, 2 images
        assert result.finish_blocks == 8

    def test_more_finish_blocks_cost_more_time(self):
        """Fig. 14's left side: tiny bunches drown in synchronization."""
        base = dict(variant="function-shipping", updates_per_image=64,
                    log2_local_table=8)
        tiny = run_randomaccess(4, RAConfig(bunch_size=4, **base))
        big = run_randomaccess(4, RAConfig(bunch_size=64, **base))
        assert tiny.sim_time > big.sim_time

    def test_gups_positive(self):
        result = run_randomaccess(2, RAConfig(updates_per_image=32))
        assert result.gups > 0

    def test_verification_fs_is_error_free(self):
        """HPCC verification: the atomic function-shipping variant must
        reproduce the sequential oracle exactly."""
        cfg = RAConfig(variant="function-shipping", updates_per_image=128,
                       log2_local_table=8, bunch_size=32)
        result = run_randomaccess(4, cfg, verify=True)
        assert result.errors == 0
        assert result.error_rate == 0.0

    def test_verification_skipped_by_default(self):
        result = run_randomaccess(2, RAConfig(updates_per_image=16))
        assert result.errors is None
        assert result.error_rate is None

    def test_get_update_put_races_are_real_under_contention(self):
        """§IV-B: 'the reference version has data races.'  Forcing
        contention (a tiny 64-word table under 1024 updates) makes the
        read-modify-write window demonstrably lose updates."""
        cfg = RAConfig(variant="get-update-put", updates_per_image=256,
                       log2_local_table=6, window=16)
        result = run_randomaccess(4, cfg, verify=True)
        assert result.error_rate is not None
        assert result.error_rate > 0.01

    def test_get_update_put_race_free_at_low_contention(self):
        """At realistic table-to-update ratios concurrent updates rarely
        collide — HPCC's <1%-errors acceptance criterion holds."""
        cfg = RAConfig(variant="get-update-put", updates_per_image=64,
                       log2_local_table=10, window=8)
        result = run_randomaccess(4, cfg, verify=True)
        assert result.error_rate < 0.01

    def test_function_shipping_atomic_even_under_contention(self):
        """The FS variant's RMW runs where the data lives: error-free
        even on the contended configuration that breaks get-update-put."""
        cfg = RAConfig(variant="function-shipping", updates_per_image=256,
                       log2_local_table=6, bunch_size=64)
        result = run_randomaccess(4, cfg, verify=True)
        assert result.errors == 0
