"""Tests for NucleusConfig validation and factory presets."""

import pytest

from repro.core.config import NucleusConfig


class TestPresets:
    def test_default_is_paper_general_optimal(self):
        cfg = NucleusConfig()
        assert cfg.levels == 2
        assert cfg.table_style == "array"
        assert cfg.contiguous
        assert cfg.inverse_map == "stored_pointers"

    def test_unoptimized(self):
        cfg = NucleusConfig.unoptimized()
        assert cfg.levels == 1
        assert not cfg.relabel
        assert cfg.aggregation == "array"
        assert not cfg.contraction

    def test_optimal_23_uses_hash_and_contraction(self):
        cfg = NucleusConfig.optimal(2, 3)
        assert cfg.aggregation == "hash"
        assert cfg.contraction
        assert not cfg.relabel

    def test_optimal_general_uses_list_buffer_and_relabel(self):
        cfg = NucleusConfig.optimal(3, 4)
        assert cfg.aggregation == "list_buffer"
        assert cfg.relabel
        assert not cfg.contraction


class TestValidation:
    def test_rs_order_enforced(self):
        with pytest.raises(ValueError):
            NucleusConfig().validated(10, 3, 3)
        with pytest.raises(ValueError):
            NucleusConfig().validated(10, 0, 2)

    def test_contraction_only_for_23(self):
        cfg = NucleusConfig(contraction=True)
        with pytest.raises(ValueError):
            cfg.validated(10, 3, 4)
        assert cfg.validated(10, 2, 3).contraction

    def test_stored_pointers_need_contiguous(self):
        cfg = NucleusConfig(contiguous=False,
                            inverse_map="stored_pointers")
        with pytest.raises(ValueError):
            cfg.validated(10, 2, 3)

    def test_unknown_update_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="update_arithmetic"):
            NucleusConfig(update_arithmetic="nope").validated(10, 3, 4)
        for mode in ("fractional", "representative"):
            NucleusConfig(update_arithmetic=mode).validated(10, 3, 4)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            NucleusConfig(threads=threads).validated(10, 2, 3)

    @pytest.mark.parametrize("levels", [0, -1])
    def test_levels_must_be_positive(self, levels):
        with pytest.raises(ValueError, match="levels"):
            NucleusConfig(levels=levels).validated(10, 2, 3)

    def test_levels_clamped_to_r(self):
        cfg = NucleusConfig(levels=3).validated(10, 2, 3)
        assert cfg.levels == 2

    def test_r1_forces_one_level(self):
        cfg = NucleusConfig().validated(10, 1, 2)
        assert cfg.levels == 1
        assert cfg.inverse_map == "binary_search"

    def test_key_width_widens_table(self):
        # 2^20-bit ids and r=6: a one-level table cannot exist.
        cfg = NucleusConfig(levels=1).validated(2**20, 6, 7)
        assert cfg.levels >= 4
        assert cfg.table_style == "hash"

    def test_array_style_reset_when_not_two_levels(self):
        cfg = NucleusConfig(levels=3, table_style="array",
                            inverse_map="binary_search")
        assert cfg.validated(10, 4, 5).table_style == "hash"

    def test_frozen(self):
        with pytest.raises(Exception):
            NucleusConfig().levels = 5
