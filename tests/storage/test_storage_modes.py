"""Storage-mode resolution and the load-time pin counts."""

import pytest

from repro.storage import mapped, resolve_storage_mode
from repro.storage.stats import STORAGE_MODE_ENV, StorageStats


class TestResolveStorageMode:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(STORAGE_MODE_ENV, "mapped")
        assert resolve_storage_mode("ram") == "ram"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(STORAGE_MODE_ENV, "mapped")
        assert resolve_storage_mode(None) == "mapped"

    def test_default_is_mapped(self, monkeypatch):
        monkeypatch.delenv(STORAGE_MODE_ENV, raising=False)
        assert resolve_storage_mode(None) == "mapped"

    def test_empty_environment_value_means_mapped(self, monkeypatch):
        monkeypatch.setenv(STORAGE_MODE_ENV, "")
        assert resolve_storage_mode(None) == "mapped"

    def test_case_and_whitespace_are_forgiven(self):
        assert resolve_storage_mode(" MAPPED ") == "mapped"

    @pytest.mark.parametrize("bad", ["disk", "lazy", "0", "true"])
    def test_unknown_mode_raises(self, bad):
        with pytest.raises(ValueError, match="unknown storage mode"):
            resolve_storage_mode(bad)

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv(STORAGE_MODE_ENV, "sideways")
        with pytest.raises(ValueError, match="unknown storage mode"):
            resolve_storage_mode(None)


class TestPinPolicy:
    def test_defaults(self):
        assert (mapped.PIN_NODES, mapped.PIN_TERMS) == (64, 16)


class TestStorageStats:
    def test_counters_accumulate(self):
        stats = StorageStats(mode="mapped", path="x")
        stats.note_row(3)
        stats.note_row(0)
        stats.note_postings(5)
        assert stats.row_faults == 2
        assert stats.posting_faults == 1
        assert stats.resident_bytes == (
            3 * StorageStats.EDGE_ESTIMATE + 5 * StorageStats.POSTING_ESTIMATE
        )

    def test_snapshot_is_json_safe_and_complete(self):
        stats = StorageStats(mode="mapped", path="p")
        stats.mapped_bytes = 10
        view = stats.snapshot()
        assert view["mode"] == "mapped"
        assert view["path"] == "p"
        assert view["mapped_bytes"] == 10
        assert set(view) == {
            "mode", "path", "mapped_bytes", "row_faults", "posting_faults",
            "pinned_nodes", "pinned_terms", "pinned_bytes", "resident_bytes",
        }
