"""Origin-size bands and scaling."""

import pytest

from repro.workload.bands import BAND_ORDER, OriginBands


class TestPaperBands:
    def test_paper_thresholds(self):
        bands = OriginBands()
        assert bands.classify(100) == "T"
        assert bands.classify(1500) == "S"
        assert bands.classify(3000) == "M"
        assert bands.classify(10000) == "L"

    def test_gaps_between_bands(self):
        bands = OriginBands()
        assert bands.classify(700) == "-"   # between tiny and small
        assert bands.classify(2200) == "-"  # between small and medium

    def test_origin_classes(self):
        bands = OriginBands()
        assert bands.is_small_origin(500)
        assert not bands.is_small_origin(1500)
        assert bands.is_large_origin(9000)
        assert not bands.is_large_origin(5000)

    def test_classify_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OriginBands().classify(0)


class TestScaledBands:
    def test_proportional_at_paper_scale(self):
        bands = OriginBands.scaled_for(2_000_000)
        assert bands.tiny[1] == pytest.approx(500)
        assert bands.large[0] == pytest.approx(7000)

    def test_small_graph_floors_keep_bands_disjoint(self):
        bands = OriginBands.scaled_for(3000)
        ranges = bands.ranges()
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2

    def test_bands_cover_all_codes(self):
        bands = OriginBands.scaled_for(5000)
        seen = set()
        for f in range(1, 200):
            seen.add(bands.classify(f))
        seen.add(bands.classify(10_000))
        assert set(BAND_ORDER) <= seen

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            OriginBands.scaled_for(0)
