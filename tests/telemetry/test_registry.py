"""Unit tests for the metrics registry, cross-replica merge, and the
Prometheus text exposition."""

import pytest

from repro.telemetry.metrics import (
    MetricsRegistry,
    merge_registries,
    render_prometheus,
    strip_samples,
)


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total", "hits", labels=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 1
        assert counter.value(kind="unseen") == 0

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_set_total_overwrites(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(5)
        counter.set_total(2)
        assert counter.value() == 2

    def test_label_mismatch_rejected(self):
        counter = MetricsRegistry().counter("c_total", labels=("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc(wrong="x")
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc()

    def test_export_shape(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "help text", labels=("kind",))
        counter.inc(kind="b")
        counter.inc(kind="a")
        family = counter.export()
        assert family["type"] == "counter"
        assert family["help"] == "help text"
        assert family["labels"] == ["kind"]
        # Samples sorted by label key tuple.
        assert family["samples"] == [
            {"labels": {"kind": "a"}, "value": 1},
            {"labels": {"kind": "b"}, "value": 1},
        ]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec(5)
        assert gauge.value() == 8

    def test_merge_mode_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="merge"):
            reg.gauge("g", merge="median")

    def test_export_carries_merge_mode(self):
        gauge = MetricsRegistry().gauge("seq", merge="max")
        gauge.set(4)
        family = gauge.export()
        assert family["type"] == "gauge"
        assert family["merge"] == "max"
        assert family["samples"] == [{"labels": {}, "value": 4}]


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        sample = hist.export()["samples"][0]
        assert sample["buckets"] == {"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(5.605)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus ``le`` semantics: an observation equal to a bound
        # counts in that bound's bucket.
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.1)
        sample = hist.export()["samples"][0]
        assert sample["buckets"]["0.1"] == 1

    def test_empty_or_duplicate_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            reg.histogram("h1", buckets=())
        with pytest.raises(ValueError, match="duplicate"):
            reg.histogram("h2", buckets=(0.1, 0.1))


class TestRegistry:
    def test_same_name_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("c_total") is reg.counter("c_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")

    def test_collectors_run_at_export(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("live")
        state = {"value": 0}
        reg.add_collector(lambda: gauge.set(state["value"]))
        state["value"] = 42
        export = reg.export()
        assert export["live"]["samples"][0]["value"] == 42

    def test_export_is_a_dict_keyed_by_family_name(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc()
        reg.gauge("a").set(1)
        export = reg.export()
        assert list(export) == ["a", "b_total"]
        assert all(isinstance(family, dict) for family in export.values())

    def test_reset_zeroes_samples_but_keeps_families(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        counter.inc(7)
        reg.reset()
        assert counter.value() == 0
        assert reg.counter("c_total") is counter

    def test_gauge_replace_swaps_the_whole_sample_set(self):
        gauge = MetricsRegistry().gauge("seq", labels=("dataset",), merge="max")
        gauge.set(4, dataset="a")
        gauge.set(9, dataset="b")
        gauge.replace({("b",): 10, ("c",): 1})
        assert gauge.export()["samples"] == [
            {"labels": {"dataset": "b"}, "value": 10},
            {"labels": {"dataset": "c"}, "value": 1},
        ]


class TestHistogramWindow:
    def _registry(self, window=3):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", labels=("op",), buckets=(1.0,), window=window)
        for value in (0.1, 0.2, 0.3, 2.0):
            hist.observe(value, op="search")
        return reg

    def test_one_observe_feeds_buckets_and_a_bounded_window(self):
        (sample,) = self._registry().export(include_samples=True)["lat"]["samples"]
        assert sample["count"] == 4 and sample["buckets"] == {"1": 3, "+Inf": 4}
        assert sample["window"] == [0.2, 0.3, 2.0]  # the most recent three

    def test_window_is_exported_only_on_request(self):
        reg = self._registry()
        (sample,) = reg.export()["lat"]["samples"]
        assert "window" not in sample
        with_samples = reg.export(include_samples=True)
        assert strip_samples(with_samples) == reg.export()
        assert "window" in with_samples["lat"]["samples"][0]  # input untouched

    def test_windowless_histograms_never_export_one(self):
        (sample,) = self._registry(window=0).export(include_samples=True)["lat"][
            "samples"
        ]
        assert "window" not in sample
        with pytest.raises(ValueError, match="window"):
            MetricsRegistry().histogram("bad", window=-1)

    def test_merged_windows_concatenate(self):
        part = self._registry().export(include_samples=True)
        (sample,) = merge_registries([part, part])["lat"]["samples"]
        assert sample["count"] == 8
        assert sample["window"] == [0.2, 0.3, 2.0, 0.2, 0.3, 2.0]
        assert "window" not in render_prometheus(merge_registries([part, part]))

    def test_a_part_without_its_window_poisons_the_merged_one(self):
        reg = self._registry()
        bare, full = reg.export(), reg.export(include_samples=True)
        empty = MetricsRegistry()
        empty.histogram("lat", labels=("op",), buckets=(1.0,), window=3)
        for parts in ([bare, full], [full, bare], [full, bare, full]):
            (sample,) = merge_registries(parts)["lat"]["samples"]
            assert "window" not in sample and sample["count"] == 4 * len(parts)
        # ... but a part that observed nothing takes nothing away.
        (sample,) = merge_registries([empty.export(), full])["lat"]["samples"]
        assert sample["window"] == [0.2, 0.3, 2.0]


class TestMergeRegistries:
    def _export(self, build):
        reg = MetricsRegistry()
        build(reg)
        return reg.export()

    def test_counters_sum(self):
        a = self._export(lambda r: r.counter("c_total", labels=("k",)).inc(2, k="x"))
        b = self._export(lambda r: r.counter("c_total", labels=("k",)).inc(3, k="x"))
        merged = merge_registries([a, b])
        assert merged["c_total"]["samples"] == [
            {"labels": {"k": "x"}, "value": 5}
        ]

    def test_gauges_follow_their_merge_mode(self):
        a = self._export(
            lambda r: (r.gauge("size").set(2), r.gauge("seq", merge="max").set(7))
        )
        b = self._export(
            lambda r: (r.gauge("size").set(3), r.gauge("seq", merge="max").set(5))
        )
        merged = merge_registries([a, b])
        assert merged["size"]["samples"][0]["value"] == 5
        assert merged["seq"]["samples"][0]["value"] == 7

    def test_histograms_merge_by_bucket_sum(self):
        def build(values):
            def inner(reg):
                hist = reg.histogram("lat", buckets=(0.1, 1.0))
                for value in values:
                    hist.observe(value)

            return inner

        merged = merge_registries(
            [self._export(build([0.05])), self._export(build([0.5, 5.0]))]
        )
        sample = merged["lat"]["samples"][0]
        assert sample["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)

    def test_heterogeneous_parts_do_not_keyerror(self):
        a = self._export(lambda r: r.counter("only_in_a_total").inc())
        b = self._export(lambda r: r.counter("only_in_b_total", labels=("k",)).inc(k="x"))
        merged = merge_registries([a, b, None, "junk", {}])
        assert merged["only_in_a_total"]["samples"][0]["value"] == 1
        assert merged["only_in_b_total"]["samples"][0]["value"] == 1

    def test_label_sets_present_in_one_part_survive(self):
        a = self._export(lambda r: r.counter("c_total", labels=("k",)).inc(k="a"))
        b = self._export(lambda r: r.counter("c_total", labels=("k",)).inc(k="b"))
        merged = merge_registries([a, b])
        labels = [sample["labels"]["k"] for sample in merged["c_total"]["samples"]]
        assert labels == ["a", "b"]

    def test_empty_input(self):
        assert merge_registries([]) == {}


class TestRenderPrometheus:
    def test_help_type_and_sample_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Cache hits.", labels=("kind",)).inc(
            3, kind="exact"
        )
        text = render_prometheus(reg.export())
        assert "# HELP repro_hits_total Cache hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{kind="exact"} 3' in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat", "Latency.", buckets=(0.1, 1.0)).observe(0.05)
        text = render_prometheus(reg.export())
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.05" in text
        assert "repro_lat_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("q",)).inc(q='say "hi"\nback\\slash')
        text = render_prometheus(reg.export())
        assert r'q="say \"hi\"\nback\\slash"' in text

    def test_metric_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.total").inc()
        text = render_prometheus(reg.export())
        assert "weird_name_total 1" in text

    def test_none_and_empty_render_to_trailing_newline(self):
        assert render_prometheus(None) == "\n"
        assert render_prometheus({}) == "\n"

    def test_exposition_parses_line_by_line(self):
        """Every non-comment line must be ``name{labels} value``."""
        reg = MetricsRegistry()
        reg.counter("a_total", "a", labels=("k",)).inc(k="v")
        reg.gauge("b", "b").set(1.5)
        reg.histogram("c", "c", buckets=(0.1,)).observe(0.05)
        for line in render_prometheus(reg.export()).strip().splitlines():
            if line.startswith("#"):
                assert line.split(" ", 2)[0] in ("#",) and (
                    " HELP " in f" {line} " or " TYPE " in f" {line} "
                )
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # value must be numeric
            assert name_part[0].isalpha()
