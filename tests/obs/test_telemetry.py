"""Unit tests for the streaming telemetry registry and its sketches.

The mergeability contract is the load-bearing property: merging
per-shard snapshots must reproduce the single-process instruments
exactly (integer bucket counts) or to float-addition identity (sums
merged in a deterministic order).  ``NullRegistry`` mirrors
``NullSpanTracer``: producers keep a reference unconditionally and pay
only an attribute check when telemetry is off.
"""

import json
import math

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    NullRegistry,
    find_metrics,
    merge_snapshots,
    metric_key,
    read_telemetry_json,
    validate_snapshot,
    write_telemetry_json,
)


class TestLogHistogram:
    def test_empty(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.sum == 0.0
        with pytest.raises(ValueError):
            hist.quantile(50)

    def test_exact_count_sum_min_max(self):
        hist = LogHistogram()
        values = [0.001, 0.5, 2.0, 37.0, 1e6]
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.min == min(values)
        assert hist.max == max(values)

    def test_zero_values_counted(self):
        hist = LogHistogram()
        hist.observe(0.0)
        hist.observe(1.0)
        assert hist.count == 2
        assert hist.min == 0.0
        assert hist.quantile(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().observe(-1.0)

    def test_quantile_bounded_relative_error(self):
        # Bucket upper bounds over-estimate by at most the growth factor.
        hist = LogHistogram(growth=1.1)
        values = [0.01 * (i + 1) for i in range(1000)]
        for v in values:
            hist.observe(v)
        for q in (10, 50, 90, 99):
            exact = values[max(0, math.ceil(q / 100 * len(values)) - 1)]
            sketch = hist.quantile(q)
            assert exact <= sketch * (1 + 1e-9)
            assert sketch <= exact * 1.1 * (1 + 1e-9)

    def test_quantile_extremes_are_exact(self):
        hist = LogHistogram()
        for v in (3.0, 1.0, 9.0):
            hist.observe(v)
        assert hist.quantile(0) == 1.0
        assert hist.quantile(100) == 9.0

    def test_quantile_out_of_range(self):
        hist = LogHistogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(101)

    def test_single_value(self):
        hist = LogHistogram()
        hist.observe(7.0)
        for q in (0, 50, 100):
            assert hist.quantile(q) == 7.0

    def test_merge_is_exact(self):
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for i, v in enumerate([0.1, 0.2, 5.0, 80.0, 0.0, 2.5]):
            (a if i % 2 else b).observe(v, window=i)
            both.observe(v, window=i)
        a.merge(b)
        assert a.to_dict() == both.to_dict()

    def test_merge_growth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.1).merge(LogHistogram(growth=1.5))

    def test_roundtrip(self):
        hist = LogHistogram()
        for i, v in enumerate([0.0, 0.3, 12.0]):
            hist.observe(v, window=i)
        clone = LogHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.quantile(50) == hist.quantile(50)

    def test_fraction_below(self):
        hist = LogHistogram()
        for v in (0.0, 0.5, 1.0, 10.0):
            hist.observe(v)
        assert hist.fraction_below(100.0) == 1.0
        assert hist.fraction_below(1e-6) == 0.25  # only the zero
        # Conservative: a bucket counts only if its UPPER bound fits.
        assert 0.25 <= hist.fraction_below(0.6) <= 0.75


class TestCounterGauge:
    def test_counter_windows_sum_to_total(self):
        counter = Counter()
        counter.inc(2.0, window=0)
        counter.inc(3.0, window=0)
        counter.inc(1.0, window=4)
        assert counter.total == 6.0
        assert sum(counter.windows.values()) == counter.total

    def test_counter_merge(self):
        a, b = Counter(), Counter()
        a.inc(2.0, window=0)
        b.inc(3.0, window=0)
        b.inc(1.0, window=1)
        a.merge(b)
        assert a.total == 6.0
        assert a.windows == {0: 5.0, 1: 1.0}

    def test_counter_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    def test_gauge_last_writer_wins_on_time(self):
        gauge = Gauge()
        gauge.set(5.0, time=2.0)
        gauge.set(3.0, time=1.0)  # stale write, ignored
        assert gauge.value == 5.0
        other = Gauge()
        other.set(9.0, time=1.5)
        gauge.merge(other)  # other is older, loses
        assert gauge.value == 5.0 and gauge.time == 2.0
        fresh = Gauge()
        fresh.set(1.0, time=10.0)
        gauge.merge(fresh)  # fresher, wins
        assert gauge.value == 1.0 and gauge.time == 10.0

    def test_gauge_merge_is_order_free(self):
        a, b = Gauge(), Gauge()
        a.set(5.0, time=2.0)
        b.set(9.0, time=1.5)
        ab, ba = Gauge(), Gauge()
        for g in (a, b):
            ab.merge(g)
        for g in (b, a):
            ba.merge(g)
        assert ab.to_dict() == ba.to_dict()


class TestRegistry:
    def test_labels_key_instruments(self):
        reg = MetricsRegistry()
        reg.inc("hits", 1.0, node="a")
        reg.inc("hits", 2.0, node="b")
        reg.inc("hits", 3.0, node="a")
        assert reg.counter("hits", node="a").total == 4.0
        assert reg.counter("hits", node="b").total == 2.0
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key(
            "m", {"b": 2, "a": 1}
        )

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0)
        with pytest.raises(ValueError):
            reg.observe("m", 1.0)

    def test_simulated_clock_windows(self):
        now = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: now["t"], window=1.0)
        reg.observe("lat", 0.5)
        now["t"] = 2.7
        reg.observe("lat", 1.5)
        hist = reg.histogram("lat")
        assert set(hist.windows) == {0, 2}

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.inc("z", 1.0, node="b")
        reg.inc("a", 1.0)
        reg.inc("z", 1.0, node="a")
        names = [m["name"] for m in reg.snapshot()["metrics"]]
        assert names == sorted(names)

    def test_snapshot_merge_identity(self):
        # The sharded contract: per-cell registries replay the same
        # float additions no matter which worker runs them, so merging
        # cell snapshots in cell order is bit-identical for any layout.
        def load(reg, offset):
            for i in range(10):
                reg.observe("lat", 0.1 * (i + offset), wf="x")
                reg.inc("ops", 1.0, wf="x")

        def cells():
            a, b = MetricsRegistry(), MetricsRegistry()
            load(a, 0)
            load(b, 10)
            return [a.snapshot(), b.snapshot()]

        once = merge_snapshots(cells())
        again = merge_snapshots(cells())
        assert json.dumps(once, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        # Against one monolithic registry: counts exact, sums to float
        # tolerance (a single registry adds in a different order).
        whole = MetricsRegistry()
        load(whole, 0)
        load(whole, 10)
        (m_hist, m_ops), (w_hist, w_ops) = (
            sorted(s["metrics"], key=lambda m: m["name"])
            for s in (once, whole.snapshot())
        )
        assert m_hist["count"] == w_hist["count"]
        assert m_hist["buckets"] == w_hist["buckets"]
        assert m_hist["sum"] == pytest.approx(w_hist["sum"], rel=1e-12)
        assert m_ops["total"] == w_ops["total"]

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0)
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot()["metrics"] == []

    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.observe("lat", 0.25, wf="w")
        reg.inc("ops", 2.0)
        path = write_telemetry_json(tmp_path / "t.json", reg)
        snapshot = read_telemetry_json(path)
        assert validate_snapshot(snapshot) == []
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(
            reg.snapshot(), sort_keys=True
        )

    def test_find_metrics(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1.0, wf="a", node="n0")
        reg.inc("ops", 1.0, wf="b", node="n0")
        snapshot = reg.snapshot()
        assert len(find_metrics(snapshot, "ops")) == 2
        assert len(find_metrics(snapshot, "ops", wf="a")) == 1
        assert find_metrics(snapshot, "missing") == []


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert isinstance(NULL_TELEMETRY, NullRegistry)
        NULL_TELEMETRY.inc("m", 1.0, node="x")
        NULL_TELEMETRY.observe("m2", 0.5)
        NULL_TELEMETRY.set_gauge("m3", 1.0)
        assert len(NULL_TELEMETRY) == 0
        assert NULL_TELEMETRY.snapshot()["metrics"] == []

    def test_accessors_return_noop_instruments(self):
        counter = NULL_TELEMETRY.counter("m")
        counter.inc(5.0)
        hist = NULL_TELEMETRY.histogram("h")
        hist.observe(1.0)
        assert len(NULL_TELEMETRY) == 0


class TestBoundHandles:
    """Handles are the one emit path; keyword emits wrap them."""

    HANDLE_EMIT = {"counter": "inc", "histogram": "observe", "gauge": "set"}
    KEYWORD_EMIT = {"counter": "inc", "histogram": "observe", "gauge": "set_gauge"}

    @staticmethod
    def _sequence():
        # (time, kind, name, value, labels): crosses window boundaries,
        # revisits old label-sets, and mixes all three kinds.
        steps = []
        for i in range(40):
            t = 0.37 * i
            node = f"n{i % 3}"
            steps.append((t, "counter", "bytes", float(1000 + i), {"node": node}))
            steps.append((t, "histogram", "lat", 0.01 * (i % 7), {"node": node, "wf": "w"}))
            if i % 5 == 0:
                steps.append((t, "gauge", "depth", float(i), {"node": node}))
        return steps

    def _run(self, bound: bool) -> MetricsRegistry:
        now = {"t": 0.0}
        reg = MetricsRegistry(clock=lambda: now["t"], window=1.0)
        cache = {}
        for t, kind, name, value, labels in self._sequence():
            now["t"] = t
            if bound:
                key = (kind, name, tuple(sorted(labels.items())))
                handle = cache.get(key)
                if handle is None:
                    handle = cache[key] = getattr(reg, f"bind_{kind}")(
                        name, **labels
                    )
                getattr(handle, self.HANDLE_EMIT[kind])(value)
            else:
                getattr(reg, self.KEYWORD_EMIT[kind])(name, value, **labels)
        return reg

    def test_handles_match_keyword_emits_bit_for_bit(self):
        bound = self._run(bound=True).snapshot()
        keyword = self._run(bound=False).snapshot()
        assert json.dumps(bound, sort_keys=True) == json.dumps(
            keyword, sort_keys=True
        )
        assert validate_snapshot(bound) == validate_snapshot(keyword) == []
        lat = find_metrics(bound, "lat", node="n0")[0]
        assert len(lat["windows"]) > 1

    def test_no_instrument_before_first_emit(self):
        reg = MetricsRegistry()
        counter = reg.bind_counter("ops", node="a")
        reg.bind_histogram("lat", node="a")
        reg.bind_gauge("depth", node="a")
        assert len(reg) == 0
        assert reg.snapshot()["metrics"] == []
        counter.inc(2.0)
        assert [m["name"] for m in reg.snapshot()["metrics"]] == ["ops"]

    def test_same_labels_give_same_handle(self):
        reg = MetricsRegistry()
        assert reg.bind_counter("m", a=1, b=2) is reg.bind_counter("m", b=2, a=1)

    def test_kind_mismatch_rejected_on_first_emit(self):
        reg = MetricsRegistry()
        reg.inc("m", 1.0)
        handle = reg.bind_histogram("m")
        with pytest.raises(ValueError):
            handle.observe(1.0)

    def test_clear_detaches_handles(self):
        reg = MetricsRegistry()
        handle = reg.bind_counter("m")
        handle.inc(5.0)
        reg.clear()
        assert len(reg) == 0
        handle.inc(1.0)
        assert reg.counter("m").total == 1.0

    def test_null_handle_is_a_shared_noop(self):
        handles = [
            NULL_TELEMETRY.bind_counter("m", node="x"),
            NULL_TELEMETRY.bind_histogram("h"),
            NULL_TELEMETRY.bind_gauge("g"),
        ]
        assert all(h is handles[0] for h in handles)
        handles[0].inc(1.0)
        handles[0].observe(1.0)
        handles[0].set(1.0)
        assert len(NULL_TELEMETRY) == 0
        assert NULL_TELEMETRY.site_cache("net") == {}

    def test_fresh_registry_gets_fresh_handles(self):
        from repro.sim import Cluster, ClusterConfig, Environment

        env = Environment()
        cluster = Cluster(env, ClusterConfig(workers=2))
        src, dst = (node.nic for node in cluster.workers)

        def send():
            env.run(until=cluster.network.message(src, dst, 100.0))

        first = MetricsRegistry(clock=lambda: env.now)
        cluster.install_telemetry(first)
        send()
        before = json.dumps(first.snapshot(), sort_keys=True)
        second = MetricsRegistry(clock=lambda: env.now)
        cluster.install_telemetry(second)
        send()
        assert json.dumps(first.snapshot(), sort_keys=True) == before
        assert [
            m["total"] for m in find_metrics(second.snapshot(), "net.bytes")
        ] == [100.0]


class TestValidateSnapshot:
    def test_good_snapshot_passes(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1)
        reg.inc("ops", 1.0)
        assert validate_snapshot(reg.snapshot()) == []

    def test_detects_count_mismatch(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1)
        snapshot = reg.snapshot()
        snapshot["metrics"][0]["count"] += 1
        problems = validate_snapshot(snapshot)
        assert problems and any("count" in p for p in problems)

    def test_detects_duplicate_series(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1.0)
        snapshot = reg.snapshot()
        snapshot["metrics"].append(dict(snapshot["metrics"][0]))
        assert any("duplicate" in p for p in validate_snapshot(snapshot))

    def test_detects_wrong_type(self):
        assert validate_snapshot({"type": "spans"}) != []


class TestQuantileCache:
    """Regression: ``quantile`` caches the sorted bucket keys; the
    cache must be invalidated whenever observe/merge can add a bucket,
    or quantiles silently go stale."""

    def _reference(self, values):
        fresh = LogHistogram()
        for v in values:
            fresh.observe(v)
        return fresh

    def test_observe_new_bucket_invalidates(self):
        hist = LogHistogram()
        for v in (0.5, 2.0):
            hist.observe(v)
        assert hist.quantile(99) == self._reference([0.5, 2.0]).quantile(99)
        # A value far above every existing bucket: with a stale cache
        # the p99 would still come off the 2.0 bucket.
        hist.observe(500.0)
        assert hist.quantile(99) == self._reference(
            [0.5, 2.0, 500.0]
        ).quantile(99)
        assert hist.quantile(99) == 500.0  # clamped to exact max

    def test_observe_existing_bucket_keeps_quantiles_exact(self):
        hist = LogHistogram()
        values = [1.0, 1.0, 1.0]
        for v in values:
            hist.observe(v)
        assert hist.quantile(50) == self._reference(values).quantile(50)
        # Same bucket again: counts change, key set does not; every
        # quantile must still match a cache-free computation.
        for _ in range(97):
            hist.observe(1.0)
            values.append(1.0)
        hist.observe(64.0)
        values.append(64.0)
        for q in (1, 50, 98, 99, 100):
            assert hist.quantile(q) == self._reference(values).quantile(q)

    def test_merge_invalidates(self):
        left = LogHistogram()
        for v in (0.1, 0.2):
            left.observe(v)
        assert left.quantile(100) == 0.2
        right = LogHistogram()
        for v in (30.0, 40.0):
            right.observe(v)
        left.merge(right)
        assert left.quantile(100) == 40.0
        assert left.quantile(50) == self._reference(
            [0.1, 0.2, 30.0, 40.0]
        ).quantile(50)

    def test_interleaved_agreement(self):
        """Any interleaving of observe/quantile/merge agrees with a
        histogram built from scratch at every step."""
        hist = LogHistogram()
        seen = []
        batches = ([0.05, 0.8], [12.0], [0.8, 250.0], [3.3])
        for batch in batches:
            for v in batch:
                hist.observe(v)
                seen.append(v)
            for q in (25, 50, 75, 99):
                assert hist.quantile(q) == self._reference(seen).quantile(q)
        other = LogHistogram()
        for v in (1e4, 2e4):
            other.observe(v)
            seen.append(v)
        hist.merge(other)
        for q in (25, 50, 75, 99, 100):
            assert hist.quantile(q) == self._reference(seen).quantile(q)

    def test_empty_merge_preserves_cache_correctness(self):
        hist = LogHistogram()
        hist.observe(5.0)
        assert hist.quantile(50) == 5.0
        hist.merge(LogHistogram())  # nothing to add
        assert hist.quantile(50) == 5.0
