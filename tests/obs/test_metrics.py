"""Unit tests for the metrics registry: instruments and snapshots."""

import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("c_total", "help")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_positional_and_keyword(self, reg):
        c = reg.counter("req_total", "", ("method", "code"))
        c.labels("get", "200").inc(2)
        c.labels(code="200", method="get").inc(3)
        assert c.labels("get", "200").value == 5
        assert c.labels("post", "500").value == 0

    def test_label_arity_mismatch(self, reg):
        c = reg.counter("req_total", "", ("method",))
        with pytest.raises(ValueError):
            c.labels("get", "extra")
        with pytest.raises(ValueError):
            c.labels(code="200")


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.inc(-5)  # a decrement
        assert g.value == 7


class TestHistogram:
    def test_bucket_boundaries_are_le(self, reg):
        """A value equal to a bound lands in that bound's bucket (Prometheus
        ``le`` semantics), one past it lands in the next."""
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.1)    # == first bound -> bucket 0
        h.observe(0.1001)  # just past -> bucket 1
        h.observe(1.0)    # == second bound -> bucket 1
        h.observe(10.0)   # == last bound -> bucket 2
        h.observe(11.0)   # beyond all bounds -> +Inf slot
        snap = reg.snapshot()
        state = snap.value("lat_seconds")
        assert state["counts"] == [1, 2, 1, 1]
        assert state["count"] == 5
        assert state["sum"] == pytest.approx(0.1 + 0.1001 + 1.0 + 10.0 + 11.0)

    def test_unsorted_buckets_are_sorted(self, reg):
        h = reg.histogram("h", buckets=(1.0, 0.1, 10.0))
        assert h.buckets == (0.1, 1.0, 10.0)

    def test_duplicate_buckets_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(0.1, 0.1))

    def test_empty_buckets_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())


class TestCallbacks:
    def test_scalar_callback(self, reg):
        state = {"n": 0}
        reg.counter("cb_total", callback=lambda: state["n"])
        state["n"] = 42
        assert reg.snapshot().value("cb_total") == 42

    def test_labelled_callback_dict(self, reg):
        reg.counter(
            "verdicts_total",
            "",
            ("verdict",),
            callback=lambda: {("pass",): 7, ("fail",): 1},
        )
        snap = reg.snapshot()
        assert snap.value("verdicts_total", ("pass",)) == 7
        assert snap.total("verdicts_total") == 8

    def test_callback_instrument_cannot_be_set(self, reg):
        c = reg.counter("cb_total", callback=lambda: 1)
        with pytest.raises(ValueError):
            c.inc()

    def test_reregistration_rebinds_callback(self, reg):
        """Latest owner wins: a daemon attaching to an instrumented server
        replaces the server's callback with its merged view."""
        reg.counter("owned_total", callback=lambda: 1)
        reg.counter("owned_total", callback=lambda: 99)
        assert reg.snapshot().value("owned_total") == 99

    def test_kind_mismatch_rejected(self, reg):
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labelnames_mismatch_rejected(self, reg):
        reg.counter("x_total", "", ("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "", ("b",))


class TestConcurrency:
    def test_concurrent_thread_increments_are_exact(self, reg):
        """Satellite 3: no lost updates under contention."""
        c = reg.counter("hot_total", "", ("worker",))
        threads = 8
        per_thread = 5_000

        def hammer(tid: int) -> None:
            child = c.labels(str(tid % 2))
            for _ in range(per_thread):
                child.inc()

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.snapshot().total("hot_total") == threads * per_thread


class TestRegistry:
    def test_names_in_registration_order(self, reg):
        reg.counter("a_total")
        reg.gauge("b")
        reg.histogram("c_seconds")
        assert reg.names() == ["a_total", "b", "c_seconds"]

    def test_default_buckets_sorted_unique(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
