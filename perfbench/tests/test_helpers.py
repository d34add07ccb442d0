"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math
import threading

import numpy as np
import pytest

from perfbench import common, offline
from perfbench.spans import Span, Tracer, covered, self_times


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, 0)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        tree = [
            _span("job", 0.0, 10.0),
            _span("a", 1.0, 4.0, parent=0),
            _span("a.inner", 2.0, 3.0, parent=1),
            _span("b", 5.0, 9.0, parent=0),
        ]
        assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_their_union(self):
        tree = [
            _span("parent", 0.0, 10.0),
            _span("x", 1.0, 5.0, parent=0),
            _span("y", 3.0, 7.0, parent=0),  # overlaps x by 2s
            _span("z", 6.0, 8.0, parent=0),  # overlaps y by 1s
        ]
        assert self_times(tree)[0] == pytest.approx(10.0 - 7.0)

    def test_children_outside_the_parent_are_clipped(self):
        assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)

    def test_self_times_sum_to_the_root_duration(self):
        tree = [
            _span("root", 0.0, 6.0),
            _span("a", 0.5, 2.0, parent=0),
            _span("b", 2.0, 5.5, parent=0),
            _span("b1", 2.5, 3.0, parent=2),
        ]
        assert sum(self_times(tree)) == pytest.approx(6.0)


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        # p99.9 leaves 1 beyond, p99.5 leaves 5, p99 leaves exactly 10.
        assert common.tail(samples) == (99.0, 990)

    def test_small_samples_fall_down_the_ladder(self):
        samples = list(range(1, 41))  # 40 samples
        # p75 is the 30th value with 10 beyond; p80 would leave 8.
        assert common.tail(samples) == (75.0, 30)

    def test_too_few_samples_have_no_tail(self):
        assert common.tail(list(range(15))) is None
        assert common.tail([]) is None

    def test_failures_count_beyond_every_limit(self):
        ok = [0.01] * 990
        failed = [math.inf] * 10
        assert common.tail(ok + failed) == (99.0, 0.01)
        # With more failures than the tail can hide, the tail is the failure.
        assert common.tail(ok[:980] + [math.inf] * 20) == (99.0, math.inf)
        assert common.finite_ms(math.inf) == common.FAILED_LATENCY_MS


class _Base:
    def method(self, x):
        return ("base", x)


class _Target(_Base):
    def own(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls.__name__, x)

    @staticmethod
    def helper(x):
        return x * 2


def _class_state(cls):
    return dict(vars(cls))


class TestWrappers:
    def test_install_records_and_restore_leaves_classes_untouched(self):
        before = _class_state(_Target), _class_state(_Base)
        target = _Target()
        with Tracer() as tracer:
            tracer.wrap(_Target, "own", "own")
            tracer.wrap(_Target, "build", "build")
            tracer.wrap(_Target, "helper", "helper")
            tracer.wrap(_Target, "method", lambda args: type(args[0]).__name__)
            assert target.own(1) == 2
            assert _Target.build(3) == ("_Target", 3)
            assert target.helper(4) == 8
            assert target.method(5) == ("base", 5)
            assert "method" in vars(_Target)  # inherited: wrapped on the subclass
        assert [span.name for span in tracer.spans] == [
            "own", "build", "helper", "_Target",
        ]
        assert (_class_state(_Target), _class_state(_Base)) == before
        assert "method" not in vars(_Target)

    def test_restore_runs_when_the_traced_work_raises(self):
        before = _class_state(_Target)
        with pytest.raises(RuntimeError):
            with Tracer() as tracer:
                tracer.wrap(_Target, "own", "own")
                raise RuntimeError("boom")
        assert _class_state(_Target) == before

    def test_module_functions_are_restored(self):
        original = common.median
        with Tracer() as tracer:
            tracer.wrap(common, "median", "median")
            assert common.median([3, 1, 2]) == 2
        assert common.median is original
        assert tracer.spans[0].name == "median"

    def test_spans_nest_per_thread_and_share_a_request_id(self):
        tracer = Tracer()
        with tracer.span("request"):
            with tracer.span("handler"):
                pass
        seen = []

        def worker():
            with tracer.span("batch"):
                seen.append(True)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive() and seen
        request, handler, batch = tracer.spans
        assert handler.parent == 0 and handler.request == request.request == 0
        assert batch.parent is None and batch.request == 2


class TestSeeds:
    def test_same_seed_same_input_fingerprint(self):
        first = common.fingerprint(*offline.aligned_pair(7, 500))
        again = common.fingerprint(*offline.aligned_pair(7, 500))
        other = common.fingerprint(*offline.aligned_pair(8, 500))
        assert first == again
        assert first != other

    def test_fingerprint_sees_dtype_and_shape(self):
        values = np.arange(6, dtype=np.float64)
        assert common.fingerprint(values) != common.fingerprint(values.astype(np.float32))
        assert common.fingerprint(values) != common.fingerprint(values.reshape(2, 3))

