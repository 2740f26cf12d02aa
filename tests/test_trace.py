"""The dynamic-trace container (:class:`repro.sim.trace.DynTrace`):
``extend`` rollback on mismatched runs and ``static_counts`` instance
caching."""

from array import array

import pytest

from repro.sim.trace import DynTrace


class TestDynTraceExtend:
    def test_extend_appends_parallel_runs(self):
        trace = DynTrace()
        trace.extend([1, 2, 3], [-1, 64, -1])
        assert list(trace.indices) == [1, 2, 3]
        assert list(trace.addrs) == [-1, 64, -1]

    def test_extend_mismatch_rolls_back(self):
        trace = DynTrace()
        trace.extend([7], [128])
        with pytest.raises(ValueError):
            trace.extend([1, 2, 3], [-1, -1])
        # the failed call must not have corrupted the trace
        assert list(trace.indices) == [7]
        assert list(trace.addrs) == [128]
        trace.extend([9], [-1])
        assert list(trace.indices) == [7, 9]

    def test_extend_bad_addr_type_rolls_back(self):
        trace = DynTrace()
        with pytest.raises(TypeError):
            trace.extend([1, 2], ["x", "y"])
        assert len(trace) == 0


class TestStaticCountsCache:
    def test_counts_cached_on_instance(self):
        trace = DynTrace(indices=array("i", [0, 2, 2, 5]),
                         addrs=array("q", [-1] * 4))
        first = trace.static_counts(8)
        assert first == [1, 0, 2, 0, 0, 1, 0, 0]
        assert trace.static_counts(8) is first   # cached, not recomputed

    def test_cache_invalidated_by_growth_and_width(self):
        trace = DynTrace(indices=array("i", [0, 1]),
                         addrs=array("q", [-1, -1]))
        first = trace.static_counts(4)
        trace.append(3)
        second = trace.static_counts(4)
        assert second is not first
        assert second == [1, 1, 0, 1]
        assert trace.static_counts(6) == [1, 1, 0, 1, 0, 0]

    def test_cache_excluded_from_pickle(self):
        import pickle

        trace = DynTrace(indices=array("i", [0, 1]),
                         addrs=array("q", [-1, -1]))
        trace.static_counts(2)
        clone = pickle.loads(pickle.dumps(trace))
        assert not hasattr(clone, "_static_counts_cache")
