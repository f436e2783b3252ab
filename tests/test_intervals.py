"""Unit and property tests for interval bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import (
    BusyTracker,
    Interval,
    merge_intervals,
    state_breakdown,
    total_busy,
)


class TestInterval:
    def test_length(self):
        assert Interval(3, 10).length == 7

    def test_invalid_order_rejected_at_tracker(self):
        # Interval itself is an unvalidated NamedTuple (hot-path construction);
        # the boundary that accepts untrusted endpoints is BusyTracker.add.
        with pytest.raises(ValueError):
            BusyTracker("fu").add(5, 2)

    def test_overlap(self):
        assert Interval(0, 10).overlaps(Interval(9, 12))
        assert not Interval(0, 10).overlaps(Interval(10, 12))

    def test_contains_is_half_open(self):
        iv = Interval(5, 8)
        assert iv.contains(5) and iv.contains(7)
        assert not iv.contains(8)


class TestMerge:
    def test_merge_disjoint(self):
        merged = merge_intervals([Interval(0, 2), Interval(5, 7)])
        assert merged == [Interval(0, 2), Interval(5, 7)]

    def test_merge_overlapping(self):
        merged = merge_intervals([Interval(0, 5), Interval(3, 9)])
        assert merged == [Interval(0, 9)]

    def test_merge_adjacent(self):
        merged = merge_intervals([Interval(0, 5), Interval(5, 9)])
        assert merged == [Interval(0, 9)]

    def test_zero_length_dropped(self):
        assert merge_intervals([Interval(4, 4)]) == []

    def test_total_busy_counts_overlap_once(self):
        assert total_busy([Interval(0, 10), Interval(5, 15)]) == 15

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 50)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_merge_properties(self, raw):
        intervals = [Interval(start, start + length) for start, length in raw]
        merged = merge_intervals(intervals)
        # merged intervals are sorted, disjoint and non-empty
        for earlier, later in zip(merged, merged[1:], strict=False):
            assert earlier.end < later.start
        assert all(iv.length > 0 for iv in merged)
        # coverage is preserved
        covered = set()
        for iv in intervals:
            covered.update(range(iv.start, iv.end))
        merged_covered = set()
        for iv in merged:
            merged_covered.update(range(iv.start, iv.end))
        assert covered == merged_covered


class TestBusyTracker:
    def test_busy_cycles(self):
        tracker = BusyTracker("fu")
        tracker.add(0, 10)
        tracker.add(20, 25)
        assert tracker.busy_cycles() == 15

    def test_extending_last_interval(self):
        tracker = BusyTracker()
        tracker.add(0, 10)
        tracker.add(5, 15)
        assert tracker.busy_cycles() == 15

    def test_zero_length_ignored(self):
        tracker = BusyTracker()
        tracker.add(5, 5)
        assert tracker.busy_cycles() == 0
        assert len(tracker) == 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().add(10, 4)

    def test_busy_at(self):
        tracker = BusyTracker()
        tracker.add(3, 6)
        assert tracker.busy_at(3) and tracker.busy_at(5)
        assert not tracker.busy_at(6)

    def test_last_end(self):
        tracker = BusyTracker()
        assert tracker.last_end() == 0
        tracker.add(2, 9)
        assert tracker.last_end() == 9

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_busy_cycles_matches_set_cover(self, raw):
        tracker = BusyTracker()
        covered = set()
        for start, length in raw:
            tracker.add(start, start + length)
            covered.update(range(start, start + length))
        assert tracker.busy_cycles() == len(covered)


class TestStateBreakdown:
    def test_two_resources(self):
        a = BusyTracker("a")
        b = BusyTracker("b")
        a.add(0, 10)
        b.add(5, 15)
        counts = state_breakdown([a, b], 20)
        assert counts[(True, False)] == 5    # a only: cycles 0-5
        assert counts[(True, True)] == 5     # both: 5-10
        assert counts[(False, True)] == 5    # b only: 10-15
        assert counts[(False, False)] == 5   # idle: 15-20
        assert sum(counts.values()) == 20

    def test_total_always_matches_cycles(self):
        a = BusyTracker()
        a.add(3, 7)
        counts = state_breakdown([a], 50)
        assert sum(counts.values()) == 50

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            state_breakdown([BusyTracker()], -1)

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 100), st.integers(1, 20)), max_size=15),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 150),
    )
    @settings(max_examples=50, deadline=None)
    def test_breakdown_partitions_time(self, resources, total):
        trackers = []
        for spec in resources:
            tracker = BusyTracker()
            for start, length in spec:
                tracker.add(start, start + length)
            trackers.append(tracker)
        counts = state_breakdown(trackers, total)
        assert sum(counts.values()) == total
        # per-cycle brute force: same counts, keys in first-occurrence order
        oracle: dict = {}
        for cycle in range(total):
            key = tuple(tracker.busy_at(cycle) for tracker in trackers)
            oracle[key] = oracle.get(key, 0) + 1
        assert list(counts.items()) == list(oracle.items())

    def test_breakdown_reads_compact_trackers(self):
        compact = BusyTracker.from_pairs("a", [[2, 5], [8, 12]])
        built = BusyTracker("b")
        built.add(4, 9)
        counts = state_breakdown([compact, built], 14)
        assert list(counts.items()) == [
            ((False, False), 4), ((True, False), 5), ((True, True), 2), ((False, True), 3),
        ]

    def test_zero_total_is_empty(self):
        tracker = BusyTracker()
        tracker.add(0, 4)
        assert state_breakdown([tracker], 0) == {}


def _add_loop(pairs):
    """The pre-compact ``from_pairs``: every pair through ``add``."""
    tracker = BusyTracker("t")
    for start, end in pairs:
        tracker.add(int(start), int(end))
    return tracker


def _outcome(build, pairs):
    try:
        tracker = build(pairs)
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))
    return (tracker.to_pairs(), tracker.merged(), tracker.busy_cycles(), len(tracker))


@st.composite
def _canonical_pairs(draw):
    bounds = sorted(draw(st.sets(st.integers(0, 10**6), max_size=40)))
    if len(bounds) % 2:
        bounds = bounds[:-1]
    return [[bounds[i], bounds[i + 1]] for i in range(0, len(bounds), 2)]


_endpoints = st.one_of(
    st.integers(-50, 300),
    st.integers(2**62, 2**70),  # beyond a 64-bit array
    st.floats(width=32),
    st.booleans(),
)
_pairs = st.one_of(
    st.lists(_endpoints, min_size=2, max_size=2),
    st.tuples(_endpoints, _endpoints),
    st.lists(st.integers(0, 300), max_size=3),  # wrong arity included
)


class TestFromPairs:
    @given(st.one_of(_canonical_pairs(), st.lists(_pairs, max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_matches_add_loop(self, pairs):
        assert _outcome(lambda p: BusyTracker.from_pairs("t", p), pairs) == _outcome(
            _add_loop, pairs)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_to_pairs_round_trips_through_the_compact_form(self, raw):
        tracker = BusyTracker("fu")
        for start, length in raw:
            tracker.add(start, start + length)
        decoded = BusyTracker.from_pairs("fu", tracker.to_pairs())
        assert decoded._flat is not None  # canonical: no Interval tuples built
        assert decoded.to_pairs() == tracker.to_pairs()
        assert decoded.merged() == tracker.merged()
        assert decoded.busy_cycles() == tracker.busy_cycles()
        assert len(decoded) == len(tracker.merged())

    def test_end_before_start_still_raises(self):
        with pytest.raises(ValueError):
            BusyTracker.from_pairs("fu", [[0, 4], [9, 6]])

    def test_compact_tracker_thaws_on_write(self):
        tracker = BusyTracker.from_pairs("fu", [[0, 4], [6, 9]])
        twin = tracker.copy()
        tracker.add(9, 12)  # extends the last interval
        assert tracker.to_pairs() == [[0, 4], [6, 12]]
        assert twin.to_pairs() == [[0, 4], [6, 9]]
        twin._intervals.append(Interval(20, 25))  # the batched steppers' access
        assert twin.busy_cycles() == 12
        assert len(twin) == 3
        assert list(twin) == [Interval(0, 4), Interval(6, 9), Interval(20, 25)]
        assert twin.last_end() == 25 and twin.busy_at(21) and not twin.busy_at(5)
