"""Busy-interval bookkeeping.

Both simulators avoid doing per-cycle accounting work for resources that are
busy for long stretches (a vector unit processing 128 elements, a memory
port streaming a vector load).  Instead each resource records half-open
``[start, end)`` busy intervals, and the analysis code derives per-cycle
statistics (state breakdowns, idle percentages) from the merged intervals.

Stored trackers use a compact canonical form.  :meth:`BusyTracker.to_pairs`
always emits the merged intervals, so flattened they are one strictly
increasing sequence ``s0 < e0 < s1 < e1 < ...`` starting at 0 or later.
:meth:`BusyTracker.from_pairs` recognises that shape in one C-level pass and
keeps it as a flat ``array("q")``: ``Interval`` tuples are built only when
something reads the tracker's interval list (the simulators' append paths,
iteration, :meth:`~BusyTracker.add`).  ``to_pairs``, ``copy``, ``len``,
``merged``, ``busy_cycles`` and :func:`state_breakdown` answer from the flat
array directly.  Any other input is replayed through ``add``, which rejects
``end < start``.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import chain, repeat
from operator import lt
from typing import Iterable, Iterator, NamedTuple, Sequence


class Interval(NamedTuple):
    """A half-open interval of cycles ``[start, end)``.

    A ``NamedTuple`` rather than a dataclass: the simulators construct
    intervals on resource-reservation hot paths, and tuple construction is an
    order of magnitude cheaper than a frozen dataclass.  Callers that accept
    untrusted endpoints (:meth:`BusyTracker.add`) validate before building.
    """

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the two half-open intervals share any cycle."""
        return self.start < other.end and other.start < self.end

    def contains(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or adjacent intervals into a sorted, disjoint list."""
    merged: list[Interval] = []
    # plain tuple order is (start, end) order
    for iv in sorted(intervals):
        start, end = iv
        if start == end:
            continue
        if merged and start <= merged[-1][1]:
            last = merged[-1]
            if end > last[1]:
                merged[-1] = Interval(last[0], end)
        else:
            merged.append(iv)
    return merged


def total_busy(intervals: Iterable[Interval]) -> int:
    """Total number of cycles covered by the (possibly overlapping) intervals."""
    return sum(iv.length for iv in merge_intervals(intervals))


class BusyTracker:
    """Records busy intervals for one resource.

    The tracker accepts intervals in any order and offers cheap queries for
    the total busy time and for merged interval lists.  Appending an interval
    that extends the most recently appended one is the common fast path for
    the simulators (resources tend to be reserved in roughly increasing
    time order).  A tracker decoded by :meth:`from_pairs` starts in the
    compact canonical form described in the module docstring.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._list: list[Interval] = []
        #: flat canonical boundaries ``s0, e0, s1, e1, ...`` of a decoded
        #: tracker whose ``Interval`` list is not built yet (else ``None``);
        #: never mutated in place, so copies may share it
        self._flat: array[int] | None = None

    @property
    def _intervals(self) -> list[Interval]:
        """The recorded intervals, built from the compact form on first use.

        The batched steppers append to this list directly.
        """
        if self._flat is not None:
            self._list = _interval_list(self._flat)
            self._flat = None
        return self._list

    def add(self, start: int, end: int) -> None:
        """Record that the resource is busy during ``[start, end)``."""
        if end < start:
            raise ValueError(f"busy interval end {end} precedes start {start}")
        if end == start:
            return
        intervals = self._intervals
        if intervals and intervals[-1].end >= start >= intervals[-1].start:
            last = intervals[-1]
            if end > last.end:
                intervals[-1] = Interval(last.start, end)
            return
        intervals.append(Interval(start, end))

    def merged(self) -> list[Interval]:
        """Return the busy intervals merged into a sorted, disjoint list."""
        if self._flat is not None:
            return _interval_list(self._flat)
        return merge_intervals(self._list)

    def _boundaries(self) -> Sequence[int]:
        """The merged intervals flattened: ``s0 < e0 < s1 < e1 < ...``."""
        if self._flat is not None:
            return self._flat
        return list(chain.from_iterable(merge_intervals(self._list)))

    def busy_cycles(self) -> int:
        """Total number of distinct cycles during which the resource was busy."""
        flat = self._flat
        if flat is not None:
            return sum(flat[1::2]) - sum(flat[::2])
        return total_busy(self._list)

    def busy_at(self, cycle: int) -> bool:
        """Return True when the resource is busy during ``cycle``."""
        return any(iv.contains(cycle) for iv in self._intervals)

    def last_end(self) -> int:
        """Return the end of the latest busy interval (0 when never busy)."""
        return max((iv.end for iv in self._intervals), default=0)

    def copy(self) -> "BusyTracker":
        """Return an independent tracker sharing the (immutable) intervals.

        ``Interval`` is frozen and the compact form is never mutated in
        place, so sharing it or a shallow copy of the list fully isolates
        the two trackers — orders of magnitude cheaper than ``deepcopy``.
        """
        tracker = BusyTracker(self.name)
        if self._flat is not None:
            tracker._flat = self._flat
        else:
            tracker._list = list(self._list)
        return tracker

    def to_pairs(self) -> list[list[int]]:
        """Serialise the busy intervals as merged ``[start, end]`` pairs."""
        if self._flat is not None:
            it = iter(self._flat)
            return list(map(list, zip(it, it)))
        return list(map(list, merge_intervals(self._list)))

    @classmethod
    def from_pairs(cls, name: str, pairs: Iterable[Sequence[int]]) -> "BusyTracker":
        """Rebuild a tracker from :meth:`to_pairs` output.

        Canonical pairs are kept in the compact form; anything else goes
        through :meth:`add` (so ``end < start`` raises ``ValueError``).
        """
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        tracker = cls(name)
        flat = _canonical_flat(pairs)
        if flat is not None:
            tracker._flat = flat
            return tracker
        for start, end in pairs:
            tracker.add(int(start), int(end))
        return tracker

    def __len__(self) -> int:
        if self._flat is not None:
            return len(self._flat) // 2
        return len(self._list)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)


def _interval_list(flat: Sequence[int]) -> list[Interval]:
    it = iter(flat)
    return list(map(Interval, it, it))


def _canonical_flat(pairs: Sequence[Sequence[int]]) -> array[int] | None:
    """``pairs`` flattened when they are ``[start, end]`` int pairs forming
    one strictly increasing sequence from 0 or later, else ``None``."""
    try:
        if not all(map((2).__eq__, map(len, pairs))):
            return None
        flat = array("q", chain.from_iterable(pairs))
    except (TypeError, ValueError, OverflowError):
        return None
    if flat and (flat[0] < 0 or not all(map(lt, flat, flat[1:]))):
        return None
    return flat


def state_breakdown(
    trackers: Sequence[BusyTracker], total_cycles: int
) -> dict[tuple[bool, ...], int]:
    """Compute, for every combination of busy/idle resources, the cycle count.

    This is the computation behind Figures 3 and 7 of the paper: the machine
    state is a tuple describing which of the vector units (FU2, FU1, MEM) are
    busy, and the breakdown reports how many cycles were spent in each of the
    ``2**len(trackers)`` states over ``[0, total_cycles)``.
    """
    if total_cycles < 0:
        raise ValueError("total_cycles must be non-negative")
    # One sweep over every tracker's merged boundaries in time order; each
    # boundary toggles that tracker's bit, and the time since the previous
    # boundary is credited to the state before the toggle.
    events = heapq.merge(*(
        zip(tracker._boundaries(), repeat(1 << index))
        for index, tracker in enumerate(trackers)
    ))
    by_mask: dict[int, int] = {}
    mask = left = 0
    for time, bit in events:
        if time >= total_cycles:
            break
        if time > left:
            by_mask[mask] = by_mask.get(mask, 0) + time - left
            left = time
        mask ^= bit
    if total_cycles > left:
        by_mask[mask] = by_mask.get(mask, 0) + total_cycles - left
    width = range(len(trackers))
    return {
        tuple(bool(mask >> index & 1) for index in width): cycles
        for mask, cycles in by_mask.items()
    }
