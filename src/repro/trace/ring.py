"""A fixed-capacity ring buffer for trace events.

The tracer's statistics and histograms never saturate, but keeping every
raw event of a long benchmark would grow without bound — so raw events
go through a classic overwrite-oldest ring, exactly like the kernel's
own ftrace buffer.  ``dropped`` reports how many events were evicted,
so consumers can tell a complete trace from a windowed one.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["RingBuffer"]


class RingBuffer:
    """Overwrite-oldest bounded buffer with O(1) append."""

    def __init__(self, capacity=65536):
        if capacity < 1:
            raise ReproError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items = []
        self._start = 0
        self.total = 0

    def append(self, item):
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
        self.total += 1

    @property
    def dropped(self):
        """Events evicted to make room (0 while under capacity)."""
        return self.total - len(self._items)

    def clear(self):
        self._items.clear()
        self._start = 0
        self.total = 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        """Oldest-to-newest iteration over the retained window."""
        items, start = self._items, self._start
        for index in range(len(items)):
            yield items[(start + index) % len(items)]

    def snapshot(self):
        """The retained events as a list, oldest first."""
        return list(self)
