"""Outcome spaces and events.

Two kinds of space are supported: a finite set of labels, and a uniform grid
of reals standing in for a continuous outcome.  Events are subsets of a
finite space (grid points count as a finite space of size ``num_points`` for
event purposes), held as bitmasks: union, intersection and complement are
``|``, ``&`` and ``^``, and the sorted index tuple is built only when read.
Exhaustive event enumeration is capped at K = 20 outcomes, a grid at 2**20 points;
up to K = 12 it yields one shared tuple of events per K.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from math import isfinite
from typing import Iterator

from ._num import json_list, to_float
from .errors import SpaceTooLarge, UnknownLabel

#: hard cap on exhaustive 2^K enumeration
MAX_ENUM = 20

#: cap on the points a grid materializes (about 32 MB of floats at the cap);
#: a larger grid would hang a transduction or exhaust memory, not fail at once
MAX_GRID_POINTS = 2**20

_set = object.__setattr__  # fills the slots of a frozen Event


@dataclass(frozen=True)
class FiniteOutcomeSpace:
    """Ordered collection of distinct labels."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) == 0:
            raise ValueError("outcome space must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in space") from None

    def to_json(self) -> dict:
        return {"labels": list(self.labels)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteOutcomeSpace":
        return cls(labels_from_json(obj["labels"]))


@dataclass(frozen=True)
class GridOutcomeSpace:
    """Uniform grid lo + i*(hi-lo)/(num_points-1), i = 0..num_points-1."""

    lo: float
    hi: float
    num_points: int

    def __post_init__(self):
        if not (isfinite(self.lo) and isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("need finite lo < hi")
        if self.num_points < 2:
            raise ValueError("need at least two grid points")
        if self.num_points > 2**53:  # past 2**53 the indices are no longer exact floats
            raise ValueError("num_points must be at most 2**53")

    @property
    def size(self) -> int:
        return self.num_points

    def point(self, i: int) -> float:
        if not 0 <= i < self.num_points:
            raise IndexError(i)
        return self.lo + i * (self.hi - self.lo) / (self.num_points - 1)

    def points(self) -> tuple[float, ...]:
        if (n := self.num_points) > MAX_GRID_POINTS:
            raise SpaceTooLarge(f"{n} grid points exceed the budget of {MAX_GRID_POINTS}")
        return tuple(self.point(i) for i in range(self.num_points))

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / (self.num_points - 1)

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "num_points": self.num_points}

    @classmethod
    def from_json(cls, obj: dict) -> "GridOutcomeSpace":
        if not isinstance(obj, dict):
            raise ValueError("a grid must be a JSON object")
        n = obj["num_points"]
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("num_points must be a whole number")
        return cls(to_float(obj["lo"], "lo"), to_float(obj["hi"], "hi"), n)


OutcomeSpace = FiniteOutcomeSpace | GridOutcomeSpace


def labels_from_json(value) -> tuple:
    return json_list(value, "labels", (str, int, float))


def space_from_json(obj: dict) -> OutcomeSpace:
    if not isinstance(obj, dict):
        raise ValueError("an outcome space must be a JSON object")
    if "labels" in obj:
        return FiniteOutcomeSpace.from_json(obj)
    if "grid" in obj:  # grid nested under its own key, as in contour files
        return GridOutcomeSpace.from_json(obj["grid"])
    if "lo" in obj:
        return GridOutcomeSpace.from_json(obj)
    raise ValueError("not an outcome space: expected 'labels' or 'lo'/'hi'")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Event:
    """Subset of a size-``space_size`` outcome space, held as a bitmask.

    Bit ``i`` of ``mask`` is set when outcome ``i`` is in the event, so set
    operations are bit operations.  ``indices``, the sorted members, is
    built on first access; equality goes by ``(mask, space_size)``.
    """

    mask: int
    space_size: int
    _indices: tuple | None = field(compare=False)

    def __init__(self, indices, space_size: int):
        idx = tuple(map(operator.index, indices))
        mask, top = 0, -1
        for i in idx:  # validate and build the mask in one pass
            if not top < i < space_size:
                raise ValueError("event indices must be strictly increasing, in range(space_size)")
            mask, top = mask | 1 << i, i
        _set(self, "mask", mask)
        _set(self, "space_size", space_size)
        _set(self, "_indices", idx)

    @classmethod
    def from_indices(cls, indices, space_size: int) -> "Event":
        return cls(sorted(set(indices)), space_size)

    @classmethod
    def from_mask(cls, mask: int, space_size: int) -> "Event":
        mask = operator.index(mask)
        if not 0 <= mask < 1 << space_size:
            raise ValueError(f"mask {mask} does not fit a space of {space_size} outcomes")
        ev = object.__new__(cls)
        _set(ev, "mask", mask)
        _set(ev, "space_size", space_size)
        _set(ev, "_indices", None)
        return ev

    @classmethod
    def from_labels(cls, space: FiniteOutcomeSpace, labels) -> "Event":
        return cls.from_indices((space.index(l) for l in labels), space.size)

    @classmethod
    def empty(cls, space_size: int) -> "Event":
        return cls.from_mask(0, space_size)

    @classmethod
    def full(cls, space_size: int) -> "Event":
        return cls.from_mask((1 << space_size) - 1, space_size)

    @property
    def indices(self) -> tuple[int, ...]:
        if self._indices is None:
            bits = bin(self.mask)[:1:-1]  # bit i at position i
            # from a list, at its final size: CPython resizes a tuple grown
            # from a generator, and each resize leaves one more block on its
            # tuple freelists, which only a full collection empties
            _set(self, "_indices", tuple([i for i, b in enumerate(bits) if b == "1"]))
        return self._indices

    def __repr__(self):
        return f"Event(indices={self.indices!r}, space_size={self.space_size!r})"

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i) -> bool:
        """Whether integer ``i`` (a Python or numpy int) is a member."""
        i = operator.index(i)
        return 0 <= i < self.space_size and self.mask >> i & 1 == 1

    def issubset(self, other: "Event") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "Event") -> "Event":
        return Event.from_mask(self.mask | other.mask, self.space_size)

    def intersection(self, other: "Event") -> "Event":
        return Event.from_mask(self.mask & other.mask, self.space_size)

    def to_labels(self, space: FiniteOutcomeSpace) -> list:
        return [space.labels[i] for i in self.indices]


def complement(event: Event) -> Event:
    """Set complement within the event's space."""
    n = event.space_size
    return Event.from_mask(event.mask ^ ((1 << n) - 1), n)


def _build_events(masks: range, k: int) -> list[Event]:
    """The events of ``masks`` in a size-``k`` space, without
    :meth:`Event.from_mask`'s range check: C-level passes fill each slot
    through its own descriptor."""
    events = list(map(object.__new__, repeat(Event, len(masks))))
    deque(map(Event.mask.__set__, events, masks), 0)
    deque(map(Event.space_size.__set__, events, repeat(k)), 0)
    deque(map(Event._indices.__set__, events, repeat(None)), 0)
    return events


#: largest K whose 2^K events are built once and shared (8,191 events in all)
SHARED_MAX_K = 12

_shared: dict[int, tuple[Event, ...]] = {}


def enumerate_events(space: OutcomeSpace) -> Iterator[Event]:
    """All 2^K events in bitmask order (empty set first, full set last).

    A generator, which raises ``SpaceTooLarge`` past K = 20 on first use.
    For K <= ``SHARED_MAX_K`` it yields one tuple of events per K, built on
    first use and shared by every later call: an ``Event`` is frozen, and
    its one lazily written slot depends only on the mask.  A larger K
    builds fresh events, 4,096 at a time, so the whole lattice is never
    held at once.
    """
    k = space.size
    if k > MAX_ENUM:
        raise SpaceTooLarge(f"2^{k} events exceed the enumeration budget")
    if k <= SHARED_MAX_K:
        if (events := _shared.get(k)) is None:
            events = _shared[k] = tuple(_build_events(range(1 << k), k))
        yield from events
        return
    chunk = 1 << 12  # bounds the events held at once
    for start in range(0, 1 << k, chunk):
        yield from _build_events(range(start, min(start + chunk, 1 << k)), k)
