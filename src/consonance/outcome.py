"""Outcome spaces and events.

Two kinds of space are supported: a finite set of labels, and a uniform grid
of reals standing in for a continuous outcome.  Events are index subsets of a
finite space (grid points count as a finite space of size ``num_points`` for
event purposes).  Exhaustive event enumeration is capped at K = 20 outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from operator import lt
from typing import Iterator

from ._num import json_list, to_float
from .errors import SpaceTooLarge, UnknownLabel

#: hard cap on exhaustive 2^K enumeration
MAX_ENUM = 20


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

    @property
    def size(self) -> int:
        return self.num_points

    def point(self, i: int) -> float:
        if not 0 <= i < self.num_points:
            raise IndexError(i)
        return self.lo + i * (self.hi - self.lo) / (self.num_points - 1)

    def points(self) -> tuple[float, ...]:
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


@dataclass(frozen=True)
class Event:
    """Subset of a size-``space_size`` outcome space, as sorted indices."""

    indices: tuple[int, ...]
    space_size: int

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not all(map(lt, idx, idx[1:])):
            raise ValueError("event indices must be strictly increasing")
        # increasing indices lie in range when both ends do
        if idx and not (0 <= idx[0] and idx[-1] < self.space_size):
            raise ValueError("event index out of range")

    @classmethod
    def from_indices(cls, indices, space_size: int) -> "Event":
        return cls(tuple(sorted(set(indices))), space_size)

    @classmethod
    def from_mask(cls, mask: int, space_size: int) -> "Event":
        idx = tuple(i for i in range(space_size) if mask >> i & 1)
        return cls(idx, space_size)

    @classmethod
    def from_labels(cls, space: FiniteOutcomeSpace, labels) -> "Event":
        return cls.from_indices((space.index(l) for l in labels), space.size)

    @classmethod
    def empty(cls, space_size: int) -> "Event":
        return cls((), space_size)

    @classmethod
    def full(cls, space_size: int) -> "Event":
        return cls(tuple(range(space_size)), space_size)

    @property
    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def issubset(self, other: "Event") -> bool:
        return set(self.indices) <= set(other.indices)

    def union(self, other: "Event") -> "Event":
        return Event.from_indices(self.indices + other.indices, self.space_size)

    def intersection(self, other: "Event") -> "Event":
        common = set(self.indices) & set(other.indices)
        return Event.from_indices(common, self.space_size)

    def to_labels(self, space: FiniteOutcomeSpace) -> list:
        return [space.labels[i] for i in self.indices]


def complement(event: Event) -> Event:
    """Set complement within the event's space."""
    present = set(event.indices)
    rest = tuple(i for i in range(event.space_size) if i not in present)
    return Event(rest, event.space_size)


def enumerate_events(space: OutcomeSpace) -> Iterator[Event]:
    """All 2^K events in bitmask order (empty set first, full set last)."""
    k = space.size
    if k > MAX_ENUM:
        raise SpaceTooLarge(f"2^{k} events exceed the enumeration budget")
    for mask in range(1 << k):
        yield Event.from_mask(mask, k)
