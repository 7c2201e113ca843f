"""Ground-set subsets, set families, and exact bound arithmetic.

Everything downstream trades in subsets of [n] = {1, ..., n}.  A subset is a
single machine word (n <= 63, element e is bit e-1), a family is a sorted
tuple of distinct subsets, and the two bound formulas

    bound_main(n, k)       = C(n-1, 0) + ... + C(n-1, k-1) + 1
    bound_refined(n, k, t) = 2^(t-1) * (C(n-t, 0) + ... + C(n-t, k-t) + 1)

are evaluated in unbounded integer arithmetic.  Nothing in this module ever
rounds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "MAX_GROUND",
    "MAX_BINOMIAL_N",
    "FileFormatError",
    "Subset",
    "SetFamily",
    "binomial",
    "bound_main",
    "bound_refined",
    "bound_gap",
    "family_is_intersecting",
    "masks_by_size",
    "submasks",
]

# Largest ground set whose subsets fit a 64-bit word with room to spare.
MAX_GROUND = 63
# binomial() guards its first argument so bound formulas stay in range.
MAX_BINOMIAL_N = 64


class FileFormatError(ValueError):
    """Malformed input text for a sequence, graph, or family file."""


@dataclass(frozen=True, order=True, slots=True)
class Subset:
    """A subset of [n] stored as a bitmask; element e occupies bit e-1.

    Ordering compares mask values first, so any collection of subsets over a
    common ground set sorts the same way on every run.  Rendering is 1-based
    and sorted: ``str(Subset.of([3, 1], 4)) == "{1,3}"``.  Slotted: a dump
    builds 2^17 of them, and per-instance dicts made the listing's memory
    creep over repeated calls.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND}, got {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside ground set of size {self.n}")

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(0, n)

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> "Subset":
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside ground set 1..{n}")
            mask |= 1 << (e - 1)
        return cls(mask, n)

    @classmethod
    def parse(cls, text: str, n: int) -> "Subset":
        """Parse ``{1,3,4}`` (whitespace tolerated); inverse of ``str``."""
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise FileFormatError(f"subset must be brace-delimited, got {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return cls.empty(n)
        try:
            elements = [int(part) for part in inner.split(",")]
        except ValueError as exc:
            raise FileFormatError(f"bad subset element in {text!r}") from exc
        try:
            return cls.of(elements, n)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.mask >> (element - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def complement(self) -> "Subset":
        return Subset(self.mask ^ ((1 << self.n) - 1), self.n)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets over one ground set.

    Members are kept sorted by mask, so equality, iteration order, and
    rendering are canonical.  Membership tests bisect the mask list.
    """

    ground_n: int
    members: tuple[Subset, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.ground_n <= MAX_GROUND:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND}")
        prev = -1
        for s in self.members:
            if s.n != self.ground_n:
                raise ValueError(f"member {s} has ground set {s.n}, family has {self.ground_n}")
            if s.mask == prev:
                raise ValueError(f"duplicate member {s}")
            if s.mask < prev:
                raise ValueError("members must be sorted by mask; use SetFamily.of")
            prev = s.mask
        object.__setattr__(self, "_masks", tuple(s.mask for s in self.members))

    @classmethod
    def of(cls, ground_n: int, subsets: Iterable[Subset]) -> "SetFamily":
        ordered = sorted(subsets, key=lambda s: s.mask)
        return cls(ground_n, tuple(ordered))

    @classmethod
    def from_masks(cls, ground_n: int, masks: Iterable[int]) -> "SetFamily":
        return cls(ground_n, tuple(Subset(m, ground_n) for m in sorted(masks)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def __contains__(self, subset: Subset) -> bool:
        return subset.n == self.ground_n and self.contains_mask(subset.mask)

    def contains_mask(self, mask: int) -> bool:
        masks: tuple[int, ...] = self._masks  # type: ignore[attr-defined]
        i = bisect_left(masks, mask)
        return i < len(masks) and masks[i] == mask

    def masks(self) -> tuple[int, ...]:
        return self._masks  # type: ignore[attr-defined]

    def render(self) -> str:
        return "\n".join(str(s) for s in self.members)

    @classmethod
    def parse(cls, text: str, ground_n: int) -> "SetFamily":
        """Parse one subset per line; blank lines and ``#`` comments skipped."""
        subsets = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                subsets.append(Subset.parse(line, ground_n))
            except FileFormatError as exc:
                raise FileFormatError(f"line {lineno}: {exc}") from exc
        try:
            return cls.of(ground_n, subsets)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, k) = 0 outside 0 <= k <= n; rejects n outside 0..64."""
    if not 0 <= n <= MAX_BINOMIAL_N:
        raise ValueError(f"binomial first argument must be in 0..{MAX_BINOMIAL_N}, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_bound_range(n: int, k: int) -> None:
    if n < 1 or n > MAX_BINOMIAL_N:
        raise ValueError(f"n must be in 1..{MAX_BINOMIAL_N}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..n={n}, got {k}")


def bound_main(n: int, k: int) -> int:
    """Largest possible number of nonnegative subset sums: sum C(n-1, i) for i < k, plus 1."""
    _check_bound_range(n, k)
    return sum(binomial(n - 1, i) for i in range(k)) + 1


def _refined_value(n: int, k: int, t: int) -> int:
    return (1 << (t - 1)) * (sum(binomial(n - t, i) for i in range(k - t + 1)) + 1)


def bound_refined(n: int, k: int, t: int) -> int:
    """Refinement of bound_main when exactly t of the numbers are nonnegative.

    Requires 1 <= t <= k < n.  At t = 1 this collapses to bound_main(n, k).
    """
    _check_bound_range(n, k)
    if k >= n:
        raise ValueError(f"refined bound needs k < n, got k={k}, n={n}")
    if not 1 <= t <= k:
        raise ValueError(f"t must be in 1..k={k}, got {t}")
    return _refined_value(n, k, t)


def bound_gap(n: int, k: int, t: int) -> int:
    """Drop of the refined bound between t and t+1: 2^(t-1) * (C(n-t-1, k-t) - 1).

    Accepts 1 <= t < t+1 <= k <= n.  The value is nonnegative for k <= n-1,
    zero exactly when k = n-1; the k = n corner is admitted for completeness
    and is the one place the difference goes negative.
    """
    _check_bound_range(n, k)
    if not 1 <= t <= k - 1:
        raise ValueError(f"t must be in 1..k-1={k - 1}, got {t}")
    gap = _refined_value(n, k, t) - _refined_value(n, k, t + 1)
    closed = (1 << (t - 1)) * (binomial(n - t - 1, k - t) - 1)
    if gap != closed:
        raise RuntimeError(f"bound gap identity failed at n={n} k={k} t={t}: {gap} != {closed}")
    return gap


def family_is_intersecting(family: SetFamily) -> bool:
    """True when every pair of distinct members meets; vacuous for < 2 members."""
    members = family.members
    for i in range(len(members)):
        mi = members[i].mask
        for j in range(i + 1, len(members)):
            if not mi & members[j].mask:
                return False
    return True


def masks_by_size(n: int, lo: int, hi: int) -> list[int]:
    """All masks over [n] with lo <= popcount <= hi, ascending by mask value."""
    if n < 0 or n > MAX_GROUND:
        raise ValueError(f"n must be in 0..{MAX_GROUND}")
    return [m for m in range(1 << n) if lo <= m.bit_count() <= hi]


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask``, descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
