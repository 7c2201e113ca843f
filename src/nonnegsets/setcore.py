"""Ground-set subsets, set families, and exact bound arithmetic.

Everything downstream trades in subsets of [n] = {1, ..., n}.  A subset is a
single machine word (n <= 63, element e is bit e-1), a family is a sorted
tuple of distinct masks, rendered in bulk by ``render_masks`` and checked
for disjoint pairs and upward closure on the subset lattice (bitmaps over
all 2^n masks) when that costs less than a member-level scan, and the two
bound formulas

    bound_main(n, k)       = C(n-1, 0) + ... + C(n-1, k-1) + 1
    bound_refined(n, k, t) = 2^(t-1) * (C(n-t, 0) + ... + C(n-t, k-t) + 1)

are evaluated in unbounded integer arithmetic.  Nothing in this module ever
rounds.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "MAX_GROUND",
    "MAX_BINOMIAL_N",
    "MAX_LATTICE_N",
    "FileFormatError",
    "Subset",
    "SetFamily",
    "binomial",
    "bound_main",
    "bound_refined",
    "bound_gap",
    "family_is_intersecting",
    "first_cross_violation",
    "masks_by_size",
    "render_masks",
    "submasks",
    "upward_closed",
]

# Largest ground set whose subsets fit a 64-bit word with room to spare.
MAX_GROUND = 63
# binomial() guards its first argument so bound formulas stay in range.
MAX_BINOMIAL_N = 64
# Largest ground set checked on the subset lattice, in bitmaps of 2^n bits
# (2 MiB each at n = 24, and n of them hold the element patterns).
MAX_LATTICE_N = 24
# One member-level step of a Python scan (a pair test or a set lookup, about
# 70 ns) costs about as much as this many 64-bit words of lattice work; the
# timed crossover ranged from 6 to 24 words per step at 16 <= n <= 24, and
# below n = 16 both sides take well under a millisecond (see _lattice_pays).
_WORDS_PER_STEP = 16
# render_masks looks the low 10 bits of a mask up in a table of 1024 strings.
_LOW_BITS = 10
_LOW_MASK = (1 << _LOW_BITS) - 1


class FileFormatError(ValueError):
    """Malformed input text for a sequence, graph, or family file."""


@dataclass(frozen=True, order=True, slots=True)
class Subset:
    """A subset of [n] stored as a bitmask; element e occupies bit e-1.

    Ordering compares mask values first, so any collection of subsets over a
    common ground set sorts the same way on every run.  Rendering is 1-based
    and sorted: ``str(Subset.of([3, 1], 4)) == "{1,3}"``.  Families hold
    plain masks; a Subset is built only to parse, render or report one set.
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
    """A duplicate-free family of subsets over one ground set, as sorted masks.

    ``members`` is the ascending tuple of member masks, so equality,
    iteration order, and rendering are canonical.  Iteration yields masks,
    and ``mask in family`` bisects the tuple.  ``Subset`` objects are built
    only to parse or render single members.
    """

    ground_n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.ground_n
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND}")
        masks = self.members
        if masks and (masks[0] < 0 or masks[-1] >> n):
            bad = masks[0] if masks[0] < 0 else masks[-1]
            raise ValueError(f"mask {bad:#x} has bits outside ground set of size {n}")
        if not all(map(int.__lt__, masks, masks[1:])):
            for prev, mask in zip(masks, masks[1:]):
                if mask == prev:
                    raise ValueError(f"duplicate member {Subset(mask, n)}")
            raise ValueError("members must be sorted by mask; use SetFamily.from_masks")

    @classmethod
    def of(cls, ground_n: int, subsets: Iterable[Subset]) -> "SetFamily":
        masks = []
        for s in subsets:
            if s.n != ground_n:
                raise ValueError(f"member {s} has ground set {s.n}, family has {ground_n}")
            masks.append(s.mask)
        return cls.from_masks(ground_n, masks)

    @classmethod
    def from_masks(cls, ground_n: int, masks: Iterable[int]) -> "SetFamily":
        return cls(ground_n, tuple(sorted(masks)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        masks = self.members
        i = bisect_left(masks, mask)
        return i < len(masks) and masks[i] == mask

    def render(self) -> str:
        return "\n".join(render_masks(self.members))

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


@functools.cache
def _low_strings() -> tuple[list[str], list[str]]:
    """Open ("{1,3,") and closed ("{1,3}") text of every low part, built on first use."""
    texts = [_elements_text(low, 0) for low in range(1 << _LOW_BITS)]
    return ["{" + t + "," if t else "{" for t in texts], ["{" + t + "}" for t in texts]


def _elements_text(mask: int, offset: int) -> str:
    return ",".join(str(offset + i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


class _HighStrings(dict):
    """Closing text ("5,7}") of each high part, mask >> _LOW_BITS, made on first lookup."""

    def __missing__(self, high: int) -> str:
        text = self[high] = _elements_text(high, _LOW_BITS) + "}"
        return text


def render_masks(masks: Iterable[int]) -> list[str]:
    """``str(Subset(m, n))`` for every mask, in order, without building a Subset.

    A mask's low 10 bits index one of two cached tables, so a family over
    n <= 10 costs one lookup per member; the text of the rest of the mask
    is made once per distinct value in each call.
    """
    low_open, low_closed = _low_strings()
    high = _HighStrings()
    return [low_open[m & _LOW_MASK] + high[m >> _LOW_BITS] if m >> _LOW_BITS else low_closed[m] for m in masks]


def _lattice_bytes(n: int) -> int:
    return max(1 << n >> 3, 1)


def _element_patterns(n: int) -> list[int]:
    """Bitmaps over the 2^n masks of [n]: bit m of the b-th is set iff m has bit b."""
    nbytes = _lattice_bytes(n)
    full = (1 << (1 << n)) - 1
    patterns = []
    for b in range(n):
        if b < 3:
            unit = bytes(((0xAA, 0xCC, 0xF0)[b],))
        else:
            unit = bytes(1 << (b - 3)) + b"\xff" * (1 << (b - 3))
        patterns.append(int.from_bytes(unit * (nbytes // len(unit)), "little") & full)
    return patterns


def _mask_bitmap(masks: Iterable[int], n: int) -> int:
    """Bitmap over the 2^n masks of [n] with bit m set for every listed mask."""
    buf = bytearray(_lattice_bytes(n))
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def _up_closure(bitmap: int, patterns: list[int]) -> int:
    """Add every superset: one shift/AND/OR step per element (Yates' zeta transform)."""
    for b, pattern in enumerate(patterns):
        bitmap |= (bitmap << (1 << b)) & pattern
    return bitmap


def _lattice_pays(n: int, closures: int, steps: int) -> bool:
    """Whether ``closures`` up-closures over [n] cost less than ``steps`` member-level steps.

    A member-level step is one pair test or one set lookup in a Python
    loop; a closure is n shift/AND/OR steps on 2^n-bit integers, counted
    with one more for the element patterns and member bitmaps.  Ground sets
    above MAX_LATTICE_N always take the member-level scan.
    """
    return n <= MAX_LATTICE_N and steps * _WORDS_PER_STEP > (closures + 1) * n * (1 << n >> 6)


def _partner_after(masks: tuple[int, ...], i: int, need: list[int]) -> int | None:
    a = masks[i]
    want = need[a.bit_count()]
    for j in range(i + 1, len(masks)):
        b = masks[j]
        if not a & b and b.bit_count() >= want:
            return j
    return None


def _first_disjoint_pair(masks: tuple[int, ...], n: int, need: list[int]) -> tuple[int, int] | None:
    """First i < j with masks[i] & masks[j] == 0 and |masks[j]| >= need[|masks[i]|].

    ``masks`` ascend, and need[a] >= 1 for every member size a.  For a
    symmetric condition (need[a] = k - a + 1, a size sum above k) the
    first member A that has any such partner is the pair's first member,
    and on the subset lattice it is found without testing pairs: A has a
    partner exactly when its complement lies in the up-closure U_s of the
    members of size >= s = need[|A|].  A scan after A then finds the first
    partner.  Levels s run downwards, so each U_s is the closure of one
    growing member bitmap, and only one is alive at a time.  Sparse
    families, and ground sets above MAX_LATTICE_N, test every pair instead.
    """
    checks: dict[int, list[int]] = {}
    for m in masks:
        checks.setdefault(need[m.bit_count()], []).append(m)
    if not _lattice_pays(n, len(checks), len(masks) * (len(masks) - 1) // 2):
        for i in range(len(masks)):
            j = _partner_after(masks, i, need)
            if j is not None:
                return i, j
        return None
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for m in masks:
        by_size[m.bit_count()].append(m)
    patterns = _element_patterns(n)
    full = (1 << n) - 1
    members = bytearray(_lattice_bytes(n))
    placed = 0
    first = None
    for s in range(n, 0, -1):
        for m in by_size[s]:
            members[m >> 3] |= 1 << (m & 7)
        placed += len(by_size[s])
        if not placed or s not in checks or (first is not None and checks[s][0] >= first):
            continue
        closed = _up_closure(int.from_bytes(members, "little"), patterns).to_bytes(len(members), "little")
        for a in checks[s]:
            if first is not None and a >= first:
                break
            c = full ^ a
            if closed[c >> 3] >> (c & 7) & 1:
                first = a
                break
    if first is None:
        return None
    i = bisect_left(masks, first)
    j = _partner_after(masks, i, need)
    if j is None:
        raise RuntimeError("a lattice violator must have a partner after it")
    return i, j


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
    return _first_disjoint_pair(family.members, family.ground_n, [1] * (family.ground_n + 1)) is None


def first_cross_violation(masks: tuple[int, ...], n: int, k: int) -> tuple[int, int] | None:
    """Indices i < j of the first disjoint pair of the ascending ``masks`` over [n] whose sizes sum past k."""
    return _first_disjoint_pair(masks, n, [k - a + 1 for a in range(n + 1)])


def upward_closed(masks: tuple[int, ...], n: int, k: int) -> bool:
    """True when every member of size below k, grown by any one element of [n], is a member.

    On the subset lattice this is n bitmap steps: the members below k,
    shifted onto the sets that add element b, must all be members.  Sparse
    families, and ground sets above MAX_LATTICE_N, look each extension up.
    """
    below = [m for m in masks if m.bit_count() < k]
    if not _lattice_pays(n, 1, len(below) * n):
        present = set(masks)
        return all(m | 1 << b in present for m in below for b in range(n) if not m >> b & 1)
    members = _mask_bitmap(masks, n)
    grown = _mask_bitmap(below, n)
    return not any((grown << (1 << b)) & pattern & ~members for b, pattern in enumerate(_element_patterns(n)))


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
