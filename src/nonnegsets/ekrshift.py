"""Pushing-up compression for cross-bounded set families.

A family F of nonempty subsets of [n], each of size at most k, is called
cross-bounded here when every two disjoint members A, B satisfy
|A| + |B| <= k.  Such a family has at most bound_main(n, k) - 1 members.
The route to that cap is a compression: the pushing-up map

    S_i(A) = A            if A u {i} already lies in F, or |A| = k,
             A u {i}      otherwise

is injective on F and preserves the cross-bound, so iterating it over
i = 1..n drives F to a fixpoint that is an upward-closed family (an upset
within the size cap).  A cross-bounded upset with k <= n - 1 is
intersecting, and intersecting families of size <= k sets obey the cap.

Families are sorted masks.  For dense families the cross-bound and upset
checks run on the subset lattice, in bitmaps over all 2^n masks: a
member A breaks the cross-bound exactly when its complement lies in the
up-closure of the members of size >= k - |A| + 1, and the family is an
upset when its members below the cap, shifted onto each element, stay
inside it.  Neither needs numpy.

The independent check lives in max_family_oracle: a family is cross-bounded
exactly when it avoids every conflicting pair (disjoint, size sum > k),
i.e. when it is an independent set in the conflict graph on all candidate
subsets.  The oracle finds a true maximum independent set by branch and
bound, so it never presupposes the closed form it is compared against.

Sequences plug in directly: the nonempty index sets with nonnegative sum of
a constrained sequence form a cross-bounded family (a disjoint union of two
nonnegative-sum sets is again one, hence has size at most k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable

from .nonneg import NumberSequence, constraint_holds, enumerate_nonneg
from .setcore import (
    SetFamily,
    Subset,
    bound_main,
    family_is_intersecting,
    first_cross_violation,
    masks_by_size,
    upward_closed,
)

__all__ = [
    "MAX_ORACLE_N",
    "BoundedFamily",
    "PropertyVerdict",
    "UpsetResult",
    "OracleResult",
    "EkrVerdict",
    "NotAnUpsetError",
    "CrossBoundError",
    "has_property",
    "push_up",
    "to_upset",
    "is_upset",
    "upset_is_intersecting",
    "max_family_oracle",
    "theorem1_via_ekr",
]

# The conflict graph has about 2^n vertices; exact search stays tiny.
MAX_ORACLE_N = 6


class NotAnUpsetError(ValueError):
    """Precondition failure: the family is not upward closed under the cap."""


class CrossBoundError(ValueError):
    """Precondition failure: some disjoint pair exceeds the size bound."""


@dataclass(frozen=True)
class BoundedFamily:
    """A set family with the empty set excluded and member sizes capped at k."""

    family: SetFamily
    k: int

    def __post_init__(self) -> None:
        n = self.family.ground_n
        if not 1 <= self.k <= n:
            raise ValueError(f"k must be in 1..n={n}, got {self.k}")
        masks = self.family.members
        if masks and masks[0] == 0:
            raise ValueError("the empty set cannot be a member")
        if masks and max(map(int.bit_count, masks)) > self.k:
            over = next(m for m in masks if m.bit_count() > self.k)
            raise ValueError(f"member {Subset(over, n)} exceeds size cap {self.k}")

    @property
    def ground_n(self) -> int:
        return self.family.ground_n

    def __len__(self) -> int:
        return len(self.family)


@dataclass(frozen=True)
class PropertyVerdict:
    """Cross-bound check result; the witness is a violating disjoint pair."""

    holds: bool
    witness: tuple[Subset, Subset] | None


def has_property(f: BoundedFamily) -> PropertyVerdict:
    """Check |A| + |B| <= k for every disjoint pair of members.

    The witness is the first violating pair (i < j) in mask order, found
    on the subset lattice for dense families.
    """
    n = f.ground_n
    members = f.family.members
    pair = first_cross_violation(members, n, f.k)
    if pair is None:
        return PropertyVerdict(holds=True, witness=None)
    i, j = pair
    return PropertyVerdict(holds=False, witness=(Subset(members[i], n), Subset(members[j], n)))


def _image_masks(masks: Iterable[int], present: Container[int], bit: int, k: int) -> tuple[list[int], set[int]]:
    """Member-aligned masks after one pushing-up step for the element ``bit``, and their set."""
    image = [m if m & bit or m | bit in present or m.bit_count() == k else m | bit for m in masks]
    distinct = set(image)
    if len(distinct) != len(image):
        raise RuntimeError("pushing-up collided; it must be injective")
    return image, distinct


def push_up(f: BoundedFamily, i: int) -> BoundedFamily:
    """Apply the pushing-up map for element i to every member.

    Size-preserving (the map is injective on the family) and cross-bound
    preserving when the input is cross-bounded.
    """
    if not 1 <= i <= f.ground_n:
        raise ValueError(f"element i must be in 1..{f.ground_n}, got {i}")
    masks = f.family.members
    _, distinct = _image_masks(masks, set(masks), 1 << (i - 1), f.k)
    return BoundedFamily(SetFamily.from_masks(f.ground_n, distinct), f.k)


def is_upset(f: BoundedFamily) -> bool:
    """Upward closure under the cap: adding any one element to a member below size k stays inside.

    Dense families are checked in n bitmap steps on the subset lattice.
    """
    return upward_closed(f.family.members, f.ground_n, f.k)


@dataclass(frozen=True)
class UpsetResult:
    """Fixpoint of pushing-up passes, plus the (i, changed-count) log of effective steps."""

    family: BoundedFamily
    log: tuple[tuple[int, int], ...]


def to_upset(f: BoundedFamily) -> UpsetResult:
    """Iterate pushing-up over i = 1..n until a full pass changes nothing.

    Each effective application strictly increases the total element count,
    which is capped by n * |F|, so this terminates.  The fixpoint is an
    upset; an upset input comes back unchanged with an empty log.
    """
    masks = list(f.family.members)
    present = set(masks)
    log: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for i in range(1, f.ground_n + 1):
            image, distinct = _image_masks(masks, present, 1 << (i - 1), f.k)
            delta = sum(map(int.__ne__, masks, image))
            if delta:
                log.append((i, delta))
                masks, present = image, distinct
                changed = True
    current = BoundedFamily(SetFamily.from_masks(f.ground_n, masks), f.k)
    if not is_upset(current):
        raise RuntimeError("pushing-up fixpoint must be an upset")
    return UpsetResult(family=current, log=tuple(log))


def upset_is_intersecting(f: BoundedFamily) -> bool:
    """For a cross-bounded upset with k <= n - 1, every two members intersect.

    Raises NotAnUpsetError or CrossBoundError when the respective
    precondition fails, and ValueError when k = n (where the claim is
    false: {1}, {2}, {1,2} with k = n = 2 form a cross-bounded upset
    with a disjoint pair).
    """
    if f.k > f.ground_n - 1:
        raise ValueError(f"needs k <= n-1, got k={f.k}, n={f.ground_n}")
    if not is_upset(f):
        raise NotAnUpsetError("family is not upward closed under the size cap")
    verdict = has_property(f)
    if not verdict.holds:
        raise CrossBoundError(f"disjoint pair too large: {verdict.witness}")
    return family_is_intersecting(f.family)


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum cross-bounded family size, with one witness family."""

    n: int
    k: int
    size: int
    witness: SetFamily


def _greedy_seed(nbr: list[int]) -> tuple[int, int]:
    """Greedy independent set by repeated minimum remaining degree; a lower bound."""
    alive = (1 << len(nbr)) - 1
    chosen = 0
    size = 0
    while alive:
        best_v = -1
        best_deg = 1 << 62
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (nbr[v] & alive).bit_count()
            if deg < best_deg:
                best_deg = deg
                best_v = v
            rest ^= low
        chosen |= 1 << best_v
        size += 1
        alive &= ~(nbr[best_v] | 1 << best_v)
    return size, chosen


def _clique_cover_bound(candidates: int, nbr: list[int]) -> int:
    """Greedy clique cover of the induced subgraph; its size bounds the independence number."""
    commons: list[int] = []
    count = 0
    rest = candidates
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        for idx, common in enumerate(commons):
            if common >> v & 1:
                commons[idx] = common & nbr[v]
                break
        else:
            commons.append(nbr[v] & candidates)
            count += 1
    return count


def max_family_oracle(n: int, k: int) -> OracleResult:
    """Exact maximum size of a cross-bounded family by branch-and-bound search.

    Vertices of the conflict graph are all nonempty subsets of [n] of size
    at most k; edges join disjoint pairs whose sizes sum past k.  Maximum
    independent set = maximum cross-bounded family.  Capped at n <= 6.
    """
    if not 1 <= n <= MAX_ORACLE_N:
        raise ValueError(f"oracle capped at n <= {MAX_ORACLE_N}, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..n-1={n - 1}, got {k}")
    masks = masks_by_size(n, 1, k)
    v_count = len(masks)
    nbr = [0] * v_count
    for a in range(v_count):
        for b in range(a + 1, v_count):
            if not masks[a] & masks[b] and masks[a].bit_count() + masks[b].bit_count() > k:
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a

    best_size, best_set = _greedy_seed(nbr)

    def expand(candidates: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_set
        if candidates == 0:
            if size > best_size:
                best_size = size
                best_set = chosen
            return
        if size + _clique_cover_bound(candidates, nbr) <= best_size:
            return
        # Branch on the candidate with most conflicts left (ties: lowest mask).
        pick = -1
        pick_deg = -1
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (nbr[v] & candidates).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
            rest ^= low
        bit = 1 << pick
        expand(candidates & ~(nbr[pick] | bit), size + 1, chosen | bit)
        expand(candidates & ~bit, size, chosen)

    expand((1 << v_count) - 1, 0, 0)
    witness = SetFamily.from_masks(n, (masks[v] for v in range(v_count) if best_set >> v & 1))
    verdict = has_property(BoundedFamily(witness, k))
    if not verdict.holds:
        raise RuntimeError("oracle witness must be cross-bounded")
    return OracleResult(n=n, k=k, size=best_size, witness=witness)


@dataclass(frozen=True)
class EkrVerdict:
    """Outcome of bounding a sequence's nonnegative family through the cross-bound cap."""

    n: int
    k: int
    property_holds: bool
    property_witness: tuple[Subset, Subset] | None
    family_size: int
    cap: int
    passed: bool


def theorem1_via_ekr(s: NumberSequence) -> EkrVerdict:
    """Bound the nonempty nonnegative-sum sets of a sequence by the family cap.

    The family must be cross-bounded, and its size at most
    bound_main(n, k) - 1 (the empty set is the +1 on the counting side).
    """
    if not constraint_holds(s):
        raise ValueError("sequence violates the negativity constraint")
    report = enumerate_nonneg(s, with_family=True)
    if report.family is None:
        raise RuntimeError("enumeration with_family=True returned no family")
    masks = report.family.members
    bounded = BoundedFamily(SetFamily(s.n, masks[1:] if masks and masks[0] == 0 else masks), s.k)
    verdict = has_property(bounded)
    cap = bound_main(s.n, s.k) - 1
    size = len(bounded)
    return EkrVerdict(
        n=s.n,
        k=s.k,
        property_holds=verdict.holds,
        property_witness=verdict.witness,
        family_size=size,
        cap=cap,
        passed=verdict.holds and size <= cap,
    )
