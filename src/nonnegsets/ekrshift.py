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

from .nonneg import NumberSequence, constraint_holds, enumerate_nonneg
from .setcore import SetFamily, Subset, binomial, bound_main, family_is_intersecting, masks_by_size

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
        for member in self.family:
            if member.mask == 0:
                raise ValueError("the empty set cannot be a member")
            if member.size > self.k:
                raise ValueError(f"member {member} exceeds size cap {self.k}")

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
    """Check |A| + |B| <= k for every disjoint pair of members."""
    members = f.family.members
    for i in range(len(members)):
        a = members[i]
        for j in range(i + 1, len(members)):
            b = members[j]
            if not a.mask & b.mask and a.size + b.size > f.k:
                return PropertyVerdict(holds=False, witness=(a, b))
    return PropertyVerdict(holds=True, witness=None)


def _image_masks(f: BoundedFamily, i: int) -> list[int]:
    """Member-aligned masks after one pushing-up step for element i."""
    bit = 1 << (i - 1)
    out = []
    for member in f.family:
        pushed = member.mask | bit
        if pushed == member.mask or f.family.contains_mask(pushed) or member.size == f.k:
            out.append(member.mask)
        else:
            out.append(pushed)
    return out


def push_up(f: BoundedFamily, i: int) -> BoundedFamily:
    """Apply the pushing-up map for element i to every member.

    Size-preserving (the map is injective on the family) and cross-bound
    preserving when the input is cross-bounded.
    """
    if not 1 <= i <= f.ground_n:
        raise ValueError(f"element i must be in 1..{f.ground_n}, got {i}")
    image = _image_masks(f, i)
    distinct = set(image)
    if len(distinct) != len(image):
        raise RuntimeError("pushing-up collided; it must be injective")
    return BoundedFamily(SetFamily.from_masks(f.ground_n, distinct), f.k)


def is_upset(f: BoundedFamily) -> bool:
    """Upward closure under the cap: adding any one element to a member below size k stays inside."""
    n = f.ground_n
    for member in f.family:
        if member.size >= f.k:
            continue
        for b in range(n):
            grown = member.mask | 1 << b
            if grown != member.mask and not f.family.contains_mask(grown):
                return False
    return True


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
    current = f
    log: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for i in range(1, f.ground_n + 1):
            image = _image_masks(current, i)
            delta = sum(1 for old, new in zip(current.family.masks(), image) if old != new)
            if delta:
                log.append((i, delta))
                current = BoundedFamily(SetFamily.from_masks(f.ground_n, set(image)), f.k)
                changed = True
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
    nonempty = [member for member in report.family if member.mask != 0]
    bounded = BoundedFamily(SetFamily.of(s.n, nonempty), s.k)
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
