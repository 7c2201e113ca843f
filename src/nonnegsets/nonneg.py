"""Rational number sequences whose large subsets all sum negative.

A sequence x_1, ..., x_n together with a cap k models the hypothesis "every
subset of more than k indices has a negative sum".  Because sums are
monotone in the summands, that hypothesis is equivalent to a single check:
the k+1 largest values sum negative (vacuous for k = n).  Under it, the
number of subsets with nonnegative sum (the empty set counts, its sum is 0)
is at most bound_main(n, k), and at most bound_refined(n, k, t) when exactly
t of the values are nonnegative.

All arithmetic is exact: values are fractions, subset sums are evaluated
after clearing denominators, and the fast enumeration path only runs when
the scaled sums provably fit in 64 bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .setcore import (
    FileFormatError,
    MAX_GROUND,
    SetFamily,
    Subset,
    bound_main,
    bound_refined,
)

# numpy is imported inside the functions that count, list or sample, so
# importing the package, and every command that does none of these, never
# loads it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_ENUMERATION_N",
    "MAX_VERIFY_N",
    "NumberSequence",
    "NonnegReport",
    "StructureReport",
    "TheoremVerdict",
    "SamplingError",
    "constraint_holds",
    "enumerate_nonneg",
    "extremal_construction",
    "classify_nonneg_structure",
    "verify_theorem1",
    "verify_theorem2",
    "parse_sequence",
    "read_sequence_file",
    "render_sequence",
]

# Full subset enumeration is 2^n work; refuse anything past this.
MAX_ENUMERATION_N = 20
# Randomized theorem sweeps count every sample and stay smaller still.
MAX_VERIFY_N = 16

# Scaled absolute sums below this bound are safe in int64 arithmetic.
_INT64_SAFE = 1 << 62
# Rows the batched counter takes at a time; its memory is a few
# _COUNT_CHUNK x 2^(n/2) int64 arrays, whatever the number of rows.
_COUNT_CHUNK = 256


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its draw budget before enough accepts.

    Raised only on valid (n, k, t): the cell holds constrained sequences,
    the sampler just accepts too few of its draws to fill the trials.
    """


def _check_constraint(values: Sequence[Fraction], k: int) -> bool:
    n = len(values)
    if k >= n:
        return True
    top = sorted(values, reverse=True)[: k + 1]
    return sum(top) < 0


@dataclass(frozen=True)
class NumberSequence:
    """Immutable sequence of exact rationals plus the subset-size cap k.

    ``constraint_ok`` is recorded at construction; ``constraint_holds``
    recomputes it so staleness is detectable.
    """

    values: tuple[Fraction, ...]
    k: int
    constraint_ok: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 1:
            raise ValueError("sequence must be nonempty")
        if n > MAX_GROUND:
            raise ValueError(f"sequence length capped at {MAX_GROUND}, got {n}")
        for v in self.values:
            if not isinstance(v, Fraction):
                raise TypeError(f"values must be Fraction, got {type(v).__name__}; use NumberSequence.of")
        if not 1 <= self.k <= n:
            raise ValueError(f"k must be in 1..n={n}, got {self.k}")
        object.__setattr__(self, "constraint_ok", _check_constraint(self.values, self.k))

    @classmethod
    def of(cls, values: Iterable[int | str | Fraction], k: int) -> "NumberSequence":
        return cls(tuple(Fraction(v) for v in values), k)

    @property
    def n(self) -> int:
        return len(self.values)

    def sorted_desc(self) -> "NumberSequence":
        return NumberSequence(tuple(sorted(self.values, reverse=True)), self.k)

    def subset_sum(self, subset: Subset) -> Fraction:
        if subset.n != self.n:
            raise ValueError(f"subset ground set {subset.n} != sequence length {self.n}")
        return sum((self.values[i - 1] for i in subset.elements()), start=Fraction(0))


def constraint_holds(s: NumberSequence) -> bool:
    """Recheck: the k+1 largest values sum negative (vacuously true if k = n)."""
    return _check_constraint(s.values, s.k)


def _scaled_int_values(values: Sequence[Fraction]) -> list[int]:
    denom_lcm = math.lcm(*(v.denominator for v in values))
    return [int(v * denom_lcm) for v in values]


def _list_subset_sums(values: Sequence[int]) -> list[int]:
    """Subset sums of Python ints indexed by mask, by doubling."""
    sums = [0]
    for v in values:
        # materialize before extending: a lazy generator would read its own output
        sums.extend([s + v for s in sums])
    return sums


def _subset_sums(values: Sequence[Fraction]):
    """Exact subset sums indexed by mask, after clearing denominators.

    Returns a numpy int64 array when the magnitudes provably fit, otherwise
    a plain Python list of unbounded ints (same indexing).
    """
    import numpy as np

    scaled = _scaled_int_values(values)
    if sum(abs(v) for v in scaled) < _INT64_SAFE:
        sums = np.zeros(1, dtype=np.int64)
        for v in scaled:
            sums = np.concatenate([sums, sums + v])
        return sums
    return _list_subset_sums(scaled)


def _row_subset_sums(cols: np.ndarray) -> np.ndarray:
    """Per row of an (m, h) int64 array, its 2^h subset sums indexed by mask."""
    import numpy as np

    sums = np.zeros((cols.shape[0], 1), dtype=np.int64)
    for j in range(cols.shape[1]):
        sums = np.concatenate([sums, sums + cols[:, j : j + 1]], axis=1)
    return sums


def _count_nonneg_rows(rows: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray | list[int]:
    """Per row of integers, the number of index sets (empty included) with sum >= 0.

    Meet in the middle (Horowitz & Sahni, JACM 1974): each row's indices
    split into halves a = n // 2 and n - a, both halves' subset sums are
    built by doubling, the right ones are sorted, and the pairs with
    left + right >= 0 are counted by one ``searchsorted`` per chunk of
    rows over the keys row * span + sum.  Time is O(rows * 2^(n/2) * log)
    and memory O(_COUNT_CHUNK * 2^(n/2)).

    Returns an int64 array when every sum and key provably fits in int64,
    otherwise a list computed by the same algorithm over Python ints.
    """
    import numpy as np

    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64)
    n = len(rows[0])
    if isinstance(rows, np.ndarray):
        peak = max(-int(rows.min()), int(rows.max()), 0)
    else:
        peak = max((abs(v) for row in rows for v in row), default=0)
    # Every subset sum of a row lies in [-n * peak, n * peak], so span
    # exceeds each row's range of sums and the keys row * span + sum of
    # one chunk lie in (-span, chunk * span).
    span = n * peak + 1
    if min(len(rows), _COUNT_CHUNK) * span >= _INT64_SAFE:
        return [_count_nonneg_bigint([int(v) for v in row]) for row in rows]
    rows = np.asarray(rows, dtype=np.int64)
    a = n // 2
    counts = np.empty(rows.shape[0], dtype=np.int64)
    for lo in range(0, rows.shape[0], _COUNT_CHUNK):
        chunk = rows[lo : lo + _COUNT_CHUNK]
        m = chunk.shape[0]
        offsets = np.arange(m, dtype=np.int64)[:, None] * span
        keys = (np.sort(_row_subset_sums(chunk[:, a:]), axis=1) + offsets).ravel()
        # Position of row r's query r * span - left: the r * 2^(n-a) keys of
        # earlier rows plus the right sums of row r below -left.
        queries = (offsets - _row_subset_sums(chunk[:, :a])).ravel()
        below = np.searchsorted(keys, queries).reshape(m, -1).sum(axis=1)
        counts[lo : lo + m] = (np.arange(1, m + 1, dtype=np.int64) << n) - below
    return counts


def _count_nonneg_bigint(row: Sequence[int]) -> int:
    """``_count_nonneg_rows`` for one row of Python ints, with sorted and bisect."""
    a = len(row) // 2
    right = sorted(_list_subset_sums(row[a:]))
    return sum(len(right) - bisect_left(right, -x) for x in _list_subset_sums(row[:a]))


@dataclass(frozen=True)
class NonnegReport:
    """Outcome of one full enumeration of nonnegative-sum index sets."""

    count: int
    t: int
    bound: int
    tight: bool
    family: SetFamily | None


def enumerate_nonneg(s: NumberSequence, with_family: bool = True) -> NonnegReport:
    """Count (and optionally list) every index set with nonnegative sum.

    Requires the negativity constraint and n <= 20.  The family, when
    requested, is canonical: masks ascending, the empty set always present.
    """
    import numpy as np

    if not constraint_holds(s):
        raise ValueError("sequence violates the negativity constraint")
    if s.n > MAX_ENUMERATION_N:
        raise ValueError(f"enumeration capped at n={MAX_ENUMERATION_N}, got {s.n}")
    family = None
    if with_family:
        sums = _subset_sums(s.values)
        if isinstance(sums, np.ndarray):
            masks = np.nonzero(sums >= 0)[0].tolist()
        else:
            masks = [m for m, total in enumerate(sums) if total >= 0]
        count = len(masks)
        family = SetFamily(s.n, tuple(masks))
    else:
        count = int(_count_nonneg_rows([_scaled_int_values(s.values)])[0])
    t = sum(1 for v in s.values if v >= 0)
    bound = bound_main(s.n, s.k)
    return NonnegReport(count=count, t=t, bound=bound, tight=count == bound, family=family)


def extremal_construction(n: int, k: int, t: int) -> NumberSequence:
    """The tight sequence for (n, k, t): one k-t, then t-1 zeros, then -1s.

    Requires 1 <= t <= k < n.  Meets bound_refined(n, k, t) with equality,
    and bound_main(n, k) when t = 1.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 1 <= t <= k:
        raise ValueError(f"t must be in 1..k={k}, got {t}")
    values = [k - t] + [0] * (t - 1) + [-1] * (n - t)
    seq = NumberSequence.of(values, k)
    if not seq.constraint_ok:
        raise RuntimeError("extremal construction violates the negativity constraint")
    return seq


@dataclass(frozen=True)
class StructureReport:
    """Shape certificate for the nonnegative family of a sequence.

    Positions refer to the sequence after a stable descending sort
    (``order`` maps position -> original 1-based index).  Certified means
    every nonnegative index set either contains position 1 with at most
    k - t positions past t, or lies inside the zero block {2, ..., t}.
    """

    certified: bool
    t: int
    order: tuple[int, ...]
    witness: Subset | None
    top_form_count: int
    zero_block_count: int


def classify_nonneg_structure(s: NumberSequence) -> StructureReport:
    """Certify the two-form shape of the nonnegative family, or name a violator."""
    import numpy as np

    if not constraint_holds(s):
        raise ValueError("sequence violates the negativity constraint")
    if s.n > MAX_ENUMERATION_N:
        raise ValueError(f"classification capped at n={MAX_ENUMERATION_N}, got {s.n}")
    n, k = s.n, s.k
    order = sorted(range(n), key=lambda i: (-s.values[i], i))
    values = [s.values[i] for i in order]
    t = sum(1 for v in values if v >= 0)
    zero_block = ((1 << t) - 1) & ~1 if t >= 1 else 0
    tail = ((1 << n) - 1) & ~((1 << t) - 1)
    sums = _subset_sums(values)
    if isinstance(sums, np.ndarray):
        nonneg_masks = [int(m) for m in np.nonzero(sums >= 0)[0]]
    else:
        nonneg_masks = [m for m, total in enumerate(sums) if total >= 0]
    witness = None
    top_form = zero_form = 0
    for mask in nonneg_masks:
        if mask & 1:
            if (mask & tail).bit_count() <= k - t:
                top_form += 1
                continue
        elif not mask & ~zero_block:
            zero_form += 1
            continue
        if witness is None:
            witness = Subset(mask, n)
    return StructureReport(
        certified=witness is None,
        t=t,
        order=tuple(i + 1 for i in order),
        witness=witness,
        top_form_count=top_form,
        zero_block_count=zero_form,
    )


@dataclass(frozen=True)
class TheoremVerdict:
    """Result of a randomized tightness/upper-bound sweep."""

    theorem: int
    n: int
    k: int
    t: int | None
    trials: int
    seed: int
    passed: bool
    bound: int
    max_count: int
    extremal_count: int
    extremal_tight: bool
    counterexample: NumberSequence | None


def _sample_constrained(
    n: int,
    k: int,
    trials: int,
    rng: np.random.Generator,
    exact_t: int | None,
    max_draws: int,
) -> np.ndarray:
    """Uniform integer rows in [-4n, 4n] accepted when the constraint holds.

    Acceptance optionally conditions on exactly ``exact_t`` nonnegative
    entries.  Rows come back in draw order, so results are seed-stable.
    """
    import numpy as np

    m = 4 * n
    batch = 1 << 14
    accepted: list[np.ndarray] = []
    have = 0
    drawn = 0
    while have < trials:
        if drawn >= max_draws:
            cell = f"n={n}, k={k}" + ("" if exact_t is None else f", t={exact_t}")
            raise SamplingError(
                f"({cell}) is a valid cell, but the rejection sampler used up its "
                f"draw budget: accepted {have}/{trials} sequences after {drawn} draws"
            )
        arr = rng.integers(-m, m + 1, size=(batch, n), dtype=np.int64)
        drawn += batch
        keep = np.sort(arr, axis=1)[:, n - k - 1 :].sum(axis=1) < 0
        if exact_t is not None:
            keep &= (arr >= 0).sum(axis=1) == exact_t
        rows = arr[keep]
        if rows.size:
            accepted.append(rows)
            have += rows.shape[0]
    return np.concatenate(accepted)[:trials]


def _verify_common(
    theorem: int,
    n: int,
    k: int,
    t: int | None,
    trials: int,
    seed: int,
    max_draws: int,
) -> TheoremVerdict:
    import numpy as np

    if not 2 <= n <= MAX_VERIFY_N:
        raise ValueError(f"verification needs 2 <= n <= {MAX_VERIFY_N}, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"verification needs 1 <= k <= n-1 (k = n is degenerate), got k={k}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")

    extremal = extremal_construction(n, k, t if t is not None else 1)
    extremal_count = enumerate_nonneg(extremal, with_family=False).count
    if t is None:
        bound = bound_main(n, k)
    else:
        bound = bound_refined(n, k, t)
    extremal_tight = extremal_count == bound

    # A sample with tt nonnegative values must stay within caps[tt].
    caps = np.array(
        [bound] + [min(bound, bound_refined(n, k, tt)) for tt in range(1, k + 1)], dtype=np.int64
    )

    rng = np.random.default_rng(seed)
    max_count = 0
    counterexample: NumberSequence | None = None
    if trials:
        samples = _sample_constrained(n, k, trials, rng, t, max_draws)
        counts = np.asarray(_count_nonneg_rows(samples))
        nonneg_t = (samples >= 0).sum(axis=1)
        max_count = int(counts.max())
        # Under the constraint the nonnegative values themselves form a
        # nonnegative-sum set, so their number can never exceed k.
        if int(nonneg_t.max()) > k:
            raise RuntimeError("a sample has more than k nonnegative values")
        bad = np.nonzero(counts > caps[nonneg_t])[0]
        if bad.size:
            first = int(bad[0])
            counterexample = NumberSequence.of((int(v) for v in samples[first]), k)

    passed = extremal_tight and counterexample is None
    return TheoremVerdict(
        theorem=theorem,
        n=n,
        k=k,
        t=t,
        trials=trials,
        seed=seed,
        passed=passed,
        bound=bound,
        max_count=max_count,
        extremal_count=extremal_count,
        extremal_tight=extremal_tight,
        counterexample=counterexample,
    )


def verify_theorem1(
    n: int, k: int, trials: int, seed: int, *, max_draws: int = 80_000_000
) -> TheoremVerdict:
    """Sample constrained sequences and check every count against the bounds.

    Each accepted sequence must satisfy count <= bound_main(n, k) and, with
    t of its values nonnegative (t >= 1), count <= bound_refined(n, k, t).
    Also asserts the t = 1 extremal construction is tight.  First violation,
    if any, is returned as the counterexample.
    """
    return _verify_common(1, n, k, None, trials, seed, max_draws)


def verify_theorem2(
    n: int, k: int, t: int, trials: int, seed: int, *, max_draws: int = 80_000_000
) -> TheoremVerdict:
    """Like verify_theorem1 but conditioned on exactly t nonnegative values."""
    if not 1 <= t <= k:
        raise ValueError(f"t must be in 1..k={k}, got {t}")
    return _verify_common(2, n, k, t, trials, seed, max_draws)


def parse_sequence(text: str) -> NumberSequence:
    """Parse the sequence file format: header ``n k``, then one rational per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError("empty sequence file")
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError(f"header must be 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FileFormatError(f"non-integer header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != n:
        raise FileFormatError(f"expected {n} values, found {len(body)}")
    try:
        values = [Fraction(ln) for ln in body]
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational literal: {exc}") from exc
    try:
        return NumberSequence(tuple(values), k)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def read_sequence_file(path: str) -> NumberSequence:
    with open(path, encoding="utf-8") as fh:
        return parse_sequence(fh.read())


def render_sequence(s: NumberSequence) -> str:
    lines = [f"{s.n} {s.k}"]
    lines.extend(str(v) for v in s.values)
    return "\n".join(lines) + "\n"
