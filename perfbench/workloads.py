"""The three workloads: their operations, inputs and output checks.

An operation is either a ``nonnegsets`` command run in-process through
``cli.main(argv)`` with ``--format json`` and its output captured, or a
call of one of the three public functions the CLI does not expose.  Each
operation carries a check that compares its output with the independent
computations in ``checkers.py``.  Inputs are written under ``workdir``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checkers as ck
import inputs
from checkers import require


class OpFailed(RuntimeError):
    """The program refused an operation (non-zero exit or an exception)."""


@dataclass
class Op:
    kind: str
    call: Callable[[], bytes]
    check: Callable[[bytes], None]
    cli: bool
    # Figures the report prints next to the workload, e.g. sweep strength.
    notes: dict[str, Any] = field(default_factory=dict)


def run_cli(argv: list[str]) -> bytes:
    from nonnegsets import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise OpFailed(f"exit {code}: {out.getvalue().strip()[:200]}")
    return out.getvalue().encode()


def cli_op(kind: str, argv: list[str], check: Callable[[dict], None], notes: dict | None = None) -> Op:
    argv = ["--format", "json", *argv]
    notes = {} if notes is None else notes
    notes["argv"] = " ".join(argv[2:])

    def check_payload(raw: bytes) -> None:
        payload = json.loads(raw)
        require(payload.get("schema") == 1 and payload.get("ok") is True, f"{kind}: bad envelope")
        check(payload["result"])

    return Op(kind, lambda: run_cli(argv), check_payload, True, notes)


def lib_op(kind: str, fn: Callable[[], Any], check: Callable[[Any], None], label: str) -> Op:
    holder: dict[str, Any] = {}

    def call() -> bytes:
        holder["result"] = fn()
        return repr(holder["result"]).encode()

    return Op(kind, call, lambda _raw: check(holder["result"]), False, {"argv": label})


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _sub_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 30))


# ------------------------------------------------------------------ sweep

# Cells are (n, k, trials) and (n, k, t, trials).  verify samples in
# batches of 16384 draws, so its sampling time is set by the number of
# batches it needs.  Every cell takes trials from a window where that
# number is the same for every seed (at least four standard deviations of
# the accept count from either edge, by the measured acceptance rate).
# Cells that accept under about 1% of draws, such as (10, 3), (12, 4) and
# (14, 5), have no such window above two batches, so they are not used.
# The n = 16 cells hold a trials x 2^n int64 matrix, about 330 MB at 500
# trials.
THEOREM1_CELLS = [
    (11, 5, 1460), (13, 6, 615), (14, 10, 800), (15, 7, 216), (16, 8, 245), (16, 10, 500),
]
THEOREM2_CELLS = [
    (10, 7, 3, 1900), (10, 9, 5, 1500), (12, 9, 4, 1850), (12, 11, 6, 1500),
    (14, 11, 5, 800), (14, 13, 7, 800), (16, 14, 6, 300),
]
# One cell run with several seeds, as a batch verifier splits a long sweep.
# These equal-cost operations sit in the middle of the workload's time
# distribution, so op_p50_ms is the median of several like samples rather
# than of whichever single operation happens to fall in the middle.
REPEATED_CELL = (12, 9, 2000)
REPEATS = 5
COUNT_SHAPES = [(18, 12), (19, 9), (20, 7), (20, 14)]


def _check_verify(n: int, k: int, t: int | None, trials: int, notes: dict) -> Callable[[dict], None]:
    def check(r: dict) -> None:
        bound = ck.bound_main(n, k) if t is None else ck.bound_refined(n, k, t)
        require(r["passed"] and r["extremal_tight"], f"verify n={n} k={k} t={t} did not pass")
        require(r["bound"] == bound, f"bound {r['bound']} != {bound}")
        require(r["extremal_count"] == bound, "extremal count differs from the bound")
        require(1 <= r["max_count"] <= bound, f"max_count {r['max_count']} outside 1..{bound}")
        require(r["trials"] == trials and r["counterexample"] is None, "bad trials or counterexample")
        notes["strength"] = r["max_count"] / bound

    return check


def _check_count(values, k: int) -> Callable[[dict], None]:
    def check(r: dict) -> None:
        n = len(values)
        expected = ck.count_nonneg(values)
        bound = ck.bound_main(n, k)
        t = sum(1 for v in values if v >= 0)
        require(r["count"] == expected, f"count {r['count']} != independent {expected}")
        require(r["bound"] == bound and expected <= bound, "count above the bound")
        require(r["t"] == t and r["tight"] == (expected == bound), "bad t or tight flag")
        require(r["n"] == n and r["k"] == k, "bad shape echo")

    return check


def sweep(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for n, k, trials in THEOREM1_CELLS + [REPEATED_CELL] * REPEATS:
        argv = ["verify", "--theorem", "1", "--n", str(n), "--k", str(k), "--trials", str(trials)]
        argv += ["--seed", _sub_seed(rng)]
        notes: dict = {}
        ops.append(cli_op("verify1", argv, _check_verify(n, k, None, trials, notes), notes))
    for n, k, t, trials in THEOREM2_CELLS:
        argv = ["verify", "--theorem", "2", "--n", str(n), "--k", str(k), "--t", str(t), "--trials", str(trials)]
        argv += ["--seed", _sub_seed(rng)]
        notes = {}
        ops.append(cli_op("verify2", argv, _check_verify(n, k, t, trials, notes), notes))
    for idx, (n, k) in enumerate(COUNT_SHAPES):
        values = inputs.constrained_values(rng, n, k)
        path = _write(workdir, f"count{idx}.seq", inputs.sequence_text(values, k))
        ops.append(cli_op("count", ["nonneg", "--input", path], _check_count(values, k)))
    return ops


# ---------------------------------------------------------------- certify

# (m, r, dump): perfect matchings of disjointness graphs.
DISJOINTNESS_CELLS = [
    (8, 4, False), (9, 5, True), (10, 3, False), (10, 5, True),
    (11, 5, False), (11, 8, False), (12, 4, True), (12, 6, False),
]
RULE_CELLS = [(7, 6), (8, 4)]
GI_CELLS = [(12, 8, 4), (13, 8, 4), (14, 10, 4)]
GI_PAIRS_PER_CELL = 2
HALL_GRAPHS = [(12, 40, True), (12, 40, False)] * 2
COROLLARY_CELLS = [(9, 4), (10, 5), (11, 3), (11, 5), (11, 6), (11, 10)]
# The 16 equal-cost (12, 8, 4) pair counts are the middle of the time
# distribution, which keeps op_p50_ms off the boundary between two kinds.
PAIR_SHAPES = [(10, 6, 3), (10, 6, 3), (12, 8, 4), (12, 8, 4)]


def _check_disjointness(m: int, r: int, dump: bool) -> Callable[[dict], None]:
    size = sum(math.comb(m, i) for i in range(1, r + 1))

    def is_edge(a: int, b: int) -> bool:
        sa, sb = a.bit_count(), b.bit_count()
        return not a & b and 1 <= sa <= r and 1 <= sb <= r and sa + sb >= r + 1 and (a | b) >> m == 0

    def check(res: dict) -> None:
        require(res["saturated"] and res["matching_size"] == size, f"matching of ({m}, {r}) is not of size {size}")
        require(res["unsaturated"] == {"left": [], "right": []}, "unsaturated vertices reported")
        if dump:
            pairs = [(ck.parse_subset(a), ck.parse_subset(b)) for a, b in res["pairs"]]
            require(len(pairs) == size, "dumped pair count differs")
            ck.check_matching_pairs(pairs, is_edge)

    return check


def _check_rule(m: int, r: int) -> Callable[[dict], None]:
    # The complement map is a perfect matching exactly when m = r + 1.
    valid = m == r + 1
    vertices = sum(math.comb(m, i) for i in range(1, r + 1))

    def check(res: dict) -> None:
        require(res["rule"]["valid"] == valid, f"complement rule validity wrong for ({m}, {r})")
        require(not valid or res["rule"]["checked"] == vertices, "rule did not check every vertex")
        require(res["matching_size"] == vertices, "matching size differs")

    return check


def _check_gi(n: int, k: int, t: int, a_mask: int) -> Callable[[dict], None]:
    b_mask = ((1 << t) - 1) ^ a_mask
    cap = k - t
    tails = sum(math.comb(n - t, i) for i in range(cap + 1))
    low = (1 << t) - 1

    def is_edge(a: int, b: int) -> bool:
        s, u = a & ~low, b & ~low
        return (
            a & low == a_mask and b & low == b_mask and not s & u
            and s.bit_count() <= cap and u.bit_count() <= cap and s.bit_count() + u.bit_count() > cap
            and (a | b) >> n == 0
        )

    def check(res: dict) -> None:
        require(res["left_size"] == tails and res["right_size"] == tails, "split graph has the wrong size")
        require(res["matching_size"] == tails - 1, "matching does not saturate all but the roots")
        pair = (ck.render_subset(a_mask), ck.render_subset(b_mask))
        require((res["pair_a"], res["pair_b"]) == pair, "wrong pair")
        pairs = [(ck.parse_subset(a), ck.parse_subset(b)) for a, b in res["pairs"]]
        require(len(pairs) == tails - 1, "pair list length differs")
        ck.check_matching_pairs(pairs, is_edge)

    return check


def _check_hall(graph: ck.BlockedGraph, feasible: bool) -> Callable[[dict], None]:
    def check(res: dict) -> None:
        require(graph.has_perfect_matching() == feasible, "generator and independent matcher disagree")
        require(res["feasible"] == feasible, f"Hall decision {res['feasible']} != independent {feasible}")
        if feasible:
            ck.check_plan(res["plan"], graph)
        else:
            ck.check_cut(ck.parse_subset(res["cut"]["a_blocks"]), ck.parse_subset(res["cut"]["b_blocks"]), graph)

    return check


def _check_corollary(m: int, r: int) -> Callable[[Any], None]:
    def check(rep: Any) -> None:
        require(rep.case == ("wide" if m >= 2 * r else "narrow"), f"case {rep.case} wrong for ({m}, {r})")
        require(rep.all_hold and rep.generic_verdict.holds, f"Hall blocks fail for ({m}, {r})")
        for ineq in rep.inequalities:
            demand = sum(math.comb(m, i) for i in range(ineq.lo, ineq.hi + 1))
            supply = sum(math.comb(m, j) for j in range(r + 1 - ineq.hi, min(r, m - ineq.lo) + 1))
            require((ineq.demand, ineq.supply) == (demand, supply), f"inequality {ineq.lo}..{ineq.hi} miscomputed")
            require(supply >= demand, "an interval inequality fails")

    return check


def _pair_count(values, n: int, k: int, t: int, a_mask: int) -> int:
    """Nonnegative vertices A u S and B u T over tails S of size <= k - t."""
    ordered = sorted(values, reverse=True)
    b_mask = ((1 << t) - 1) ^ a_mask

    def total(mask: int):
        return sum(ordered[i] for i in range(n) if mask >> i & 1)

    count = 0
    for sub in range(1 << (n - t)):
        if sub.bit_count() <= k - t:
            tail = sub << t
            count += (total(a_mask | tail) >= 0) + (total(b_mask | tail) >= 0)
    return count


def _check_pair_count(values, n: int, k: int, t: int, a_mask: int) -> Callable[[Any], None]:
    def check(pc: Any) -> None:
        count = _pair_count(values, n, k, t, a_mask)
        tails = sum(math.comb(n - t, i) for i in range(k - t + 1))
        require(pc.count == count <= tails + 1 == pc.cap, f"pair count {pc.count} vs {count}, cap {tails + 1}")
        require(pc.within_cap and pc.conflict_edge is None, "pair over its cap or with a conflict edge")
        require(pc.matched_edges == tails - 1, "matching size differs")

    return check


def certify(rng: random.Random, workdir: str) -> list[Op]:
    from nonnegsets import matching, nonneg

    ops = []
    for m, r, dump in DISJOINTNESS_CELLS:
        argv = ["matching", "disjointness", "--m", str(m), "--r", str(r)] + (["--dump"] if dump else [])
        ops.append(cli_op("disjointness", argv, _check_disjointness(m, r, dump)))
    for m, r in RULE_CELLS:
        argv = ["matching", "disjointness", "--m", str(m), "--r", str(r), "--rule", "complement"]
        ops.append(cli_op("rule", argv, _check_rule(m, r)))
    for n, k, t in GI_CELLS:
        for a_mask in rng.sample(range(1, 1 << t, 2), GI_PAIRS_PER_CELL):
            argv = ["matching", "gi", "--n", str(n), "--k", str(k), "--t", str(t), "--pair", str(a_mask)]
            ops.append(cli_op("gi", argv, _check_gi(n, k, t, a_mask)))
    for idx, (blocks, pairs, feasible) in enumerate(HALL_GRAPHS):
        a_sizes, b_sizes, edges = inputs.blocked_graph(rng, blocks, pairs, feasible)
        path = _write(workdir, f"graph{idx}.txt", inputs.graph_text(a_sizes, b_sizes, edges))
        check = _check_hall(ck.BlockedGraph(a_sizes, b_sizes, edges), feasible)
        ops.append(cli_op("hall", ["hall", "decide", "--graph", path], check))
    for m, r in COROLLARY_CELLS:
        spec = matching.DisjointnessGraphSpec(m, r)
        fn = lambda spec=spec: matching.verify_corollary_hall_blocks(spec)  # noqa: E731
        ops.append(lib_op("corollary", fn, _check_corollary(m, r), f"verify_corollary_hall_blocks m={m} r={r}"))
    for n, k, t in PAIR_SHAPES:
        values = inputs.exact_t_values(rng, n, k, t)
        seq = nonneg.NumberSequence(tuple(values), k)
        for a_mask in range(1, 1 << t, 2):
            spec = matching.GiGraphSpec(n, k, t, a_mask)
            ops.append(
                lib_op(
                    "pair_count",
                    lambda spec=spec, seq=seq: matching.count_cap_per_pair(spec, seq),
                    _check_pair_count(values, n, k, t, a_mask),
                    f"count_cap_per_pair n={n} k={k} t={t} pair={a_mask}",
                )
            )
    return ops


# --------------------------------------------------------------- families

# theorem1_via_ekr inputs: ("extremal", n, k) or ("sum-1", n).
EKR_INPUTS = [("extremal", 13, 6), ("extremal", 14, 7), ("sum-1", 12)]
# ekr shift inputs: nonnegative families of ("sum-1", n) or ("refined", n, k, t).
# The six n = 10 families (511 sets each) are the middle of the time
# distribution, so op_p50_ms is the median of like samples.
SHIFT_INPUTS = [("refined", 11, 6, 3)] + [("sum-1", 10)] * 6 + [("sum-1", 11)]
ORACLE_CELLS = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (6, 5)]
THEOREM3_CELLS = [(4, 3), (5, 3), (6, 3), (6, 4)]
# nonneg --dump inputs: ("sum-1", n) or ("refined", n, k, t).
DUMP_INPUTS = [("sum-1", 16), ("refined", 17, 8, 2), ("sum-1", 18)]


def _family_values(rng: random.Random, spec: tuple) -> tuple[list, int, int]:
    """Values, k, and the count of nonnegative sets the construction promises."""
    if spec[0] == "sum-1":
        n = spec[1]
        return inputs.sum_minus_one(rng, n), n - 1, 2 ** (n - 1)
    if spec[0] == "extremal":
        _, n, k = spec
        return inputs.extremal_scaled(rng, n, k, 1), k, ck.bound_main(n, k)
    _, n, k, t = spec
    return inputs.extremal_scaled(rng, n, k, t), k, ck.bound_refined(n, k, t)


def _check_ekr(values, k: int, promised: int) -> Callable[[Any], None]:
    def check(v: Any) -> None:
        size = ck.count_nonneg(values) - 1
        cap = ck.bound_main(len(values), k) - 1
        require(size + 1 == promised, f"independent count {size + 1} != promised {promised}")
        require(v.passed and v.property_holds and v.property_witness is None, "ekr verdict failed")
        require(v.family_size == size <= cap == v.cap, f"family size {v.family_size} vs {size}, cap {cap}")

    return check


def _check_shift(masks: list[int], n: int, k: int) -> Callable[[dict], None]:
    def check(res: dict) -> None:
        out = [ck.parse_subset(s) for s in res["upset"]]
        require(res["n"] == n, "shift reports another ground set")
        require(res["size"] == len(masks) == len(out) == len(set(out)), "shift changed the family size")
        require(res["property_before"] and res["intersecting"], "shift flags are false")
        require(all(0 < m.bit_count() <= k and m >> n == 0 for m in out), "upset member out of range")
        require(ck.is_upset(out, n, k), "shift output is not upward closed")
        require(ck.is_intersecting(out), "shift output is not intersecting")

    return check


def _check_oracle(n: int, k: int, size_key: str) -> Callable[[dict], None]:
    def check(res: dict) -> None:
        closed = ck.bound_main(n, k) - 1
        witness = [ck.parse_subset(s) for s in res["witness"]]
        require(res[size_key] == closed == len(set(witness)), f"oracle size {res[size_key]} != {closed}")
        require(all(0 < m.bit_count() <= k and m >> n == 0 for m in witness), "witness member out of range")
        require(ck.is_cross_bounded(witness, k), "witness is not cross-bounded")

    return check


def _check_dump(values, k: int, promised: int) -> Callable[[dict], None]:
    def check(res: dict) -> None:
        masks = ck.nonneg_masks(values)
        bound = ck.bound_main(len(values), k)
        require(len(masks) == promised, f"independent count {len(masks)} != promised {promised}")
        require(res["count"] == len(masks) <= bound, f"count {res['count']} vs independent {len(masks)}")
        listed = [ck.parse_subset(s) for s in res["family"]]
        require(listed == sorted(masks), "listed family differs from the independent listing")

    return check


def families(rng: random.Random, workdir: str) -> list[Op]:
    from nonnegsets import ekrshift, nonneg

    ops = []
    for spec in EKR_INPUTS:
        values, k, promised = _family_values(rng, spec)
        seq = nonneg.NumberSequence(tuple(values), k)
        label = f"theorem1_via_ekr {spec[0]} n={len(values)} k={k}"
        fn = lambda seq=seq: ekrshift.theorem1_via_ekr(seq)  # noqa: E731
        ops.append(lib_op("ekr", fn, _check_ekr(values, k, promised), label))
    for idx, spec in enumerate(SHIFT_INPUTS):
        values, k, _ = _family_values(rng, spec)
        masks = sorted(ck.nonneg_masks(values) - {0})
        path = _write(workdir, f"family{idx}.txt", inputs.family_text(rng, masks))
        argv = ["ekr", "shift", "--family", path, "--k", str(k), "--n", str(len(values))]
        ops.append(cli_op("shift", argv, _check_shift(masks, len(values), k)))
    for n, k in ORACLE_CELLS:
        argv = ["ekr", "oracle", "--n", str(n), "--k", str(k)]
        ops.append(cli_op("oracle", argv, _check_oracle(n, k, "max_size")))
    for n, k in THEOREM3_CELLS:
        argv = ["verify", "--theorem", "3", "--n", str(n), "--k", str(k), "--seed", _sub_seed(rng)]
        ops.append(cli_op("theorem3", argv, _check_oracle(n, k, "oracle_size")))
    for idx, spec in enumerate(DUMP_INPUTS):
        values, k, promised = _family_values(rng, spec)
        path = _write(workdir, f"dump{idx}.seq", inputs.sequence_text(values, k))
        ops.append(cli_op("dump", ["nonneg", "--input", path, "--dump"], _check_dump(values, k, promised)))
    return ops


WORKLOADS = {"sweep": sweep, "certify": certify, "families": families}
