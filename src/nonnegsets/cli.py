"""Command-line front end.

Subcommands expose the library verbatim: ``bound`` prints the closed-form
caps, ``verify`` runs randomized theorem sweeps, ``nonneg`` enumerates a
sequence file, ``matching``/``hall``/``ekr`` pass through to their modules.

Output is text by default, JSON with ``--format json``.  JSON output always
carries ``"schema": 1`` and an explicit ``"seed"`` (null when the command
is deterministic), is key-sorted, and is byte-identical for identical
(subcommand, flags, seed).

Exit codes: 0 success, 1 a verification failed, 2 bad usage or parameters,
3 I/O or file-format trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import ekrshift, hallflow, matching, nonneg, setcore
from .setcore import FileFormatError, SetFamily, Subset

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class Outcome:
    code: int
    result: dict[str, Any]
    text: list[str]
    seed: int | None = None


def _family_list(family: SetFamily) -> list[str]:
    """Each member's text, rendered once and shared by the JSON and text outputs."""
    return setcore.render_masks(family.members)


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text:
            sys.stdout.write(line + "\n")


def _envelope(ok: bool, seed: int | None, body_key: str, body: dict[str, Any]) -> dict[str, Any]:
    return {"schema": SCHEMA_VERSION, "ok": ok, "seed": seed, body_key: body}


# ---------------------------------------------------------------- commands


def cmd_bound(args: argparse.Namespace) -> Outcome:
    if args.t is None:
        value = setcore.bound_main(args.n, args.k)
        text = [f"bound_main(n={args.n}, k={args.k}) = {value}"]
    else:
        value = setcore.bound_refined(args.n, args.k, args.t)
        text = [f"bound_refined(n={args.n}, k={args.k}, t={args.t}) = {value}"]
    result = {"n": args.n, "k": args.k, "t": args.t, "value": value}
    return Outcome(EXIT_OK, result, text)


def _verdict_result(v: nonneg.TheoremVerdict) -> dict[str, Any]:
    counterexample = None
    if v.counterexample is not None:
        counterexample = {
            "k": v.counterexample.k,
            "values": [str(x) for x in v.counterexample.values],
        }
    return {
        "theorem": v.theorem,
        "n": v.n,
        "k": v.k,
        "t": v.t,
        "trials": v.trials,
        "passed": v.passed,
        "bound": v.bound,
        "max_count": v.max_count,
        "extremal_count": v.extremal_count,
        "extremal_tight": v.extremal_tight,
        "counterexample": counterexample,
    }


def cmd_verify(args: argparse.Namespace) -> Outcome:
    if args.theorem == 3:
        if args.t is not None:
            raise ValueError("--t does not apply to theorem 3")
        oracle = ekrshift.max_family_oracle(args.n, args.k)
        closed = setcore.bound_main(args.n, args.k) - 1
        passed = oracle.size == closed
        result = {
            "theorem": 3,
            "n": args.n,
            "k": args.k,
            "oracle_size": oracle.size,
            "closed_form": closed,
            "passed": passed,
            "witness": _family_list(oracle.witness),
        }
        text = [
            f"theorem 3 n={args.n} k={args.k}: "
            f"{'PASS' if passed else 'FAIL'} (oracle={oracle.size}, closed form={closed})"
        ]
        return Outcome(EXIT_OK if passed else EXIT_VIOLATION, result, text)
    if args.theorem == 1:
        if args.t is not None:
            raise ValueError("--t does not apply to theorem 1")
        verdict = nonneg.verify_theorem1(args.n, args.k, args.trials, args.seed)
    else:
        if args.t is None:
            raise ValueError("theorem 2 needs --t")
        verdict = nonneg.verify_theorem2(args.n, args.k, args.t, args.trials, args.seed)
    status = "PASS" if verdict.passed else "FAIL"
    text = [
        f"theorem {verdict.theorem} n={verdict.n} k={verdict.k}"
        + (f" t={verdict.t}" if verdict.t is not None else "")
        + f" trials={verdict.trials}: {status} "
        + f"(bound={verdict.bound}, max count={verdict.max_count}, "
        + f"extremal={verdict.extremal_count})"
    ]
    if verdict.counterexample is not None:
        text.append("counterexample: " + " ".join(str(x) for x in verdict.counterexample.values))
    code = EXIT_OK if verdict.passed else EXIT_VIOLATION
    return Outcome(code, _verdict_result(verdict), text, seed=args.seed)


def cmd_nonneg(args: argparse.Namespace) -> Outcome:
    seq = nonneg.read_sequence_file(args.input)
    report = nonneg.enumerate_nonneg(seq, with_family=args.dump)
    result: dict[str, Any] = {
        "n": seq.n,
        "k": seq.k,
        "count": report.count,
        "bound": report.bound,
        "t": report.t,
        "tight": report.tight,
    }
    text = [
        f"n={seq.n} k={seq.k}: {report.count} nonnegative subset sums "
        f"(bound {report.bound}, t={report.t}{', tight' if report.tight else ''})"
    ]
    if args.dump and report.family is not None:
        result["family"] = _family_list(report.family)
        text.extend(result["family"])
    return Outcome(EXIT_OK, result, text)


def _chain_rule(m: int, r: int) -> matching.CandidateRule:
    return lambda vertex, side: Subset(matching.chain_partner(vertex.mask, m, r), m)


def cmd_matching_disjointness(args: argparse.Namespace) -> Outcome:
    spec = matching.DisjointnessGraphSpec(args.m, args.r)
    if args.dump:
        # Printed pairs come from Hopcroft-Karp on the explicit graph.
        outcome = matching.find_perfect_matching(spec)
        pairs = [[str(a), str(b)] for a, b in outcome.matching.pairs]
        unsat_left = [str(v) for v in outcome.unsaturated_left]
        unsat_right = [str(v) for v in outcome.unsaturated_right]
    else:
        # Only the size is read: the checked chain matching, edgeless (empty) at m = r.
        pairs = matching.chain_matching(args.m, args.r)
        unsat_left = unsat_right = [] if pairs else setcore.render_masks(setcore.masks_by_size(args.m, 1, args.r))
    perfect = not unsat_left and not unsat_right
    result: dict[str, Any] = {
        "m": args.m,
        "r": args.r,
        "saturated": perfect,
        "matching_size": len(pairs),
        "unsaturated": {"left": unsat_left, "right": unsat_right},
    }
    text = [
        f"disjointness graph m={args.m} r={args.r}: "
        + ("perfect matching" if perfect else "no perfect matching")
        + f" ({len(pairs)} pairs)"
    ]
    if not perfect and unsat_left:
        text.append(f"first unsaturated left vertex: {unsat_left[0]}")
    if args.dump:
        result["pairs"] = pairs
        text.extend(f"{a} <-> {b}" for a, b in pairs)
    if args.rule is not None:
        rule = {"complement": matching.complement_rule, "chain": _chain_rule(args.m, args.r)}[args.rule]
        report = matching.validate_candidate_rule(spec, rule)
        result["rule"] = {
            "name": args.rule,
            "valid": report.valid,
            "checked": report.checked,
            "failure_vertex": None if report.failure_vertex is None else str(report.failure_vertex),
            "failure_reason": report.failure_reason,
        }
        text.append(
            f"rule {args.rule}: " + ("valid perfect matching" if report.valid else f"invalid ({report.failure_reason})")
        )
    return Outcome(EXIT_OK, result, text)


def cmd_matching_gi(args: argparse.Namespace) -> Outcome:
    spec = matching.GiGraphSpec(args.n, args.k, args.t, args.pair)
    found = matching.near_perfect_matching_gi(spec)
    # near_perfect_matching_gi guarantees every vertex but the two roots is matched.
    size = len(found) + 1
    result = {
        "n": args.n,
        "k": args.k,
        "t": args.t,
        "pair_a": str(spec.a_core),
        "pair_b": str(spec.b_core),
        "left_size": size,
        "right_size": size,
        "matching_size": len(found),
        "pairs": [[str(a), str(b)] for a, b in found.pairs],
    }
    text = [
        f"split graph n={args.n} k={args.k} t={args.t} pair {spec.a_core}|{spec.b_core}: "
        f"{len(found)} matched pairs, roots unsaturated"
    ]
    text.extend(f"{a} <-> {b}" for a, b in found.pairs)
    return Outcome(EXIT_OK, result, text)


def cmd_hall_decide(args: argparse.Namespace) -> Outcome:
    graph = hallflow.read_graph_file(args.graph)
    reduced = hallflow.reduce(graph)  # raises on a graph that is not bi-regular
    if graph.total_a != graph.total_b:
        raise ValueError(f"side totals differ: {graph.total_a} vs {graph.total_b}")
    solved = hallflow.solve_transportation(reduced)
    if solved.feasible:
        if solved.plan is None:
            raise RuntimeError("feasible transportation result carries no plan")
        result: dict[str, Any] = {
            "feasible": True,
            "plan": [list(row) for row in solved.plan.entries],
        }
        text = ["feasible; transportation plan rows:"]
        text.extend(" ".join(str(d) for d in row) for row in solved.plan.entries)
    else:
        if solved.cut_a is None or solved.cut_b is None:
            raise RuntimeError("infeasible transportation result carries no cut")
        result = {
            "feasible": False,
            "cut": {"a_blocks": str(solved.cut_a), "b_blocks": str(solved.cut_b)},
        }
        text = [f"infeasible; violating cut U1={solved.cut_a} U2={solved.cut_b}"]
    return Outcome(EXIT_OK, result, text)


def _infer_ground(text: str) -> int:
    """Largest number on the lines ``SetFamily.parse`` reads, at least 1.

    Blank lines and ``#`` comments are skipped, as the parser skips them.
    """
    best = 1
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            digits = "".join(ch if ch.isdecimal() else " " for ch in line)
            best = max([best, *(int(token) for token in digits.split())])
    return best


def cmd_ekr_shift(args: argparse.Namespace) -> Outcome:
    with open(args.family, encoding="utf-8") as fh:
        raw = fh.read()
    ground_n = args.n if args.n is not None else _infer_ground(raw)
    family = SetFamily.parse(raw, ground_n)
    bounded = ekrshift.BoundedFamily(family, args.k)
    before = ekrshift.has_property(bounded)
    upset = ekrshift.to_upset(bounded)
    members = _family_list(upset.family.family)
    result = {
        "n": ground_n,
        "k": args.k,
        "size": len(upset.family),
        "property_before": before.holds,
        "log": [[i, changed] for i, changed in upset.log],
        "upset": members,
        "intersecting": setcore.family_is_intersecting(upset.family.family),
    }
    text = [
        f"pushed family of {len(upset.family)} sets to an upset in {len(upset.log)} effective steps"
    ]
    text.extend(members)
    return Outcome(EXIT_OK, result, text)


def cmd_ekr_oracle(args: argparse.Namespace) -> Outcome:
    oracle = ekrshift.max_family_oracle(args.n, args.k)
    closed = setcore.bound_main(args.n, args.k) - 1
    matches = oracle.size == closed
    result = {
        "n": args.n,
        "k": args.k,
        "max_size": oracle.size,
        "closed_form": closed,
        "matches": matches,
        "witness": _family_list(oracle.witness),
    }
    text = [
        f"maximum cross-bounded family for n={args.n} k={args.k}: {oracle.size} "
        f"(closed form {closed}{', agree' if matches else ', MISMATCH'})"
    ]
    code = EXIT_OK if matches else EXIT_VIOLATION
    return Outcome(code, result, text)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonnegsets",
        description="Exact bounds and certificates for nonnegative subset sums.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="print bound_main or bound_refined")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--t", type=int, default=None)
    p_bound.set_defaults(handler=cmd_bound)

    p_verify = sub.add_parser("verify", help="randomized or exhaustive theorem checks")
    p_verify.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--t", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(handler=cmd_verify)

    p_nonneg = sub.add_parser("nonneg", help="enumerate a sequence file")
    p_nonneg.add_argument("--input", required=True)
    p_nonneg.add_argument("--dump", action="store_true", help="include the full family")
    p_nonneg.set_defaults(handler=cmd_nonneg)

    p_matching = sub.add_parser("matching", help="disjointness-graph matchings")
    matching_sub = p_matching.add_subparsers(dest="subcommand", required=True)
    p_md = matching_sub.add_parser("disjointness", help="maximum matching of the (m, r) graph")
    p_md.add_argument("--m", type=int, required=True)
    p_md.add_argument("--r", type=int, required=True)
    p_md.add_argument("--dump", action="store_true", help="list the matched pairs")
    p_md.add_argument("--rule", choices=("complement", "chain"), default=None)
    p_md.set_defaults(handler=cmd_matching_disjointness)
    p_mg = matching_sub.add_parser("gi", help="near-perfect matching of one rooted split graph")
    p_mg.add_argument("--n", type=int, required=True)
    p_mg.add_argument("--k", type=int, required=True)
    p_mg.add_argument("--t", type=int, required=True)
    p_mg.add_argument("--pair", type=int, required=True, help="bitmask of the A side inside [t]")
    p_mg.set_defaults(handler=cmd_matching_gi)

    p_hall = sub.add_parser("hall", help="weighted Hall feasibility")
    hall_sub = p_hall.add_subparsers(dest="subcommand", required=True)
    p_hd = hall_sub.add_parser("decide", help="decide a blocked graph file")
    p_hd.add_argument("--graph", required=True)
    p_hd.set_defaults(handler=cmd_hall_decide)

    p_ekr = sub.add_parser("ekr", help="pushing-up compression and the exact oracle")
    ekr_sub = p_ekr.add_subparsers(dest="subcommand", required=True)
    p_es = ekr_sub.add_parser("shift", help="push a family file to an upset")
    p_es.add_argument("--family", required=True)
    p_es.add_argument("--k", type=int, required=True)
    p_es.add_argument("--n", type=int, default=None, help="ground-set size (default: max element)")
    p_es.set_defaults(handler=cmd_ekr_shift)
    p_eo = ekr_sub.add_parser("oracle", help="exact maximum cross-bounded family")
    p_eo.add_argument("--n", type=int, required=True)
    p_eo.add_argument("--k", type=int, required=True)
    p_eo.set_defaults(handler=cmd_ekr_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], Outcome] = args.handler
    try:
        outcome = handler(args)
    except (FileFormatError, OSError) as exc:
        _emit(
            args,
            _envelope(False, None, "error", {"type": "io", "message": str(exc)}),
            [f"error: {exc}"],
        )
        return EXIT_IO
    except (ValueError, nonneg.SamplingError) as exc:
        _emit(
            args,
            _envelope(False, None, "error", {"type": "parameters", "message": str(exc)}),
            [f"error: {exc}"],
        )
        return EXIT_USAGE
    payload = _envelope(outcome.code == EXIT_OK, outcome.seed, "result", outcome.result)
    _emit(args, payload, outcome.text)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
