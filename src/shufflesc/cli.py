"""Command-line surface for the shuffle state-complexity workbench.

Exit codes: 0 success, 1 user/input error, 2 internal-invariant violation
(for example a reached count exceeding the valid-subset bound, which would
falsify the reachability validity lemma and signals a bug, not bad input).
argparse also exits 2, with a usage message on stderr, on a malformed
command line: an unknown option, a missing argument or a non-integer m.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automata, disting, reach, search, shuffle

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

class _Internal(Exception):
    """An internal invariant failed; the message goes to stderr."""


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def cmd_bound(args) -> int:
    value = shuffle.bound_f(args.m, args.n)
    payload = {"m": args.m, "n": args.n, "bound": value}
    lines = [f"f({args.m},{args.n}) = {value}"]
    if args.m * args.n <= shuffle.ENUM_GUARD_CELLS:
        counted = shuffle.count_valid_subsets(args.m, args.n)
        payload["valid_subsets"] = counted
        lines.append(f"valid subsets counted exhaustively: {counted}")
        if counted != value:
            raise _Internal(
                f"formula gives {value} but exhaustive count gives {counted}"
            )
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_complexity(args) -> int:
    K = automata.load_dfa(args.left)
    L = automata.load_dfa(args.right)
    kappa_k = automata.state_complexity(K)
    kappa_l = automata.state_complexity(L)
    kappa = shuffle.shuffle_state_complexity(K, L)
    bound = shuffle.bound_f(kappa_k, kappa_l)
    if kappa > bound:
        raise _Internal(f"computed complexity {kappa} exceeds the bound {bound}")
    payload = {
        "kappa_left": kappa_k,
        "kappa_right": kappa_l,
        "kappa_shuffle": kappa,
        "bound": bound,
        "met": kappa == bound,
    }
    _emit(args, payload, [
        f"kappa(K) = {kappa_k}",
        f"kappa(L) = {kappa_l}",
        f"kappa(K shuffle L) = {kappa}",
        f"f({kappa_k},{kappa_l}) = {bound}",
        "bound met" if kappa == bound else "bound not met",
    ])
    return EXIT_OK


def cmd_reach(args) -> int:
    alphabet = "full"
    if args.alphabet != "full":
        alphabet = reach.load_letters(args.alphabet)
    report = reach.bfs_reach(
        args.m,
        args.n,
        alphabet,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_generations=args.max_generations,
    )
    if report.reached > report.bound:
        raise _Internal(
            f"reached {report.reached} exceeds the bound {report.bound}; a "
            f"reached subset must be violating the row-1/column-1 condition"
        )
    _emit(args, report.to_dict(), [
        f"reach {args.m} {args.n} [{report.alphabet_id}]:",
        f"  reached  = {report.reached}",
        f"  bound    = {report.bound}",
        f"  complete = {str(report.complete).lower()}",
        f"  generations = {report.generations}",
        f"  elapsed  = {report.elapsed_seconds:.2f}s",
    ])
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        cert = reach.certify(args.m, args.n)
    except reach.CertificationGapError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INTERNAL
    failures: list[str] = []
    ok = reach.verify_certificate(cert, failures)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
            fh.write("\n")
    strategies = {(e.m, e.n): e.strategy for e in cert.entries}
    payload = {
        "m": args.m,
        "n": args.n,
        "verified": ok,
        "strategies": {f"{k[0]}x{k[1]}": v for k, v in strategies.items()},
    }
    lines = [f"certificate for all instances up to {args.m}x{args.n}:"]
    lines += [f"  {mi}x{ni}: {strategies[(mi, ni)]}"
              for mi, ni in sorted(strategies)]
    lines.append(f"verified: {str(ok).lower()}")
    _emit(args, payload, lines)
    if not ok:
        for f in failures:
            print(f, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_distinguish(args) -> int:
    K, L = disting.ternary_witness(args.m, args.n)
    sh = shuffle.build_shuffle_nfa(K, L)
    edges = disting.unique_in_subgraph(sh.nfa)
    closed = disting.uniquely_distinguishable(sh.nfa)
    total = args.m * args.n
    edge_list = [
        {"from": list(sh.state_pair(e.src)), "letter": e.letter,
         "to": list(sh.state_pair(e.dst))}
        for e in edges
    ]
    payload = {
        "m": args.m,
        "n": args.n,
        "uniquely_distinguishable": len(closed),
        "states": total,
        "all_distinguishable": len(closed) == total,
        "subgraph_edges": edge_list,
    }
    head = (
        f"all {total} states uniquely distinguishable"
        if len(closed) == total
        else f"{len(closed)} of {total} states uniquely distinguishable"
    )
    lines = [f"{head}; subgraph edges: {len(edges)}"]
    lines += [
        f"  {tuple(e['from'])} --{e['letter']}--> {tuple(e['to'])}"
        for e in edge_list
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        result = search.max_shuffle_complexity(
            args.m, args.n, args.k, result_cap=args.cap, force=args.force
        )
    except search.SearchVolumeError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USER
    payload = {
        "witnesses": [
            {"left": automata.dfa_to_dict(K), "right": automata.dfa_to_dict(L)}
            for K, L in result.witnesses
        ],
        **result.summary(),
    }
    lines = [
        f"max kappa = {result.maximum} (bound {result.bound}, "
        f"{'met' if result.met else 'not met'}); "
        f"{result.candidates_evaluated} candidates evaluated",
        f"{len(result.witnesses)} canonical witness pair(s)",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_okhotin(args) -> int:
    L = shuffle.okhotin_witness(args.n)
    sigma_star = shuffle.sigma_star_dfa(L.alphabet)
    kappa = shuffle.shuffle_state_complexity(sigma_star, L)
    expected = shuffle.ideal_bound(args.n)
    if kappa != expected:
        raise _Internal(
            f"kappa(Sigma* shuffle L) = {kappa}, expected 2^({args.n}-2)+1 "
            f"= {expected}"
        )
    payload = {"n": args.n, "kappa": kappa, "expected": expected}
    _emit(args, payload, [
        f"kappa(Sigma* shuffle L) = {kappa} = 2^({args.n}-2)+1"
    ])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflesc",
        description="state complexity of the shuffle operation: bounds, "
        "reachability, certification, distinguishability, witness search",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mn(p):
        p.add_argument("m", type=int)
        p.add_argument("n", type=int)

    p = sub.add_parser("bound", help="evaluate the bound f(m, n)")
    add_mn(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("complexity", help="shuffle complexity of two DFA files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("reach", help="BFS over the extremal subset automaton")
    add_mn(p)
    p.add_argument("--alphabet", default="full",
                   help="'full' or a letter-list JSON file")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--max-generations", type=int, default=None)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("certify", help="build and verify a reachability certificate")
    add_mn(p)
    p.add_argument("--out", default=None, help="write the certificate JSON here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("distinguish",
                       help="unique in-transition analysis of the ternary witness")
    add_mn(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("search", help="exhaustive witness search")
    add_mn(p)
    p.add_argument("k", type=int, help="alphabet size")
    p.add_argument("--cap", type=int, default=10, help="max witnesses reported")
    p.add_argument("--force", action="store_true",
                   help="override the search volume guard")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("okhotin", help="unary-left ideal witness family")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_okhotin)

    # --json also after the subcommand; SUPPRESS keeps an absent flag from
    # overwriting the top-level one
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="emit one JSON object")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Internal as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (automata.FormatError, shuffle.GridSizeError, reach.CheckpointError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
