"""Command-line front end: read posets, run expansions, cross-verify.

Exit codes: 0 success/PASS, 1 verification FAIL (also a check that
raises ArithmeticError), 2 input error, 3 size guard exceeded.  The guard
is 10 elements (10 parts for identities --d) unless --max-n overrides it;
the QMN_MAX_N environment variable, read once, is the default of --max-n.

Each command imports the modules it runs inside the command, so a one-shot
request compiles no other command's modules; `json` loads only when a
poset file is read or --json prints.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from fractions import Fraction

from . import DEFAULT_MAX_N, PosetError, PosetTooLarge
from .compositions import format_composition, parse_composition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _print_json(payload):
    import json

    print(json.dumps(payload))


def _print_expr(expr, as_json: bool):
    if as_json:
        _print_json(expr.to_json_dict())
    else:
        for alpha, coeff in expr.items():
            print(f"{format_composition(alpha)}\t{coeff.numerator}/{coeff.denominator}")


def _expand_in_basis(poset, basis, max_n):
    from . import mn, qsym

    if basis == "M":
        return mn.mn_monomial_expansion(poset, max_n=max_n)
    expr = mn.mn_expansion(poset, max_n=max_n)
    return qsym.psihat_to_psi(expr) if basis == "Psi" else expr


def _load(args):
    """The poset in the --poset file, refused past the size guard."""
    from .posets import load_poset

    return load_poset(args.poset, args.max_n)


def cmd_expand(args) -> int:
    poset = _load(args)
    _print_expr(_expand_in_basis(poset, args.basis, args.max_n), args.json)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import surjections

    poset = _load(args)
    _print_expr(surjections.monomial_expansion(poset, max_n=args.max_n), args.json)
    return EXIT_OK


def _verify_poset(poset, max_n):
    """Compare the two pipelines; returns (ok, first difference or None)."""
    from . import mn, surjections

    via_mn = mn.mn_monomial_expansion(poset, max_n=max_n)
    oracle = surjections.monomial_expansion(poset, max_n=max_n)
    return _compare(via_mn, oracle)


def _compare(via_mn, oracle):
    """(ok, first difference or None) between the rule and the oracle, both in M."""
    if via_mn.terms == oracle.terms:
        return True, None
    for alpha in sorted(set(via_mn.terms) | set(oracle.terms)):
        a = via_mn.coefficient(alpha)
        b = oracle.coefficient(alpha)
        if a != b:
            return False, (alpha, a, b)
    return True, None


def _describe(diff) -> str:
    alpha, a, b = diff
    return f"coefficient of M_{format_composition(alpha)} differs: rule {a} vs oracle {b}"


def cmd_verify(args) -> int:
    poset = _load(args)
    ok, diff = _verify_poset(poset, args.max_n)
    if ok:
        print("PASS")
        return EXIT_OK
    print(f"FAIL: {_describe(diff)}")
    return EXIT_FAIL


def cmd_schur(args) -> int:
    from . import schur

    table = schur.character_table(args.n, args.max_n)
    names = {lam: format_composition(lam) for lam in dict.fromkeys(lam for lam, _, _ in table)}
    rows = [(names[lam], names[mu], value) for lam, mu, value in table]
    if args.json:
        entries = [{"lambda": lam, "mu": mu, "chi": value} for lam, mu, value in rows]
        _print_json({"n": args.n, "table": entries})
    else:
        sys.stdout.write("".join(f"{lam}\t{mu}\t{value}\n" for lam, mu, value in rows))
    return EXIT_OK


def cmd_chi(args) -> int:
    from . import schur

    lam = parse_composition(args.lam)
    mu = parse_composition(args.mu)
    print(schur.chi(lam, mu, args.max_n))
    return EXIT_OK


def _refuse_unprintable_factorial(n):
    """Refuse n, before n! is computed, when n! has more digits than
    Python's int-to-string limit allows (a limit of 0 means none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound, product = 10**limit, 1
        for k in range(2, n + 1):
            product *= k
            if product >= bound:
                raise ValueError(f"--d sums to {n}, and {n}! has more digits than Python prints")


def cmd_identities(args) -> int:
    from . import identities

    d = parse_composition(args.d)
    if len(d) > args.max_n:
        raise PosetTooLarge(f"--d has {len(d)} parts, exceeding guard {args.max_n}")
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    _refuse_unprintable_factorial(sum(d))  # before any sum runs
    total = identities.probabilistic_sum(d)
    q_ok = identities.q_probabilistic_sum(d) == identities.ONE
    lhs, rhs = identities.linext_identity_check(d)
    report = {
        "d": format_composition(d),
        "sum": f"{total.numerator}/{total.denominator}",
        "q_identity": q_ok,
        "linext_lhs": str(lhs),
        "linext_rhs": str(rhs),
    }
    if args.samples:
        freqs = identities.staircase_monte_carlo(d, args.samples, args.seed)
        report["monte_carlo"] = {
            format_composition(beta): f"{f.numerator}/{f.denominator}"
            for beta, f in sorted(freqs.items())
        }
    if args.json:
        _print_json(report)
    else:
        for key, value in report.items():
            print(f"{key}\t{value}")
    ok = total == 1 and q_ok and lhs == rhs
    return EXIT_OK if ok else EXIT_FAIL


def cmd_random_check(args) -> int:
    from . import mn, rewrites, surjections
    from .posets import random_poset

    if args.count < 1 or args.n_max < 1:
        raise ValueError("--count and --n-max must be at least 1")
    max_n = args.max_n
    if args.n_max >= max_n:  # a weight split adds one element
        note = "" if args.n_max > max_n else " once a weight split adds an element"
        raise PosetTooLarge(f"--n-max {args.n_max} exceeds guard {max_n}{note}")
    main_ok = edge_ok = split_ok = 0
    for i in range(args.count):
        n = 1 + (i % args.n_max)
        seed = args.seed * 10**6 + i
        poset = random_poset(n, Fraction(1, 2), seed=seed)
        oracle = surjections.monomial_expansion(poset, max_n=max_n)
        ok, diff = _compare(mn.mn_monomial_expansion(poset, max_n=max_n), oracle)
        wholes = (oracle, mn.mn_expansion(poset, max_n=max_n))
        pair = rewrites.first_incomparable_pair(poset)
        edge = pair is None or _check_rewrite(
            wholes, rewrites.add_edge_pair(poset, *pair), operator.add, max_n
        )
        vertex = next((x for x in range(poset.n) if poset.d[x] >= 2), None)
        split = vertex is None or _check_rewrite(
            wholes, rewrites.split_weight(poset, vertex, 1, poset.d[vertex] - 1),
            operator.sub, max_n
        )
        main_ok += ok
        edge_ok += edge
        split_ok += split
        failed = [] if ok else [f"main ({_describe(diff)})"]
        failed += [name for name, good in (("addEdge", edge), ("splitWeight", split)) if not good]
        if failed:
            # random_poset(n, 1/2, seed=seed) rebuilds the poset
            print(f"FAIL: poset seed {seed}, n {n}: {', '.join(failed)}", file=sys.stderr)
    print(
        f"{main_ok}/{args.count} main, {edge_ok}/{args.count} addEdge, "
        f"{split_ok}/{args.count} splitWeight"
    )
    failures = 3 * args.count - main_ok - edge_ok - split_ok
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _check_rewrite(wholes, parts, combine, max_n) -> bool:
    """Whether K(P) == combine(K(p1), K(p2)) in both the oracle and the rule,
    for parts = (p1, p2) and wholes = (the oracle's K(P), the rule's K(P))."""
    from . import mn, surjections

    return all(
        whole == combine(*(expand(q, max_n=max_n) for q in parts))
        for expand, whole in zip((surjections.monomial_expansion, mn.mn_expansion), wholes)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmn", description="Exact power sum expansions of weighted labeled posets."
    )
    guard = os.environ.get("QMN_MAX_N") or DEFAULT_MAX_N  # read once; argparse converts it
    parser.add_argument("--max-n", type=int, default=guard, help="size guard override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="power sum rule expansion of a poset file")
    p_expand.add_argument("--poset", required=True)
    p_expand.add_argument("--basis", choices=("M", "Psi", "PsiHat"), default="PsiHat")
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=cmd_expand)

    p_oracle = sub.add_parser("oracle", help="brute-force monomial expansion")
    p_oracle.add_argument("--poset", required=True)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="compare rule against the brute-force oracle")
    p_verify.add_argument("--poset", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_schur = sub.add_parser("schur", help="character table for partitions of n")
    p_schur.add_argument("--n", type=int, required=True)
    p_schur.add_argument("--json", action="store_true")
    p_schur.set_defaults(func=cmd_schur)

    p_chi = sub.add_parser("chi", help="single character value")
    p_chi.add_argument("--lam", required=True, help="partition, e.g. 3,1")
    p_chi.add_argument("--mu", required=True, help="partition, e.g. 2,1,1")
    p_chi.set_defaults(func=cmd_chi)

    p_idents = sub.add_parser("identities", help="coarsening identity report for a composition")
    p_idents.add_argument("--d", required=True, help="composition, e.g. 1,2,2")
    p_idents.add_argument("--json", action="store_true")
    p_idents.add_argument("--samples", type=int, default=0)
    p_idents.add_argument("--seed", type=int, default=0)
    p_idents.set_defaults(func=cmd_identities)

    p_rand = sub.add_parser("random-check", help="batch property check on random posets")
    p_rand.add_argument("--count", type=int, required=True)
    p_rand.add_argument("--n-max", type=int, default=6)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.set_defaults(func=cmd_random_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PosetTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:  # a check that found its identity false
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (PosetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
