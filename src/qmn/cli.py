"""Command-line front end: read posets, run expansions, cross-verify.

Exit codes: 0 success/PASS, 1 verification FAIL (also a check that
raises ArithmeticError), 2 input error, 3 size guard exceeded.  The guard
is 10 elements (10 parts for identities --d) unless --max-n overrides it;
the QMN_MAX_N environment variable, read once, is the default of --max-n.

This module parses, prints and sets exit codes; each command's work is a
library call, imported inside the command, so a request compiles only the
modules its command runs.  `verify` compiles posets, qsym, surjections and
mn; `random-check` those and rewrites; `identities` only identities and
compositions.  `compositions` is imported only where a composition is
parsed or printed, so a passing `verify` or `random-check` never compiles
it; `json` loads only when a poset file is read or --json prints.
Whole coefficients are ints, so `fractions` loads only for `expand
--basis Psi`, `random-check` and `identities`: `verify`, `schur`, `chi`
and the other expansions never load it.  No module imports this one: run
as `python -m qmn.cli` it is `__main__`, and an import would compile it a
second time.
"""

import argparse
import os
import sys

from . import DEFAULT_MAX_N, PosetError, PosetTooLarge

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _print_json(payload):
    import json

    print(json.dumps(payload))


def _print_expr(expr, as_json: bool):
    from .compositions import format_composition

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
    from .qsym import first_difference

    via_mn = mn.mn_monomial_expansion(poset, max_n=max_n)
    diff = first_difference(via_mn, surjections.monomial_expansion(poset, max_n=max_n))
    return diff is None, diff


def _describe(diff) -> str:
    from .compositions import format_composition

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
    from .compositions import format_composition

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
    from .compositions import parse_composition

    lam = parse_composition(args.lam)
    mu = parse_composition(args.mu)
    print(schur.chi(lam, mu, args.max_n))
    return EXIT_OK


def cmd_identities(args) -> int:
    from . import identities
    from .compositions import parse_composition

    ok, report = identities.report(parse_composition(args.d), args.samples, args.seed, args.max_n)
    if args.json:
        _print_json(report)
    else:
        for key, value in report.items():
            print(f"{key}\t{value}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_random_check(args) -> int:
    from . import rewrites

    main_ok = edge_ok = split_ok = 0
    for seed, n, diff, edge, split in rewrites.random_check(
        args.count, args.n_max, args.seed, args.max_n
    ):
        main_ok += diff is None
        edge_ok += edge
        split_ok += split
        failed = [] if diff is None else [f"main ({_describe(diff)})"]
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
