"""Command-line front end: read posets, run expansions, cross-verify.

    qmn [--max-n N] COMMAND [--flag VALUE | --flag=VALUE ...]

Exit codes: 0 success/PASS, 1 verification FAIL (also a check that
raises ArithmeticError), 2 input error, 3 size guard exceeded.  The guard
is 10 elements (10 parts for identities --d) unless --max-n overrides it;
the QMN_MAX_N environment variable, read once, is the default of --max-n.

`parse_args` reads argv from one table, `COMMANDS`, which gives each
command its function and each flag its type, default and choices.  Flag
names are exact (no abbreviations), the last of a repeated flag wins, and
a malformed argv prints usage and `qmn: error: ...` and exits 2, as
argparse would; no request loads `argparse`, `gettext` or `locale`.

This module parses, prints and sets exit codes; each command's work is a
library call, imported inside the command, so a request compiles only the
modules its command runs.  `verify` compiles posets, qsym, surjections and
mn; `random-check` those and rewrites; `identities` only identities and
compositions.  `compositions` is imported only where a composition is
parsed or printed, so a passing `verify` or `random-check` never compiles
it; `json` loads only when a poset file is read or --json prints.
Whole coefficients are ints, random posets are drawn in ints and the
coarsening identities are checked in ints, so `fractions` loads only for
`expand --basis Psi`: `verify`, `schur`, `chi`, `random-check`,
`identities` and the other expansions never load it.  No module imports
this one: run as `python -m qmn.cli` it is `__main__`, and an import
would compile it a second time.
"""

import os
import sys
from types import SimpleNamespace

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


REQUIRED = object()  # the default of a flag that must be given
SWITCH = (bool, False, None)  # a bare flag: True when given, else False

# Each command's function, one-line help and flags.  A flag maps to its
# type, its default (or REQUIRED) and its choices (or None); a str default
# is converted by the type, as a given value is.
COMMANDS = {
    "expand": (cmd_expand, "power sum rule expansion of a poset file", {
        "--poset": (str, REQUIRED, None),
        "--basis": (str, "PsiHat", ("M", "Psi", "PsiHat")),
        "--json": SWITCH,
    }),
    "oracle": (cmd_oracle, "brute-force monomial expansion", {
        "--poset": (str, REQUIRED, None),
        "--json": SWITCH,
    }),
    "verify": (cmd_verify, "compare rule against the brute-force oracle", {
        "--poset": (str, REQUIRED, None),
    }),
    "schur": (cmd_schur, "character table for partitions of n", {
        "--n": (int, REQUIRED, None),
        "--json": SWITCH,
    }),
    "chi": (cmd_chi, "single character value; partitions as 3,1 and 2,1,1", {
        "--lam": (str, REQUIRED, None),
        "--mu": (str, REQUIRED, None),
    }),
    "identities": (cmd_identities, "coarsening identity report for a composition, e.g. 1,2,2", {
        "--d": (str, REQUIRED, None),
        "--json": SWITCH,
        "--samples": (int, 0, None),
        "--seed": (int, 0, None),
    }),
    "random-check": (cmd_random_check, "batch property check on random posets", {
        "--count": (int, REQUIRED, None),
        "--n-max": (int, 6, None),
        "--seed": (int, 0, None),
    }),
}
USAGE = "qmn [--max-n N] COMMAND [--flag VALUE | --flag=VALUE ...]"


def _dest(flag) -> str:
    """The attribute a flag sets: --n-max sets n_max."""
    return flag[2:].replace("-", "_")


def _synopsis(command) -> str:
    """The command and its flags, optional ones in brackets."""
    words = [command]
    for flag, (kind, default, choices) in COMMANDS[command][2].items():
        if kind is not bool:
            flag += f" {{{','.join(choices)}}}" if choices else f" {_dest(flag).upper()}"
        words.append(flag if default is REQUIRED else f"[{flag}]")
    return " ".join(words)


def _usage_error(message, command=None):
    usage = USAGE if command is None else f"qmn [--max-n N] {_synopsis(command)}"
    sys.stderr.write(f"usage: {usage}\nqmn: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _help():
    rows = "".join(f"  {_synopsis(c)}\n      {COMMANDS[c][1]}\n" for c in COMMANDS)
    sys.stdout.write(
        f"usage: {USAGE}\n\nExact power sum expansions of weighted labeled posets.\n\n"
        f"commands:\n{rows}\n"
        f"--max-n N is the size guard (default: $QMN_MAX_N, else {DEFAULT_MAX_N}).\n"
        "Flag names are exact; --flag=VALUE is --flag VALUE.\n"
    )
    raise SystemExit(EXIT_OK)


def _read_flags(argv, i, flags, command):
    """Read flags from argv[i:] into {dest: value}, with every default, and
    return it with the index where they end: at the first token not starting
    with "-" before a command (command None), else at the end of argv."""
    given = {}
    while i < len(argv) and argv[i].startswith("-"):
        token = argv[i]
        if token in ("-h", "--help"):
            _help()
        flag, eq, value = token.partition("=")
        if flag not in flags:
            _usage_error(f"unrecognized arguments: {token}", command)
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                _usage_error(f"argument {flag}: ignored explicit argument {value!r}", command)
            value = True
        elif not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("--"):
                _usage_error(f"argument {flag}: expected one argument", command)
            value = argv[i]
        given[flag] = value
        i += 1
    if command is not None and i < len(argv):
        _usage_error(f"unrecognized arguments: {' '.join(argv[i:])}", command)
    missing = [f for f, (_, default, _) in flags.items() if default is REQUIRED and f not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}", command)
    values = {}
    for flag, (kind, default, choices) in flags.items():
        value = given.get(flag, default)
        if isinstance(value, str):
            try:
                value = kind(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid {kind.__name__} value: {value!r}", command)
        if choices and value not in choices:
            _usage_error(
                f"argument {flag}: invalid choice: {value!r} "
                f"(choose from {', '.join(map(repr, choices))})",
                command,
            )
        values[_dest(flag)] = value
    return values, i


def parse_args(argv):
    """The namespace of `qmn [--max-n N] COMMAND [--flag VALUE | --flag=VALUE ...]`:
    max_n, command, the command's function as func, and one attribute per
    flag of the command.  A malformed argv prints usage and an error on
    stderr and raises SystemExit(2); -h or --help prints help and exits 0."""
    guard = os.environ.get("QMN_MAX_N") or DEFAULT_MAX_N  # read once; converted as --max-n
    values, i = _read_flags(argv, 0, {"--max-n": (int, guard, None)}, None)
    if i == len(argv):
        _usage_error("the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(f"argument command: invalid choice: {command!r} (choose from {choices})")
    func, _, flags = COMMANDS[command]
    values.update(_read_flags(argv, i + 1, flags, command)[0], command=command, func=func)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
