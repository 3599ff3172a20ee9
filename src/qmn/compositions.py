"""Integer compositions, their coarsenings, and the scalar z.

Compositions are plain tuples of positive integers.  Partitions are
compositions with weakly decreasing parts.  All arithmetic is exact.
coarsening_blocks is the single walk over the cuts of a composition into
consecutive runs; coarsenings and the PsiHat->M conversion read it.  The
coarsening identities sum over the same cuts by their own recursions and
import only check_composition and format_composition from here.

The CLI and `qsym` import this module inside the functions that check,
parse, print or convert a composition.  The folds build their
compositions themselves, so `verify` and `random-check` compile this
module only to report a failed check.
"""

import math
from collections import Counter


def check_composition(alpha) -> tuple:
    """Validate and normalize a composition to a tuple of positive ints."""
    alpha = tuple(alpha)
    if not alpha:
        raise ValueError("composition must be nonempty")
    if any(not isinstance(a, int) or a < 1 for a in alpha):
        raise ValueError(f"composition parts must be positive integers: {alpha}")
    return alpha


def check_partition(mu) -> tuple:
    """Validate a partition (weakly decreasing composition)."""
    mu = check_composition(mu)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


def parse_composition(text: str) -> tuple:
    """Parse the comma-joined text form, e.g. "1,5,2"."""
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition: {text!r}") from None
    return check_composition(parts)


def format_composition(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def canonical_key(alpha):
    """Sort key: graded by weight, then lexicographic on parts."""
    return (sum(alpha), alpha)


def coarsening_blocks(alpha):
    """Yield each cut of alpha into consecutive runs, as a tuple of runs.

    There are 2^(len(alpha)-1) cuts, from alpha itself (every run one part)
    to the single run alpha.  This is the one walk over coarsenings: the
    run sums give the coarsening and blocks_pi gives its pi scalar.  The
    cuts of each suffix of alpha are built once and shared.
    """
    alpha = check_composition(alpha)
    k = len(alpha)
    tails = [[()]] * (k + 1)  # tails[i]: the cuts of alpha[i:]
    for i in range(k - 1, -1, -1):
        tails[i] = [(alpha[i:j],) + rest for j in range(i + 1, k + 1) for rest in tails[j]]
    yield from tails[0]


def coarsenings(alpha) -> set:
    """All compositions obtained by summing consecutive runs of alpha.

    The result has 2^(len(alpha)-1) elements and contains both alpha itself
    and the one-part composition (sum(alpha),).
    """
    return {tuple([sum(run) for run in blocks]) for blocks in coarsening_blocks(alpha)}


def z(alpha) -> int:
    """The scalar prod_i i^{m_i} m_i! over part multiplicities of alpha."""
    alpha = check_composition(alpha)
    result = 1
    for part, mult in Counter(alpha).items():
        result *= part**mult * math.factorial(mult)
    return result


def blocks_pi(blocks) -> int:
    """Product over the blocks of the running sums within each block."""
    result = 1
    for block in blocks:
        acc = 0
        for a in block:
            acc += a
            result *= acc
    return result


def rearrangements(mu) -> set:
    """All distinct orderings of the parts of the partition mu.

    Parts are inserted one at a time, so the cost is bounded by the size
    of the output, not by len(mu)!.
    """
    out = {()}
    for part in check_partition(mu):
        out = {w[:i] + (part,) + w[i:] for w in out for i in range(len(w) + 1)}
    return out


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n with parts bounded by max_part, largest-first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for tail in partitions_of(n - first, first):
            out.append((first,) + tail)
    return out
