"""Structural recurrences: edge insertion and weight splitting.

Both transformations produce new posets whose generating functions
combine to the original one:

  K(P) = K(P')  + K(P'')   after relating an incomparable pair both ways,
  K(P) = K(P',w') - K(P',w'')  after splitting a vertex weight in two.

Iterating the two rewrites reduces any weighted labeled poset to a signed
combination of naturally labeled weighted chains; the tests run that
reduction (`tests/reference.py`) as a check on both rewrites.

Each rewrite names only the pairs it adds to the relation it starts from;
`posets.from_covers` checks them and closes the result.  The two halves
of a weight split share one closed relation, relabeled by
`posets.relabeled`.

`random_check` runs both rewrites, and the rule against the oracle, on a
seeded stream of random posets: it is the body of `qmn random-check`,
which only prints what it returns.
"""

import operator

from .posets import (
    DEFAULT_MAX_N,
    LabeledPoset,
    PosetError,
    PosetTooLarge,
    from_covers,
    random_poset,
    relabeled,
)


def add_edge_pair(p: LabeledPoset, a, b):
    """The two posets obtained by relating an incomparable pair both ways.

    By convention the pair is oriented so omega(a) < omega(b); the first
    result adds a < b (a weak relation), the second b < a (strict).
    """
    if (a, b) in p.less or (b, a) in p.less or a == b:
        raise PosetError(f"elements {a} and {b} are not incomparable")
    if p.omega[a] > p.omega[b]:
        a, b = b, a
    return tuple(from_covers(p.n, [*p.less, edge], p.omega, p.d) for edge in ((a, b), (b, a)))


def split_weight(p: LabeledPoset, a, d1, d2):
    """Split vertex a of weight d1+d2 into a_- < a_+ with both labelings.

    Both results share the order relation: a keeps its index as a_-, the
    new top half a_+ gets index n, and each inherits all ambient
    relations of a.  The first labeling places a_- just below a_+ in
    label order (a weak edge); the second swaps them (strict).  Weights
    are d1 on a_- and d2 on a_+ in both.
    """
    if d1 < 1 or d2 < 1 or d1 + d2 != p.d[a]:
        raise PosetError(f"weights {d1}+{d2} must sum to d({a}) = {p.d[a]}")
    n = p.n  # the index of a_+
    pairs = [*p.less, (a, n), *((n, y) for x, y in p.less if x == a)]
    i = p.omega[a]
    base = [lab if lab < i else lab + 1 for lab in p.omega]
    omega_weak = base[:]
    omega_weak[a] = i
    omega_weak.append(i + 1)
    omega_strict = base[:]
    omega_strict[a] = i + 1
    omega_strict.append(i)
    d = list(p.d)
    d[a] = d1
    d.append(d2)
    weak = from_covers(n + 1, pairs, omega_weak, d)
    return weak, relabeled(weak, omega_strict)


def first_incomparable_pair(p: LabeledPoset):
    """The lexicographically smallest incomparable pair (i, j), i < j, or None."""
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if (i, j) not in p.less and (j, i) not in p.less:
                return i, j
    return None


def random_check(count, n_max, seed=0, max_n=None):
    """Check the rule against the oracle, and both rewrites in both, on
    `count` random posets; one row per poset, in order:
    (poset seed, n, first difference or None, addEdge holds, splitWeight holds).

    Poset i has n = 1 + i % n_max elements and is
    random_poset(n, 1/2, seed=seed * 10**6 + i).  The first difference is
    `qsym.first_difference` of the rule and the oracle in M.  A weight
    split adds one element, so n_max must stay below the guard `max_n`
    (None means DEFAULT_MAX_N).
    """
    from . import mn, surjections
    from .qsym import first_difference

    if count < 1 or n_max < 1:
        raise ValueError("--count and --n-max must be at least 1")
    max_n = DEFAULT_MAX_N if max_n is None else max_n
    if n_max >= max_n:
        note = "" if n_max > max_n else " once a weight split adds an element"
        raise PosetTooLarge(f"--n-max {n_max} exceeds guard {max_n}{note}")
    rows = []
    for i in range(count):
        n = 1 + (i % n_max)
        poset_seed = seed * 10**6 + i
        poset = random_poset(n, (1, 2), seed=poset_seed)
        oracle = surjections.monomial_expansion(poset, max_n=max_n)
        diff = first_difference(mn.mn_monomial_expansion(poset, max_n=max_n), oracle)
        wholes = (oracle, mn.mn_expansion(poset, max_n=max_n))
        pair = first_incomparable_pair(poset)
        edge = pair is None or _check_rewrite(
            wholes, add_edge_pair(poset, *pair), operator.add, max_n
        )
        vertex = next((x for x in range(poset.n) if poset.d[x] >= 2), None)
        split = vertex is None or _check_rewrite(
            wholes, split_weight(poset, vertex, 1, poset.d[vertex] - 1), operator.sub, max_n
        )
        rows.append((poset_seed, n, diff, edge, split))
    return rows


def _check_rewrite(wholes, parts, combine, max_n) -> bool:
    """Whether K(P) == combine(K(p1), K(p2)) in both the oracle and the rule,
    for parts = (p1, p2) and wholes = (the oracle's K(P), the rule's K(P))."""
    from . import mn, surjections

    return all(
        whole == combine(*(expand(q, max_n=max_n) for q in parts))
        for expand, whole in zip((surjections.monomial_expansion, mn.mn_expansion), wholes)
    )
