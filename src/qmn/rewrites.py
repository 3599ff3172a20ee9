"""Structural recurrences: edge insertion and weight splitting.

Both transformations produce new posets whose generating functions
combine to the original one:

  K(P) = K(P')  + K(P'')   after relating an incomparable pair both ways,
  K(P) = K(P',w') - K(P',w'')  after splitting a vertex weight in two.

Iterating the two rewrites reduces any weighted labeled poset to a signed
combination of naturally labeled weighted chains.

Each rewrite names only the pairs it adds to the relation it starts from;
`posets.from_covers` checks them and closes the result.  The two halves
of a weight split share one closed relation, relabeled by
`posets.relabeled`.
"""

from __future__ import annotations

from .posets import (
    LabeledPoset,
    PosetError,
    check_size_guard,
    from_covers,
    relabeled,
    topological_order,
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


def chain_from_marks(marks, weights) -> LabeledPoset:
    """A labeled chain x_1 < ... < x_n realizing the given edge marks.

    marks[k] is True for a strict edge between positions k and k+1.  The
    labeling is the canonical permutation with that descent pattern:
    rank positions by (number of strict marks at or after the position,
    position index).
    """
    n = len(weights)
    if len(marks) != max(n - 1, 0):
        raise PosetError("need one mark per chain edge")
    strict_after = [0] * n
    for k in range(n - 2, -1, -1):
        strict_after[k] = strict_after[k + 1] + (1 if marks[k] else 0)
    keys = sorted(range(n), key=lambda k: (strict_after[k], k))
    omega = [0] * n
    for rank, k in enumerate(keys, start=1):
        omega[k] = rank
    return from_covers(n, [(i, i + 1) for i in range(n - 1)], omega, weights)


def _as_chain(p: LabeledPoset):
    """Bottom-to-top element order if p is totally ordered, else None."""
    order = topological_order(p)
    return order if all(pair in p.less for pair in zip(order, order[1:])) else None


def first_incomparable_pair(p: LabeledPoset):
    """The lexicographically smallest incomparable pair (i, j), i < j, or None."""
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if (i, j) not in p.less and (j, i) not in p.less:
                return i, j
    return None


def reduce_to_natural_chains(p: LabeledPoset, max_n=None):
    """Signed list of naturally labeled weighted chains summing to K(P).

    Incomparable pairs are eliminated first (smallest index pair, both
    orientations, sign preserved).  On a chain, the first strict edge is
    rewritten right-to-left through the weight-splitting identity: the
    strict chain equals the weak-edge chain minus the chain with the two
    vertices merged.  Each returned triple is (sign, chain, weights).
    """
    check_size_guard(p.n, max_n)
    out = []
    stack = [(1, p)]
    while stack:
        sign, q = stack.pop()
        pair = first_incomparable_pair(q)
        if pair is not None:
            p1, p2 = add_edge_pair(q, *pair)
            stack.append((sign, p1))
            stack.append((sign, p2))
            continue
        order = _as_chain(q)
        marks = [q.edge_is_strict(order[k], order[k + 1]) for k in range(q.n - 1)]
        weights = [q.d[x] for x in order]
        try:
            k = marks.index(True)
        except ValueError:
            out.append((sign, chain_from_marks(marks, weights), tuple(weights)))
            continue
        weak_marks = marks[:]
        weak_marks[k] = False
        stack.append((sign, chain_from_marks(weak_marks, weights)))
        merged_weights = weights[:k] + [weights[k] + weights[k + 1]] + weights[k + 2:]
        merged_marks = marks[:k] + marks[k + 1:]
        stack.append((-sign, chain_from_marks(merged_marks, merged_weights)))
    return out
