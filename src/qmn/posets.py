"""Weighted labeled posets: storage, validation and derived structure.

Elements are indices 0..n-1.  The labeling omega is a bijection onto
{1..n}; an edge (a, b) of the Hasse diagram with a covered by b is strict
when omega(a) > omega(b), otherwise weak (natural).  Each element carries
a positive integer weight.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property


class PosetError(ValueError):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_pairs(n, pairs):
    """Every relation must be a pair of element indices in 0..n-1."""
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise PosetError(f"relation {pair!r} is not a pair") from None
        if not (_is_int(a) and _is_int(b) and 0 <= a < n and 0 <= b < n):
            raise PosetError(f"pair ({a},{b}) references invalid elements")


def _transitive_closure(n, pairs):
    """Reachability closure of the relation; raises PosetError on a cycle."""
    pairs = list(pairs)
    _check_pairs(n, pairs)
    succ = [set() for _ in range(n)]
    for a, b in pairs:
        if a == b:
            raise PosetError(f"cycle detected at element {a}")
        succ[a].add(b)
    closure = set()
    for start in range(n):
        seen = set()
        stack = [start]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if start in seen:
            raise PosetError(f"cycle detected at element {start}")
        closure.update((start, y) for y in seen)
    return frozenset(closure)


@dataclass(frozen=True)
class LabeledPoset:
    """A weighted labeled poset (P, omega, d).

    `less` is the full strict order relation as a set of pairs (a, b)
    meaning a <_P b; it is transitively closed by construction.
    """

    n: int
    less: frozenset
    omega: tuple
    d: tuple

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise PosetError(f"poset must have at least one element: n = {self.n!r}")
        if not all(map(_is_int, self.omega)) or sorted(self.omega) != list(range(1, self.n + 1)):
            raise PosetError(f"labels must be a permutation of 1..{self.n}: {self.omega}")
        if len(self.d) != self.n or not all(_is_int(w) and w >= 1 for w in self.d):
            raise PosetError(f"weights must be positive integers: {self.d}")
        _check_pairs(self.n, self.less)
        for a, b in self.less:
            if (b, a) in self.less or a == b:
                raise PosetError("relation is not a strict partial order")
            for c in range(self.n):
                if (b, c) in self.less and (a, c) not in self.less:
                    raise PosetError("relation is not transitively closed")

    @cached_property
    def covers(self):
        """Hasse edges (a, b) with a covered by b, sorted."""
        out = []
        for a, b in self.less:
            if not any((a, c) in self.less and (c, b) in self.less for c in range(self.n)):
                out.append((a, b))
        return sorted(out)

    def edge_is_strict(self, a, b) -> bool:
        """Whether the Hasse edge (a, b) is strict: omega(a) > omega(b)."""
        return self.omega[a] > self.omega[b]

    @cached_property
    def strict_pairs(self):
        """All comparable pairs (a, b), a <_P b, forcing f(a) < f(b)."""
        return frozenset((a, b) for a, b in self.less if self.omega[a] > self.omega[b])

    def total_weight(self) -> int:
        return sum(self.d)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "covers": [list(e) for e in self.covers],
            "labels": list(self.omega),
            "weights": list(self.d),
        }


def from_covers(n, covers, omega, d) -> LabeledPoset:
    """Build a poset from any generating set of relations.

    Redundant pairs are absorbed by re-deriving the transitive reduction;
    cycles are rejected.
    """
    try:
        covers, omega, d = list(covers), tuple(omega), tuple(d)
    except TypeError as exc:
        raise PosetError(f"covers, labels and weights must be sequences: {exc}") from None
    # n, labels and weights are checked before n sizes the closure
    p = LabeledPoset(n, frozenset(), omega, d)
    return replace(p, less=_transitive_closure(n, covers))


def from_json_dict(data) -> LabeledPoset:
    try:
        fields = data["n"], data["covers"], data["labels"], data["weights"]
    except (KeyError, TypeError) as exc:
        raise PosetError(f"malformed poset data: {exc}") from exc
    return from_covers(*fields)


def load_poset(path) -> LabeledPoset:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PosetError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_dict(data)


def is_naturally_labeled(p: LabeledPoset) -> bool:
    """True iff every Hasse edge is weak."""
    return all(not p.edge_is_strict(a, b) for a, b in p.covers)


def topological_order(p: LabeledPoset):
    """Deterministic linear extension: smallest available index first."""
    below = [set() for _ in range(p.n)]
    for a, b in p.less:
        below[b].add(a)
    done = set()
    order = []
    while len(order) < p.n:
        nxt = min(x for x in range(p.n) if x not in done and below[x] <= done)
        done.add(nxt)
        order.append(nxt)
    return order


def natural_relabeling(p: LabeledPoset) -> LabeledPoset:
    """Same order and weights, with a linear-extension-derived labeling."""
    omega = [0] * p.n
    for rank, x in enumerate(topological_order(p), start=1):
        omega[x] = rank
    return replace(p, omega=tuple(omega))


def induced_subposet(p: LabeledPoset, subset):
    """Restriction of p to `subset`, elements renumbered in sorted order.

    Labels are renormalized onto {1..k} preserving their relative order,
    which keeps every strict/weak classification intact.
    """
    elements = sorted(subset)
    if not elements:
        raise PosetError("subset must be nonempty")
    index = {x: i for i, x in enumerate(elements)}
    less = frozenset(
        (index[a], index[b]) for a, b in p.less if a in index and b in index
    )
    ranked = sorted(elements, key=lambda x: p.omega[x])
    omega = [0] * len(elements)
    for rank, x in enumerate(ranked, start=1):
        omega[index[x]] = rank
    d = tuple(p.d[x] for x in elements)
    return LabeledPoset(len(elements), less, tuple(omega), d)


def random_poset(n, edge_density, seed) -> LabeledPoset:
    """Seed-deterministic random weighted labeled poset.

    A random DAG on a shuffled element order, transitively closed, with a
    random bijective labeling and weights uniform in {1, 2, 3}.
    """
    if n < 1:
        raise PosetError("n must be >= 1")
    density = Fraction(edge_density)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if Fraction(rng.randrange(10**6), 10**6) < density:
                pairs.append((order[i], order[j]))
    omega = list(range(1, n + 1))
    rng.shuffle(omega)
    d = tuple(rng.randint(1, 3) for _ in range(n))
    return from_covers(n, pairs, omega, d)
