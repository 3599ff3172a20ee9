"""Weighted labeled posets: storage, validation and derived structure.

Elements are indices 0..n-1.  The labeling omega is a bijection onto
{1..n}; an edge (a, b) of the Hasse diagram with a covered by b is strict
when omega(a) > omega(b), otherwise weak (natural).  Each element carries
a positive integer weight.

This is the one module that turns the order relation into bitmasks over
elements, and the one that checks or closes a relation: `_masks` checks
each pair as it sets its bit.  `LabeledPoset.below` holds each element's
predecessors, `LabeledPoset.strict_below` those it lies above across a
strict relation, and `LabeledPoset.lower_covers` is the one Hasse
routine, for the whole poset or the subposet on any mask.
`LabeledPoset.cover_masks` splits each element's lower covers in the
whole poset into strict and natural ones, once per poset.  Validation
and the closure run on the same masks.  `LabeledPoset`, a named tuple, is
validated by its constructor `LabeledPoset(n, less, omega, d)`, which
every other builder here calls; it checks every field it stores.  It also holds the size guard, which
`load_poset` checks before a file's relation is closed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import DEFAULT_MAX_N, PosetError, PosetTooLarge  # re-exported here


def check_size_guard(n, max_n=None):
    """Refuse more than max_n elements; None means DEFAULT_MAX_N."""
    limit = DEFAULT_MAX_N if max_n is None else max_n
    if n > limit:
        raise PosetTooLarge(f"poset has {n} elements, guard is {limit}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_elements(mask):
    return tuple(_bits(mask))


def _collection(cast, value, name):
    """cast(value) for the field `name`; PosetError if value is not a
    collection, or if cast is frozenset and a pair in it is unhashable."""
    try:
        return cast(value)
    except TypeError as exc:
        raise PosetError(f"{name} must be a collection: {exc}") from None


def _masks(n, pairs):
    """below[b] is the mask of the a with (a, b) among the pairs.  Each pair
    is checked as it becomes a bit: it must be two element indices in 0..n-1."""
    below = [0] * n
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise PosetError(f"relation {pair!r} is not a pair") from None
        if not (_is_int(a) and _is_int(b) and 0 <= a < n and 0 <= b < n):
            raise PosetError(f"pair ({a},{b}) references invalid elements")
        below[b] |= 1 << a
    return below


def _transitive_closure(n, pairs):
    """Reachability closure of the pairs; raises PosetError on a cycle,
    naming a self-loop in pair order, else the smallest element on a cycle."""
    pairs = _collection(list, pairs, "covers")
    below = _masks(n, pairs)
    if any(below[x] >> x & 1 for x in range(n)):
        loop = next(a for a, b in pairs if a == b)
        raise PosetError(f"cycle detected at element {loop}")
    for k in range(n):  # Warshall: admit k as an intermediate element
        for x in range(n):
            if below[x] >> k & 1:
                below[x] |= below[k]
    for x in range(n):
        if below[x] >> x & 1:
            raise PosetError(f"cycle detected at element {x}")
    return frozenset((a, b) for b in range(n) for a in _bits(below[b]))


class LabeledPoset(namedtuple("LabeledPoset", "n less omega d")):
    """A weighted labeled poset (P, omega, d).

    `less` is the full strict order relation as a set of pairs (a, b)
    meaning a <_P b; it is transitively closed by construction.  The
    constructor checks n, then the labels, the weights and the relation,
    and stores `less` as a frozenset, the labels and weights as tuples.
    """

    def __new__(cls, n, less, omega, d):
        if not _is_int(n) or n < 1:
            raise PosetError(f"poset must have at least one element: n = {n!r}")
        omega = _collection(tuple, omega, "labels")
        if (
            len(omega) != n  # before n sizes the list of labels
            or not all(map(_is_int, omega))
            or sorted(omega) != list(range(1, n + 1))
        ):
            raise PosetError(f"labels must be a permutation of 1..{n}: {omega}")
        d = _collection(tuple, d, "weights")
        if len(d) != n or not all(_is_int(w) and w >= 1 for w in d):
            raise PosetError(f"weights must be positive integers: {d}")
        self = super().__new__(cls, n, _collection(frozenset, less, "relation"), omega, d)
        below, closed = self.below, True
        for b in range(n):
            for a in _bits(below[b]):
                if a == b or below[a] >> b & 1:
                    raise PosetError("relation is not a strict partial order")
                closed = closed and not below[a] & ~below[b]
        if not closed:
            raise PosetError("relation is not transitively closed")
        return self

    def __setattr__(self, name, value):  # cached properties write to __dict__ directly
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def below(self):
        """below[b] is the mask of the elements a <_P b."""
        return tuple(_masks(self.n, self.less))

    def lower_covers(self, mask):
        """Pairs (b, C) for the elements b of `mask` in increasing order, with
        C the mask of the elements that b covers in the subposet on `mask`."""
        below = self.below
        for b in _bits(mask):
            lower, through = below[b] & mask, 0
            for c in _bits(lower):
                through |= below[c]
            yield b, lower & ~through

    @cached_property
    def covers(self):
        """Hasse edges (a, b) with a covered by b, sorted."""
        full = (1 << self.n) - 1
        return sorted((a, b) for b, lower in self.lower_covers(full) for a in _bits(lower))

    def edge_is_strict(self, a, b) -> bool:
        """Whether the Hasse edge (a, b) is strict: omega(a) > omega(b)."""
        return self.omega[a] > self.omega[b]

    @cached_property
    def strict_below(self):
        """strict_below[b] is the mask of the a <_P b with omega(a) > omega(b):
        the elements that b lies above across a strict relation."""
        omega = self.omega
        return tuple(
            sum(1 << a for a in _bits(self.below[b]) if omega[a] > omega[b])
            for b in range(self.n)
        )

    @cached_property
    def cover_masks(self):
        """(strict, natural): strict[b] is the mask of the elements that b
        covers across a strict Hasse edge, natural[b] across a natural one."""
        strict, natural = [], []
        for b, lower in self.lower_covers((1 << self.n) - 1):
            strict.append(lower & self.strict_below[b])
            natural.append(lower & ~self.strict_below[b])
        return tuple(strict), tuple(natural)

    @cached_property
    def strict_pairs(self):
        """All comparable pairs (a, b), a <_P b, forcing f(a) < f(b)."""
        return frozenset((a, b) for a, b in self.less if self.omega[a] > self.omega[b])

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
    p = LabeledPoset(n, (), omega, d)  # the fields, before n sizes the closure
    return LabeledPoset(n, _transitive_closure(n, covers), p.omega, p.d)


def _json_fields(data):
    try:
        return data["n"], data["covers"], data["labels"], data["weights"]
    except (KeyError, TypeError) as exc:
        raise PosetError(f"malformed poset data: {exc}") from exc


def from_json_dict(data) -> LabeledPoset:
    return from_covers(*_json_fields(data))


def load_poset(path, max_n=None) -> LabeledPoset:
    """The poset in a JSON file, refused past the size guard max_n (None
    means DEFAULT_MAX_N) before its relation is closed."""
    import json  # here, so that a run that reads no file never loads it

    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PosetError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise PosetError(f"JSON in {path} is nested too deeply") from None
    n, covers, omega, d = _json_fields(data)
    p = LabeledPoset(n, (), omega, d)  # the fields, then the guard, then the closure
    check_size_guard(n, max_n)
    return LabeledPoset(n, _transitive_closure(n, covers), p.omega, p.d)


def is_naturally_labeled(p: LabeledPoset) -> bool:
    """True iff every Hasse edge is weak."""
    return all(not p.edge_is_strict(a, b) for a, b in p.covers)


def topological_order(p: LabeledPoset):
    """Deterministic linear extension: smallest available index first."""
    done, order = 0, []
    while len(order) < p.n:
        nxt = min(x for x in range(p.n) if not done >> x & 1 and not p.below[x] & ~done)
        done |= 1 << nxt
        order.append(nxt)
    return order


def natural_relabeling(p: LabeledPoset) -> LabeledPoset:
    """Same order and weights, with a linear-extension-derived labeling."""
    omega = [0] * p.n
    for rank, x in enumerate(topological_order(p), start=1):
        omega[x] = rank
    return relabeled(p, omega)


def relabeled(p: LabeledPoset, omega) -> LabeledPoset:
    """The poset p with the labeling omega; its order and weights are kept."""
    return LabeledPoset(p.n, p.less, omega, p.d)


def induced_subposet(p: LabeledPoset, subset):
    """Restriction of p to `subset`, elements renumbered in sorted order.

    Labels are renormalized onto {1..k} preserving their relative order,
    which keeps every strict/weak classification intact.
    """
    elements = sorted(subset)
    if not elements:
        raise PosetError("subset must be nonempty")
    index = {x: i for i, x in enumerate(elements)}
    less = {(index[a], index[b]) for a, b in p.less if a in index and b in index}
    ranked = sorted(elements, key=lambda x: p.omega[x])
    omega = [0] * len(elements)
    for rank, x in enumerate(ranked, start=1):
        omega[index[x]] = rank
    return LabeledPoset(len(elements), less, omega, [p.d[x] for x in elements])


def random_poset(n, edge_density, seed) -> LabeledPoset:
    """Seed-deterministic random weighted labeled poset.

    A random DAG on a shuffled element order, transitively closed, with a
    random bijective labeling and weights uniform in {1, 2, 3}.
    """
    if n < 1:
        raise PosetError("n must be >= 1")
    import random  # here, so that a run that draws no poset never loads it

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
