from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmn.posets import (
    LabeledPoset,
    PosetError,
    from_covers,
    from_json_dict,
    induced_subposet,
    is_naturally_labeled,
    natural_relabeling,
    random_poset,
)


def label_index(p, label):
    return p.omega.index(label)


def test_two_chain():
    p = from_covers(2, [(0, 1)], [1, 2], [1, 1])
    assert p.covers == [(0, 1)]
    assert not p.edge_is_strict(0, 1)
    assert is_naturally_labeled(p)


def test_cycle_rejected():
    with pytest.raises(PosetError):
        from_covers(2, [(0, 1), (1, 0)], [1, 2], [1, 1])


def test_bad_labels_and_weights():
    with pytest.raises(PosetError):
        from_covers(2, [(0, 1)], [1, 1], [1, 1])
    with pytest.raises(PosetError):
        from_covers(2, [(0, 1)], [1, 2], [1, 0])


@pytest.mark.parametrize(
    "n, covers, labels, weights",
    [
        (2, [], [1, 2], [True, 1]),
        (2, [], [1, 2], [1.5, 1]),
        (2, [], [1, 2], ["1", 1]),
        (2, [], [1.0, 2], [1, 1]),
        (True, [], [1], [1]),
        (2.0, [], [1, 2], [1, 1]),
        (3, [(0, 1, 2)], [1, 2, 3], [1, 1, 1]),
        (2, [(0,)], [1, 2], [1, 1]),
        (2, [(0, 1.0)], [1, 2], [1, 1]),
        (2, [], 5, [1, 1]),
        (2, 5, [1, 2], [1, 1]),
        (2, [], [1, 2], None),
    ],
)
def test_malformed_input_raises_poset_error(n, covers, labels, weights):
    with pytest.raises(PosetError):
        from_covers(n, covers, labels, weights)


def test_relation_pairs_checked_on_construction():
    for less in ({(0, 5)}, {(0, 1, 2)}, {(0, True)}):
        with pytest.raises(PosetError):
            LabeledPoset(2, frozenset(less), (1, 2), (1, 1))


def test_weighted_strip_edge_kinds(weighted_strip):
    strict = {(a, b) for a, b in weighted_strip.covers if weighted_strip.edge_is_strict(a, b)}
    # the 6-5 and 5-1 edges are strict, everything else weak
    six, five, one = (label_index(weighted_strip, l) for l in (6, 5, 1))
    assert strict == {(six, five), (five, one)}
    assert not is_naturally_labeled(weighted_strip)


def test_redundant_covers_absorbed():
    p = from_covers(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 3], [1, 1, 1])
    assert p.covers == [(0, 1), (1, 2)]


def test_natural_relabeling():
    p = from_covers(2, [(0, 1)], [2, 1], [1, 1])
    assert not is_naturally_labeled(p)
    q = natural_relabeling(p)
    assert is_naturally_labeled(q)
    assert q.less == p.less and q.d == p.d
    antichain = from_covers(3, [], [3, 1, 2], [1, 1, 1])
    assert is_naturally_labeled(natural_relabeling(antichain))


def test_natural_relabeling_weighted_strip(weighted_strip):
    assert is_naturally_labeled(natural_relabeling(weighted_strip))


def test_induced_subposet_identity_and_singleton(weighted_strip):
    full = induced_subposet(weighted_strip, range(weighted_strip.n))
    assert full == weighted_strip
    single = induced_subposet(weighted_strip, {2})
    assert single.n == 1 and not single.covers


def test_induced_subposet_block_152(weighted_strip):
    # elements labeled 1, 5, 2 form a chain 5 < 1 < 2, strict then weak
    subset = {label_index(weighted_strip, l) for l in (1, 5, 2)}
    sub = induced_subposet(weighted_strip, subset)
    assert sub.n == 3
    assert len(sub.covers) == 2
    kinds = sorted(sub.edge_is_strict(a, b) for a, b in sub.covers)
    assert kinds == [False, True]
    bottom = next(x for x in range(3) if all((x, y) in sub.less for y in range(3) if y != x))
    above = next(y for y in range(3) if (bottom, y) in sub.covers)
    assert sub.edge_is_strict(bottom, above)


def test_induced_subposet_restriction_commutes():
    p = random_poset(7, Fraction(1, 2), seed=5)
    s = {0, 2, 3, 5, 6}
    t = {2, 3, 6}
    once = induced_subposet(p, t)
    inner = induced_subposet(p, s)
    idx = {x: i for i, x in enumerate(sorted(s))}
    twice = induced_subposet(inner, {idx[x] for x in t})
    assert once.less == twice.less and once.d == twice.d and once.omega == twice.omega


def test_random_poset_deterministic_and_valid():
    a = random_poset(6, Fraction(1, 2), seed=42)
    b = random_poset(6, Fraction(1, 2), seed=42)
    assert a == b
    assert random_poset(1, Fraction(1, 2), seed=0).n == 1


def test_closure_reduction_roundtrip():
    for seed in range(30):
        p = random_poset(8, Fraction(1, 2), seed=seed)
        rebuilt = from_covers(p.n, p.covers, p.omega, p.d)
        assert rebuilt.less == p.less


def test_json_roundtrip(tmp_path, weighted_strip):
    import json

    from qmn.posets import load_poset

    path = tmp_path / "p.json"
    path.write_text(json.dumps(weighted_strip.to_json_dict()))
    assert load_poset(path) == weighted_strip


def test_huge_n_refused_before_labels_are_listed():
    with pytest.raises(PosetError, match="labels must be a permutation"):
        from_covers(10**18, [], [1], [1])


def _closure(relation):
    """Pair-based transitive closure by repeated composition."""
    closure = set(relation)
    while True:
        new = {(a, c) for a, b in closure for b2, c in closure if b == b2} - closure
        if not new:
            return frozenset(closure)
        closure |= new


def _reduction(less, elements):
    """Pair-based Hasse edges of the subposet on `elements`."""
    inside = {(a, b) for a, b in less if a in elements and b in elements}
    return {
        (a, b) for a, b in inside if not any((a, c) in inside and (c, b) in inside for c in elements)
    }


def _order_error(relation):
    """The message LabeledPoset owes a relation: defects of irreflexivity or
    asymmetry come before a defect of transitivity."""
    if any(a == b or (b, a) in relation for a, b in relation):
        return "relation is not a strict partial order"
    if any((a, c) not in relation for a, b in relation for b2, c in relation if b == b2):
        return "relation is not transitively closed"
    return None


def _cycle_element(n, pairs):
    """The element a depth-first cycle search names: the first self-loop in
    pair order, else the smallest element on a cycle, else None."""
    loops = [a for a, b in pairs if a == b]
    if loops:
        return loops[0]
    closure = _closure(pairs)
    return next((x for x in range(n) if (x, x) in closure), None)


def _relations():
    """Every relation on n <= 3 elements, self-loops included, and every
    relation without self-loops on 4 elements."""
    for n in range(1, 5):
        cells = [(a, b) for a in range(n) for b in range(n) if n < 4 or a != b]
        for chosen in range(1 << len(cells)):
            yield n, [cell for i, cell in enumerate(cells) if chosen >> i & 1]


def test_order_masks_match_pair_based_reference():
    for n, relation in _relations():
        omega, d = tuple(range(n, 0, -1)), (1,) * n
        message = _order_error(set(relation))
        if message is None:
            LabeledPoset(n, frozenset(relation), omega, d)
        else:
            with pytest.raises(PosetError, match=f"^{message}$"):
                LabeledPoset(n, frozenset(relation), omega, d)
        cycle = _cycle_element(n, relation)
        if cycle is not None:
            with pytest.raises(PosetError, match=f"^cycle detected at element {cycle}$"):
                from_covers(n, relation, omega, d)
            continue
        p = from_covers(n, relation, omega, d)
        less = _closure(relation)
        assert p.less == less
        assert p.below == tuple(sum(1 << a for a, c in less if c == b) for b in range(n))
        assert p.covers == sorted(_reduction(less, range(n)))
        for mask in range(1, 1 << n):
            elements = [x for x in range(n) if mask >> x & 1]
            edges = {
                (a, b) for b, lower in p.lower_covers(mask) for a in range(n) if lower >> a & 1
            }
            assert edges == _reduction(less, elements)


_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def _poset_json(draw):
    """A well-formed poset on at most 5 elements, then up to two fields
    replaced by junk or an enormous count, or dropped."""
    n = draw(st.integers(1, 5))
    pairs = st.lists(st.integers(-1, n), min_size=2, max_size=2)
    data = {
        "n": n,
        "covers": draw(st.lists(pairs, max_size=8)),
        "labels": draw(st.permutations(range(1, n + 1))),
        "weights": draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), unique=True, max_size=2)):
        if draw(st.booleans()):
            data[key] = draw(_junk | st.just(10**18) | st.lists(pairs | _junk, max_size=4))
        else:
            del data[key]
    return data


@settings(max_examples=200, deadline=None)
@given(_poset_json() | _junk)
def test_from_json_dict_returns_a_poset_or_raises_poset_error(data):
    try:
        p = from_json_dict(data)
    except PosetError:
        return
    assert isinstance(p, LabeledPoset)
    assert from_covers(p.n, p.covers, p.omega, p.d) == p
