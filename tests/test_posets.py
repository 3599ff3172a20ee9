from fractions import Fraction

import pytest

from qmn.posets import (
    LabeledPoset,
    PosetError,
    from_covers,
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
