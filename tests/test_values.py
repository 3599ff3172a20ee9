"""The library's value types: named tuples or plain classes compared by value."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmn.identities import BetaTree, QPolynomial, beta_tree
from qmn.mn import StripData, strip_data
from qmn.posets import LabeledPoset, PosetError, from_covers, relabeled
from qmn.qsym import QsymExpr
from qmn.schur import BorderStripTableau, SkewShape, border_strip_tableaux
from qmn.surjections import OrderSurjection, enumerate_order_surjections

SRC = Path(__file__).resolve().parent.parent / "src"


def _chain():
    return from_covers(3, [(0, 1), (1, 2)], [2, 1, 3], [1, 2, 1])


BUILDERS = [
    (LabeledPoset, _chain),
    (SkewShape, lambda: SkewShape([3, 2], [1])),
    (QsymExpr, lambda: QsymExpr("M", {(1, 2): 3, (2, 1): 0})),
    (QPolynomial, lambda: QPolynomial([1, 2, 0])),
    (OrderSurjection, lambda: enumerate_order_surjections(_chain(), 2)[0]),
    (StripData, lambda: strip_data(_chain())),
    (BorderStripTableau, lambda: border_strip_tableaux((2, 1), (2, 1))[0]),
    (BetaTree, lambda: beta_tree((1, 2), (2,))),
]


@pytest.mark.parametrize("kind, build", BUILDERS, ids=[kind.__name__ for kind, _ in BUILDERS])
def test_equal_values_are_equal_with_equal_hashes(kind, build):
    a, b = build(), build()
    assert type(a) is kind and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a).startswith(f"{kind.__name__}(")


def test_validated_tuples_refuse_assignment():
    p = _chain()
    p.covers  # a cached property is filled in, not assigned
    for name in ("n", "omega", "below", "covers", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    shape = SkewShape((2, 1))
    for name in ("outer", "inner", "extra"):
        with pytest.raises(AttributeError):
            setattr(shape, name, ())
    assert p == _chain() and shape == SkewShape((2, 1))


@pytest.mark.parametrize("labels", [(1, 1, 3), (1, 2, 4), (0, 1, 2), (1, 2), 5])
def test_relabeled_validates_the_new_labels(labels):
    with pytest.raises(PosetError):
        relabeled(_chain(), labels)


@pytest.mark.parametrize(
    "less, labels, weights",
    [
        (frozenset(), 5, (1, 1)),
        (5, (1, 2), (1, 1)),
        (frozenset(), (1, 2), None),
        ([[0, 1]], (1, 2), (1, 1)),
    ],
)
def test_labeled_poset_refuses_a_field_that_is_not_a_collection(less, labels, weights):
    with pytest.raises(PosetError, match="must be a collection"):
        LabeledPoset(2, less, labels, weights)


def test_labeled_poset_stores_its_relation_as_a_frozenset_and_the_rest_as_tuples():
    p = LabeledPoset(2, [(0, 1)], [1, 2], iter([1, 1]))
    assert (p.less, p.omega, p.d) == (frozenset({(0, 1)}), (1, 2), (1, 1))
    assert p.covers == [(0, 1)] and (0, 1) in p.less
    assert hash(p) == hash(from_covers(2, [[0, 1]], [1, 2], [1, 1]))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = "import sys, qmn.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
