"""The lazy `qmn` facade and the modules each CLI command loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import qmn

ROOT = Path(__file__).resolve().parent.parent

# Each public name of the package and the module it comes from.
HOMES = {
    "compositions": ("coarsenings", "rearrangements", "z"),
    "mn": (
        "StripData",
        "is_generalized_border_strip",
        "is_gbs_via_hasse",
        "mn_expansion",
        "mn_monomial_expansion",
        "natural_mn_expansion",
        "rooted_surjections",
        "strip_data",
    ),
    "posets": (
        "LabeledPoset",
        "from_covers",
        "is_naturally_labeled",
        "load_poset",
        "natural_relabeling",
        "random_poset",
    ),
    "qsym": ("QsymExpr", "equals", "psi_to_monomial"),
    "rewrites": ("add_edge_pair", "split_weight"),
    "schur": ("SkewShape", "chi", "chi_bst", "shape_to_poset"),
    "surjections": (
        "OrderSurjection",
        "enumerate_order_surjections",
        "enumerate_partition_surjections",
        "monomial_expansion",
    ),
}
NAMES = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])


def _run_bare(code, *args):
    """(exit code, stdout, stderr) of `python -S -c code args` on this checkout's sources."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return run.returncode, run.stdout, run.stderr


def test_all_keeps_its_names():
    assert len(NAMES) == 37
    assert sorted(qmn.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_the_object_in_its_home_module(module):
    home = importlib.import_module(f"qmn.{module}")
    assert getattr(qmn, module) is home is sys.modules[f"qmn.{module}"]
    for name in HOMES[module]:
        assert getattr(qmn, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qmn import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert namespace["mn"] is sys.modules["qmn.mn"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'qmn' has no attribute 'no_such_name'$"):
        qmn.no_such_name


def test_dir_lists_all_and_every_public_name():
    assert "__all__" in dir(qmn)
    assert set(NAMES) <= set(dir(qmn))


def test_import_qmn_loads_no_submodule_until_a_name_is_used():
    code = (
        "import sys, qmn\n"
        "print(sorted(m for m in sys.modules if m.startswith('qmn.')))\n"
        "print(qmn.mn is sys.modules['qmn.mn'], qmn.chi is sys.modules['qmn.schur'].chi)\n"
        "print(sorted({'qmn.identities', 'qmn.rewrites'} & set(sys.modules)))\n"
    )
    assert _run_bare(code) == (0, "[]\nTrue True\n[]\n", "")


# No command loads argparse or what it pulls in.
_NO_PARSER = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ("identities", "--d", "1,2,2"),
            (
                "qmn.posets", "qmn.mn", "qmn.qsym", "qmn.surjections", "qmn.rewrites",
                "qmn.schur", "json", "random", "fractions", "decimal", "numbers", *_NO_PARSER,
            ),
        ),
        (
            ("identities", "--d", "1,2,2", "--samples", "5"),
            ("qmn.posets", "qmn.rewrites", "json", "fractions", "decimal", "numbers", *_NO_PARSER),
        ),
        (
            ("verify", "--poset", "data/weighted_strip.json"),
            (
                "qmn.schur", "qmn.identities", "qmn.rewrites", "qmn.compositions", "random",
                "__future__", "fractions", "decimal", *_NO_PARSER,
            ),
        ),
        (
            ("schur", "--n", "4"),
            ("qmn.identities", "qmn.rewrites", "random", "fractions", "decimal", *_NO_PARSER),
        ),
        (
            ("chi", "--lam", "1", "--mu", "1"),
            ("qmn.identities", "qmn.rewrites", "random", "fractions", "decimal", *_NO_PARSER),
        ),
        (
            ("random-check", "--count", "3", "--seed", "1"),
            ("qmn.schur", "qmn.identities", "qmn.compositions", "fractions", "decimal", *_NO_PARSER),
        ),
    ],
    ids=["identities", "identities --samples", "verify", "schur", "chi", "random-check"],
)
def test_a_command_loads_only_its_own_modules(argv, absent):
    code = (
        "import sys, qmn.cli\n"
        "code = qmn.cli.main(sys.argv[2:])\n"
        "print(code, sorted(set(sys.argv[1].split(',')) & set(sys.modules)))\n"
    )
    returncode, out, err = _run_bare(code, ",".join(absent), *argv)
    assert (returncode, err) == (0, "")
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--poset", "data/weighted_strip.json"),
        ("expand", "--poset", "data/cancellation.json", "--basis", "Psi", "--json"),
        ("oracle", "--poset", "data/cancellation.json"),
        ("schur", "--n", "3", "--json"),
        ("chi", "--lam", "2,1", "--mu", "3"),
        ("identities", "--d", "1,2,2", "--samples", "5", "--json"),
        ("random-check", "--count", "3", "--seed", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_imports_the_cli_it_runs_as(argv):
    # runpy.run_module(..., run_name="__main__", alter_sys=True) is what `python -m` runs
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('qmn.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('qmn.cli' in sys.modules)\n"
    )
    returncode, out, err = _run_bare(code, *argv)
    assert (returncode, err) == (0, "")
    assert out.splitlines()[-1] == "False"


def test_posets_re_exports_the_errors_and_the_guard():
    from qmn import posets

    assert posets.PosetError is qmn.PosetError
    assert posets.PosetTooLarge is qmn.PosetTooLarge
    assert posets.DEFAULT_MAX_N == qmn.DEFAULT_MAX_N == 10
