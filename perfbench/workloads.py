"""Request streams for the qmn benchmark, and checks on their outputs.

Each workload is a cycle of slots, one request each, which a run issues
over and over.  A slot is one fixed input: a poset, a random-check seed
or an identities composition, drawn once from a constant stream, so a
request's work is the same on every workload seed.  The seed makes each
request's own copy of its slot: it renumbers the poset's vertices
(labels and weights move with them, so the copy is isomorphic and its
expansions have the same terms) and draws the identities Monte Carlo
seed.  Run-to-run differences are then the machine's alone, and the
exact work counts of a cycle are the same on every seed.

The cycles put one input, repeated, where the 90th percentile falls and
another where the median falls, so those two figures do not sit on the
boundary between two inputs of different cost.

Nothing here imports the program under test except the checks, which use
closed forms or the independent `schur.chi_bst`.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Slots per workload: (family, size, draw).  Slots with the same triple
# are the same input.  Each cycle of ten has three cheap slots, four copies
# of the input that holds the median (ranks 0.3-0.7) and two copies of the
# input that holds the 90th percentile (ranks 0.8-1.0), with one dearer
# slot between; checks has three copies of its tail input instead.
# On a 2-core 2.1 GHz Xeon VM a request's interpreter start-up is about
# 0.1 s; the tail inputs spend two to four times that in the layer the
# workload exists for, and the mean request stays near 0.25 s, which
# leaves well over a hundred requests, and ten beyond the 90th
# percentile, in a 30 s run.
SCHEDULES = {
    # verify on unit-weight wide posets: the oracle walk.  The tail is an
    # 8-element forest of chains with 72 order ideals (oracle about 0.3 s).
    "unit-wide": [
        ("forest", 8, 1), ("antichain", 6, 0), ("sparse", 7, 3), ("sparse", 7, 1),
        ("sparse", 7, 3), ("forest", 8, 1), ("sparse", 7, 3), ("wide-tail", 7, 0),
        ("sparse", 7, 0), ("sparse", 7, 3),
    ],
    # verify on weighted posets of density 1/3..1/2: PsiHat->M conversion.
    # The tail is a 9-element poset (conversion about 0.23 s).
    "weighted": [
        ("weighted", 9, 2), ("weighted", 8, 7), ("weighted", 8, 5), ("weighted", 8, 9),
        ("weighted", 8, 5), ("weighted", 9, 2), ("weighted", 8, 5), ("weighted", 8, 11),
        ("weighted", 8, 12), ("weighted", 8, 5),
    ],
    # schur --n N: the rule on Young-diagram posets; no oracle, no conversion.
    # N=7 holds the median and N=9 (the rule about 0.3 s) the 90th percentile.
    "shapes": [("schur", n, 0) for n in (9, 6, 7, 6, 7, 9, 7, 8, 6, 7)],
    # random-check on tiny posets, interleaved with identities reports; the
    # length-9 reports hold the median, the length-10 ones the 90th percentile.
    "checks": [
        ("identities", 10, 0), ("random-check", 6, 0), ("identities", 9, 0),
        ("random-check", 6, 1), ("identities", 9, 0), ("identities", 10, 0),
        ("identities", 9, 0), ("random-check", 6, 2), ("identities", 10, 0),
        ("identities", 9, 0),
    ],
}
WORKLOADS = tuple(SCHEDULES)

# identities --d is a fixed shuffle of a fixed multiset.
IDENTITY_PARTS = {9: (1, 1, 1, 1, 2, 2, 2, 2, 3), 10: (1, 1, 1, 1, 1, 2, 2, 2, 3, 3)}
IDENTITY_SAMPLES = 200
RANDOM_CHECK_COUNT = 6
# A weighted slot is the first poset of its stream with at most this many
# order ideals, which bounds the walks to well under the conversion.
WEIGHTED_MAX_IDEALS = 24


@dataclass
class Request:
    """One CLI request: its argv after `python -m qmn.cli`, and what to check."""

    kind: str
    argv: list
    poset: dict | None = None
    params: dict = field(default_factory=dict)


def _poset(n, covers, labels, weights) -> dict:
    return {"n": n, "covers": [list(c) for c in covers], "labels": labels, "weights": weights}


def _labels(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labels


def _chains(rng, n, lengths):
    """Disjoint chains of the given lengths on a shuffled vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    covers, start = [], 0
    for length in lengths:
        chain = order[start:start + length]
        covers += list(zip(chain, chain[1:]))
        start += length
    return covers


def _random_dag(rng, n, density):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


def _ideal_count(n, covers):
    below = [0] * n
    for a, b in covers:
        below[b] |= 1 << a
    return sum(all(not mask >> x & 1 or below[x] & ~mask == 0 for x in range(n))
               for mask in range(1 << n))


def _forest_lengths(rng, n):
    lengths = []
    while sum(lengths) < n:
        lengths.append(min(rng.randint(1, 3), n - sum(lengths)))
    return lengths


def make_poset(family, n, rng) -> dict:
    """A poset of the family as a JSON dict, drawn from rng."""
    if family == "antichain":
        return _poset(n, [], _labels(rng, n), [1] * n)
    if family == "wide-tail":
        # antichain of n-4 plus two weak 2-chains
        covers = _chains(rng, n, [2, 2] + [1] * (n - 4))
        labels = _labels(rng, n)
        for a, b in covers:
            if labels[a] > labels[b]:
                labels[a], labels[b] = labels[b], labels[a]
        return _poset(n, covers, labels, [1] * n)
    if family == "forest":
        return _poset(n, _chains(rng, n, _forest_lengths(rng, n)), _labels(rng, n), [1] * n)
    if family == "sparse":
        return _poset(n, _random_dag(rng, n, rng.uniform(0.1, 0.2)), _labels(rng, n), [1] * n)
    if family == "weighted":
        while True:
            covers = _random_dag(rng, n, rng.uniform(1 / 3, 1 / 2))
            if _ideal_count(n, covers) <= WEIGHTED_MAX_IDEALS:
                break
        return _poset(n, covers, _labels(rng, n), [rng.randint(1, 3) for _ in range(n)])
    raise ValueError(f"unknown family {family!r}")


def renumber(poset, rng) -> dict:
    """An isomorphic copy: vertex v becomes perm[v], keeping its label and weight."""
    n = poset["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    labels, weights = [0] * n, [0] * n
    for v in range(n):
        labels[perm[v]] = poset["labels"][v]
        weights[perm[v]] = poset["weights"][v]
    covers = sorted((perm[a], perm[b]) for a, b in poset["covers"])
    return _poset(n, covers, labels, weights)


def slot_input(workload, slot):
    """The fixed input of a slot: a poset dict, a random-check seed or a composition."""
    family, size, draw = slot
    rng = random.Random(f"{workload}/{family}/{size}/{draw}")
    if family == "random-check":
        return rng.randrange(10**6)
    if family == "identities":
        d = list(IDENTITY_PARTS[size])
        rng.shuffle(d)
        return tuple(d)
    if family == "schur":
        return size
    return make_poset(family, size, rng)


def make_requests(workload, seed, workdir: Path) -> list:
    """One cycle of the workload's requests for `seed`.

    Poset files are named under `workdir`; `write_inputs` writes them.
    """
    schedule = SCHEDULES[workload]
    inputs = {slot: slot_input(workload, slot) for slot in set(schedule)}
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for i, slot in enumerate(schedule):
        family, value = slot[0], inputs[slot]
        if family == "schur":
            out.append(Request("schur", ["schur", "--n", str(value)], params={"n": value}))
        elif family == "random-check":
            out.append(Request(
                "random-check",
                ["random-check", "--count", str(RANDOM_CHECK_COUNT), "--n-max", str(slot[1]),
                 "--seed", str(value)],
                params={"count": RANDOM_CHECK_COUNT, "n_max": slot[1], "seed": value},
            ))
        elif family == "identities":
            mc_seed = rng.randrange(10**6)
            out.append(Request(
                "identities",
                ["identities", "--d", ",".join(map(str, value)), "--samples",
                 str(IDENTITY_SAMPLES), "--seed", str(mc_seed)],
                params={"d": value, "samples": IDENTITY_SAMPLES, "seed": mc_seed},
            ))
        else:
            path = str(workdir / f"p{i:02d}.json")
            out.append(Request("verify", ["verify", "--poset", path],
                               poset=renumber(value, rng), params={"family": family}))
    return out


def write_inputs(requests):
    """Write each verify request's poset file."""
    for req in requests:
        if req.poset is not None:
            Path(req.argv[-1]).write_text(json.dumps(req.poset))


# --- output checks: closed forms and independent computations --------------


def schur_expected(n) -> dict:
    """(lambda, mu) -> character via border strip removal, no poset code."""
    from qmn.compositions import format_composition, partitions_of
    from qmn.schur import chi_bst

    parts = partitions_of(n)
    return {(format_composition(lam), format_composition(mu)): chi_bst(lam, mu)
            for lam in parts for mu in parts}


def antichain_coefficient(alpha) -> int:
    """M-coefficient of a unit-weight antichain: n! / prod(alpha_i!)."""
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


def check_output(req: Request, code: int, stdout: str, expected_tables: dict):
    """None if the CLI output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}: {stdout.strip()[-300:]!r}"
    if req.kind == "verify":
        return None if stdout.strip() == "PASS" else f"verify printed {stdout.strip()[:80]!r}"
    if req.kind == "schur":
        rows = {}
        for line in stdout.splitlines():
            lam, mu, value = line.split("\t")
            rows[(lam, mu)] = int(value)
        expected = expected_tables[req.params["n"]]
        return None if rows == expected else f"schur --n {req.params['n']} table differs"
    if req.kind == "random-check":
        c = req.params["count"]
        want = f"{c}/{c} main, {c}/{c} addEdge, {c}/{c} splitWeight"
        return None if stdout.strip() == want else f"random-check printed {stdout.strip()!r}"
    if req.kind == "identities":
        report = dict(line.split("\t", 1) for line in stdout.splitlines())
        total = math.factorial(sum(req.params["d"]))
        if report.get("sum") != "1/1" or report.get("q_identity") != "True":
            return f"identities sum {report.get('sum')} q {report.get('q_identity')}"
        if not report.get("linext_lhs") == report.get("linext_rhs") == str(total):
            return "identities linext sides differ"
        freqs = ast.literal_eval(report.get("monte_carlo", "{}"))
        if sum(Fraction(f) for f in freqs.values()) != 1:
            return "identities Monte Carlo frequencies do not sum to 1"
        return None
    raise ValueError(f"unknown request kind {req.kind!r}")
