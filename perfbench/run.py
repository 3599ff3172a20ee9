"""The qmn benchmark: real CLI requests, one client, checked outputs.

Run from the root of a qmn checkout:

    python3 perfbench/run.py --workload unit-wide --seed 1 --seconds 30 --trace 0

With `--trace 0` the run spawns fresh `python -m qmn.cli ...` processes one
at a time (a closed loop with a single client) until `--seconds` have
passed, then checks every output and reports the end-to-end metrics.
The host is shared, and its speed swings by up to 2x within seconds and
by a third over minutes.  So the benchmark times a fixed pure-Python
reference loop before and after every request, and reports each time
scaled to a host of reference speed (see `REFERENCE_S`).  The raw wall
times are printed beside the scaled ones.
With `--trace 1` it replays one cycle of the workload's requests in
process, alternating untraced and traced passes, and reports per-layer
self times and exact work counts, which must equal those recorded in
`perfbench/baseline.json`.  Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

Workloads and why they were chosen (interpreter start-up, about 0.1 s,
is half or more of every median request; the layer named is most of the
90th percentile request):

  unit-wide  verify on unit-weight wide posets: the oracle walk
  weighted   verify on weighted random posets: PsiHat->M conversion;
             bypasses a change to the walks
  shapes     schur --n N: the rule alone; bypasses oracle and conversion
  checks     random-check on many tiny posets plus identities reports:
             fixed per-call costs, rewrites and identities

The program under test sees only the generated poset files and CLI flags.
`perfbench/compare.py` records the baseline (`perfbench/baseline.json`) and
compares a parent checkout with a change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    WORKLOADS,
    check_output,
    make_requests,
    schur_expected,
    write_inputs,
)

# set_up runs this many times, half before the timed requests and half
# after them, so that a short slow spell of the machine does not set setup_s.
SETUP_REPEATS = 20
STARTUP_REPEATS = 9
REQUEST_TIMEOUT_S = 60
STARTUP_ARGV = ["chi", "--lam", "1", "--mu", "1"]
# Host speed: the wall time of REFERENCE_LOOPS turns of a fixed loop, timed
# in this process while no request runs.  A set-up or request time t,
# between reference times r0 and r1, is reported as
# t * REFERENCE_S / ((r0 + r1) / 2): what it would read on a host where the
# loop takes REFERENCE_S, its typical time on the 2-vCPU 2.1 GHz Xeon VM
# the baseline was recorded on.  No change to qmn can touch the loop.
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.007
BASELINE = Path(__file__).resolve().parent / "baseline.json"

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_s_p50": "s",
    "request_s_p90": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_TIMES = [
    "posets.load_poset", "posets.random_poset", "surjections.monomial_expansion",
    "mn.mn_expansion", "qsym.psi_to_monomial", "qsym.equals", "qsym.arithmetic",
    "compositions.partitions_of", "schur.shape_to_poset",
    "rewrites.add_edge_pair", "rewrites.split_weight", "identities.probabilistic_sum",
    "identities.q_probabilistic_sum", "identities.linext_identity_check",
    "identities.staircase_monte_carlo",
]
PER_LAYER_COUNTS = [
    "replay.requests", "posets.calls", "surjections.calls", "surjections.surjections",
    "mn.calls", "mn.psihat_terms", "qsym.coarsenings", "qsym.m_terms", "rewrites.calls",
    "identities.calls",
]


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


# The process that spawns the requests.  The kernel counts the spawning
# process's resident set into a child's peak RSS at exec, so the requests
# come from this small interpreter (-S -I: no site packages, about 9 MiB)
# rather than from the benchmark process.  Per line of tab-separated argv
# on stdin it starts the child, prints its pid, waits, and prints exit
# code, wall seconds from spawn to exit, and peak RSS in KiB; at end of
# input it prints its own peak RSS, the floor of every child's.
SPAWNER = r"""
import os, sys, time
out, err = sys.argv[1:3]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
for line in sys.stdin:
    argv = line.rstrip("\n").split("\t")
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    print(pid, flush=True)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, flush=True)
with open("/proc/self/status") as status:
    print(next(int(l.split()[1]) for l in status if l.startswith("VmHWM")), flush=True)
"""


class Client:
    """Spawns `python -m qmn.cli` with the checkout's sources, one at a time."""

    def __init__(self, root: Path, workdir: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("QMN_MAX_N", None)
        self.out = workdir / "stdout.txt"
        self.err = workdir / "stderr.txt"
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", "-I", "-c", SPAWNER, str(self.out), str(self.err)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """(exit code, wall seconds from spawn to exit, peak RSS in KiB, output).

        The output is stdout, followed by stderr when the exit code is not 0.
        """
        self.spawner.stdin.write("\t".join([sys.executable, "-m", "qmn.cli", *argv]) + "\n")
        self.spawner.stdin.flush()
        pid = int(self.spawner.stdout.readline())
        signal.alarm(REQUEST_TIMEOUT_S)
        try:
            line = self.spawner.stdout.readline()
        except RequestTimeout:
            os.kill(pid, signal.SIGKILL)
            line = self.spawner.stdout.readline()
        finally:
            signal.alarm(0)
        code, wall, rss = line.split()
        code = int(code)
        out = self.out.read_text()
        if code != 0:
            out += self.err.read_text()
        return code, float(wall), int(rss), out

    def close(self) -> int:
        """Stop the spawner and wait for it; returns its peak RSS in KiB."""
        self.spawner.stdin.close()
        floor = self.spawner.stdout.read()
        self.spawner.wait()
        return int(floor)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(t, before, after):
    """t seconds, timed between reference times before and after, at reference speed."""
    return t * REFERENCE_S / ((before + after) / 2)


def set_up(workload, seed, workdir: Path, client: Client, times: list):
    """Generate and write the inputs, then start the CLI once; appends the
    time taken, scaled to reference speed."""
    before = reference_s()
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    requests = make_requests(workload, seed, workdir)
    write_inputs(requests)
    code, _, _, out = client.run(STARTUP_ARGV)
    elapsed = time.perf_counter() - start
    times.append(scaled(elapsed, before, reference_s()))
    if code != 0 or out.strip() != "1":
        raise RuntimeError(f"warm-up request failed with exit code {code}: {out!r}")
    return requests


def run_end_to_end(requests, client: Client, seconds):
    samples = []  # (request, exit code, wall seconds, peak RSS KiB, stdout)
    references = [reference_s()]  # references[i] and [i + 1] enclose request i
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        req = requests[i % len(requests)]
        code, wall, rss, out = client.run(req.argv)
        samples.append((req, code, wall, rss, out))
        references.append(reference_s())
        i += 1
    elapsed = time.perf_counter() - start
    expected = expected_tables(requests)
    failures = []
    for req, code, wall, rss, out in samples:
        try:
            reason = check_output(req, code, out, expected)
        except (ValueError, SyntaxError) as exc:
            reason = f"unparsable output: {exc}"
        if reason:
            failures.append(f"{' '.join(req.argv)}: {reason}")
    walls = [scaled(s[2], references[i], references[i + 1]) for i, s in enumerate(samples)]
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    metrics = {
        "requests_per_s": len(walls) / sum(walls),
        "request_s_p50": statistics.median(walls),
        "request_s_p90": deciles[8],
        "peak_rss_mib": max(s[3] for s in samples) / 1024,
    }
    beyond = sum(w > deciles[8] for w in walls)
    raw = [s[2] for s in samples]
    notes = [f"{len(samples)} requests in {elapsed:.2f} s, {beyond} beyond p90",
             f"unscaled: {len(samples) / elapsed:.4g} requests/s, p50 "
             f"{statistics.median(raw):.4f} s, p90 {statistics.quantiles(raw, n=10)[8]:.4f} s; "
             f"reference loop median {statistics.median(references):.5f} s",
             f"failed_frac {len(failures) / len(samples):.4f} ratio"]
    return len(samples), failures, metrics, notes


def expected_tables(requests) -> dict:
    """Character tables for the schur requests, keyed by n."""
    return {n: schur_expected(n) for n in {r.params["n"] for r in requests if r.kind == "schur"}}


def recorded_counts(workload) -> dict:
    """Work counts `compare.py record` stored for this workload, if any."""
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text())["workloads"].get(workload, {}).get("counts", {})


def run_traced(requests, client: Client, seconds, expected, recorded):
    from replay import Tracer, replay

    startup = statistics.median(client.run(STARTUP_ARGV)[1] for _ in range(STARTUP_REPEATS))
    walls = {False: [], True: []}
    self_times = []
    first_counts = None
    failures = []
    attempted = 0
    replay(requests, Tracer(False), expected)  # warm-up: imports and first-call costs
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for enabled in order:
            tracer = Tracer(enabled)
            wall, counts, errors = replay(requests, tracer, expected)
            attempted += len(requests)
            failures += errors
            walls[enabled].append(wall)
            if enabled:
                self_times.append(tracer.self_time)
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                failures.append(f"work counts differ between passes: {counts} vs {first_counts}")
        pair += 1
    traced_wall = statistics.median(walls[True])
    metrics = {"cli.startup_s": startup}
    for name in PER_LAYER_TIMES:
        metrics[name + "_s"] = statistics.median(t.get(name, 0.0) for t in self_times)
    first_counts["replay.requests"] = len(requests)
    for name in PER_LAYER_COUNTS:
        metrics[name] = first_counts.get(name, 0)
    drift = {k: (metrics.get(k), v) for k, v in recorded.items() if metrics.get(k) != v}
    if drift:
        failures.append(f"work counts drifted from {BASELINE.name} (now, recorded): {drift}")
    surj, coars = metrics["surjections.surjections"], metrics["qsym.coarsenings"]
    metrics["surjections.us_per_surjection"] = (
        1e6 * metrics["surjections.monomial_expansion_s"] / surj if surj else 0.0)
    metrics["qsym.us_per_coarsening"] = (
        1e6 * metrics["qsym.psi_to_monomial_s"] / coars if coars else 0.0)
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls[False]) - 1
    layer_total = statistics.median(sum(t.values()) for t in self_times)
    metrics["trace.accounted_frac"] = layer_total / traced_wall
    notes = [f"{pair} pairs of passes over {len(requests)} requests; "
             f"traced pass {traced_wall:.3f} s, untraced {statistics.median(walls[False]):.3f} s"]
    return attempted, failures, metrics, notes


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.startswith(("surjections.us_", "qsym.us_")):
        return "us"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qmn" / "cli.py").is_file():
        print(f"error: no qmn sources under {root / 'src'}; run from a qmn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    client = Client(root, workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS // 2):
            requests = set_up(args.workload, args.seed, workdir, client, setup_times)
        if args.trace:
            attempted, failures, metrics, notes = run_traced(
                requests, client, args.seconds, expected_tables(requests),
                recorded_counts(args.workload))
        else:
            attempted, failures, metrics, notes = run_end_to_end(
                requests, client, args.seconds)
            for _ in range(SETUP_REPEATS // 2):
                set_up(args.workload, args.seed, workdir, client, setup_times)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        floor = client.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    notes.append(f"spawner peak RSS {floor / 1024:.2f} MiB, the floor of peak_rss_mib")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for failure in failures[:20]:
        print("  FAILED " + failure)
    names = list(END_TO_END) if not args.trace else [
        "cli.startup_s", *(n + "_s" for n in PER_LAYER_TIMES), *PER_LAYER_COUNTS,
        "surjections.us_per_surjection", "qsym.us_per_coarsening", "trace.overhead_frac",
        "trace.accounted_frac"]
    for name in names:
        print(f"  {name:40s} {metrics[name]:>14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
