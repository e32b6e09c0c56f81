"""wgk benchmark: end-to-end and per-layer timings of the paths users run.

usage: python3 perfbench/run.py --workload {verify,match,match-batch}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; wgk is imported from ``src/``.

Load model: closed loop, one client.  The next op starts only after the
previous one finished.  A CLI op is one fresh interpreter running ``wgk ...``,
as users do; match-batch starts one fresh interpreter per pass and serves its
query stream inside it (see batch.py).  So no cache carries between runs.

Workloads run in cycles, a fixed list of ops.  A run makes
round(S / CYCLE_S[workload]) cycles, at least one, so it takes about S
seconds on the machine CYCLE_S was measured on.  The op count depends only
on S, never on how fast the machine or the program happens to be: the
percentile that op_s.tail reports is then the same for the parent and the
change, and for every run.
  verify       ``wgk verify --full --json``: the oracle and sections layers.
  match        ``wgk match --rr F --json`` for F in {cy3, can3}, twice each at
               default bounds and once each at ``--max-w2 12 --max-u 6``, in an
               order drawn from the seed: the matcher's cold table build.
  match-batch  search and pipeline library queries over a seeded model list
               (gen.py): many lookups per table build.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over one cycle, a third as many pairs as the untraced run has
cycles, and prints the per-layer metrics of layers.json per cycle, plus the
tracing overhead (traced minus untraced median op time).
Every output is checked exactly; a failed check, or a per-layer value that
breaks the zero/non-zero pattern of layers.json, makes the result incorrect
and the exit code 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
WGK = "from wgk.cli import entry; entry()"
SETUP_REPEATS = 9
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10                 # samples beyond the reported tail percentile
# Seconds per cycle on the 2-core VM at the parent of this benchmark, rounded
# so that a 30-second run makes 20, 7 and 3 cycles.  With 7 match cycles
# op_s.p50 and op_s.tail fall at the middle of the can3 default-bound and of
# the cy3 wide-bound samples rather than between two kinds of op; 20 verify
# ops are the fewest that put op_s.tail at the 50th percentile, not below.
CYCLE_S = {"verify": 1.5, "match": 4.3, "match-batch": 9.0}

VERIFY_CHECKS = 104
WIDE = ["--max-w2", "12", "--max-u", "6"]
CY3_ACCEPT = {"model": {"family": "wogr510", "w2": [0, 0, 2, 2, 4], "u2": 2},
              "sections": [2, 2, 3, 4, 4, 4, 5], "nonlinear": []}
CY3_REJECT = {"model": {"family": "wgr25", "w2": [2, 2, 2, 4, 4], "u2": 0, "cone": [1]},
              "sections": None, "nonlinear": [6]}
CY3_REJECT_REASON = "no coordinate weight divisible by 5"
CAN3_ACCEPT = {"model": {"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": 2},
               "sections": [1, 2, 2, 2, 2, 2, 2], "nonlinear": []}


# -- output checks -------------------------------------------------------------

def _same(cand, want):
    return all(cand.get(k) == v for k, v in want.items())


def check_verify(data):
    if data.get("ok") is not True:
        return "verify reports ok != true"
    if len(data.get("checks", ())) != VERIFY_CHECKS:
        return f"verify ran {len(data.get('checks', ()))} checks, expected {VERIFY_CHECKS}"
    return None


def check_match(accept, reject=None):
    def check(data):
        cands = data["report"]["candidates"]
        accepted = [c for c in cands if c["accepted"]]
        if len(accepted) != 1 or not _same(accepted[0], accept):
            return f"accepted {[c['model'] for c in accepted]}, expected {accept['model']}"
        if reject and not any(not c["accepted"] and _same(c, reject)
                              and CY3_REJECT_REASON in (c["reason"] or "")
                              for c in cands):
            return f"no rejection of {reject['model']} for '{CY3_REJECT_REASON}'"
        return None
    return check


def cli_cycle(workload, seed):
    """The workload's ops: (wgk arguments, output check)."""
    if workload == "verify":
        return [(["verify", "--full", "--json"], check_verify)]
    cy3 = ["match", "--rr", str(HERE / "data" / "cy3.json"), "--json"]
    can3 = ["match", "--rr", str(HERE / "data" / "can3.json"), "--json"]
    cy3_check = check_match(CY3_ACCEPT, CY3_REJECT)
    can3_check = check_match(CAN3_ACCEPT)
    ops = [(cy3, cy3_check), (can3, can3_check)] * 2
    ops += [(cy3 + WIDE, cy3_check), (can3 + WIDE, can3_check)]
    random.Random(seed).shuffle(ops)
    return ops


# -- child processes -----------------------------------------------------------

class Runner:
    """Starts, times and reaps the benchmark's child processes."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_rss_kb = 0
        self.spans = tmp / "spans.json"
        self.totals = {}                # per-layer sums over traced processes
        self.clock = speed.Clock()

    def spawn(self, argv):
        """Run a child to completion: (wall seconds, exit code, stdout, stderr)."""
        err_path = self.tmp / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:           # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, code, out.decode(), err_path.read_text()[-400:]

    def setup_s(self):
        """Fresh interpreter to ``import wgk.cli`` done, median of several."""
        argv = [PY, "-c", "import time, wgk.cli; print(time.perf_counter())"]
        samples = []
        for _ in range(SETUP_REPEATS + 1):       # the first compiles bytecode
            t0 = time.perf_counter()
            _, code, out, err = self.spawn(argv)
            if code != 0:
                raise SystemExit(f"cannot import wgk.cli from {SRC}: {err}")
            samples.append(self.clock.corrected(float(out) - t0))
        return statistics.median(samples[1:])

    def cli_op(self, args, check, traced=False):
        """One ``wgk`` invocation: (corrected seconds, wall seconds, failure or None)."""
        argv = ([PY, str(HERE / "opmain.py"), str(self.spans)] if traced
                else [PY, "-c", WGK]) + args
        wall, code, out, err = self.spawn(argv)
        times = self.clock.corrected(wall), wall
        if traced:
            self.add_spans()
        if code != 0:
            return (*times, f"wgk {' '.join(args)} exited {code}: {err}")
        try:
            return (*times, check(json.loads(out)))
        except (ValueError, KeyError, TypeError) as exc:
            return (*times, f"wgk {' '.join(args)}: unreadable output ({exc!r})")

    def batch(self, seed, cycles, traced=False):
        """One match-batch interpreter; returns its result record."""
        result = self.tmp / "batch.json"
        argv = [PY, str(HERE / "batch.py"), str(seed), str(cycles), str(result)]
        _, code, _, err = self.spawn(argv + ([str(self.spans)] if traced else []))
        if code != 0:
            raise SystemExit(f"match-batch process exited {code}: {err}")
        if traced:
            self.add_spans()
        return json.loads(result.read_text())

    def add_spans(self):
        """Fold the spans file the last traced process wrote into the totals."""
        if not self.spans.exists():
            return
        for key, value in tracer.layer_totals(json.loads(self.spans.read_text())).items():
            self.totals[key] = self.totals.get(key, 0.0) + value
        self.spans.unlink()


# -- measuring loops -------------------------------------------------------------

class Tally:
    """Per-op speed-corrected and raw wall times, and failed checks."""

    def __init__(self):
        self.times, self.raw, self.failures, self.probes = [], [], [], []

    def add(self, corrected, wall, failure):
        self.times.append(corrected)
        self.raw.append(wall)
        if failure:
            self.failures.append(failure)

    def add_batch(self, record):
        for key in ("times", "raw", "failures", "probes"):
            getattr(self, key).extend(record[key])


def run_pass(runner, workload, seed, tally, cycles, traced=False):
    if workload == "match-batch":
        tally.add_batch(runner.batch(seed, cycles, traced))
        return
    ops = cli_cycle(workload, seed)
    for _ in range(cycles):
        for args, check in ops:
            tally.add(*runner.cli_op(args, check, traced))


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, beyond)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(runner, workload, seed, cycles):
    setup = runner.setup_s()
    runner.peak_rss_kb = 0
    tally = Tally()
    run_pass(runner, workload, seed, tally, cycles)
    value, pct, beyond = tail(tally.times)
    n = len(tally.times)
    metrics = {
        "setup_s": setup,
        "op_s.p50": statistics.median(tally.times),
        "op_s.tail": value,
        "ops_per_s": n / sum(tally.times),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
    }
    notes = {"setup_s": f"median of {SETUP_REPEATS} imports",
             "op_s.p50": f"n={n}; raw wall {statistics.median(tally.raw):.4f} s",
             "op_s.tail": f"p{pct:.1f}, {beyond} of {n} samples beyond; "
                          f"raw wall {tail(tally.raw)[0]:.4f} s",
             "ops_per_s": f"raw wall {n / sum(tally.raw):.4f} 1/s"}
    return tally, metrics, notes


def per_layer(runner, workload, seed, pairs, names):
    plain, traced = Tally(), Tally()
    for _ in range(pairs):
        run_pass(runner, workload, seed, plain, 1)
        run_pass(runner, workload, seed, traced, 1, traced=True)
    metrics = tracer.per_layer(runner.totals, pairs, names)
    base = statistics.median(plain.times)
    overhead = statistics.median(traced.times) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / base
    notes = {"trace.overhead_s": f"traced {base + overhead:.4f} s - untraced {base:.4f} s, "
                                 f"{len(traced.times)} + {len(plain.times)} ops",
             "trace.overhead_ratio": f"base: untraced op_s.p50 {base:.4f} s"}
    for key in ("times", "raw", "failures", "probes"):
        getattr(plain, key).extend(getattr(traced, key))
    return plain, metrics, notes


def pattern_violations(workload, metrics):
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    out = []
    for layer in layers:
        for name, expect in layer["metrics"].items():
            for rule in expect.split():
                if rule[1:] != workload:
                    continue
                if rule[0] == "+" and metrics[name] == 0:
                    out.append(f"{name} is zero on {workload}; layers.json expects work")
                if rule[0] == "-" and metrics[name] != 0:
                    out.append(f"{name} = {metrics[name]} on {workload}; layers.json expects zero")
    return out


# -- provenance and output -----------------------------------------------------

def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit(runner):
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    _, code, out, _ = runner.spawn(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return out.strip() if code == 0 else "unknown"


def inputs_digest(workload, seed):
    if workload == "match-batch":
        import gen
        return gen.digest(gen.queries(seed))
    ops = [args for args, _ in cli_cycle(workload, seed)]
    data = [Path(a).read_text() for a in sum(ops, []) if a.endswith(".json")]
    blob = json.dumps([[a.replace(str(ROOT), ".") for a in op] for op in ops] + data)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "match", "match-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wgk" / "cli.py").is_file():
        sys.exit(f"no wgk sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    layer_names = [m["name"] for m in spec["per_layer"]]

    cycles = max(1, round(args.seconds / CYCLE_S[args.workload]))
    # The ops are single-threaded; sharing one CPU lets the speed probe in
    # this process measure the CPU the op processes run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": git_commit(runner),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
            "inputs_digest": inputs_digest(args.workload, args.seed),
            "loadavg_start": loadavg(),
        }
        if args.trace:
            pairs = max(1, cycles // 3)
            tally, metrics, notes = per_layer(runner, args.workload, args.seed, pairs,
                                              layer_names)
            provenance["traced_cycles"] = pairs
            problems = pattern_violations(args.workload, metrics)
        else:
            tally, metrics, notes = end_to_end(runner, args.workload, args.seed, cycles)
            provenance["cycles"] = cycles
            problems = []
        provenance["loadavg_end"] = loadavg()
        probes = runner.clock.probes + tally.probes
        provenance["probe_ms"] = {"median": 1e3 * statistics.median(probes),
                                  "min": 1e3 * min(probes), "max": 1e3 * max(probes),
                                  "reference": 1e3 * speed.REF_PROBE_S}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(tally.times), len(tally.failures)
    for problem in tally.failures + problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    if not args.trace:
        print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} "
              f"{failed} of {attempted} ops")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
