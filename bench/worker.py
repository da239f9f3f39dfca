"""One benchmark run in a fresh interpreter; bench/run.py starts it.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH
    python3 bench/worker.py WORKLOAD        (set-up only)

Set-up (importing cyclide, building the policy) ends at `t_ready`.  With
only WORKLOAD given, the worker prints that time.perf_counter() reading and
exits; `cold_setup_s` starts it so, SETUP_PROBES times over the run, and
compares the reading with its own, taken just before.  Otherwise the inputs
are built next, out of the timed region.  Each input goes through the calls
a CLI verb makes for one line: json.loads -> serialize.parse_coefficients
-> pipeline.analyze -> json.dumps.  The run repeats whole rounds of the same
surfaces until SECONDS have passed, each round with other bytes
(corpus.round_lines), and prints one JSON object on stdout.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKLOAD = sys.argv[1]
MODE = "float" if WORKLOAD.startswith("float") else "exact"

import cyclide  # noqa: E402  (set-up: the whole package, as the CLI loads it)
from cyclide import pipeline, serialize  # noqa: E402
from cyclide.errors import CyclideError  # noqa: E402
from cyclide.recognizer import TolerancePolicy  # noqa: E402

# tau_rel pinned: CYCLIDE_TOL is not read
POLICY = TolerancePolicy(MODE, 1e-9)
t_ready = time.perf_counter()
if len(sys.argv) == 2:
    print(repr(t_ready))
    sys.exit(0)
SEED, SECONDS, TRACE, SPANS_PATH = sys.argv[2:6]

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402
import truth  # noqa: E402
from tracing import DUMPS, INPUT, OVERHEAD, PARSE, Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 5


def cold_setup_s():
    """Seconds from just before a fresh interpreter starts until it is ready
    for its first input: this file with only WORKLOAD given, so `import
    cyclide` and the policy.  -S: no site module; path configuration files
    installed on the host are not the program's set-up."""
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", os.path.abspath(__file__), WORKLOAD],
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout) - t_spawn


def run_round(lines, verb):
    """Untraced: per-input latencies (s), output lines, round wall time."""
    perf = time.perf_counter
    outs, lat = [], []
    start = perf()
    for line in lines:
        t0 = perf()
        try:
            c = serialize.parse_coefficients(json.loads(line), MODE)
            report = pipeline.analyze(c, POLICY, verb)
        except CyclideError as exc:
            report = {"error": f"{type(exc).__name__}: {exc}"}
        outs.append(json.dumps(report))
        lat.append(perf() - t0)
    return outs, lat, perf() - start


def run_round_traced(lines, verb, tracer, first_id):
    """The same calls with the benchmark's own spans around them; input ids
    count on from first_id."""
    perf = time.perf_counter
    outs = []
    start = perf()
    for i, line in enumerate(lines, start=first_id):
        tracer.input_id = i
        root = tracer.begin(INPUT)
        span = tracer.begin(PARSE)
        try:
            try:
                c = serialize.parse_coefficients(json.loads(line), MODE)
            finally:
                tracer.end(span)
            report = pipeline.analyze(c, POLICY, verb)
        except CyclideError as exc:
            report = {"error": f"{type(exc).__name__}: {exc}"}
        span = tracer.begin(DUMPS)
        outs.append(json.dumps(report))
        tracer.end(span)
        tracer.end(root)
        tracer.current = -1
    return outs, perf() - start


class Checker:
    """Checks every report against the truth; a report identical to an
    earlier report of the same input keeps that report's outcome.  Every
    round holds the same surfaces, so one truth serves all rounds."""

    def __init__(self, items, verb):
        self.items, self.verb = items, verb
        self.truths = [None if verb == "recognize" else truth.truth_of(it) for it in items]
        self.seen = [None] * len(items)      # (output line, outcome)
        self.failures = Counter()
        self.failed = 0
        self.attempted = 0
        self.wrong = []                      # exact-mode disagreements
        self.failed_inputs = {}              # index -> its first failure

    def outcome(self, i, out):
        """None, ("failed", type, detail) or ("wrong", detail)."""
        item, report = self.items[i], json.loads(out)
        if "error" in report:
            return ("failed", report["error"].split(":")[0], report["error"])
        if MODE == "float":
            kind = truth.float_failure(item, report, self.truths[i])
            if kind is None:
                return None
            return ("failed", kind, truth.float_detail(item, report, self.truths[i]))
        if self.verb == "recognize":
            problem = truth.check_recognition(item, report)
        else:
            problem = truth.check_analysis(item, report, self.truths[i])
        return None if problem is None else ("wrong", problem)

    def check(self, outs):
        for i, out in enumerate(outs):
            seen = self.seen[i]
            if seen is None or seen[0] != out:
                seen = self.seen[i] = (out, self.outcome(i, out))
                if seen[1] is not None and seen[1][0] == "failed":
                    item = self.items[i]
                    self.failed_inputs.setdefault(i, {
                        "index": i, "block": item.block, "kind": item.kind,
                        "params": {k: str(v) for k, v in item.params.items()},
                        "type": seen[1][1], "detail": seen[1][2]})
                elif seen[1] is not None:
                    self.wrong.append({"index": i, "detail": seen[1][1]})
            self.attempted += 1
            if seen[1] is not None and seen[1][0] == "failed":
                self.failed += 1
                self.failures[seen[1][1]] += 1


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main():
    seconds = float(SECONDS)
    _, verb, _, _ = corpus.WORKLOADS[WORKLOAD]
    items = corpus.build(WORKLOAD, int(SEED))
    factors = corpus.round_factors(MODE == "exact")
    checker = Checker(items, verb)
    result = {"inputs_per_round": len(items),
              "quartics_per_round": sum(it.kind == "quartic" for it in items)}
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    if TRACE == "0":
        samples, round_s, setups = [], [], []
        # cold set-ups spread over the run, between rounds, so that they meet
        # the host's states as the rounds do; all are due before the deadline
        probe_at = [start + (j + 0.5) * seconds / SETUP_PROBES for j in range(SETUP_PROBES)]
        while True:
            outs, lat, elapsed = run_round(corpus.round_lines(items, factors, rounds), verb)
            checker.check(outs)
            samples.append(array("d", lat))
            round_s.append(elapsed)
            rounds += 1
            while len(setups) < SETUP_PROBES and time.perf_counter() >= probe_at[len(setups)]:
                setups.append(cold_setup_s())
            if time.perf_counter() >= deadline:
                break
        # an input's time is its fastest over the run's rounds: the host
        # switches between a fast and a slow state, 1.5 to 1.8 times apart,
        # for seconds to minutes at a time, and whole runs can sit mostly in
        # either; the fastest sample holds wherever a run meets the fast
        # state at all, the median flips with the share of time in it
        per_input = [min(column) for column in zip(*samples)]
        ranked = sorted(per_input)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["metrics"] = {
            "inputs_per_s": {"value": len(per_input) / sum(per_input), "unit": "inputs/s"},
            "latency_p50_us": {"value": quantile(ranked, 0.50) * 1e6, "unit": "us"},
            "latency_p99_us": {"value": quantile(ranked, 0.99) * 1e6, "unit": "us"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": min(setups), "unit": "s"},
        }
        result["wall_inputs_per_s"] = rounds * len(items) / sum(round_s)
        result["round_s"] = round_s
        result["setups_s"] = setups
    else:
        tracer = Tracer()
        overhead = []
        while True:
            outs, _, plain = run_round(corpus.round_lines(items, factors, rounds), verb)
            checker.check(outs)
            lines = corpus.round_lines(items, factors, rounds + 1)
            tracer.install()
            try:
                outs, traced = run_round_traced(lines, verb, tracer,
                                                len(overhead) * len(items))
            finally:
                tracer.uninstall()
            checker.check(outs)
            overhead.append(traced - plain)
            rounds += 2
            if time.perf_counter() >= deadline:
                break
        pairs = len(overhead)
        metrics = layer_metrics(tracer, pairs * len(items),
                                pairs * result["quartics_per_round"])
        metrics[OVERHEAD] = {"value": sum(overhead) / pairs, "unit": "s"}
        result["metrics"] = metrics
        result["traced_rounds"] = pairs
        tracer.write(SPANS_PATH)
    result.update(rounds=rounds, correct=not checker.wrong, attempted=checker.attempted,
                  failed=checker.failed, failures=dict(checker.failures),
                  failed_inputs=sorted(checker.failed_inputs.values(), key=lambda f: f["index"]),
                  wrong=checker.wrong[:20])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
