"""Run one workload of the cyclide benchmark and print its metrics.

    python3 bench/run.py --workload exact-mixed-to-torus --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The run itself happens in a fresh
interpreter (bench/worker.py), which also times the cold set-ups that give
`setup_s`.  With --trace 0 the last line of stdout carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run.  The line before it is a summary: failures by type, the
failing inputs, sample counts.  The full result and, for a traced run, the
spans go to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
from corpus import WORKLOADS  # noqa: E402  (imports no part of the program)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cyclide", "__init__.py")):
        print(f"bench: no program source at {os.path.join(ROOT, 'src', 'cyclide')}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # -S: no site module; path configuration files installed on the host
    # are not the program's set-up, and cyclide imports only the standard
    # library
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), stem + ".spans.jsonl"]
    # the last round may start just before the deadline: allow a whole
    # run's length again for it, plus building and checking the inputs
    timeout = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {timeout} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  python=sys.version.split()[0], nproc=os.cpu_count())
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    summary = {k: result[k] for k in ("workload", "seed", "rounds", "inputs_per_round",
                                      "wall_inputs_per_s", "traced_rounds", "failures",
                                      "wrong") if k in result}
    summary["failed_inputs"] = [(f["index"], f["block"], f["type"])
                                for f in result["failed_inputs"]]
    print(json.dumps(summary))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
