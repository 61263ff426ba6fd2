"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

    python3 perf/compare.py --runs 10 --out perf/out/parent.json   # collect a set
    python3 perf/compare.py perf/out/parent.json perf/out/change.json
    python3 perf/compare.py --aa 3                                  # noise check

A *set* holds K runs of every workload, one seed each (seeds 1..K).  For
every workload × end-to-end metric the two sets' medians are compared:

* ``regression`` — the second median is worse than the first by more than
  the metric's bound;
* ``unresolved`` — the first set's own quartile spread is wider than the
  bound, so the bound cannot be told from noise (``setup_s`` is held to its
  median only, as in the contract: it has two samples a run);
* ``unchanged`` / ``better`` otherwise.

Every ratio is printed with its base.  ``--aa K`` collects two sets of the
current tree, run by run in alternation, and fails if they disagree: that is
a fault of the measurement, to be fixed there — not by widening a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from statistics import median
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_SECONDS = 180


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    The figure the contract's acceptance rule uses
    (``statistics.quantiles(values, n=4)``).
    """
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(contract: dict, workload: str, seed: int) -> dict:
    """One fresh-process run, as the driver makes it; returns its JSON line."""
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_SECONDS
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "correct": line["correct"],
        "failed": line["failed"],
        "metrics": {name: metric["value"] for name, metric in line["metrics"].items()},
    }


def collect(sets: List[str], runs: int) -> List[List[dict]]:
    """``runs`` seeds of every workload for each named set, in alternation."""
    contract = load_contract()
    results: List[List[dict]] = [[] for _ in sets]
    for seed in range(1, runs + 1):
        for workload in contract["workloads"]:
            for index, label in enumerate(sets):
                run = run_once(contract, workload["name"], seed)
                print(f"  {label} {workload['name']} seed {seed}: "
                      f"{'ok' if run['correct'] else 'FAILED'}", flush=True)
                results[index].append(run)
    return results


def by_workload(runs: List[dict], metric: str) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for run in runs:
        values.setdefault(run["workload"], []).append(run["metrics"][metric])
    return values


def compare(first: List[dict], second: List[dict]) -> int:
    """Print the verdict table; returns the number of regressions + unresolved."""
    contract = load_contract()
    bad = 0
    failed = [r for r in first + second if not r["correct"]]
    for run in failed:
        print(f"FAILED OPERATIONS: {run['workload']} seed {run['seed']}: {run['failed']}")
    print(f"{'workload':<24} {'metric':<26} {'first':>12} {'second':>12} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        base, other = by_workload(first, name), by_workload(second, name)
        for workload in base:
            a, b = median(base[workload]), median(other[workload])
            worse = sign * (b - a) / a
            spread = quartile_spread(base[workload]) if len(base[workload]) >= 2 else 0.0
            if worse > bound:
                verdict = "regression"
            elif spread > bound and name != "setup_s":
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            bad += verdict in ("regression", "unresolved")
            print(f"{workload:<24} {name:<26} {a:>12.4f} {b:>12.4f} "
                  f"{(b - a) / a:>+8.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}")
    return bad + len(failed)


def write_set(path: str, runs: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def read_set(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", help="two set files to compare")
    parser.add_argument("--runs", type=int, help="collect a set of this many seeds")
    parser.add_argument("--out", help="where --runs writes its set")
    parser.add_argument("--aa", type=int, metavar="K", help="two sets of K runs, compared")
    args = parser.parse_args(argv)
    out_dir = os.path.join(ROOT, "perf", "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.aa:
        if args.aa < 3:
            parser.error("--aa needs at least 3 runs per set")
        first, second = collect(["A", "B"], args.aa)
        write_set(os.path.join(out_dir, "aa-A.json"), first)
        write_set(os.path.join(out_dir, "aa-B.json"), second)
        return 1 if compare(first, second) else 0
    if args.runs:
        if not args.out:
            parser.error("--runs needs --out")
        (runs,) = collect([os.path.basename(args.out)], args.runs)
        write_set(args.out, runs)
        return 0
    if len(args.sets) != 2:
        parser.error("give two set files, or --runs, or --aa")
    return 1 if compare(read_set(args.sets[0]), read_set(args.sets[1])) else 0


if __name__ == "__main__":
    sys.exit(main())
