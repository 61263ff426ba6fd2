"""The repo's benchmark: ``python3 perf/run.py [--workload NAME] [--seed S] [--trace]``.

Prints every metric by name with its unit, checks the program's outputs
against a batch recompute, writes a result file (with the host, commit and
knob settings) under ``perf/out/`` and ends with one JSON line::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

Without ``--trace`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with it they are the per-layer ones, and a span file
``perf/out/trace-<workload>.json`` is written.  See ``perf/README.md``.
"""

import os
import sys

# Before numpy is imported: one BLAS/OpenMP thread, so that the only threads
# are the generator's and the service's writer, and no knob from the caller's
# environment that would start a process pool or a second store.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
for _name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_STORE_AUTOSAVE"):
    os.environ.pop(_name, None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the script's directory gives way to the repo root: modules are ``perf.*``
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

from perf.bench import Report, run_workload  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perf", "out")
#: a stalled service must end the run, not hang it (the contract allows 180 s)
WORKLOAD_DEADLINE_SECONDS = 170


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); '' outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def ledger_row() -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "knobs": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "unix_time": time.time(),
    }


def result_line(report: Report, declared: list) -> dict:
    """The contract's JSON object; the emitted names must be the declared ones."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(report.metrics):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(report.metrics))}, "
            f"undeclared {sorted(set(report.metrics) - set(units))}"
        )
    return {
        "correct": not report.failures,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": {
            name: {"value": report.metrics[name], "unit": units[name]}
            for name in sorted(units)
        },
    }


def print_report(report: Report, line: dict) -> None:
    kind = "per-layer (traced)" if report.traced else "end-to-end"
    print(f"== {report.workload}  seed {report.seed}  {kind}")
    for name, metric in line["metrics"].items():
        count = report.samples.get(name)
        note = f"  (n={count})" if count else ""
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}{note}")
    for failure in report.failures:
        print(f"  FAILED: {failure}")
    for warning in report.warnings:
        print(f"  WARNING: {warning}")
    print(f"  attempted {line['attempted']}  failed {line['failed']}")


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    traced = bool(args.trace)
    declared = contract["per_layer" if traced else "end_to_end"]
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    for name in names:
        faulthandler.dump_traceback_later(WORKLOAD_DEADLINE_SECONDS, exit=True)
        try:
            report = run_workload(name, args.seed, args.seconds, traced, OUT_DIR)
        finally:
            faulthandler.cancel_dump_traceback_later()
        line = result_line(report, declared)
        print_report(report, line)
        suffix = "-trace" if traced else ""
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}{suffix}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "traced": traced,
                    "ledger": ledger_row(),
                    "samples": report.samples,
                    "failures": report.failures,
                    "warnings": report.warnings,
                    **line,
                    "raw": report.raw,
                },
                handle,
                indent=1,
            )
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
