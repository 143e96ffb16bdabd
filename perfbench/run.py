"""Benchmark command for the Airphant reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload hdfs-search --seed 1 --seconds 10 --trace 0

It starts a local Spark session, generates the workload's corpus from the
seed, builds the index with the program's own Builder, runs a
single-client closed loop of queries for ``--seconds``, checks every
result against an oracle computed from the corpus's raw bytes, and prints
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` last.
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones. Scratch files go under ``.perfbench/`` and are removed at exit,
except the run record (``.perfbench/results/``) and, when traced, the
spans (``.perfbench/spans/``).
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _process_age() -> float:
    """Seconds since this process started (Linux); 0 where unknown."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE0 = _process_age()


def since_start() -> float:
    return time.perf_counter() - _T0 + _AGE0


def main(argv=None) -> int:
    sys.path[0] = str(ROOT)  # import perfbench as a package; shadow nothing
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench.bench import run

    w = WORKLOADS[args.workload]
    out = ROOT / ".perfbench"
    work = out / f"run-{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result, record = run(w, args.seed, args.seconds, bool(args.trace), ROOT, work, out,
                             since_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{w.name}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for p in record["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
