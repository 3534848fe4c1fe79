"""Ungated reports built from benchmark runs.

    python3 perfbench/report.py scaling [--seconds 2] [--workload NAME ...]
    python3 perfbench/report.py blas1   [--seconds 4] [--workload NAME ...]

``scaling`` runs each workload at n/2, n and 2n (one set-up per size) and
prints set-up, factor and apply times with their growth per doubling of n,
which is 2 for the O(n) the paper claims, plus the largest rank.  ``blas1``
runs each workload at its fixed size twice, once with BLAS at its default
thread count and once pinned to one thread, as a reference for what BLAS
threading costs or saves.  Neither report feeds BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SCALES = (0.5, 1.0, 2.0)


def run_once(workload, seconds, scale=1.0, setup_reps=1, env=None):
    """One benchmark process; returns its detail line merged with its
    metric values."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", "0",
           "--scale", str(scale), "--setup-reps", str(setup_reps)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s"
                         % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("# detail "):]) for l in lines
                  if l.startswith("# detail "))
    result = json.loads(lines[-1])
    detail.update({k: v["value"] for k, v in result["metrics"].items()})
    detail["correct"] = result["correct"]
    return detail


def _fmt(v, spec=".4g"):
    return "-" if v is None else format(v, spec)


def per_doubling(n1, t1, n2, t2):
    if not (t1 and t2):
        return None
    return (t2 / t1) ** (1.0 / math.log2(n2 / n1))


def scaling(workloads, seconds):
    cols = ("setup_s", "factor_s", "matvec_s")
    print("| workload | n | setup_s | factor_s | matvec_s | max_rank | correct |")
    print("|---|---|---|---|---|---|---|")
    growth = []
    for w in workloads:
        rows = [run_once(w, seconds, scale) for scale in SCALES]
        for r in rows:
            print("| %s | %d | %s | %s | %s | %d | %s |" % (
                w, r["n"], _fmt(r["setup_s"]), _fmt(r.get("factor_s")),
                _fmt(r["matvec_s"]), r["max_rank"], r["correct"]))
        for a, b in zip(rows, rows[1:]):
            growth.append((w, a["n"], b["n"], [
                per_doubling(a["n"], a.get(c), b["n"], b.get(c)) for c in cols]))
    print()
    print("| workload | n -> n' | setup per doubling | factor per doubling "
          "| matvec per doubling |")
    print("|---|---|---|---|---|")
    for w, n1, n2, g in growth:
        print("| %s | %d -> %d | %s |" % (w, n1, n2,
                                         " | ".join(_fmt(x, ".2f") for x in g)))


def blas1(workloads, seconds):
    pinned = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cols = ("setup_s", "factor_s", "matvec_s", "solve_s", "time_to_result_s")
    print("| workload | BLAS threads | " + " | ".join(cols) + " |")
    print("|---|---|" + "---|" * len(cols))
    for w in workloads:
        for label, env in (("default", None), ("1", pinned)):
            r = run_once(w, seconds, env=env)
            print("| %s | %s | %s |" % (w, label, " | ".join(
                _fmt(r.get(c)) for c in cols)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("report", choices=("scaling", "blas1"))
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS
    if args.report == "scaling":
        scaling(workloads, args.seconds or 2.0)
    else:
        blas1(workloads, args.seconds or 4.0)


if __name__ == "__main__":
    main()
