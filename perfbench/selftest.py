"""Fast self-test of the benchmark harness at small n.

    python3 perfbench/selftest.py

Checks that every workload runs, that the end-to-end and per-layer metrics
printed are exactly the ones BENCHMARK.json names, with their units, that a
deliberately corrupted apply result is counted as a failed operation, and
that the benchmark refuses to run, printing no result, in a directory that
holds only BENCHMARK.json and this directory.  Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SMALL = ["--scale", "0.25", "--setup-reps", "1", "--seconds", "0.5"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--trace", str(trace), *SMALL, *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != RESULT_KEYS:
        fail("%s: result keys %s" % (what, sorted(res)))
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        fail("%s: bad operation counts %r" % (what, res))
    return res


def expect_metrics(res, spec, what, nonzero):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (what, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in got if k in want
                                  and got[k] != want[k])))
    for k, v in res["metrics"].items():
        x = v["value"]
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            fail("%s: %s = %r is not a finite number" % (what, k, x))
        if nonzero and x == 0:
            fail("%s: end-to-end metric %s is 0" % (what, k))


def fail(msg):
    print("FAIL " + msg)
    raise SystemExit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = "%s --trace %d" % (w, trace)
            res = result_of(bench(ROOT, w, trace), what)
            if not res["correct"] or res["failed"]:
                fail("%s: %d of %d operations failed"
                     % (what, res["failed"], res["attempted"]))
            expect_metrics(res, metrics, what, nonzero=trace == 0)
            print("ok   %s: %d operations, %d metrics"
                  % (what, res["attempted"], len(res["metrics"])))

    what = "dlp-sunflower --inject-fault"
    res = result_of(bench(ROOT, "dlp-sunflower", 0, "--inject-fault"), what)
    ok_frac = res["metrics"]["ops_ok_frac"]["value"]
    if res["correct"] or res["failed"] != 1 or not ok_frac < 1:
        fail("%s: corrupted result not counted (failed=%d, ops_ok_frac=%r)"
             % (what, res["failed"], ok_frac))
    print("ok   %s: failed=1 of %d, ops_ok_frac=%.5f"
          % (what, res["attempted"], ok_frac))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, WORKLOADS[0], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            fail("bare directory: exit %d, last line %r"
                 % (proc.returncode, last[0]))
    print("ok   bare directory: exit %d, no result" % proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
