"""Benchmark for smash: build, apply and solve on three fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload dlp-sunflower --seed 1 --seconds 10 --trace 0

One process runs one workload in a closed loop: each library call starts
after the previous one returns.  The library is imported from ``src/`` next
to this directory, never from an installed copy.  The seed makes the inputs
(vectors to apply, known solutions to solve for, and the sampled check
rows); the matrix of each workload is fixed.

With ``--trace 0`` the last line holds the end-to-end metrics, measured with
no tracing; with ``--trace 1`` it holds the per-layer metrics of a traced run
(see tracing.py).  The lines before it describe the environment, the sample
counts, and, when traced, the span table.  Every result is checked against
exact kernel entries; a failed check or an exception counts as a failed
operation.  The process exits 2 without a result when the library sources are
missing, and 1 when an operation the rest of the run needs has failed.
"""

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MATVEC_TOL = 1e-10     # acceptance criterion 1
RESIDUAL_TOL = 1e-9    # acceptance criterion 3
FORWARD_TOL = 1e-7     # acceptance criterion 3 (interval forward error)
REPEAT_TOL = 1e-12     # a repeated solve of one right-hand side
POOL = 4               # distinct vectors the loop cycles through
SAMPLE_ROWS = 512      # rows checked per apply when n is too large to stream
STREAM_MAX_N = 3200    # largest n checked against the full streamed product
FIRST_APPLY_SAMPLES = 25    # loads per run, each followed by a first apply,
FIRST_APPLY_SECONDS = 3.0   # repeated while they fit in this time in all

WORKLOADS = ("dlp-sunflower", "cauchylike-honeybee", "grid2d-h2")


def import_smash():
    if not (SRC / "smash" / "__init__.py").is_file():
        print("perfbench: library sources not found at %s" % SRC,
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import smash
    if Path(smash.__file__).resolve().parent != SRC / "smash":
        print("perfbench: imported smash from %s, not from %s"
              % (smash.__file__, SRC), file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    structure: str              # "hss" or "h2"
    n: int
    spec: object
    X: object
    Y: object
    setup: object               # () -> (tree, matrix)
    extra: dict = field(default_factory=dict)


def make_problem(name, scale):
    from smash import bench, cluster, h2, hss
    from smash.kernel import KernelSpec, get_curve

    if name == "dlp-sunflower":
        n = int(round(2560 * scale))
        crv = get_curve("sunflower")
        spec = KernelSpec("laplace_dlp", curve=crv, nq=n)
        pts = bench.curve_points("sunflower", n)
        bp = hss.BuildParams(r=25, tau=0.6, eps_svd=1e-11, basis="interp")

        def setup():
            tree = cluster.build_tree(pts, nu0=50, tau=bp.tau)
            return tree, hss.build_hss(tree, spec, pts, pts, bp)

        # boundary data of a point source outside the curve
        r = crv.point(spec.dlp_nodes())
        x0 = (2.0, 1.5)
        rhs = np.log(np.hypot(r[:, 0] - x0[0], r[:, 1] - x0[1]))
        return Problem("hss", n, spec, None, None, setup,
                       {"first_rhs": rhs, "curve": crv, "x0": x0})

    if name == "cauchylike-honeybee":
        n = int(round(3200 * scale))
        # the honeybee case of acceptance criterion 3, drawn as it draws it
        geo = np.random.default_rng([1, n])
        X, Y = bench.cauchy_pair("honeybee", n, geo)
        w = geo.random((n, 2))
        v = geo.random((n, 2))
        spec = KernelSpec("cauchy_like", w=w, v=v)
        bp = hss.BuildParams(r=bench.choose_params(1e-10).r, tau=0.6,
                             eps_svd=1e-9)

        def setup():
            tree = cluster.build_tree(X, Y, nu0=50, tau=bp.tau)
            return tree, hss.cauchy_like_hss(tree, X, Y, w, v, bp)

        return Problem("hss", n, spec, X, Y, setup)

    if name == "grid2d-h2":
        m = int(round(128 * math.sqrt(scale)))
        pts = bench.grid_points(m)
        spec = KernelSpec("cauchy", dx=1.0)
        bp = hss.BuildParams(r=22, tau=0.65)

        def setup():
            tree = cluster.build_tree(pts, nu0=50, mode="2d", tau=bp.tau)
            return tree, h2.build_h2(tree, spec, pts, pts, bp)

        return Problem("h2", m * m, spec, pts, pts, setup)

    raise ValueError("unknown workload %r" % name)


class Oracle:
    """Exact products A @ Q from kernel entries: every row for n up to
    STREAM_MAX_N (the streamed bench.dense_matvec), otherwise a seeded
    sample of SAMPLE_ROWS rows."""

    def __init__(self, prob, rng):
        from smash.kernel import kernel_block
        self._kernel_block = kernel_block
        self.prob = prob
        if prob.n <= STREAM_MAX_N:
            self.rows = None
        else:
            self.rows = np.sort(rng.choice(prob.n, SAMPLE_ROWS, replace=False))

    def product(self, Q):
        from smash import bench
        p = self.prob
        if self.rows is None:
            return bench.dense_matvec(p.spec, p.X, p.Y, Q)
        cols = np.arange(p.n)
        parts = [self._kernel_block(p.spec, p.X, p.Y, self.rows[a:a + 64], cols) @ Q
                 for a in range(0, self.rows.size, 64)]
        return np.concatenate(parts, axis=0)

    def restrict(self, z):
        return z if self.rows is None else z[self.rows]


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, with the error behind each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run(self, label, fn, *args):
        """Call fn, counting it; returns (seconds, result) or (seconds, None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            dt = time.perf_counter() - t0
            self.fail(label, traceback.format_exc(limit=3))
            return dt, None
        return time.perf_counter() - t0, out

    def fail(self, label, why):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append("%s: %s" % (label, why.strip()))

    def check(self, label, ok, why):
        """Count a failed check against an operation already attempted."""
        if not ok:
            self.fail(label, why)


def relerr(a, b):
    nb = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / nb) if nb else float(np.linalg.norm(a))


def digits(err):
    return -math.log10(max(err, 1e-17))


def tail(samples):
    """The 90th percentile, lowered where needed so that at least ten samples
    lie beyond it (the maximum when there are fewer than eleven)."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1]
    return s[min(math.ceil(0.9 * (len(s) - 1)), len(s) - 11)]


def median(samples):
    return float(np.median(samples))


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_rank(M):
    return max((max(M.rank_row(i), M.rank_col(i)) for i in M.skel_row),
               default=0)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_libs():
    """(path, threads, config) of each OpenBLAS the process has loaded, read
    through ctypes since threadpoolctl is not a dependency."""
    import ctypes
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower():
                paths.add(line.split()[-1])
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, prefix + "get_num_threads" + suffix, None)
                if fn is not None and threads is None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                fn = getattr(lib, prefix + "get_config" + suffix, None)
                if fn is not None and config is None:
                    fn.restype = ctypes.c_char_p
                    config = fn().decode()
        out.append({"lib": os.path.basename(path), "threads": threads,
                    "config": config})
    return out


def environment():
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libs(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, traced, scale=1.0, setup_reps=3,
                 inject_fault=False):
    import_smash()
    from smash import apply, bench, container
    ticks0 = cpu_ticks()

    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    prob = make_problem(name, scale)
    oracle = Oracle(prob, rng)
    n = prob.n
    Qv = rng.random((n, POOL))                  # apply inputs
    Us = rng.random((n, POOL))                  # known solutions
    Zexact = oracle.product(Qv)
    Bs = bench.dense_matvec(prob.spec, prob.X, prob.Y, Us) \
        if prob.structure == "hss" else None

    tracer = None
    if traced:
        from tracing import Tracer
        from layers import install
        tracer = Tracer()
        install(tracer)
        setup_reps = 1
    phase = (lambda p: setattr(tracer, "phase", p)) if tracer else (lambda p: None)

    led = Ledger()
    t = {"setup": [], "first_matvec": [], "load": [], "matvec": [], "levelwise": [],
         "solve": [], "untraced_matvec": []}
    errs = {"matvec": [], "residual": [], "forward": []}
    fault_pending = inject_fault

    def checked_matvec(M, fn, k, label):
        nonlocal fault_pending
        dt, z = led.run(label, fn, M, Qv[:, k])
        if z is None:
            return dt
        if fault_pending:
            z = z.copy()
            z[0] += 1e-3 * np.linalg.norm(z)
            fault_pending = False
        err = relerr(oracle.restrict(z), Zexact[:, k])
        errs["matvec"].append(err)
        led.check(label, err <= MATVEC_TOL,
                  "relative error %.3e > %.0e" % (err, MATVEC_TOL))
        return dt

    # -- set-up: generated inputs to a built matrix -----------------------
    phase("setup")
    dt, built = led.run("setup", prob.setup)
    if built is None:
        return abort(led)
    t["setup"].append(dt)
    tree, M = built
    storage = bench.storage_report(M)
    info = {"n": n, "levels": tree.n_levels, "max_rank": max_rank(M)}
    F = x_first = None
    ttr = None          # what the first checked result takes after set-up

    tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
    try:
        path = os.path.join(tmp.name, "m.smh")
        if prob.structure == "hss":
            # from the built matrix to the first solution: factor, one solve
            phase("factor")
            dt_f, F = led.run("ulv_factor", apply.ulv_factor, M)
            if F is None:
                return abort(led)
            info["factor_s"] = dt_f
            phase("solve")
            b0 = prob.extra.get("first_rhs", Bs[:, 0])
            dt_s, x_first = led.run("first solve", apply.ulv_solve, F, b0)
            if x_first is None:
                return abort(led)
            ttr = dt_f + dt_s
            t["solve"].append(dt_s)
            if "first_rhs" not in prob.extra:
                err = relerr(x_first, Us[:, 0])
                errs["forward"].append(err)
                led.check("first solve", err <= FORWARD_TOL,
                          "forward error %.3e > %.0e" % (err, FORWARD_TOL))
        phase("save")
        dt_save, _ = led.run("save", container.save_matrix, M, path)
        info["container_bytes"] = os.path.getsize(path)

        ML = None
        cost = 0.0      # seconds of the last load plus first apply

        def fresh_loads(budget):
            """Load the matrix and apply it once, again and again while one
            more round fits in budget seconds (at least once on the first
            call; once in a traced run, so its per-layer totals stay per
            call).  Returns False if a load failed."""
            nonlocal ML, cost
            t_stop = time.perf_counter() + budget
            while t["load"] == [] or (
                    not traced and len(t["load"]) < FIRST_APPLY_SAMPLES
                    and time.perf_counter() + cost < t_stop):
                t0 = time.perf_counter()
                ML = None               # free the previous copy first
                phase("load")
                dt_load, ML = led.run("load", container.load_matrix, path)
                if ML is None:
                    return False
                phase("first_apply")
                t["first_matvec"].append(
                    checked_matvec(ML, apply.matvec_nodewise, 0, "first matvec"))
                t["load"].append(dt_load)
                cost = time.perf_counter() - t0
            return True

        # -- warm closed loop --------------------------------------------------
        first_x = {}
        levelwise = traced and prob.structure == "h2"

        def warm_loop(duration):
            phase("apply")
            t_end = time.perf_counter() + duration
            it = 0
            while time.perf_counter() < t_end:
                k = it % POOL
                t["matvec"].append(
                    checked_matvec(ML, apply.matvec_nodewise, k, "matvec"))
                if levelwise:
                    t["levelwise"].append(checked_matvec(
                        ML, apply.matvec_levelwise, k, "levelwise matvec"))
                if prob.structure == "hss":
                    dt, x = led.run("solve", apply.ulv_solve, F, Bs[:, k])
                    t["solve"].append(dt)
                    if x is not None:
                        err = relerr(x, Us[:, k])
                        errs["forward"].append(err)
                        drift = relerr(x, first_x.setdefault(k, x))
                        led.check(
                            "solve", err <= FORWARD_TOL and drift <= REPEAT_TOL,
                            "forward error %.3e (limit %.0e), %.3e from the "
                            "first solve of this right-hand side (limit %.0e)"
                            % (err, FORWARD_TOL, drift, REPEAT_TOL))
                it += 1

        # The loads and the warm loop are split into one round after each
        # set-up, so that their samples span the whole run and not one
        # stretch of it: on a shared machine, speed drifts over tens of
        # seconds.  Memory peaks are read after the first round, before
        # further set-ups overlap the matrices already held.
        budget = FIRST_APPLY_SECONDS / setup_reps
        chunk = (seconds / 2 if traced else seconds) / setup_reps
        if not fresh_loads(budget):
            return abort(led)
        if ttr is None:
            ttr = dt_save + t["load"][0] + t["first_matvec"][0]
        warm_loop(chunk)
        rss = peak_rss_mib()
        for _ in range(setup_reps - 1):
            phase("setup")
            dt, built = led.run("setup", prob.setup)
            if built is None:
                return abort(led)
            t["setup"].append(dt)
            built = None
            if not fresh_loads(budget):
                return abort(led)
            warm_loop(chunk)
        info["save_s"], info["load_s"] = dt_save, median(t["load"])
    finally:
        tmp.cleanup()

    if tracer is not None:
        # the same applies with every wrapper removed, for the overhead
        tracer.restore()
        t_end = time.perf_counter() + seconds / 2
        it = 0
        while time.perf_counter() < t_end:
            t["untraced_matvec"].append(checked_matvec(
                ML, apply.matvec_nodewise, it % POOL, "untraced matvec"))
            it += 1

    steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
    # time the hypervisor ran something else on this machine's CPUs, a
    # marker of runs disturbed from outside
    info["steal_frac"] = steal / total if total else 0.0

    # -- residuals of the distinct solutions, after the memory peak is read ---
    if prob.structure == "hss":
        ks = sorted(first_x)
        xs = np.column_stack([x_first] + [first_x[k] for k in ks])
        bs = np.column_stack([prob.extra.get("first_rhs", Bs[:, 0])]
                             + [Bs[:, k] for k in ks])
        res = bench.dense_matvec(prob.spec, prob.X, prob.Y, xs)
        for c in range(xs.shape[1]):
            led.attempted += 1          # each residual check is one operation
            err = relerr(res[:, c], bs[:, c])
            errs["residual"].append(err)
            led.check("solve residual", err <= RESIDUAL_TOL,
                      "residual %.3e > %.0e" % (err, RESIDUAL_TOL))
        if "curve" in prob.extra:
            info["potential_error"] = potential_error(prob, x_first)

    info.update({
        "setup_samples": len(t["setup"]),
        "first_matvec_samples": len(t["first_matvec"]),
        "matvec_samples": len(t["matvec"]),
        "solve_samples": len(t["solve"]),
        "levelwise_samples": len(t["levelwise"]),
        "compressed_bytes": storage.compressed_bytes,
        "dense_bytes": storage.dense_bytes,
        "max_matvec_error": max(errs["matvec"], default=None),
        "max_residual": max(errs["residual"], default=None),
        "max_forward_error": max(errs["forward"], default=None),
    })
    info["matvec_tail_s"] = tail(t["matvec"])
    if prob.structure == "hss":
        info["solve_s"] = median(t["solve"])
        info["solve_tail_s"] = tail(t["solve"])
    if not errs["matvec"] or (prob.structure == "hss" and not errs["forward"]):
        return abort(led)

    e2e = {
        "setup_s": (median(t["setup"]), "s"),
        "first_matvec_s": (median(t["first_matvec"]), "s"),
        "matvec_s": (median(t["matvec"]), "s"),
        "time_to_result_s": (median(t["setup"]) + ttr, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "compressed_mib": (storage.compressed_bytes / 2.0 ** 20, "MiB"),
        "max_rank": (float(info["max_rank"]), "count"),
        "matvec_digits": (digits(max(errs["matvec"])), "digits"),
        "ops_ok_frac": ((led.attempted - led.failed) / led.attempted, "frac"),
    }
    if tracer is None:
        metrics = e2e
    else:
        from layers import layer_metrics
        metrics = layer_metrics(tracer, prob, M, F, t, errs, info)
        print("# spans " + json.dumps(
            [list(r[:3]) + [r[3], round(r[4], 6), round(r[5], 6)]
             for r in tracer.table()[:40]]))
    print("# env " + json.dumps(environment()))
    print("# detail " + json.dumps({"workload": name, "seed": seed,
                                    "traced": traced, **info}, default=float))
    for note in led.notes:
        print("# failed " + note.replace("\n", " | "))
    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def potential_error(prob, sigma):
    """Error of the double-layer potential at an interior point against the
    exact harmonic field; reported, not checked (it measures quadrature)."""
    from smash.kernel import evaluate_potential
    x0, xs = prob.extra["x0"], (1.5, 0.0)
    uh = evaluate_potential(prob.extra["curve"], sigma, np.asarray(xs))
    return abs(uh - math.log(math.hypot(xs[0] - x0[0], xs[1] - x0[1])))


def abort(led):
    for note in led.notes:
        print("# failed " + note.replace("\n", " | "), file=sys.stderr)
    print("perfbench: an operation the run depends on failed", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="problem size relative to the fixed workload")
    ap.add_argument("--setup-reps", type=int, default=3,
                    help="set-ups per run; setup_s is their median")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one apply result (self-test of the checks)")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.setup_reps < 1:
        ap.error("--seconds, --scale and --setup-reps must be positive")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.scale, args.setup_reps,
                        args.inject_fault)


if __name__ == "__main__":
    sys.exit(main())
