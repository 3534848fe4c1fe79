"""Command line: build structured matrices, save them, apply and solve them.

Exit codes: 0 on success, 2 on a validation problem (bad flags, unsupported
combinations, malformed inputs), 3 on a numerical failure (singular local
block, pivot-swap runaway).
"""

import argparse
import math
import sys
import time

import numpy as np

from . import bench
from .apply import (matvec_nodewise, read_vector, ulv_factor, ulv_solve,
                    write_vector)
from .cluster import build_tree
from .container import load_matrix, save_matrix
from .h2 import build_h2
from .hss import BuildParams, build_hss
from .kernel import KernelSpec, get_curve

_GEOMETRIES = ("interval", "grid2d", "ramhead", "sunflower", "honeybee",
               "snail", "circle")
_CLOSED = ("ramhead", "sunflower", "honeybee", "circle")


# ---------------------------------------------------------------------------
# flag -> problem setup
# ---------------------------------------------------------------------------


def _materialize(args):
    """Point sets, kernel spec, tree, and build parameters from the flags."""
    kind = args.kernel.replace("-", "_")
    n = args.n if args.n is not None else 1600
    if n < 1:
        raise ValueError("--n must be a positive integer")
    rng = np.random.default_rng(args.seed)
    d = 2 if args.geometry == "grid2d" else 1
    tol = args.tol if args.tol is not None else 1e-8
    pc = bench.choose_params(tol, d=d)
    tau = args.tau if args.tau is not None else pc.tau
    order = args.order if args.order is not None else pc.r
    svd_tol = args.svd_tol if args.svd_tol is not None else pc.eps_svd
    # checked here, before a tree is built on tau
    params = BuildParams(r=order, tau=tau, eps_svd=svd_tol)

    if kind == "laplace_dlp":
        if args.geometry not in _CLOSED:
            raise ValueError("laplace-dlp needs a closed curve geometry "
                             "(one of %s)" % ", ".join(_CLOSED))
        crv = get_curve(args.geometry)
        spec = KernelSpec(kind=kind, curve=crv, nq=n)
        X = Y = bench.curve_points(args.geometry, n)
    elif args.geometry == "grid2d":
        if kind != "cauchy":
            raise ValueError("grid2d pairs coincident source/target sets; "
                             "only the cauchy kernel defines that diagonal")
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError("grid2d needs --n to be a perfect square")
        X = Y = bench.grid_points(m)
        spec = KernelSpec(kind="cauchy", dx=1.0)
    else:
        X, Y = bench.cauchy_pair(args.geometry, n, rng)
        if kind == "cauchy":
            spec = KernelSpec(kind="cauchy")
        else:
            spec = KernelSpec(kind="cauchy_like", w=rng.random((n, 2)),
                              v=rng.random((n, 2)))

    tree = build_tree(X, None if Y is X else Y, nu0=args.leaf_cap, tau=tau)
    return spec, X, Y, tree, params


def _build_matrix(spec, X, Y, tree, params, structure):
    if structure == "h2":
        return build_h2(tree, spec, X, Y, params)
    return build_hss(tree, spec, X, Y, params)


def _emit(args, info: dict):
    if args.json:
        import json
        print(json.dumps(info, indent=2, default=float))
    else:
        for k, v in info.items():
            print("%s=%s" % (k, format(v, ".10g") if isinstance(v, float) else v))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(args):
    spec, X, Y, tree, params = _materialize(args)
    t0 = time.perf_counter()
    M = _build_matrix(spec, X, Y, tree, params, args.structure)
    t_constr = time.perf_counter() - t0
    rep = bench.storage_report(M)
    info = dict(kernel=args.kernel, geometry=args.geometry,
                structure=args.structure, n_row=M.n_row, n_col=M.n_col,
                levels=tree.n_levels, max_rank=bench.max_rank(M),
                t_constr=t_constr,
                compressed_mib=bench.as_mib(rep.compressed_bytes),
                generator_mib=bench.as_mib(rep.generator_bytes))
    if args.out:
        save_matrix(M, args.out)
        info["saved"] = args.out
    _emit(args, info)


def _obtain_matrix(args):
    if getattr(args, "load", None):
        return load_matrix(args.load), None, None, None
    spec, X, Y, tree, params = _materialize(args)
    return _build_matrix(spec, X, Y, tree, params, args.structure), spec, X, Y


def cmd_matvec(args):
    M, spec, X, Y = _obtain_matrix(args)
    if args.vec:
        q = read_vector(args.vec)
    else:
        q = np.random.default_rng(args.seed).random(M.n_col)
    t0 = time.perf_counter()
    z = matvec_nodewise(M, q)
    t_matvec = time.perf_counter() - t0
    info = dict(n_row=M.n_row, n_col=M.n_col, t_matvec=t_matvec,
                kept_mib=bench.as_mib(bench.storage_report(M).kept_bytes))
    if spec is not None:
        info["relerr"], info["relerr_rows"] = bench.matvec_relerr(
            spec, X, Y, q, z, args.dense_budget, args.seed)
    if args.out:
        write_vector(args.out, z)
        info["saved"] = args.out
    _emit(args, info)


def cmd_solve(args):
    if not getattr(args, "load", None) and args.structure != "hss":
        raise ValueError("the ULV solver works on HSS matrices; "
                         "use --structure hss")
    M, spec, X, Y = _obtain_matrix(args)
    t0 = time.perf_counter()
    F = ulv_factor(M)
    t_factor = time.perf_counter() - t0
    info = dict(n=M.n_row, t_factor=t_factor)
    if args.vec:
        u, b = None, read_vector(args.vec)
    else:
        u = np.random.default_rng(args.seed).random(M.n_col)
        b = matvec_nodewise(M, u)
    t0 = time.perf_counter()
    x = ulv_solve(F, b)
    info["t_solve"] = time.perf_counter() - t0
    if u is not None:
        info["forward"] = bench.rel_error(x, u)
    info["residual"] = bench.rel_error(matvec_nodewise(M, x), b)
    if args.out:
        write_vector(args.out, x)
        info["saved"] = args.out
    _emit(args, info)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--n", type=int, default=None,
                         help="problem size (default 1600)")
    problem.add_argument("--seed", type=int, default=0)
    problem.add_argument("--dense-budget", type=int,
                         default=bench.DENSE_BUDGET_DEFAULT,
                         help="max dense-oracle entries; beyond it, "
                              "relerr is measured on sampled rows")
    problem.add_argument("--json", action="store_true",
                         help="JSON output instead of key=value lines")
    problem.add_argument("--out", default=None, help="output file path")
    problem.add_argument("--kernel", default="cauchy",
                         choices=("cauchy", "cauchy-like", "laplace-dlp"))
    problem.add_argument("--geometry", default="interval", choices=_GEOMETRIES)
    problem.add_argument("--structure", default="hss", choices=("hss", "h2"))
    problem.add_argument("--tol", type=float, default=None,
                         help="target tolerance driving the parameter "
                              "heuristic (default 1e-8)")
    problem.add_argument("--leaf-cap", type=int, default=50,
                         help="max points per leaf box")
    problem.add_argument("--tau", type=float, default=None,
                         help="separation ratio (default per geometry)")
    problem.add_argument("--order", type=int, default=None,
                         help="farfield expansion order / interpolation "
                              "point count (default from --tol)")
    problem.add_argument("--svd-tol", type=float, default=None,
                         help="HSS nearfield cutoff, the pivoted-QR cut of "
                              "each node's nearfield block, or of its "
                              "Gaussian sketch where the block is wide "
                              "(default tol/10)")

    p = argparse.ArgumentParser(
        prog="smash",
        description="Hierarchically rank-structured kernel matrices: "
                    "construction, fast apply, and ULV solve.")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", parents=[problem],
                        help="construct a structured matrix; --out saves it")
    pb.set_defaults(func=cmd_build)

    pm = sub.add_parser("matvec", parents=[problem],
                        help="apply a structured matrix to a vector")
    pm.add_argument("--vec", default=None, help="input vector file")
    pm.add_argument("--load", default=None, help="saved matrix container")
    pm.set_defaults(func=cmd_matvec)

    ps = sub.add_parser("solve", parents=[problem],
                        help="ULV solve against a right-hand side")
    ps.add_argument("--vec", default=None, help="right-hand side file")
    ps.add_argument("--load", default=None, help="saved matrix container")
    ps.set_defaults(func=cmd_solve)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    # LinAlgError subclasses ValueError, so the numerical branch must come
    # first or singular factorizations would be reported as bad input.
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
