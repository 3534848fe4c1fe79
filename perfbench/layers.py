"""Which public names the traced run wraps, and the per-layer metrics it
derives from the spans.

Layers are the library's modules.  Each name is wrapped where its caller
looks it up: HSS construction reaches ``truncated_svd``, ``compr``,
``kernel_block`` and the farfield bases through ``smash.hss``, H2
construction reaches ``compr`` through ``smash.h2``, ``compr`` reaches
``srrqr`` through ``smash.lowrank``, and ``smash.apply`` reaches LAPACK
through its ``sla`` module alias, which is swapped for a namespace of
wrapped functions.
The benchmark itself calls every entry point through its module attribute,
so the same wrappers see those calls.
"""

import math
import types

import numpy as np

KERNEL_PHASES = ("setup", "first_apply", "factor")
RANK_LEVELS = range(2, 15)


def _kernel_hook(tracer, args, out):
    tracer.count("kernel.entries", np.size(args[3]) * np.size(args[4]))


def _svd_hook(tracer, args, out):
    tracer.count("svd.kept", out.S.shape[1])
    tracer.count("svd.size", min(np.shape(args[0])))


def _srrqr_hook(tracer, args, out):
    tracer.count("srrqr.swaps", out.swaps)


def install(tracer):
    from smash import apply, cluster, container, h2, hss, lowrank

    w = tracer.wrap
    w(cluster, "build_tree", "cluster.build_tree")
    w(hss, "nearfield_set", "cluster.nearfield_set")
    w(hss, "leaf_sets", "cluster.leaf_sets")
    w(h2, "leaf_sets", "cluster.leaf_sets")
    w(hss, "kernel_block", "kernel.kernel_block", _kernel_hook)
    w(hss, "truncated_svd", "lowrank.truncated_svd", _svd_hook)
    w(hss, "compr", "lowrank.compr")
    w(h2, "compr", "lowrank.compr")
    w(lowrank, "srrqr", "lowrank.srrqr", _srrqr_hook)
    w(hss, "taylor_basis", "lowrank.basis")
    w(hss, "interp_basis", "lowrank.basis")
    w(lowrank.InterpolativeFactor, "expand", "lowrank.expand")
    w(hss, "build_hss", "hss.build_hss")
    w(hss, "cauchy_like_hss", "hss.cauchy_like_hss")
    w(hss, "hss_add", "hss.algebra")
    w(hss, "diag_scale", "hss.algebra")
    w(h2, "build_h2", "h2.build_h2")
    w(hss._StructuredMatrix, "B", "apply.B")
    w(hss._StructuredMatrix, "NF", "apply.NF")
    w(apply, "matvec_nodewise", "apply.matvec_nodewise")
    w(apply, "matvec_levelwise", "apply.matvec_levelwise")
    w(apply, "ulv_factor", "apply.ulv_factor")
    w(apply, "ulv_solve", "apply.ulv_solve")
    w(container, "save_matrix", "container.save_matrix")
    w(container, "load_matrix", "container.load_matrix")
    proxy = types.SimpleNamespace(**{
        name: getattr(apply.sla, name)
        for name in ("qr", "lu_factor", "lu_solve", "solve_triangular")})
    tracer.replace(apply, "sla", proxy)
    for name in vars(proxy):
        w(proxy, name, "scipy." + name)


def _ratio(a, b):
    return a / b if b else 0.0


def _digits(errs):
    return -math.log10(max(max(errs), 1e-17)) if errs else 0.0


def layer_metrics(tracer, prob, M, F, t, errs, info):
    """Per-layer metrics of one traced run, all workloads reporting the same
    names (0 where a layer does no work)."""
    tot, calls, cnt = tracer.total, tracer.calls, tracer.counted
    setup = ("setup",)
    m = {}

    for name in ("build_tree", "nearfield_set", "leaf_sets"):
        m["cluster.%s_s" % name] = (tot("cluster." + name, setup), "s")

    for ph in KERNEL_PHASES:
        c = calls("kernel.kernel_block", (ph,))
        e = cnt("kernel.entries", (ph,))
        s = tot("kernel.kernel_block", (ph,))
        m["kernel.block_calls.%s" % ph] = (c, "count")
        m["kernel.block_entries.%s" % ph] = (e, "count")
        m["kernel.block_s.%s" % ph] = (s, "s")
        m["kernel.entries_per_s.%s" % ph] = (_ratio(e, s), "1/s")

    m["lowrank.svd_s"] = (tot("lowrank.truncated_svd", setup), "s")
    m["lowrank.svd_calls"] = (calls("lowrank.truncated_svd", setup), "count")
    m["lowrank.svd_kept_frac"] = (
        _ratio(cnt("svd.kept", setup), cnt("svd.size", setup)), "frac")
    m["lowrank.compr_s"] = (tot("lowrank.compr", setup), "s")
    m["lowrank.compr_calls"] = (calls("lowrank.compr", setup), "count")
    m["lowrank.srrqr_swaps"] = (cnt("srrqr.swaps", setup), "count")
    m["lowrank.basis_s"] = (tot("lowrank.basis", setup), "s")

    # expansions per warm node-wise apply, against the number of factors
    warm, nodewise = ("apply",), ("apply.matvec_nodewise",)
    applies = calls("apply.matvec_nodewise", warm)
    exp_calls = calls("lowrank.expand", warm, nodewise)
    exp_s = tot("lowrank.expand", warm, nodewise)
    n_factors = len(M.rowfac) + len(M.colfac)
    m["lowrank.expand_calls"] = (_ratio(exp_calls, applies), "count")
    m["lowrank.expand_s"] = (_ratio(exp_s, applies), "s")
    m["lowrank.expand_per_factor"] = (
        _ratio(_ratio(exp_calls, applies), n_factors), "count")

    skel = [M.skel_row[i] for i in M.skel_row] + [M.skel_col[i] for i in M.skel_col]
    size = sum(s.size for s in skel)
    m["hss.build_s"] = (tot("hss.build_hss", setup), "s")
    m["hss.algebra_s"] = (tot("hss.algebra", setup), "s")
    m["hss.skeleton_distinct_frac"] = (
        _ratio(sum(np.unique(s).size for s in skel), size)
        if M.kind == "hss" else 0.0, "frac")

    tr = M.tree
    ranks = [max(M.rank_row(i), M.rank_col(i)) for i in M.skel_row
             if i != tr.root]
    m["rank.mean"] = (float(np.mean(ranks)) if ranks else 0.0, "count")
    for lv in RANK_LEVELS:
        at = [max(M.rank_row(i), M.rank_col(i)) for i in M.skel_row
              if tr.nodes[i].level == lv]
        m["rank.max.L%d" % lv] = (max(at, default=0), "count")

    is_h2 = M.kind == "h2"
    m["h2.build_s"] = (tot("h2.build_h2", setup), "s")
    m["h2.pairs_far"] = (len(M.pairs_L) if is_h2 else 0, "count")
    m["h2.pairs_near"] = (len(M.pairs_Lm) if is_h2 else 0, "count")

    first, applying = ("first_apply",), ("first_apply", "apply")
    fetch = ("apply.B", "apply.NF")
    m["apply.block_fetch_s"] = (tot(fetch, first), "s")
    fetches = calls(fetch, applying)
    misses = calls("kernel.kernel_block", applying, fetch)
    m["apply.block_cache_hit_frac"] = (_ratio(fetches - misses, fetches), "frac")

    fac = ("factor",)
    m["apply.ulv_qr_s"] = (tot("scipy.qr", fac), "s")
    m["apply.ulv_qr_calls"] = (calls("scipy.qr", fac), "count")
    m["apply.ulv_root_n"] = (F.root_n if F is not None else 0, "count")
    m["apply.ulv_eliminated_frac"] = (
        _ratio(sum(rec.t for rec in F.nodes.values()), prob.n)
        if F is not None else 0.0, "frac")
    m["apply.factor_s"] = (info.get("factor_s", 0.0), "s")
    m["apply.solve_s"] = (info.get("solve_s", 0.0), "s")
    m["apply.solve_tail_s"] = (info.get("solve_tail_s", 0.0), "s")
    m["apply.solve_residual_digits"] = (_digits(errs["residual"]), "digits")
    m["apply.solve_forward_digits"] = (_digits(errs["forward"]), "digits")
    m["apply.levelwise_matvec_s"] = (
        float(np.median(t["levelwise"])) if t["levelwise"] else 0.0, "s")

    m["container.save_s"] = (tot("container.save_matrix"), "s")
    m["container.load_s"] = (tot("container.load_matrix"), "s")
    m["container.bytes"] = (info["container_bytes"], "B")

    traced = float(np.median(t["matvec"]))
    plain = float(np.median(t["untraced_matvec"]))
    m["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    return m
