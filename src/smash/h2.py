"""H2 construction under strong admissibility.

Same nested interpolative bases as the HSS builder, but skeletons come from
the farfield expansion alone (no nearfield sampling), and the low-rank /
dense block partition is the strong-admissibility one: well-separated node
pairs carry skeleton couplings, inadmissible leaf pairs stay dense.  With no
nearfield sampling, a node's column candidate is its row candidate whenever
the rows and the columns are one point set and the kernel scales neither
side; the node is then compressed once, and one factor is both its row and
its column basis.
"""

from __future__ import annotations

from ._threads import one_blas_thread
from .cluster import ClusterTree, leaf_sets
from .hss import (BuildParams, _StructuredMatrix, _basis_builders,
                  _candidate, _default_basis, kernel_dtype,
                  make_block_evaluator)
from .kernel import KernelSpec
from .lowrank import compr


class H2Matrix(_StructuredMatrix):
    kind = "h2"


@one_blas_thread()
def build_h2(tree: ClusterTree, kernel: KernelSpec, X, Y,
             params: BuildParams = None) -> H2Matrix:
    """Bottom-up H2 construction: per node, compress the farfield basis over
    the current index set; parents work on the union of their children's
    skeletons.  A node's column factor is its row factor, compressed once,
    when one builder serves both sides.  Couplings are exact kernel entries
    at skeleton pairs.  Runs serially on one BLAS thread."""
    params = params or BuildParams()
    if kernel.kind == "cauchy_like":
        raise ValueError("cauchy-like matrices are built in HSS form")
    if tree.mode != "2d" and tree.dim != 1:
        raise ValueError("H2 construction expects a '2d'-mode tree")
    basis = params.basis or _default_basis(kernel)
    block = make_block_evaluator(kernel, X, Y, tree)
    dtype = kernel_dtype(kernel, X)
    L, Lm = leaf_sets(tree, params.tau, "h2")
    M = H2Matrix(tree, params, block, L, Lm, dtype, kernel=kernel)
    brow, bcol = _basis_builders(tree, kernel, params, basis)

    # serial: the small compr calls here are bound by the interpreter lock
    for level in range(tree.n_levels, 1, -1):
        for i in tree.level_nodes(level):
            fac = compr(*_candidate(M, i, (), brow, "row"))
            M.rowfac[i] = fac
            M.skel_row[i] = fac.skel
            if bcol is not brow:
                fac = compr(*_candidate(M, i, (), bcol, "col"))
            M.colfac[i] = fac
            M.skel_col[i] = fac.skel
    return M

