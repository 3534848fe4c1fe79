"""H2 construction under strong admissibility.

Same nested interpolative bases as the HSS builder, but skeletons come from
the farfield expansion alone (no nearfield sampling), and the low-rank /
dense block partition is the strong-admissibility one: well-separated node
pairs carry skeleton couplings, inadmissible leaf pairs stay dense.  All
three kernels take the Cauchy Taylor basis, scaled by the generators of a
Cauchy-like kernel or of the double layer, Re(C diag(v)).  Where
``hss.one_basis`` holds (one point set, a kernel that scales neither side),
each node is compressed once, and one factor is both of its bases.
"""

from __future__ import annotations

from ._threads import one_blas_thread
from .cluster import ClusterTree, leaf_sets
from .hss import (BuildParams, _StructuredMatrix, _basis_builder, _candidate,
                  kernel_dtype, make_block_evaluator, one_basis)
from .kernel import KernelSpec
from .lowrank import compr


class H2Matrix(_StructuredMatrix):
    kind = "h2"


@one_blas_thread()
def build_h2(tree: ClusterTree, kernel: KernelSpec, X, Y,
             params: BuildParams = None) -> H2Matrix:
    """Bottom-up H2 construction on a tree of either mode, binary or '2d':
    per node, compress the farfield basis over the current index set;
    parents work on the union of their children's skeletons.  A node's
    column factor is its row factor, compressed once, where ``one_basis``
    holds.  Couplings are exact kernel entries at skeleton pairs.  Takes the
    Taylor basis only.  Runs serially on one BLAS thread."""
    params = params or BuildParams()
    if params.basis != "taylor":
        raise ValueError("H2 construction takes the Taylor basis only, not "
                         "basis %r" % params.basis)
    block = make_block_evaluator(kernel, X, Y, tree)
    dtype = kernel_dtype(kernel, X)
    L, Lm = leaf_sets(tree, params.tau, "h2")
    M = H2Matrix(tree, params, block, L, Lm, dtype, kernel=kernel)
    brow = _basis_builder(tree, kernel, params, "row")
    bcol = (None if one_basis("h2", tree, kernel)
            else _basis_builder(tree, kernel, params, "col"))

    # serial: the small compr calls here are bound by the interpreter lock
    for level in range(tree.n_levels, 1, -1):
        for i in tree.level_nodes(level):
            row = compr(*_candidate(M, i, (), brow, "row"))
            M._store(i, row, row if bcol is None
                     else compr(*_candidate(M, i, (), bcol, "col")))
    return M

