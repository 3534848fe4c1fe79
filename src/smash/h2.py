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

import numpy as np

from ._threads import one_blas_thread
from .cluster import ClusterTree, leaf_sets
from .hss import (BuildParams, _StructuredMatrix, _basis_builder, _by_shape,
                  _intermediate, kernel_dtype, make_block_evaluator, one_basis)
from .kernel import KernelSpec
from .lowrank import compr


class H2Matrix(_StructuredMatrix):
    kind = "h2"


@one_blas_thread()
def build_h2(tree: ClusterTree, kernel: KernelSpec, X, Y,
             params: BuildParams = None) -> H2Matrix:
    """Bottom-up H2 construction on a tree of either mode, binary or '2d':
    per node, compress the farfield basis over the current index set;
    parents work on the union of their children's skeletons.  A level's
    nodes go as stacks of equal label counts (``_level_factors``), each
    factor the bits of its own node's compression.  A node's column factor
    is its row factor, compressed once, where ``one_basis`` holds.
    Couplings are exact kernel entries at skeleton pairs.  Takes the Taylor
    basis only.  Runs serially on one BLAS thread: a stack's pivoted QRs
    are calls of scipy's LAPACK wrapper, which holds the interpreter lock,
    and two threads sharing them were no faster."""
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

    for level in range(tree.n_levels, 1, -1):
        nodes = tree.level_nodes(level)
        row = _level_factors(M, nodes, brow, "row")
        col = row if bcol is None else _level_factors(M, nodes, bcol, "col")
        for i, rowfac, colfac in zip(nodes, row, col):
            M._store(i, rowfac, colfac)
    return M


def _level_factors(M: H2Matrix, nodes: list, basis, side: str) -> list:
    """The factors of one level's nodes on one side ("row" or "col"), in
    node order.  The nodes with the same number of labels (a leaf's points,
    or its children's skeletons) form one stack: one farfield candidate
    call and one ``compr`` call each."""
    skels = M.skel_row if side == "row" else M.skel_col
    ibars = [_intermediate(M.tree, i, skels, side) for i in nodes]
    facs = [None] * len(nodes)
    for _, at in _by_shape(x.size for x in ibars):
        labels = np.array([ibars[a] for a in at], dtype=np.int64)
        cand = basis(np.array([nodes[a] for a in at]), labels)
        for a, fac in zip(at, compr(cand, labels)):
            facs[a] = fac
    return facs
