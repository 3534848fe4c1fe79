"""H2 construction under strong admissibility.

The HSS builder's bottom-up construction (``hss._build``) with an empty
nearfield: skeletons come from the farfield expansion alone, and the
low-rank / dense block partition is the strong-admissibility one:
well-separated node pairs carry skeleton couplings, inadmissible leaf
pairs stay dense, so no node needs nearfield columns.  All three kernels
take the Cauchy Taylor basis, scaled by the generators of a Cauchy-like
kernel or of the double layer, Re(C diag(v)).  Where ``hss.one_basis``
holds (one point set, a kernel that scales neither side), each node is
compressed once, and one factor is both of its bases.
"""

from __future__ import annotations

from . import cluster, lowrank
from ._threads import one_blas_thread
from .cluster import ClusterTree
from .hss import BuildParams, _StructuredMatrix, _build
from .kernel import KernelSpec

# not called here: the benchmark's layer tracer wraps h2.compr and
# h2.leaf_sets; the shared construction calls them through smash.hss
compr = lowrank.compr
leaf_sets = cluster.leaf_sets


class H2Matrix(_StructuredMatrix):
    kind = "h2"


@one_blas_thread()
def build_h2(tree: ClusterTree, kernel: KernelSpec, X, Y,
             params: BuildParams = None) -> H2Matrix:
    """Bottom-up H2 construction (``hss._build``) on a tree of either mode,
    binary or '2d', with no node's nearfield: per node, compress the
    farfield basis over the current labels; parents work on the union of
    their children's skeletons, and a level's nodes of equal label counts
    go as one stack.  Couplings are exact kernel entries at skeleton pairs.
    Takes the Taylor basis only."""
    params = params or BuildParams()
    if params.basis != "taylor":
        raise ValueError("H2 construction takes the Taylor basis only, not "
                         "basis %r" % params.basis)
    return _build(H2Matrix, tree, kernel, X, Y, params,
                  [()] * len(tree.nodes))
