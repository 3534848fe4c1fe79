"""Hierarchically rank-structured kernel matrices.

Builds HSS and H2 approximations to kernel matrices (Cauchy, Cauchy-like,
Laplace double-layer) by fusing analytic farfield expansions with
rank-revealing interpolative compression, and provides fast matvec,
a ULV-style direct solver, and the parameter heuristic and storage
accounting of the test problems.
"""

from .cluster import ClusterTree, PointSet, build_tree, leaf_sets, nearfield_set
from .kernel import CurveSpec, KernelSpec, get_curve
from .lowrank import InterpolativeFactor, compr, interp_basis, srrqr, taylor_bases
from .hss import BuildParams, HssMatrix, build_hss, diag_scale, hss_add
from .h2 import H2Matrix, build_h2
from .apply import matvec_levelwise, matvec_nodewise, ulv_factor, ulv_solve
from .container import load_matrix, save_matrix
from .bench import ParamChoice, StorageReport, choose_params, storage_report

__version__ = "0.1.0"

__all__ = [
    "BuildParams",
    "ClusterTree",
    "CurveSpec",
    "H2Matrix",
    "HssMatrix",
    "InterpolativeFactor",
    "KernelSpec",
    "ParamChoice",
    "PointSet",
    "StorageReport",
    "build_h2",
    "build_hss",
    "build_tree",
    "choose_params",
    "compr",
    "diag_scale",
    "get_curve",
    "hss_add",
    "interp_basis",
    "leaf_sets",
    "load_matrix",
    "matvec_levelwise",
    "matvec_nodewise",
    "nearfield_set",
    "save_matrix",
    "srrqr",
    "storage_report",
    "taylor_bases",
    "ulv_factor",
    "ulv_solve",
]
