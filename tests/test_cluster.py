"""Adaptive cluster tree, separation predicate, nearfield sets, and the
admissible/inadmissible block partitions."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import smash
from smash.cluster import _center_distance, _separated, leaf_sets, nearfield_set


def uniform_1d(n, lo=0.0, hi=1.0):
    pts = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    return smash.PointSet(pts.reshape(-1, 1))


def box(lo, hi):
    """(center, radius) of the box lo..hi, computed as a tree computes them."""
    lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
    return ((lo + hi) / 2.0)[0], 0.5 * _center_distance(hi - lo)[0]


def separated(a, b, tau):
    """The admissibility test of the one box pair a, b, each (center,
    radius)."""
    return bool(_separated((a[0] - b[0])[None], np.array([a[1] + b[1]]),
                           tau)[0])


def tree_separated(tree, i, j, tau):
    """The admissibility test of the node pair i, j of a tree."""
    return separated((tree.center[i], tree.radius[i]),
                     (tree.center[j], tree.radius[j]), tau)


# ---------------------------------------------------------------------------
# build_tree
# ---------------------------------------------------------------------------

def test_eight_uniform_points_capacity_three_gives_three_levels():
    tree = smash.build_tree(uniform_1d(8), nu0=3)
    assert tree.n_levels == 3
    leaves = list(tree.leaves())
    assert len(leaves) == 4
    assert all(tree.nodes[i].n_row == 2 for i in leaves)
    tree.verify()


def test_capacity_larger_than_n_gives_single_node_tree():
    tree = smash.build_tree(uniform_1d(10), nu0=50)
    assert tree.n_levels == 1
    assert tree.is_leaf(tree.root)
    assert len(tree.nodes) == 1


def test_clustered_points_shrink_box_and_stay_binary():
    # all points in the lower half of the unit interval: the empty upper
    # half never becomes a node, the occupied half is re-bisected, and
    # every nonleaf still has exactly two children
    pts = smash.PointSet((np.arange(8) / 16.0).reshape(-1, 1))
    tree = smash.build_tree(pts, nu0=2)
    assert tree.n_levels == 3
    for nd in tree.nodes:
        assert tree.hi[nd.index][0] <= 0.5 + 1e-12
        if not nd.is_leaf:
            assert len(nd.children) == 2
    tree.verify()


def test_uneven_density_gives_leaves_at_different_depths():
    pts = np.concatenate([np.linspace(0.0, 0.1, 12), [0.8, 0.9]])
    tree = smash.build_tree(smash.PointSet(pts.reshape(-1, 1)), nu0=2)
    depths = {tree.nodes[i].level for i in tree.leaves()}
    assert len(depths) > 1
    tree.verify()


def test_2d_mode_discards_empty_quadrants():
    # points on the main diagonal occupy two quadrants of every 2x2 split
    pts = np.linspace(0.0, 1.0, 16)
    P = smash.PointSet(np.column_stack([pts, pts]))
    tree = smash.build_tree(P, nu0=3, mode="2d")
    kid_counts = {len(nd.children) for nd in tree.nodes if not nd.is_leaf}
    assert kid_counts == {2}
    tree.verify()


def test_2d_mode_full_grid_has_four_way_splits():
    X = smash.bench.grid_points(8)
    tree = smash.build_tree(X, nu0=5, mode="2d")
    assert any(len(nd.children) == 4 for nd in tree.nodes if not nd.is_leaf)
    tree.verify()


def test_leaf_capacity_is_respected_per_role():
    rng = np.random.default_rng(3)
    X = smash.PointSet(rng.random((100, 1)))
    Y = smash.PointSet(rng.random((100, 1)))
    tree = smash.build_tree(X, Y, nu0=7)
    for i in tree.leaves():
        nd = tree.nodes[i]
        assert max(nd.n_row, nd.n_col) <= 7


def test_postorder_permutation_orders_sibling_ranges():
    tree = smash.build_tree(uniform_1d(32), nu0=4)
    for nd in tree.nodes:
        if nd.is_leaf:
            continue
        stops = [tree.nodes[c].row_stop for c in nd.children]
        starts = [tree.nodes[c].row_start for c in nd.children]
        assert starts[0] == nd.row_start and stops[-1] == nd.row_stop
        for a, b in zip(stops, starts[1:]):
            assert a == b


def _fuzzed_input(kind, seed):
    """(X, Y, nu0): seeded points in one or two dimensions, of the kinds
    whose trees are hardest to get right, for build_tree to take."""
    rng = np.random.default_rng([seed, len(kind)])
    n, nu0 = int(rng.integers(20, 400)), int(rng.integers(3, 40))
    pts = rng.random((n, 1 + seed % 2))
    if kind == "duplicated":  # each point three times
        pts = np.repeat(pts[:n // 3 + 1], 3, axis=0)
    elif kind == "clustered":  # two tight clusters far apart
        pts = 1e-9 * pts + (np.arange(n) % 2)[:, None]
    elif kind == "outlier":  # boxes shrink many times around the rest
        pts[0] = 1e6
    Y = None
    if kind == "two-sets":
        m = int(rng.integers(1, 300))
        Y = smash.PointSet(rng.random((m, pts.shape[1])))
    return smash.PointSet(pts), Y, nu0


@pytest.mark.parametrize("mode", ["binary", "2d"])
@pytest.mark.parametrize("kind", ["random", "duplicated", "clustered",
                                  "outlier", "two-sets"])
def test_built_trees_pass_verify(kind, mode):
    # build_tree does not run verify: its construction keeps each invariant
    for seed in range(12):
        X, Y, nu0 = _fuzzed_input(kind, seed)
        smash.build_tree(X, Y, nu0=nu0, mode=mode).verify()


@pytest.mark.parametrize("tau", [0, 1, 1.5, np.nan, True])
def test_tau_outside_the_open_unit_interval_refused(tau):
    # tau becomes the tree's default admissibility, BuildParams' range
    with pytest.raises(ValueError, match=r"tau must be in \(0, 1\)"):
        smash.build_tree(uniform_1d(40), nu0=8, tau=tau)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        smash.build_tree(smash.PointSet(np.empty((0, 1))))
    with pytest.raises(ValueError):
        smash.build_tree(uniform_1d(4), nu0=0)


def _coincident_cases():
    x = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    x[:60] = 0.5
    planar = np.repeat(np.random.default_rng(8).random((30, 2)), 3, axis=0)
    return {
        "interval": (x, dict(nu0=50), "60 points coincide at \\[0.5\\]"),
        "planar": (planar, dict(nu0=2, mode="2d"), "3 points coincide"),
        # distinct, but closer than the shrink steps can resolve
        "near": (np.array([[0.0], [1e-70], [1.0]]), dict(nu0=1),
                 "too close together"),
    }


@pytest.mark.parametrize("case", sorted(_coincident_cases()))
def test_more_than_nu0_coincident_points_rejected(case):
    pts, kw, message = _coincident_cases()[case]
    with pytest.raises(ValueError, match=message):
        smash.build_tree(smash.PointSet(pts), **kw)


def test_up_to_nu0_coincident_points_share_a_leaf():
    x = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    x[:50] = 0.5
    tree = smash.build_tree(smash.PointSet(x), nu0=50)
    at = [nd for nd in tree.nodes if nd.is_leaf
          and np.all(tree.points_row[nd.row_start:nd.row_stop] == 0.5)]
    assert len(at) == 1 and at[0].n_row == 50


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    # such points used to exhaust the box-shrink loop, a "numerical" failure
    pts = np.linspace(0, 1, 80).reshape(-1, 2)
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        smash.PointSet(pts)


# ---------------------------------------------------------------------------
# the admissibility test
# ---------------------------------------------------------------------------

def test_separated_unit_intervals():
    a = box((0.0,), (1.0,))
    b = box((2.0,), (3.0,))
    assert separated(a, b, 0.5)


def test_identical_boxes_never_separated():
    a = box((0.0,), (1.0,))
    assert not separated(a, a, 0.5)


def test_zero_radius_box_not_separated_from_itself():
    # 0 + 0 <= tau * 0 holds, but a node paired with itself is never a
    # coupling: coincident points in one leaf give such a box
    a = box((0.5, 0.5), (0.5, 0.5))
    assert a[1] == 0.0
    assert not separated(a, a, 0.5)
    assert not separated(a, box((0.5, 0.5), (0.5, 0.5)), 0.99)
    assert separated(a, box((1.5, 0.5), (1.5, 0.5)), 0.5)


def test_one_point_set_needs_equal_points_in_equal_order():
    rng = np.random.default_rng(4)
    X = smash.PointSet(rng.random((300, 2)))
    assert smash.build_tree(X, nu0=20, mode="2d").one_point_set()
    # a second set with the same coordinates is still one point set
    same = smash.PointSet(X.coords.copy())
    assert smash.build_tree(X, same, nu0=20, mode="2d").one_point_set()
    moved = X.coords.copy()
    moved[7, 0] = np.nextafter(moved[7, 0], 2.0)
    other = smash.PointSet(moved)
    assert not smash.build_tree(X, other, nu0=20, mode="2d").one_point_set()


def test_adjacent_unit_intervals_not_separated_at_half():
    a = box((0.0,), (1.0,))
    b = box((1.0,), (2.0,))
    # delta_a + delta_b = 1 > 0.5 * |a - b| = 0.5
    assert not separated(a, b, 0.5)
    assert separated(a, b, 1.0)


# ---------------------------------------------------------------------------
# nearfield_set
# ---------------------------------------------------------------------------

def test_nearfield_of_root_is_empty():
    tree = smash.build_tree(uniform_1d(32), nu0=4)
    assert nearfield_set(tree)[tree.root] == []


def test_nearfield_of_root_child_is_its_sibling():
    tree = smash.build_tree(uniform_1d(32), nu0=4, tau=0.5)
    c1, c2 = tree.nodes[tree.root].children
    assert nearfield_set(tree, tau=0.5)[c1] == [c2]
    assert nearfield_set(tree, tau=0.5)[c2] == [c1]


def test_uniform_interval_nearfield_has_at_most_two_nodes():
    tree = smash.build_tree(uniform_1d(64), nu0=2, tau=0.5)
    for nd in tree.nodes:
        if nd.index == tree.root:
            continue
        assert len(nearfield_set(tree, tau=0.5)[nd.index]) <= 2


def test_nearfield_members_are_actually_near():
    tree = smash.build_tree(uniform_1d(64), nu0=4, tau=0.5)
    for nd in tree.nodes:
        for k in nearfield_set(tree, tau=0.5)[nd.index]:
            assert not tree_separated(tree, nd.index, k, 0.5)


# ---------------------------------------------------------------------------
# leaf_sets
# ---------------------------------------------------------------------------

def test_hss_leaf_sets_are_sibling_pairs_plus_diagonal():
    tree = smash.build_tree(uniform_1d(32), nu0=4)
    L, Lm = leaf_sets(tree, structure="hss")
    sib = set()
    for nd in tree.nodes:
        if not nd.is_leaf:
            c1, c2 = nd.children
            sib |= {(c1, c2), (c2, c1)}
    assert set(map(tuple, L.tolist())) == sib
    assert set(map(tuple, Lm.tolist())) == {(i, i) for i in tree.leaves()}


def test_h2_depth_two_adjacent_boxes_all_dense():
    tree = smash.build_tree(uniform_1d(8), nu0=4, tau=0.5)
    assert tree.n_levels == 2
    L, Lm = leaf_sets(tree, tau=0.5, structure="h2")
    assert L.tolist() == []
    kids = tree.nodes[tree.root].children
    assert set(map(tuple, Lm.tolist())) == {(i, j) for i in kids for j in kids}


def brute_force_h2(tree, tau):
    """Direct enumeration of the admissible-leaf definition over all node
    pairs: (i, j) separated with non-separated parents, or separated with
    one side a leaf above the other's level."""
    sep = {}
    for a in tree.nodes:
        for b in tree.nodes:
            sep[a.index, b.index] = tree_separated(tree, a.index, b.index, tau)

    def parent(i):
        return tree.nodes[i].parent

    L = []
    Lm = []
    for a in tree.nodes:
        for b in tree.nodes:
            i, j = a.index, b.index
            if sep[i, j]:
                same = (a.level == b.level and parent(i) >= 0
                        and parent(j) >= 0 and not sep[parent(i), parent(j)])
                ileaf = (a.is_leaf and b.level > a.level and parent(j) >= 0
                         and not sep[i, parent(j)])
                jleaf = (b.is_leaf and a.level > b.level and parent(i) >= 0
                         and not sep[parent(i), j])
                if same or ileaf or jleaf:
                    L.append((i, j))
            elif a.is_leaf and b.is_leaf:
                Lm.append((i, j))
    return L, Lm


def test_h2_leaf_sets_match_brute_force_enumeration():
    tree = smash.build_tree(uniform_1d(16), nu0=2, tau=0.5)
    L, Lm = leaf_sets(tree, tau=0.5, structure="h2")
    Lb, Lmb = brute_force_h2(tree, 0.5)
    assert set(map(tuple, L.tolist())) == set(Lb)
    assert set(map(tuple, Lm.tolist())) == set(Lmb)


@pytest.mark.parametrize("structure", ["hss", "h2"])
def test_leaf_sets_tile_the_matrix_exactly_once(structure):
    tree = smash.build_tree(uniform_1d(32), nu0=4, tau=0.5)
    L, Lm = leaf_sets(tree, tau=0.5, structure=structure)
    n = tree.n_row
    cover = np.zeros((n, n), dtype=int)
    for i, j in list(L) + list(Lm):
        r, c = tree.nodes[i], tree.nodes[j]
        cover[r.row_start:r.row_stop, c.col_start:c.col_stop] += 1
    assert np.all(cover == 1)


def test_h2_admissibility_is_symmetric_for_shared_points():
    tree = smash.build_tree(uniform_1d(32), nu0=2, tau=0.5)
    L, _ = leaf_sets(tree, tau=0.5, structure="h2")
    Ls = set(map(tuple, L.tolist()))
    assert all((j, i) in Ls for i, j in Ls)


def test_admissible_pairs_have_separated_descendants():
    tree = smash.build_tree(uniform_1d(32), nu0=2, tau=0.5)
    L, _ = leaf_sets(tree, tau=0.5, structure="h2")

    def descendants(i):
        out, stack = [], [i]
        while stack:
            k = stack.pop()
            out.append(k)
            stack.extend(tree.nodes[k].children)
        return out

    for i, j in L:
        for a in descendants(i):
            for b in descendants(j):
                assert tree_separated(tree, a, b, 0.5)


def _mirror_tree(case, mode):
    if case == "grid":
        return smash.build_tree(smash.bench.grid_points(32), nu0=50, mode=mode)
    if case == "sunflower":
        return smash.build_tree(smash.bench.curve_points("sunflower", 2560),
                                nu0=50, mode=mode)
    X, Y = smash.bench.cauchy_pair("interval", 900, np.random.default_rng(7))
    return smash.build_tree(X, Y, nu0=20, mode=mode)


@pytest.mark.parametrize("structure,mode", [("hss", "binary"),
                                            ("h2", "binary"), ("h2", "2d")])
@pytest.mark.parametrize("case", ["grid", "sunflower", "pair-interval"])
def test_leaf_sets_hold_the_mirror_of_each_pair(case, structure, mode):
    # a matrix with a kernel takes its pairs from leaf_sets, and an
    # antisymmetric one keeps only one pair of each mirrored two
    tree = _mirror_tree(case, mode)
    for pairs in leaf_sets(tree, structure=structure):
        assert pairs.size
        got = set(map(tuple, pairs.tolist()))
        assert got == {(j, i) for i, j in got}


def test_hss_structure_requires_binary_tree():
    X = smash.bench.grid_points(8)
    tree = smash.build_tree(X, nu0=5, mode="2d")
    with pytest.raises(ValueError):
        leaf_sets(tree, structure="hss")


# ---------------------------------------------------------------------------
# exact ties: the partition must not move by one ulp
# ---------------------------------------------------------------------------

def _reference_separated(tree, tau):
    """The admissibility test recomputed from each box's lo/hi with
    np.linalg.norm."""
    lo, hi = list(tree.lo), list(tree.hi)
    rad = [0.5 * float(np.linalg.norm(h - l)) for l, h in zip(lo, hi)]
    cen = [(l + h) / 2.0 for l, h in zip(lo, hi)]

    def sep(a, b):
        lhs = rad[a] + rad[b]
        rhs = tau * float(np.linalg.norm(cen[a] - cen[b]))
        return lhs <= rhs, lhs == rhs

    return sep


def _reference_nearfield(tree, sep):
    near = {tree.root: []}
    for j in sorted(range(len(tree.nodes)), key=lambda k: tree.nodes[k].level):
        if j == tree.root:
            continue
        p = tree.nodes[j].parent
        cand = [c for c in tree.nodes[p].children if c != j]
        for k in near[p]:
            cand.extend(tree.nodes[k].children or (k,))
        near[j] = [k for k in cand if not sep(j, k)[0]]
    return near


def _reference_h2(tree, sep):
    L, Lm = [], []

    def rec(i, j):
        a, b = tree.nodes[i], tree.nodes[j]
        if sep(i, j)[0]:
            L.append((i, j))
        elif a.is_leaf and b.is_leaf:
            Lm.append((i, j))
        elif a.is_leaf:
            for cj in b.children:
                rec(i, cj)
        elif b.is_leaf:
            for ci in a.children:
                rec(ci, j)
        else:
            for ci in a.children:
                for cj in b.children:
                    rec(ci, cj)

    rec(tree.root, tree.root)
    return L, Lm


def test_admissibility_matches_norm_reference_on_a_tree_with_exact_ties():
    """Every node pair of the sunflower tree at n = 2560 (nu0 50, tau 0.6)
    is decided as 0.5 |hi - lo|_a + 0.5 |hi - lo|_b <= tau |c_a - c_b|,
    recomputed from lo/hi with np.linalg.norm.  This tree has exact ties,
    pairs whose two sides are equal (nodes 23 and 108, for one), so a
    distance or radius one ulp off fails the test; so do nearfield sets
    that differ from the reference, in content or order."""
    tau = 0.6
    tree = smash.build_tree(smash.bench.curve_points("sunflower", 2560),
                            nu0=50, tau=tau)
    sep = _reference_separated(tree, tau)
    ties = 0
    for a in tree.nodes:
        for b in tree.nodes:
            want, tie = sep(a.index, b.index)
            ties += tie
            assert tree_separated(tree, a.index, b.index, tau) == want, (
                a.index, b.index)
    assert ties > 0 and sep(23, 108) == (True, True)
    ref = _reference_nearfield(tree, sep)
    near = nearfield_set(tree, tau)
    for i in range(len(tree.nodes)):
        assert near[i] == ref[i], i


def _clustered_points():
    # a dense cluster near one corner and a lone far point: the boxes around
    # the cluster shrink many times before a split separates its points
    rng = np.random.default_rng(11)
    pts = np.vstack([1e-3 * rng.random((600, 2)), 0.3 + 0.1 * rng.random((60, 2)),
                     [[1.0, 1.0]]])
    return smash.PointSet(pts)


def _partition_trees():
    """(tree, tau) cases for the H2 partition, built on demand."""
    curve = smash.bench.curve_points
    pair = smash.bench.cauchy_pair
    rng = np.random.default_rng(7)
    return {
        "grid": lambda: (smash.build_tree(smash.bench.grid_points(32), nu0=50,
                                          mode="2d"), 0.65),
        # the tree the CLI builds for H2 on the grid
        "grid-binary": lambda: (smash.build_tree(smash.bench.grid_points(32),
                                                 nu0=50), 0.65),
        # the tree of the tie test above, and its 2d-mode counterpart
        "sunflower-ties": lambda: (smash.build_tree(
            curve("sunflower", 2560), nu0=50), 0.6),
        "sunflower-2d": lambda: (smash.build_tree(
            curve("sunflower", 2560), nu0=50, mode="2d"), 0.6),
        "clustered": lambda: (smash.build_tree(_clustered_points(), nu0=8,
                                               mode="2d"), 0.65),
        "interval-1d": lambda: (smash.build_tree(uniform_1d(700), nu0=6), 0.5),
        "pair-interval": lambda: (smash.build_tree(*pair("interval", 900, rng),
                                                   nu0=20), 0.6),
        "pair-honeybee": lambda: (smash.build_tree(*pair("honeybee", 1600, rng),
                                                   nu0=30, mode="2d"), 0.6),
        "single-leaf": lambda: (smash.build_tree(uniform_1d(30), nu0=50), 0.6),
    }


@pytest.mark.parametrize("case", list(_partition_trees()))
def test_h2_partition_matches_recursive_reference_in_order(case):
    """The level-wise partition returns the recursion's pairs in the
    recursion's order: block rows take their sources in this order."""
    tree, tau = _partition_trees()[case]()
    ref = _reference_h2(tree, _reference_separated(tree, tau))
    got = leaf_sets(tree, tau, "h2")
    assert all(a.dtype == np.int64 and a.shape[1:] == (2,) for a in got)
    assert tuple(list(map(tuple, a.tolist())) for a in got) == ref
    if case == "single-leaf":
        assert ref == ([], [(tree.root, tree.root)])
    if case == "clustered":
        # some node's box shrank below the half of its parent's box
        width = tree.hi - tree.lo
        assert any(np.any(width[nd.index] < 0.5 * width[nd.parent])
                   for nd in tree.nodes if nd.parent >= 0)


def test_array_distance_is_the_dot_distance_on_the_tie_tree():
    """On every node pair of the sunflower tie tree the array distance is
    sqrt(d.dot(d)) bit for bit, the tree's centers and radii are those of
    its boxes, and the array test gives the norm reference's answer."""
    tau = 0.6
    tree = smash.build_tree(smash.bench.curve_points("sunflower", 2560),
                            nu0=50, tau=tau)
    cen, rad = tree.center, tree.radius
    assert cen.tobytes() == np.array(
        [(lo + hi) / 2.0 for lo, hi in zip(tree.lo, tree.hi)]).tobytes()
    assert rad.tobytes() == np.array(
        [0.5 * float(np.linalg.norm(hi - lo))
         for lo, hi in zip(tree.lo, tree.hi)]).tobytes()
    I, J = (a.ravel() for a in np.indices((len(cen), len(cen))))
    d = cen[I] - cen[J]
    dist = _center_distance(d)
    want = np.array([math.sqrt(x.dot(x)) for x in d])
    assert dist.tobytes() == want.tobytes()
    sep = _separated(d, rad[I] + rad[J], tau)
    ref = _reference_separated(tree, tau)
    for k, (i, j) in enumerate(zip(I, J)):
        assert ref(i, j)[0] == sep[k], (i, j)


# ---------------------------------------------------------------------------
# ClusterTree.verify refuses broken trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("role", ["row", "col"])
def test_verify_refuses_a_point_outside_its_box(role):
    rng = np.random.default_rng(9)
    X = smash.PointSet(rng.random((200, 2)))
    Y = smash.PointSet(rng.random((150, 2)))
    tree = smash.build_tree(X, Y, nu0=10, mode="2d")
    pts = tree.points_row if role == "row" else tree.points_col
    nd = next(nd for nd in tree.nodes
              if nd.is_leaf and getattr(nd, "n_" + role) > 0)
    own = pts[getattr(nd, role + "_start"):getattr(nd, role + "_stop")]
    # shrink the box so that the leaf's top point lies 1e-6 above it
    tree.hi[nd.index, 1] = own[:, 1].max() - 1e-6
    with pytest.raises(ValueError, match="outside a box"):
        tree.verify()


def test_verify_refuses_children_that_do_not_tile_their_parent():
    tree = smash.build_tree(uniform_1d(32), nu0=4)
    parent = next(nd for nd in tree.nodes if not nd.is_leaf
                  and all(tree.is_leaf(c) for c in nd.children))
    # the second child drops its first point: still inside its box and
    # under the leaf size, but a gap opens between the two children
    tree.nodes[parent.children[1]].row_start += 1
    with pytest.raises(ValueError, match="tile"):
        tree.verify()


@pytest.mark.parametrize("tau", [1.5, np.nan, "x"])
def test_verify_refuses_a_default_tau_outside_the_open_unit_interval(tau):
    tree = smash.build_tree(uniform_1d(32), nu0=4)
    tree.tau_default = tau
    with pytest.raises(ValueError, match="tau_default must be in"):
        tree.verify()


def test_verify_refuses_a_broken_tree_under_python_O():
    """verify raises ValueError, which python -O does not strip as it
    strips assert statements."""
    code = ("import numpy as np, smash\n"
            "X = smash.PointSet(np.linspace(0, 1, 32).reshape(-1, 1))\n"
            "tree = smash.build_tree(X, nu0=4)\n"
            "tree.nodes[0].row_stop -= 1\n"
            "try:\n"
            "    tree.verify()\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n")
    src = os.path.dirname(os.path.dirname(smash.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert "refused:" in out.stdout and "do not tile" in out.stdout


def _line_2d():
    """Points on a segment in the plane: every box is thin in y."""
    x = np.linspace(0.0, 1.0, 6350)
    return smash.PointSet(np.column_stack([x, np.zeros_like(x)]))


@pytest.mark.parametrize("case", ["grid2d-h2", "dlp-sunflower", "line-2d"])
def test_tree_centers_and_radii_are_the_norm_reference(case):
    """The tree's centers and radii, on the two benchmark trees and a 2-d
    line, are (lo + hi) / 2 and half of np.linalg.norm(hi - lo), bit for
    bit."""
    tree = {
        "grid2d-h2": lambda: smash.build_tree(smash.bench.grid_points(128),
                                              nu0=50, mode="2d", tau=0.65),
        "dlp-sunflower": lambda: smash.build_tree(
            smash.bench.curve_points("sunflower", 2560), nu0=50, tau=0.6),
        "line-2d": lambda: smash.build_tree(_line_2d(), nu0=50, mode="2d"),
    }[case]()
    k = len(tree.nodes)
    assert tree.lo.shape == tree.hi.shape == tree.center.shape == (k, 2)
    cen = np.array([(lo + hi) / 2.0 for lo, hi in zip(tree.lo, tree.hi)])
    rad = np.array([0.5 * np.linalg.norm(hi - lo)
                    for lo, hi in zip(tree.lo, tree.hi)])
    assert tree.center.tobytes() == cen.tobytes()
    assert tree.radius.tobytes() == rad.tobytes()
