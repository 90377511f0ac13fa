"""Independent cut oracles for the tests.

They share no code with ``tncuts.cuts``: leaf-to-leaf paths are read off
the public edge bipartitions.  The minimum monochromatic cut comes from an
exhaustive subset search or, on larger trees, from max-flow with networkx;
the maximum colour cut from an exhaustive search over growing sizes; the
cut checks from the leaf classes a cut leaves.  The hard subset comes from
pruning a mutable copy of the tree vertex by vertex, sharing no code with
``tncuts.models``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

from tncuts import EdgeId, Tree

BRUTE_EXHAUSTIVE_EDGES = 14
BRUTE_MAX_EDGES = 22


def brute_force_min_mono(tree: Tree, a: Iterable[int]) -> int:
    """Independent minimum-monochromatic-cut value.

    Up to 14 edges: exhaustive subset search, smallest edge set separating
    every A leaf from every non-A leaf.  Up to 22 edges: the same value via
    unit-capacity max-flow between the two colour classes (menger duality).
    """
    n_edges = len(tree.edges())
    if n_edges > BRUTE_MAX_EDGES:
        raise ValueError(f"tree too large for the brute-force oracle ({n_edges} edges)")
    amask = tree.mask_of(a)
    if amask == 0 or amask == (1 << tree.n) - 1:
        return 0
    if n_edges <= BRUTE_EXHAUSTIVE_EDGES:
        return brute_subset_scan(tree, amask)
    return min_cut_by_flow(tree, amask)


@lru_cache(maxsize=64)
def edge_sides(tree: Tree) -> tuple[int, ...]:
    """Leaf mask of the canonical side of each edge, in ``tree.edges()`` order."""
    return tuple(tree.mask_of(tree.leaves_left_of(e)) for e in tree.edges())


@lru_cache(maxsize=64)
def pair_path_masks(tree: Tree) -> tuple[tuple[int, ...], ...]:
    """pair_path_masks(tree)[a][b]: bitmask over ``tree.edges()`` of the
    edges on the path between leaves a+1 and b+1.

    An edge lies on that path exactly when its bipartition separates the
    two leaves.
    """
    sides = edge_sides(tree)
    return tuple(
        tuple(
            sum(1 << i for i, side in enumerate(sides) if ((side >> x) ^ (side >> y)) & 1)
            for y in range(tree.n)
        )
        for x in range(tree.n)
    )


def brute_subset_scan(tree: Tree, amask: int) -> int:
    paths = pair_path_masks(tree)
    a_leaves = [i for i in range(tree.n) if (amask >> i) & 1]
    b_leaves = [i for i in range(tree.n) if not (amask >> i) & 1]
    pair_masks = sorted({paths[x][y] for x in a_leaves for y in b_leaves})
    relevant = 0
    for m in pair_masks:
        relevant |= m
    edges = [i for i in range(len(tree.edges())) if (relevant >> i) & 1]
    for size in range(1, len(edges) + 1):
        for combo in combinations(edges, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(pm & mask for pm in pair_masks):
                return size
    raise AssertionError("cutting all edges always separates the colours")


def min_cut_by_flow(tree: Tree, amask: int) -> int:
    import networkx as nx

    g = nx.DiGraph()
    big = len(tree.edges()) + 1
    for u, v in tree._edge_ends:
        g.add_edge(u, v, capacity=1)
        g.add_edge(v, u, capacity=1)
    for leaf in range(tree.n):
        if (amask >> leaf) & 1:
            g.add_edge("s", leaf, capacity=big)
        else:
            g.add_edge(leaf, "t", capacity=big)
    return nx.maximum_flow_value(g, "s", "t")


def leaf_classes(tree: Tree, amask: int, cut: int) -> list[int]:
    """Colour bits (1 = in A, 2 = not in A) of each class of leaves left
    connected once the edges in the mask ``cut`` over ``tree.edges()`` go.

    Two leaves share a class exactly when no cut edge lies on their path.
    """
    paths = pair_path_masks(tree)
    classes: list[list[int]] = []  # [a leaf of the class, colour bits seen]
    for x in range(tree.n):
        colour = 2 - ((amask >> x) & 1)
        for cls in classes:
            if not paths[cls[0]][x] & cut:
                cls[1] |= colour
                break
        else:
            classes.append([x, colour])
    return [bits for _, bits in classes]


def verify_by_leaf_classes(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> tuple[bool, bool]:
    """Independent (mono, colour) verdicts for the edge set ``cut``.

    Edges may be named by either side of their bipartition, and an edge
    named twice counts once.  Removing the |C| distinct edges leaves |C| + 1
    components.  Mono: every leaf class has one colour (leafless components
    are unconstrained).  Colour: there are |C| + 1 leaf classes, so no
    component is leafless, and every class holds both colours.
    """
    amask = tree.mask_of(a)
    full = (1 << tree.n) - 1
    sides = edge_sides(tree)
    mask = 0
    for eid in cut:
        side = tree.mask_of(eid.labels)
        hits = [i for i, s in enumerate(sides) if side in (s, full ^ s)]
        if not hits:
            raise ValueError(f"edge {eid} does not belong to the tree")
        mask |= 1 << hits[0]
    classes = leaf_classes(tree, amask, mask)
    mono = all(bits != 3 for bits in classes)
    colour = len(classes) == mask.bit_count() + 1 and all(bits == 3 for bits in classes)
    return mono, colour


def brute_force_max_colour(tree: Tree, a: Iterable[int]) -> int | None:
    """Independent maximum-colour-cut size; None when A or its complement is empty.

    Removing an edge set C leaves |C| + 1 components, and two leaves share
    one exactly when no edge of C lies on their path.  C is a colour cut
    when the leaves fall into |C| + 1 classes (no component is leafless)
    and every class holds both colours.  Dropping an edge from a colour cut
    merges two bicoloured components, so colour cuts are closed under
    subsets, and the search stops at the first size that has none.
    """
    n_edges = len(tree.edges())
    if n_edges > BRUTE_MAX_EDGES:
        raise ValueError(f"tree too large for the brute-force oracle ({n_edges} edges)")
    amask = tree.mask_of(a)
    if amask == 0 or amask == (1 << tree.n) - 1:
        return None

    def is_colour_cut(cut: int, size: int) -> bool:
        classes = leaf_classes(tree, amask, cut)
        return len(classes) == size + 1 and all(bits == 3 for bits in classes)

    for size in range(n_edges + 1):
        if not any(is_colour_cut(sum(1 << i for i in combo), size) for combo in combinations(range(n_edges), size)):
            return size - 1
    raise AssertionError("cutting every edge leaves single leaves, never a colour cut")


def hard_subset_by_pruning(tree: Tree) -> frozenset[int]:
    """Independent greedy cherry elimination on a mutable adjacency copy.

    Each round drops leafless twigs and splices degree-2 inner vertices
    until none is left, then scans every inner vertex for two leaf
    neighbours and takes the cherry with the smallest label: the smaller
    label goes into A, and both leaves are deleted.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(tree.num_vertices)}
    for u, v in tree._edge_ends:
        adj[u].add(v)
        adj[v].add(u)
    label = {v: v + 1 for v in range(tree.n)}
    chosen: set[int] = set()

    def cleanup() -> None:
        again = True
        while again:
            again = False
            for v in list(adj):
                if v in label:
                    continue
                if len(adj[v]) <= 1:
                    for u in adj.pop(v):
                        adj[u].discard(v)
                    again = True
                elif len(adj[v]) == 2:
                    a, b = adj.pop(v)
                    adj[a].discard(v)
                    adj[b].discard(v)
                    adj[a].add(b)
                    adj[b].add(a)
                    again = True

    while len(label) >= 2:
        cleanup()
        cherry = None  # (small_label, small_vertex, big_vertex)
        if len(label) == 2:
            (v1, l1), (v2, _) = sorted(label.items(), key=lambda kv: kv[1])
            cherry = (l1, v1, v2)
        else:
            for v in adj:
                if v in label:
                    continue
                leaf_nbrs = sorted((label[u], u) for u in adj[v] if u in label)
                if len(leaf_nbrs) >= 2:
                    (l1, v1), (_, v2) = leaf_nbrs[0], leaf_nbrs[1]
                    if cherry is None or l1 < cherry[0]:
                        cherry = (l1, v1, v2)
        if cherry is None:
            raise AssertionError("a pruned binary tree always contains a cherry")
        l1, v1, v2 = cherry
        chosen.add(l1)
        for v in (v1, v2):
            for u in adj.pop(v):
                adj[u].discard(v)
            del label[v]
    return frozenset(chosen)
