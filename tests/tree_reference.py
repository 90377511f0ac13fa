"""Recursive references for the iterative tree walks in ``tncuts.trees``.

Each function is the plain recursive form of a package function: the
shape signature re-renders the tree from every directed edge, the
enumeration recurses on one leaf fewer and inserts each leaf by editing
neighbour sets, and the almost-perfect tree is written by halving its
leaf interval.  They are quadratic or recursive on
purpose, so keep them to trees of a few hundred leaves.
"""

from __future__ import annotations

from typing import Iterator

from tncuts import Tree, build_train_track, parse_tree


def _neighbours(tree: Tree) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(tree.num_vertices)]
    for u, v in tree._edge_ends:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def insert_leaf(tree: Tree, edge_index: int, label: int) -> Tree:
    """The tree with a new leaf in the middle of one edge, by editing its neighbour sets."""
    adj = dict(enumerate(_neighbours(tree)))
    u, v = tree._edge_ends[edge_index]
    mid, leaf = tree.num_vertices, tree.num_vertices + 1
    adj[u].remove(v)
    adj[v].remove(u)
    adj[u].add(mid)
    adj[v].add(mid)
    adj[mid] = {u, v, leaf}
    adj[leaf] = {mid}
    labels = {i: i + 1 for i in range(tree.n)}
    labels[leaf] = label
    return Tree(adj, labels)


def shape_signature(tree: Tree) -> str:
    """Minimum over every directed edge (a, b) of the rendering rooted there."""
    nbrs = _neighbours(tree)

    def render(v: int, parent: int) -> str:
        if v < tree.n:
            return "L"
        return "(" + "".join(sorted(render(u, v) for u in nbrs[v] if u != parent)) + ")"

    return min(
        "(" + "".join(sorted((render(a, b), render(b, a)))) + ")"
        for a in range(tree.num_vertices)
        for b in nbrs[a]
    )


def all_binary_trees(n: int) -> Iterator[Tree]:
    """Every tree on n - 1 leaves in turn, with leaf n on each of its edges."""
    if n == 2:
        yield build_train_track(2)
        return
    for smaller in all_binary_trees(n - 1):
        for i in range(len(smaller.edges())):
            yield insert_leaf(smaller, i, n)


def tree_shapes(n: int) -> list[Tree]:
    """First tree of each reference signature, grown one leaf at a time."""
    reps = [build_train_track(2)]
    for k in range(3, n + 1):
        seen: dict[str, Tree] = {}
        for rep in reps:
            for i in range(len(rep.edges())):
                candidate = insert_leaf(rep, i, k)
                seen.setdefault(shape_signature(candidate), candidate)
        reps = [seen[sig] for sig in sorted(seen)]
    return reps


def almost_perfect_binary(n: int) -> Tree:
    """Halve the interval of the perfect tree's leaf positions until one remains."""
    base = 1 << (n.bit_length() - 1)
    extra = n - base

    def expr(lo: int, hi: int) -> str:
        if lo == hi:
            return f"({2 * lo - 1},{2 * lo})" if lo <= extra else str(lo + extra)
        mid = (lo + hi) // 2
        return f"({expr(lo, mid)},{expr(mid + 1, hi)})"

    return parse_tree(expr(1, base))
