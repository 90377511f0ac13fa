"""Plain references for the tree builders in ``tncuts.trees`` and ``tncuts.models``.

Each function is the plain form of a package function: the shape
signature re-renders the tree from every directed edge, the enumeration
recurses on one leaf fewer and inserts each leaf by editing neighbour
sets, and the almost-perfect tree is written by halving its leaf
interval.  The random tree builds one canonical ``Tree`` per inserted
leaf, the edge keys are sorted label tuples of sides found by a walk,
and the hard subset rescans every edge side in each round.  They are
quadratic or recursive on purpose, so keep them to trees of a few
hundred leaves.
"""

from __future__ import annotations

from typing import Iterator

from tncuts import CounterRng, Tree, build_train_track, parse_tree


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


def random_trees(n: int, seed: int = 0, rng: CounterRng | None = None) -> Iterator[Tree]:
    """The trees on 2, 3, ..., n leaves on the way to ``random_binary_tree(n)``.

    Leaf k goes on the edge that ``randbelow`` picks from the canonical
    edge order of the tree before it, a ``Tree`` built for each leaf.  The
    draws for leaf k come after those for every smaller leaf, so the tree
    on k leaves here is ``random_binary_tree(k, seed)``.
    """
    if rng is None:
        rng = CounterRng(seed)
    tree = build_train_track(2)
    yield tree
    for label in range(3, n + 1):
        tree = insert_leaf(tree, rng.randbelow(len(tree.edges())), label)
        yield tree


def random_binary_tree(n: int, seed: int = 0, rng: CounterRng | None = None) -> Tree:
    *_, tree = random_trees(n, seed, rng)
    return tree


def edge_keys(tree: Tree) -> list[str]:
    """Every edge's key, in canonical order, from sorted label tuples.

    Each edge's two sides come from a walk over neighbour sets; the key is
    the side with the smaller (size, sorted labels) pair, and the keys are
    sorted by that pair.
    """
    nbrs = _neighbours(tree)
    everything = set(range(1, tree.n + 1))
    keys = []
    for u, v in tree._edge_ends:
        seen, todo = {u, v}, [v]
        for x in todo:
            for y in nbrs[x] - seen:
                seen.add(y)
                todo.append(y)
        side = {x + 1 for x in todo if x < tree.n}
        keys.append(min((len(s), tuple(sorted(s))) for s in (side, everything - side)))
    return ["-".join(map(str, labels)) for _, labels in sorted(keys)]


def construct_hard_subset(tree: Tree) -> frozenset[int]:
    """Greedy cherry elimination that rescans every edge side in each round.

    While |L| >= 4, the cherries of the tree restricted to L, the leaves
    left, are the 2-leaf sets among ``s & L`` and ``L & ~s`` over the edge
    sides s; the one with the least smaller label goes, and that label
    joins A.  A side meeting L in fewer than 2 leaves, or in more than
    |L| - 2, names none, and never will again as L shrinks.  On 2 or 3
    leaves the two smallest labels form the cherry.
    """
    left = tree._full_mask
    sides = tree._edge_sides
    chosen = set()
    while left.bit_count() >= 4:
        most = left.bit_count() - 2
        live, cherries = [], []
        for s in sides:
            inside = (s & left).bit_count()
            if 2 <= inside <= most:
                live.append(s)
                if inside == 2:
                    cherries.append(s & left)
                if inside == most:
                    cherries.append(left & ~s)
        sides = live
        cherry = min(cherries, key=lambda part: part & -part)
        chosen.add((cherry & -cherry).bit_length())
        left ^= cherry
    chosen.add((left & -left).bit_length())
    return frozenset(chosen)
