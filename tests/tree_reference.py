"""Plain references for the parser and tree builders in ``tncuts.trees``.

Each function is the plain form of a package function: the parser is a
recursive descent, the shape signature re-renders the tree from every
directed edge, the enumeration recurses on one leaf fewer and inserts
each leaf by editing neighbour sets, and the almost-perfect tree is
written by halving its leaf interval and read by the parser here.  The
random tree builds one canonical ``Tree`` per inserted leaf, and the
edge keys are sorted label tuples of sides found by a walk.  The
canonical edge order sorts every edge's side mask, built for each subtree
on the way up.  They are quadratic or recursive on purpose, so keep them
to trees of a few hundred leaves, or a few thousand for the edge order.
"""

from __future__ import annotations

import re
from typing import Hashable, Iterable, Iterator, Mapping

from tncuts import CounterRng, Tree, build_train_track


def parse_tree(text: str) -> Tree:
    """Recursive descent over T := label | "(" T "," T ")" with whitespace dropped.

    The top-level pair's two subtrees are joined by one edge, with no root
    vertex between them; a label is a run of decimal digits, and anything
    else out of place raises ValueError.
    """
    s = "".join(text.split())
    adj: dict[int, set[int]] = {}
    labels: dict[int, int] = {}
    pos = 0

    def take(char: str) -> None:
        nonlocal pos
        if not s.startswith(char, pos):
            raise ValueError(f"expected {char!r} at position {pos}")
        pos += 1

    def pair() -> tuple[int, int]:
        take("(")
        left = subtree()
        take(",")
        right = subtree()
        take(")")
        return left, right

    def subtree() -> int:
        nonlocal pos
        v = len(adj)
        adj[v] = set()
        if s.startswith("(", pos):
            for u in pair():
                adj[u].add(v)
                adj[v].add(u)
            return v
        digits = re.compile(r"\d+").match(s, pos)
        if digits is None:
            raise ValueError(f"expected a leaf label at position {pos}")
        labels[v] = int(digits.group())
        pos = digits.end()
        return v

    a, b = pair()
    if pos != len(s):
        raise ValueError(f"trailing characters at position {pos}")
    adj[a].add(b)
    adj[b].add(a)
    return Tree(adj, labels)


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


def canonical_edges(
    adj: Mapping[Hashable, Iterable[Hashable]], leaf_labels: Mapping[Hashable, int]
) -> list[tuple[int, Hashable, Hashable]]:
    """(canonical side, parent, child) of every edge, sorted by the sides' masks.

    Rooted at the leaf labelled 1, a child's subtree mask is one side of
    the edge to its parent and never holds leaf 1; the canonical side is
    that mask when it holds fewer than half the leaves, else the rest.
    Edges are sorted by (size, least label, side), and the side breaks no
    tie, since (size, least label) names one edge.
    """
    n = len(leaf_labels)
    root = next(v for v, lab in leaf_labels.items() if lab == 1)
    order = [root]
    parent = {root: None}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    below = {v: 1 << (leaf_labels[v] - 1) if v in leaf_labels else 0 for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    full = (1 << n) - 1
    keyed = []
    for v in order[1:]:
        side = below[v]
        size = side.bit_count()
        if 2 * size < n:
            keyed.append((size, (side & -side).bit_length(), side, parent[v], v))
        else:
            keyed.append((n - size, 1, full ^ side, parent[v], v))
    keyed.sort()
    return [(side, u, v) for _, _, side, u, v in keyed]
