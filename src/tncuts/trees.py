"""Unrooted leaf-labelled binary trees with canonical edge identifiers.

A tree with n >= 2 leaves carries labels 1..n on its leaves; every inner
vertex has degree 3 (the 2-leaf tree is a single edge).  Each edge is named
by the leaf bipartition it induces: the canonical key is the side whose
(size, sorted labels) pair is smaller.  Trees are immutable values, equal
exactly when they induce the same set of bipartitions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .rng import CounterRng


class TreeParseError(ValueError):
    """Malformed parenthesised tree expression."""


def _mask_labels(mask: int) -> tuple[int, ...]:
    """Ascending labels of the set bits of a leaf mask (bit i is label i + 1)."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length())
        mask ^= low
    return tuple(labels)


class EdgeId:
    """Canonical edge name: the smaller side of the edge's leaf bipartition."""

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[int]):
        self.labels: tuple[int, ...] = tuple(sorted(labels))
        if not self.labels:
            raise ValueError("an edge key needs at least one leaf label")

    @classmethod
    def from_key(cls, key: str) -> "EdgeId":
        """Parse a dash-joined key such as ``"1-2-3"``."""
        try:
            return cls(int(part) for part in key.split("-"))
        except ValueError as exc:
            raise ValueError(f"bad edge key {key!r}") from exc

    @property
    def key(self) -> str:
        return "-".join(map(str, self.labels))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.labels), self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeId) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __lt__(self, other: "EdgeId") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"EdgeId({self.key!r})"


class Tree:
    """Unrooted leaf-labelled binary tree (immutable value).

    Construct via parse_tree() or the builders; the constructor accepts a
    raw adjacency dict plus a vertex -> label map and normalises it.
    Internally vertices are renumbered so that vertex i < n is the leaf
    with label i + 1 and inner vertices follow in a canonical order, which
    makes every traversal deterministic.  The one adjacency kept is the
    orientation rooted at vertex 0: ``_children``, ``_parent_edge`` and
    ``_postorder``; every walk over it is a loop, never a recursion.
    """

    __slots__ = (
        "n",
        "num_vertices",
        "_edge_ids",
        "_edge_pos",
        "_edge_ends",
        "_edge_sides",
        "_children",
        "_parent_edge",
        "_postorder",
        "_full_mask",
        "_split_key",
    )

    def __init__(self, adjacency: Mapping[int, Iterable[int]], leaf_labels: Mapping[int, int]):
        adj = {v: set(ns) for v, ns in adjacency.items()}
        n = len(leaf_labels)
        if n < 2:
            raise ValueError("a tree needs at least 2 leaves")
        if sorted(leaf_labels.values()) != list(range(1, n + 1)):
            raise ValueError("leaf labels must be exactly 1..n without repeats")
        num_vertices = len(adj)
        if sum(map(len, adj.values())) != 2 * (num_vertices - 1):
            raise ValueError("edge count must equal vertex count - 1")
        for v, nbrs in adj.items():
            want = 1 if v in leaf_labels else 3
            if len(nbrs) != want:
                raise ValueError("leaves must have degree 1, inner vertices degree 3")

        # Root the raw graph at the leaf labelled 1 and collect, for every
        # non-root vertex, the leaf mask of its subtree; that mask is one
        # side of the bipartition of the edge towards the parent.
        root0 = next(v for v, lab in leaf_labels.items() if lab == 1)
        order = [root0]
        parent0: dict[int, int | None] = {root0: None}
        for v in order:
            for u in adj[v]:
                if u not in parent0:
                    parent0[u] = v
                    order.append(u)
        if len(order) != num_vertices:
            raise ValueError("tree must be connected")

        self.n = n
        self.num_vertices = num_vertices
        full = (1 << n) - 1
        self._full_mask = full
        below = {v: (1 << (leaf_labels[v] - 1)) if v in leaf_labels else 0 for v in order}
        for v in reversed(order[1:]):
            below[parent0[v]] |= below[v]

        raw_edges = []          # (edge key, orig parent, orig child, canonical side mask)
        for v in order[1:]:
            # below[v] never holds leaf 1 (the root), so the canonical side
            # -- fewer leaves, then the side holding leaf 1 on a tie -- is
            # below[v] exactly when it is the strictly smaller half.
            side = below[v] if 2 * below[v].bit_count() < n else full ^ below[v]
            raw_edges.append(((side.bit_count(), _mask_labels(side)), parent0[v], v, side))
        raw_edges.sort()

        # Canonical vertex numbering: leaves by label, then inner vertices
        # by the ascending positions of their incident edges.
        incident: dict[int, list[int]] = {v: [] for v in adj}
        for i, (_, u, v, _) in enumerate(raw_edges):
            incident[u].append(i)
            incident[v].append(i)
        new_index = {v: leaf_labels[v] - 1 for v in leaf_labels}
        inner = sorted((v for v in adj if v not in leaf_labels), key=incident.__getitem__)
        for i, v in enumerate(inner):
            new_index[v] = n + i

        self._edge_ids = tuple(EdgeId(key[1]) for key, _, _, _ in raw_edges)
        self._edge_sides = tuple(side for _, _, _, side in raw_edges)
        self._edge_ends = tuple((new_index[u], new_index[v]) for _, u, v, _ in raw_edges)
        self._edge_pos = {eid: i for i, eid in enumerate(self._edge_ids)}
        self._split_key = frozenset(self._edge_sides)

        # Rooted orientation at vertex 0 (the leaf labelled 1): every edge's
        # ends are (parent, child) from the walk above.  Reused by the cut
        # dynamic programs, serialize() and the oracle's contraction order.
        children: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        parent_edge = [-1] * num_vertices
        for i, (u, v) in enumerate(self._edge_ends):
            children[u].append((v, i))
            parent_edge[v] = i
        self._children = tuple(tuple(sorted(c)) for c in children)
        self._parent_edge = tuple(parent_edge)
        bfs = [0]
        for v in bfs:
            bfs.extend(u for u, _ in self._children[v])
        self._postorder = tuple(reversed(bfs))

    # -- basic queries -------------------------------------------------

    @property
    def leaves(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def edges(self) -> tuple[EdgeId, ...]:
        """All edges, sorted by canonical key."""
        return self._edge_ids

    def resolve_edge(self, edge: EdgeId) -> EdgeId:
        """Canonical id of the edge, accepting either side of its bipartition (labels distinct)."""
        if edge in self._edge_pos:
            return edge
        side = set(edge.labels)
        if len(side) == len(edge.labels) and side <= self.leaves and len(side) < self.n:
            other = EdgeId(self.leaves - side)
            if other in self._edge_pos:
                return other
        raise ValueError(f"edge {edge} does not belong to this tree")

    def leaves_left_of(self, edge: EdgeId) -> frozenset[int]:
        """The canonical-key side of the edge's leaf bipartition."""
        pos = self._edge_pos[self.resolve_edge(edge)]
        return self.labels_of_mask(self._edge_sides[pos])

    def mask_of(self, labels: Iterable[int]) -> int:
        mask = 0
        for lab in labels:
            if not 1 <= lab <= self.n:
                raise ValueError(f"unknown leaf label {lab}")
            mask |= 1 << (lab - 1)
        return mask

    def labels_of_mask(self, mask: int) -> frozenset[int]:
        return frozenset(_mask_labels(mask))

    # -- value semantics -----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self._split_key == other._split_key

    def __hash__(self) -> int:
        return hash((self.n, self._split_key))

    def __repr__(self) -> str:
        return f"Tree({self.serialize()!r})"

    # -- serialisation ---------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, rooted on the least edge (leaf 1's edge).

        Each inner vertex writes its two subtrees in order of their least
        leaf label.
        """
        rendered: dict[int, tuple[int, str]] = {}   # vertex -> (least label, text)
        for v in self._postorder[:-1]:
            if v < self.n:
                rendered[v] = (v + 1, str(v + 1))
            else:
                (low, left), (_, right) = sorted(rendered[u] for u, _ in self._children[v])
                rendered[v] = (low, f"({left},{right})")
        return f"(1,{rendered[self._children[0][0][0]][1]})"


def parse_tree(text: str) -> Tree:
    """Parse a fully parenthesised binary expression such as ``((1,2),(3,4))``.

    The implied degree-2 root is suppressed, so the result is unrooted and
    the root edge survives as an ordinary edge.
    """
    s = "".join(text.split())
    if not s:
        raise TreeParseError("empty input")
    adj: dict[int, set[int]] = {}
    labels: dict[int, int] = {}
    open_pairs: list[list[int]] = []   # one list of finished operands per unclosed "("
    i = 0
    while True:
        if i >= len(s):
            raise TreeParseError("unexpected end of input")
        if s[i] == "(":
            open_pairs.append([])
            i += 1
            continue
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == i:
            raise TreeParseError(f"expected a leaf label at position {i}")
        v = len(adj)
        adj[v] = set()
        labels[v] = int(s[i:j])
        i = j
        # A finished operand either needs its right sibling or closes pairs.
        while open_pairs:
            pair = open_pairs[-1]
            pair.append(v)
            if len(pair) == 1:
                if i >= len(s) or s[i] != ",":
                    raise TreeParseError(f"expected ',' at position {i}")
                i += 1
                break
            if i >= len(s) or s[i] != ")":
                raise TreeParseError(f"unbalanced parentheses at position {i}")
            open_pairs.pop()
            v = len(adj)
            adj[v] = set(pair)
            for u in pair:
                adj[u].add(v)
            i += 1
        else:
            break  # every pair is closed: v is the root
    if i != len(s):
        raise TreeParseError(f"trailing characters after position {i}")
    if v in labels:
        raise TreeParseError("a tree needs at least 2 leaves")
    a, b = adj.pop(v)
    adj[a].discard(v)
    adj[b].discard(v)
    adj[a].add(b)
    adj[b].add(a)
    return Tree(adj, labels)


def build_train_track(n: int) -> Tree:
    """Caterpillar tree: every prefix {1..j} is an edge split."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    return parse_tree("(" * (n - 1) + "1," + "),".join(map(str, range(2, n + 1))) + ")")


def build_almost_perfect_binary(n: int) -> Tree:
    """Deepest tree on n leaves: a perfect tree with a partial last row.

    Take the perfect binary tree on 2**floor(log2 n) leaves and split its
    leftmost n - 2**floor(log2 n) leaves into cherries; label the leaves
    1..n left to right.  For n a power of two this is the perfect tree.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves")
    base = 1 << (n.bit_length() - 1)
    extra = n - base
    row = [f"({2 * i - 1},{2 * i})" if i <= extra else str(i + extra) for i in range(1, base + 1)]
    while len(row) > 1:  # pair the row of subtree expressions, bottom up
        row = [f"({left},{right})" for left, right in zip(row[::2], row[1::2])]
    return parse_tree(row[0])


def _adjacency(ends: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Mutable vertex -> neighbour-set map of an edge list such as ``Tree._edge_ends``."""
    adj: dict[int, set[int]] = {}
    for u, v in ends:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def relabel(tree: Tree, perm: Mapping[int, int] | Sequence[int]) -> Tree:
    """Same shape, leaf carrying label i now carries perm(i)."""
    if not isinstance(perm, Mapping):
        perm = {i + 1: lab for i, lab in enumerate(perm)}
    if sorted(perm.keys()) != list(range(1, tree.n + 1)) or sorted(perm.values()) != list(
        range(1, tree.n + 1)
    ):
        raise ValueError("perm must be a bijection on 1..n")
    return Tree(_adjacency(tree._edge_ends), {v: perm[v + 1] for v in range(tree.n)})


def complement(tree: Tree, a: Iterable[int]) -> frozenset[int]:
    """Leaf labels of ``tree`` not in ``a``."""
    return tree.labels_of_mask(tree._full_mask ^ tree.mask_of(a))


# -- tree generation ------------------------------------------------------


def _insert_leaf(tree: Tree, edge_index: int, label: int) -> Tree:
    """New tree with an extra leaf attached in the middle of an edge."""
    mid, leaf = tree.num_vertices, tree.num_vertices + 1
    ends = list(tree._edge_ends)
    u, v = ends[edge_index]
    ends[edge_index : edge_index + 1] = [(u, mid), (mid, v), (mid, leaf)]
    return Tree(_adjacency(ends), {i: i + 1 for i in range(tree.n)} | {leaf: label})


def _grown(tree: Tree) -> Iterator[Tree]:
    """The tree with one more leaf, labelled n + 1, on each edge in turn."""
    return (_insert_leaf(tree, i, tree.n + 1) for i in range(len(tree.edges())))


def all_binary_trees(n: int) -> Iterator[Tree]:
    """All (2n-5)!! leaf-labelled unrooted binary trees, deterministically.

    Depth first over leaf insertions, one generator per tree on the stack.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves")
    stack = [iter([build_train_track(2)])]
    while stack:
        tree = next(stack[-1], None)
        if tree is None:
            stack.pop()
        elif tree.n == n:
            yield tree
        else:
            stack.append(_grown(tree))


def _shape_signature(tree: Tree) -> str:
    """Canonical unlabeled form: minimum over all edge rootings.

    ``down[v]`` renders v's own subtree in the rooted orientation and
    ``up[v]`` the rest of the tree seen from v's parent; a leaf renders as
    "L", an inner vertex as its two sides in sorted order.  The rendering
    rooted at the edge above v is the sorted pair of the two.
    """

    def pair(x: str, y: str) -> str:
        return f"({x}{y})" if x <= y else f"({y}{x})"

    down = ["L"] * tree.num_vertices
    for v in tree._postorder:
        if v >= tree.n:
            (a, _), (b, _) = tree._children[v]
            down[v] = pair(down[a], down[b])
    up = ["L"] * tree.num_vertices
    for v in reversed(tree._postorder):
        if v >= tree.n:
            (a, _), (b, _) = tree._children[v]
            up[a], up[b] = pair(up[v], down[b]), pair(up[v], down[a])
    return min(pair(down[v], up[v]) for v in range(1, tree.num_vertices))


def tree_shapes(n: int) -> list[Tree]:
    """One representative per unlabeled shape with n leaves."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    reps = [build_train_track(2)]
    for _ in range(3, n + 1):
        seen: dict[str, Tree] = {}
        for rep in reps:
            for candidate in _grown(rep):
                seen.setdefault(_shape_signature(candidate), candidate)
        reps = [seen[sig] for sig in sorted(seen)]
    return reps


def random_binary_tree(n: int, seed: int = 0, rng: CounterRng | None = None) -> Tree:
    """Uniform-ish random labelled tree by random leaf insertion."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if rng is None:
        rng = CounterRng(seed)
    tree = build_train_track(2)
    for label in range(3, n + 1):
        tree = _insert_leaf(tree, rng.randbelow(len(tree.edges())), label)
    return tree
