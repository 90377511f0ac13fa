"""Unrooted leaf-labelled binary trees with canonical edge identifiers.

A tree with n >= 2 leaves carries labels 1..n on its leaves; every inner
vertex has degree 3 (the 2-leaf tree is a single edge).  Each edge is named
by the leaf bipartition it induces: the canonical key is the side whose
(size, sorted labels) pair is smaller.  Trees are immutable values, equal
exactly when they induce the same set of bipartitions.

Sides are leaf masks (bit i is label i + 1), never label tuples.  Of two
sides of one size, the one holding the lowest bit of their XOR has the
smaller sorted labels, so one XOR orders them; an edge's ``labels`` and
``key`` are rendered from its mask only when asked for.  A tree builds its
``EdgeId`` objects once, on the first ``edges()`` call.  The generators
grow plain edge lists, one leaf insertion at a time, and build one
``Tree`` per tree they return.
"""

from __future__ import annotations

import re
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .rng import CounterRng


# Most leaves a parsed tree may have, as many as ``hackbusch --n`` allows.
# A Tree keeps an n-bit side mask per edge, so its memory grows as n^2: a
# caterpillar on 21,845 leaves peaked at 184 MiB, one on 43,690 at 598 MiB.
_MAX_LEAVES = 21845


class TreeParseError(ValueError):
    """Malformed parenthesised tree expression."""


class SizeCapError(RuntimeError):
    """An input would exceed a resource cap (the oracle's dense sizes, the CLI's flags)."""


def _parse_label(text: str) -> int:
    """A leaf label in a key or a subset list, read as tree text writes it: a run of decimal digits."""
    if not (isinstance(text, str) and text.isdecimal()):
        raise ValueError(f"leaf label {text!r} is not a run of decimal digits")
    return int(text)


def _mask_labels(mask: int) -> tuple[int, ...]:
    """Ascending labels of the set bits of a leaf mask (bit i is label i + 1)."""
    bits = bin(mask)[:1:-1]   # bits[i] is bit i
    labels = []
    i = bits.find("1")
    while i >= 0:
        labels.append(i + 1)
        i = bits.find("1", i + 1)
    return tuple(labels)


class EdgeId:
    """Canonical edge name: the smaller side of the edge's leaf bipartition.

    It holds that side as a leaf mask: hashing, equality and order read
    the mask alone, and ``labels`` is rendered from it on each call.  The
    hash is that of (size, least label), which no two sides of one tree
    share; an int's own hash depends on its bit positions modulo 61 only,
    so the leaf sides of a tree on more than 61 leaves would collide.
    The mask is as wide as the highest label, so labels above 2**24 are
    refused before one is built.
    """

    __slots__ = ("mask", "_hash")

    def __init__(self, labels: Iterable[int]):
        labels = sorted(labels)
        if not labels:
            raise ValueError("an edge key needs at least one leaf label")
        if labels[0] < 1:
            raise ValueError(f"leaf labels start at 1, got {labels[0]}")
        if labels[-1] > 1 << 24:
            raise ValueError(f"leaf label {labels[-1]} is above 2**24")
        mask = 0
        for lab in labels:
            mask |= 1 << (lab - 1)
        if mask.bit_count() != len(labels):
            raise ValueError("an edge key names each leaf label once")
        self.mask = mask
        self._hash = hash((len(labels), labels[0]))

    @classmethod
    def _of_side(cls, mask: int) -> "EdgeId":
        eid = cls.__new__(cls)
        eid.mask = mask
        eid._hash = hash((mask.bit_count(), (mask & -mask).bit_length()))
        return eid

    @classmethod
    def from_key(cls, key: str) -> "EdgeId":
        """Parse a dash-joined key such as ``"1-2-3"``."""
        return cls(map(_parse_label, key.split("-")))

    @property
    def labels(self) -> tuple[int, ...]:
        return _mask_labels(self.mask)

    @property
    def key(self) -> str:
        return "-".join(map(str, self.labels))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.mask.bit_count(), self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeId) and self.mask == other.mask

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "EdgeId") -> bool:
        a, b = self.mask, other.mask
        if a.bit_count() != b.bit_count():
            return a.bit_count() < b.bit_count()
        diff = a ^ b
        return a & diff & -diff != 0

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"EdgeId({self.key!r})"


def _canonical_edges(
    adj: Mapping[Hashable, Iterable[Hashable]], leaf_labels: Mapping[Hashable, int]
) -> list[tuple[int, Hashable, Hashable]]:
    """(canonical side, parent, child) of every edge of a tree, in canonical order.

    Rooted at the leaf labelled 1, a child's subtree mask is one side of
    the edge to its parent and never holds leaf 1.  So the canonical side
    -- fewer leaves, then the side holding leaf 1 on a tie -- is that mask
    exactly when it is the strictly smaller half.  Two canonical sides of
    one size are disjoint: the splits of two edges are compatible, and
    any other overlap would make the two splits equal.  So the lowest bit
    of their XOR is the lower of their lowest bits, and (size, least
    label) sorts them.

    The walk checks that each vertex it reaches lists the vertex it came
    from.  With the degree sum of a tree and connectivity, that makes the
    neighbour lists symmetric: the walk's edges, one fewer than the
    vertices, fill all of them.
    """
    n = len(leaf_labels)
    root = next(v for v, lab in leaf_labels.items() if lab == 1)
    order = [root]
    parent = {root: None}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                if v not in adj.get(u, ()):
                    raise ValueError(f"vertex {v!r} lists {u!r}, but {u!r} does not list {v!r}")
                parent[u] = v
                order.append(u)
    if len(order) != len(adj):
        raise ValueError("tree must be connected")
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
    keyed.sort()   # (size, least label) is unique per edge, so the vertices are never compared
    return [(side, u, v) for _, _, side, u, v in keyed]


class Tree:
    """Unrooted leaf-labelled binary tree (immutable value).

    Construct via parse_tree() or the builders; the constructor accepts a
    raw adjacency dict plus a vertex -> label map and normalises it.
    Internally vertices are renumbered so that vertex i < n is the leaf
    with label i + 1 and inner vertices follow in a canonical order, which
    makes every traversal deterministic.  Size-1 sides sort first, by
    label, so for n >= 3 leaf i's edge is ``edges()[i - 1]``; the 2-leaf
    tree's one edge belongs to both leaves.  The one adjacency kept is the
    orientation rooted at vertex 0: ``_children``, ``_parent_edge`` and
    ``_postorder``; every walk over it is a loop, never a recursion.
    ``_edge_sides`` holds each edge's canonical side in edge order; the
    first ``edges()`` call builds ``_edge_ids`` from them, and ``_edge_pos``,
    which maps each ``EdgeId`` back to its position.
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
    )

    def __init__(self, adjacency: Mapping[int, Iterable[int]], leaf_labels: Mapping[int, int]):
        adj = {v: set(ns) for v, ns in adjacency.items()}
        n = len(leaf_labels)
        if n < 2:
            raise ValueError("a tree needs at least 2 leaves")
        if sorted(leaf_labels.values()) != list(range(1, n + 1)):
            raise ValueError("leaf labels must be exactly 1..n without repeats")
        num_vertices = len(adj)
        if num_vertices != 2 * n - 2 or sum(map(len, adj.values())) != 2 * (num_vertices - 1):
            raise ValueError("a binary tree on n leaves has 2n - 2 vertices and 2n - 3 edges")
        for v, nbrs in adj.items():
            want = 1 if v in leaf_labels else 3
            if len(nbrs) != want:
                raise ValueError("leaves must have degree 1, inner vertices degree 3")
        edges = _canonical_edges(adj, leaf_labels)

        # Canonical vertex numbering: leaves by label, then inner vertices
        # by the ascending positions of their incident edges.
        incident: dict[int, list[int]] = {v: [] for v in adj}
        for i, (_, u, v) in enumerate(edges):
            incident[u].append(i)
            incident[v].append(i)
        new_index = {v: leaf_labels[v] - 1 for v in leaf_labels}
        inner = sorted((v for v in adj if v not in leaf_labels), key=incident.__getitem__)
        for i, v in enumerate(inner):
            new_index[v] = n + i

        self.n = n
        self.num_vertices = num_vertices
        self._full_mask = (1 << n) - 1
        self._edge_ids: tuple[EdgeId, ...] | None = None
        self._edge_pos: dict[EdgeId, int] = {}
        self._edge_sides = tuple(side for side, _, _ in edges)
        self._edge_ends = tuple((new_index[u], new_index[v]) for _, u, v in edges)

        # Rooted orientation at vertex 0 (the leaf labelled 1): every edge's
        # ends are (parent, child) from the walk above.  Reused by the cut
        # dynamic programs, serialize() and the oracle's contraction order.
        children: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        parent_edge = [-1] * num_vertices
        for i, (u, v) in enumerate(self._edge_ends):
            children[u].append((v, i))
            parent_edge[v] = i
        # a vertex has at most two children, kept in vertex order
        self._children = tuple([tuple(c) if len(c) < 2 or c[0] < c[1] else (c[1], c[0]) for c in children])
        self._parent_edge = tuple(parent_edge)
        bfs = [0]
        for v in bfs:
            for u, _ in self._children[v]:
                bfs.append(u)
        bfs.reverse()
        self._postorder = tuple(bfs)

    # -- basic queries -------------------------------------------------

    @property
    def leaves(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def edges(self) -> tuple[EdgeId, ...]:
        """All edges, sorted by canonical key; built on the first call and kept."""
        ids = self._edge_ids
        if ids is None:
            ids = tuple(map(EdgeId._of_side, self._edge_sides))
            self._edge_pos = {eid: i for i, eid in enumerate(ids)}
            self._edge_ids = ids
        return ids

    def _position(self, edge: EdgeId) -> int:
        """Position in ``edges()`` of the edge named by either side of its bipartition."""
        if self._edge_ids is None:
            self.edges()
        pos = self._edge_pos.get(edge)
        if pos is None:
            pos = self._edge_pos.get(EdgeId._of_side(self._full_mask ^ edge.mask))
            if pos is None:
                raise ValueError(f"edge {edge} does not belong to this tree")
        return pos

    def resolve_edge(self, edge: EdgeId) -> EdgeId:
        """Canonical id of the edge, accepting either side of its bipartition."""
        return self.edges()[self._position(edge)]

    def leaves_left_of(self, edge: EdgeId) -> frozenset[int]:
        """The canonical-key side of the edge's leaf bipartition."""
        return self.labels_of_mask(self._edge_sides[self._position(edge)])

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

    @property
    def _split_key(self) -> tuple[int, ...]:
        """The canonical sides in edge order: equal exactly for equal trees of one size."""
        return self._edge_sides

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self._edge_sides == other._edge_sides

    def __hash__(self) -> int:
        return hash((self.n, self._edge_sides))

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

    Whitespace is dropped, and the rest is one shift-reduce pass (Knuth,
    1965) of T := label | "(" T "," T ")" over the tokens: a run of
    decimal digits, or one character.  Labels, "(" and "," are pushed; a
    ")" replaces the top four items "(", x, ",", y with a new vertex joined
    to x and y.  Any other stack at a ")" or at the end is an error naming
    the position.  The implied degree-2 root is suppressed, so the result
    is unrooted and the root edge survives as an ordinary edge.  A text
    with more than ``_MAX_LEAVES`` leaves, counted as one more than its
    commas, raises SizeCapError before anything is built; the builders
    below, which make their own text, have no such cap.
    """
    leaves = text.count(",") + 1
    if leaves > _MAX_LEAVES:
        raise SizeCapError(f"a tree of {leaves} leaves exceeds the cap of {_MAX_LEAVES}")
    return _parse_tree(text)


def _parse_tree(text: str) -> Tree:
    """``parse_tree`` without the leaf cap."""
    s = "".join(text.split())
    adj: dict[int, set[int]] = {}
    labels: dict[int, int] = {}
    stack: list[int | str] = []   # "(", "," and the vertices of finished subtrees
    for token in re.finditer(r"\d+|.", s):
        tok, v = token.group(), len(adj)
        if tok == "(" or tok == ",":
            stack.append(tok)
            continue
        if tok.isdecimal():
            adj[v] = set()
            labels[v] = int(tok)
        elif tok == ")" and len(stack) >= 4 and stack[-4::2] == ["(", ","] and type(stack[-3]) is type(stack[-1]) is int:
            x, y = stack[-3], stack[-1]
            del stack[-4:]
            adj[v] = {x, y}
            adj[x].add(v)
            adj[y].add(v)
        else:
            raise TreeParseError(f"unexpected {tok!r} at position {token.start()}")
        stack.append(v)
    if len(stack) != 1 or type(stack[0]) is not int or stack[0] in labels:
        raise TreeParseError(f"expected one parenthesised pair ending at position {len(s)}")
    root = stack[0]
    a, b = adj.pop(root)
    adj[a] ^= {root, b}   # a and b, once the root's children, are joined
    adj[b] ^= {root, a}
    return Tree(adj, labels)


def build_train_track(n: int) -> Tree:
    """Caterpillar tree: every prefix {1..j} is an edge split."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    return _parse_tree("(" * (n - 1) + "1," + "),".join(map(str, range(2, n + 1))) + ")")


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
    return _parse_tree(row[0])


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


def _inserted(ends: Sequence[tuple[int, int]], labels: dict[int, int], i: int) -> tuple[list, dict]:
    """The tree with one more leaf, labelled n + 1, in the middle of ``ends[i]``.

    A tree here is a plain edge list on vertices 0..len(ends) plus its leaf
    -> label map, such as ``Tree._edge_ends``.
    """
    mid, leaf = len(ends) + 1, len(ends) + 2
    u, v = ends[i]
    return [*ends[:i], (u, mid), (mid, v), (mid, leaf), *ends[i + 1 :]], labels | {leaf: len(labels) + 1}


def all_binary_trees(n: int) -> Iterator[Tree]:
    """All (2n-5)!! leaf-labelled unrooted binary trees, deterministically.

    Depth first over leaf insertions in canonical edge order: a stack holds
    the trees still to grow, and a tree's insertions are pushed last edge
    first, so they pop in edge order.  A tree with fewer than n leaves is
    only put in canonical edge order; a ``Tree`` is built once per tree
    yielded.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves")
    stack = [([(0, 1)], {0: 1, 1: 2})]
    while stack:
        ends, labels = stack.pop()
        if len(labels) == n:
            yield Tree(_adjacency(ends), labels)
        else:
            ordered = [(u, v) for _, u, v in _canonical_edges(_adjacency(ends), labels)]
            stack.extend(_inserted(ordered, labels, i) for i in reversed(range(len(ordered))))


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
            for i in range(len(rep._edge_ends)):
                ends, labels = _inserted(rep._edge_ends, {v: v + 1 for v in range(rep.n)}, i)
                candidate = Tree(_adjacency(ends), labels)
                seen.setdefault(_shape_signature(candidate), candidate)
        reps = [seen[sig] for sig in sorted(seen)]
    return reps


def random_binary_tree(n: int, seed: int = 0, rng: CounterRng | None = None) -> Tree:
    """Uniform-ish random labelled tree by random leaf insertion.

    Leaf k + 1 goes in the middle of the edge that ``rng.randbelow`` picks
    from the canonical edge order of the tree on leaves 1..k.  The tree
    grows as an edge list put in canonical edge order before each draw, so
    it takes O(n^2 log n) steps; one ``Tree`` is built, at the end.
    """
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if rng is None:
        rng = CounterRng(seed)
    ends, labels = [(0, 1)], {0: 1, 1: 2}
    for k in range(2, n):
        ordered = [(u, v) for _, u, v in _canonical_edges(_adjacency(ends), labels)]
        ends, labels = _inserted(ordered, labels, rng.randbelow(2 * k - 3))
    return Tree(_adjacency(ends), labels)
