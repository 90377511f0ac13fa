"""Monochromatic cuts, colour cuts, and min-product cuts on bicoloured trees.

A leaf subset A two-colours the leaves.  A monochromatic cut is an edge set
whose removal leaves every component's leaves single-coloured (components
without leaves are unconstrained); a colour cut leaves every component with
at least one leaf of each colour.  Minimum sizes and products come from one
dynamic program over the orientation rooted at leaf 1: a cost pass from the
leaves up, then a witness walk from the root down.  A leaf set that changes
one leaf at a time (the prefixes of a leaf order, or every leaf set in
Gray-code order) updates those costs on one root path per toggled leaf
instead of re-running the pass.  The maximum colour cut needs no table:
one greedy pass from the leaves up finds it.  The two verifiers check a
given cut in one more pass from the leaves up.  A hard
subset, whose minimum monochromatic cut has at least floor(n/2) edges,
comes from greedy cherry elimination over the edge sides.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple

from .trees import EdgeId, Tree


class CutResult(NamedTuple):
    """A cut size (None = no such cut exists) plus one witness achieving it."""

    size: int | None
    witness: frozenset[EdgeId]


class ProductCut(NamedTuple):
    """Exact minimum of prod f(e) over monochromatic cuts, with a witness."""

    product: int
    witness: frozenset[EdgeId]


# -- the monochromatic-cut DP ------------------------------------------------
#
# One DP serves both minimisations.  Weighted by f it minimises prod f(e)
# over monochromatic cuts; with weight 2 on every edge the cheapest product
# is 2**size of the smallest cut, and 2**x is strictly increasing, so every
# comparison and tie comes out as it would when counting edges.


def _cut_costs(
    tree: Tree, amask: int, weights: list[int], forbidden: int,
    vertices: Iterable[int], c0: list[int], c1: list[int],
) -> int:
    # Recompute c0[v] / c1[v] for each v in ``vertices``, every vertex after
    # its children: the cheapest product of cut weights below v, given that
    # v's component is coloured 0 (outside A) or 1 (inside A).  A leaf's
    # other colour costs ``forbidden``, more than any single weight, which
    # is all a parent compares it with.  ``vertices`` ends at the root
    # (leaf 1), whose own colour gives the cost returned.
    n = tree.n
    children = tree._children
    for v in vertices:
        if v < n:
            b0, b1 = (forbidden, 1) if amask >> v & 1 else (1, forbidden)
        else:
            b0 = b1 = 1
        for u, ei in children[v]:
            u0 = c0[u]
            u1 = c1[u]
            cut = (u0 if u0 < u1 else u1) * weights[ei]
            b0 *= u0 if u0 < cut else cut
            b1 *= u1 if u1 < cut else cut
        c0[v] = b0
        c1[v] = b1
    return c1[0] if amask & 1 else c0[0]


def _full_costs(tree: Tree, amask: int, weights: list[int]) -> tuple[list[int], list[int], int]:
    """c0 and c1 of every vertex, from one pass from the leaves up, and the root's cost."""
    c0 = [1] * tree.num_vertices
    c1 = [1] * tree.num_vertices
    return c0, c1, _cut_costs(tree, amask, weights, max(weights) + 1, tree._postorder, c0, c1)


def _cheapest_cut(tree: Tree, amask: int, weights: list[int]) -> int:
    """Cheapest product of weights over the monochromatic cuts for the leaf mask."""
    return _full_costs(tree, amask, weights)[2]


def _mono_sizes(tree: Tree, toggles: Iterable[int]) -> Iterator[int]:
    """Minimal monochromatic cut sizes as leaves flip into and out of A, which starts empty.

    Each entry of ``toggles`` is a leaf vertex (label - 1): it joins A if
    it is outside and leaves A if it is inside, and the size for the new
    A is yielded.  A flip changes c0/c1 only on the leaf's path up to the
    root, and the update recomputes each vertex on that path from its
    children, so a leaf leaving A costs what one joining it does: one
    full pass for the empty set, then O(depth) per flip.
    """
    weights = [2] * len(tree._edge_ends)
    forbidden = max(weights) + 1
    c0, c1, _ = _full_costs(tree, 0, weights)
    parent_edge = tree._parent_edge
    edge_ends = tree._edge_ends
    amask = 0
    for v in toggles:
        amask ^= 1 << v
        path = [v]
        while v:
            v = edge_ends[parent_edge[v]][0]
            path.append(v)
        yield _cut_costs(tree, amask, weights, forbidden, path, c0, c1).bit_length() - 1


def _product_cut(tree: Tree, amask: int, weights: list[int]) -> tuple[int, frozenset[EdgeId]]:
    """Cheapest product of weights over the monochromatic cuts, with a witness."""
    c0, c1, cost = _full_costs(tree, amask, weights)
    # Witness walk from the root down.  On ties prefer keeping the edge,
    # which pushes cuts towards the leaves.
    cut_edges = []
    children = tree._children
    stack = [(0, amask & 1)]
    while stack:
        v, s = stack.pop()
        for u, ei in children[v]:
            u0 = c0[u]
            u1 = c1[u]
            low, low_s = (u0, 0) if u0 <= u1 else (u1, 1)
            keep = u1 if s else u0
            if keep <= low * weights[ei]:
                stack.append((u, s))
            else:
                cut_edges.append(ei)
                stack.append((u, low_s))
    edges = tree.edges()
    return cost, frozenset(edges[i] for i in cut_edges)


def min_mono_cut(tree: Tree, a: Iterable[int]) -> CutResult:
    """Minimum edge set whose removal leaves every component monochromatic."""
    cost, witness = _product_cut(tree, tree.mask_of(a), [2] * len(tree._edge_ends))
    return CutResult(cost.bit_length() - 1, witness)


def min_product_cut(tree: Tree, a: Iterable[int], f: Mapping[EdgeId, int]) -> ProductCut:
    """Minimise prod f(e) over monochromatic cuts for A, exactly."""
    fvals = []
    for eid in tree.edges():
        if eid not in f:
            raise ValueError(f"edge function is missing edge {eid}")
        v = f[eid]
        if v < 1:
            raise ValueError(f"edge function must be >= 1 everywhere, got {v} at {eid}")
        fvals.append(v)
    return ProductCut(*_product_cut(tree, tree.mask_of(a), fvals))


# -- maximum colour cut ------------------------------------------------------


def max_colour_cut(tree: Tree, a: Iterable[int]) -> CutResult:
    """Maximum edge set whose removal leaves every component bicoloured.

    Returns size None when A or its complement is empty (no colour cut
    exists, not even the empty one).

    One greedy pass from the leaves up, rooted at leaf 1: a vertex's open
    part is its subtree minus the parts already closed below it, and as
    soon as a non-root vertex's open part holds both colours the edge to
    its parent is cut; a vertex's children are taken in reverse.  If leaf
    1's part ends single-coloured, the last edge cut is restored, merging
    that part into a bicoloured one.  That edge hangs below the last vertex
    in post-order with a closed child, which is the first such vertex a
    breadth-first walk down leaf 1's part meets, and it is the first of
    that vertex's closed children.

    Optimal: let best(T) be the most parts in a partition of T into
    connected bicoloured parts (0 if there is none); a colour cut of k
    edges is such a partition into k + 1 parts.  The pass makes one part
    per closed vertex, plus leaf 1's part if that is bicoloured (else the
    restore merges it into a neighbour).  Let v be the first vertex closed.
    Each child subtree of v is single-coloured, so no part lies inside one
    and the part P holding v contains subtree(v).  If P is larger, the rest
    Q of P is connected: split Q off if it is bicoloured, else merge it into
    a neighbouring part, or P is the whole tree.  So best(T) = 1 +
    best(T - subtree(v)), and the pass goes on exactly as it would on
    T - subtree(v).  With nothing closed it counts 1 if leaf 1's part, the
    whole tree, is bicoloured and 0 if not, which is best(T).
    """
    amask = tree.mask_of(a)
    if amask == 0 or amask == tree._full_mask:
        return CutResult(None, frozenset())
    children = tree._children
    # seen[v]: colours of v's open part, 1 = a leaf in A, 2 = a leaf not in A
    seen = [2 - ((amask >> v) & 1) for v in range(tree.n)]
    seen += [0] * (tree.num_vertices - tree.n)
    cut_edges = []
    for v in tree._postorder:
        s = seen[v]
        for u, ei in reversed(children[v]):
            if seen[u] == 3:
                cut_edges.append(ei)
            else:
                s |= seen[u]
        seen[v] = s
    if seen[0] != 3:
        # A nonempty proper A closes some part.  The last edge cut borders
        # leaf 1's part: were an ancestor of its upper end closed, that
        # ancestor's parent, later in post-order, would have a closed child.
        cut_edges.pop()
    edges = tree.edges()
    return CutResult(len(cut_edges), frozenset(edges[i] for i in cut_edges))


# -- verification -------------------------------------------------------------


def _part_colours(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> list[int]:
    """Colour bits of each part left by removing ``cut`` (0 = no leaf), leaf 1's part last."""
    amask = tree.mask_of(a)
    cut_idx = {tree._position(eid) for eid in cut}
    children = tree._children
    # seen[v]: colours of v's part below v, 1 = a leaf in A, 2 = a leaf not in A
    seen = [2 - ((amask >> v) & 1) for v in range(tree.n)]
    seen += [0] * (tree.num_vertices - tree.n)
    parts = []
    for v in tree._postorder:
        s = seen[v]
        for u, ei in children[v]:
            if ei in cut_idx:
                parts.append(seen[u])
            else:
                s |= seen[u]
        seen[v] = s
    parts.append(seen[0])
    return parts


def verify_mono_cut(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> bool:
    """True iff removing ``cut`` leaves no component with leaves of both colours."""
    return 3 not in _part_colours(tree, a, cut)


def verify_colour_cut(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> bool:
    """True iff removing ``cut`` leaves every component with leaves of both colours."""
    return all(bits == 3 for bits in _part_colours(tree, a, cut))


# -- hard subsets (exponential rank growth) --------------------------------------


def construct_hard_subset(tree: Tree) -> frozenset[int]:
    """Leaf subset whose minimal monochromatic cut has >= floor(n/2) edges.

    Greedy cherry elimination, in ascending order of the cherries' smaller
    label: take a cherry of the tree restricted to L, the leaves left, put
    its smaller label in A and delete both leaves.  While |L| >= 4, those
    cherries are exactly the 2-leaf sets among ``s & L`` and ``L & ~s`` over
    the edge sides s.  A side meeting L in fewer than 2 leaves, or in more
    than |L| - 2, names none, and never will again as L shrinks.  On 2 or 3
    leaves the two smallest labels form the cherry.
    """
    left = tree._full_mask
    sides = [e.mask for e in tree.edges()]
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
