"""Monochromatic cuts, colour cuts, and min-product cuts on bicoloured trees.

A leaf subset A two-colours the leaves.  A monochromatic cut is an edge set
whose removal leaves every component's leaves single-coloured (components
without leaves are unconstrained); a colour cut leaves every component with
at least one leaf of each colour.  Minimum/maximum sizes are computed by a
two-pass dynamic program over the rooted orientation: a cost pass from the
leaves up, then a witness walk from the root down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .trees import EdgeId, Tree


@dataclass(frozen=True)
class CutResult:
    """A cut size (None = no such cut exists) plus one witness achieving it."""

    size: int | None
    witness: frozenset[EdgeId]


@dataclass(frozen=True)
class ProductCut:
    """Exact minimum of prod f(e) over monochromatic cuts, with a witness."""

    product: int
    witness: frozenset[EdgeId]


# -- the monochromatic-cut DP ------------------------------------------------
#
# One DP serves both minimisations.  Weighted by f it minimises prod f(e)
# over monochromatic cuts; with weight 2 on every edge the cheapest product
# is 2**size of the smallest cut, and 2**x is strictly increasing, so every
# comparison and tie comes out as it would when counting edges.


def _cut_costs(tree: Tree, amask: int, weights: list[int]) -> tuple[list[int], list[int]]:
    # c0[v] / c1[v]: cheapest product of cut weights below v, given that v's
    # component is coloured 0 (outside A) or 1 (inside A).  A leaf's other
    # colour costs more than any single weight, which is all a parent
    # compares it with; at the root (leaf 1) only its own colour is read.
    c0 = [1] * tree.num_vertices
    c1 = [1] * tree.num_vertices
    forbidden = max(weights) + 1
    n = tree.n
    in_a = bin(amask)[:1:-1].ljust(n, "0")  # in_a[i] == "1": leaf i + 1 is in A
    children = tree._children
    for v in tree._postorder:
        if v < n:
            b0, b1 = (forbidden, 1) if in_a[v] == "1" else (1, forbidden)
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
    return c0, c1


def _cut_witness(
    tree: Tree, amask: int, weights: list[int], c0: list[int], c1: list[int]
) -> frozenset[EdgeId]:
    # On ties prefer keeping the edge, which pushes cuts towards the leaves.
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
    return frozenset(tree._edge_ids[i] for i in cut_edges)


def _min_mono_size(tree: Tree, amask: int) -> int:
    if amask == 0 or amask == tree._full_mask:
        return 0
    c0, c1 = _cut_costs(tree, amask, [2] * len(tree._edge_ids))
    return (c1[0] if amask & 1 else c0[0]).bit_length() - 1


def min_mono_cut(tree: Tree, a: Iterable[int]) -> CutResult:
    """Minimum edge set whose removal leaves every component monochromatic."""
    amask = tree.mask_of(a)
    if amask == 0 or amask == tree._full_mask:
        return CutResult(0, frozenset())
    weights = [2] * len(tree._edge_ids)
    c0, c1 = _cut_costs(tree, amask, weights)
    cost = c1[0] if amask & 1 else c0[0]
    return CutResult(cost.bit_length() - 1, _cut_witness(tree, amask, weights, c0, c1))


def _check_edge_function(tree: Tree, f: Mapping[EdgeId, int]) -> list[int]:
    values = []
    for eid in tree.edges():
        if eid not in f:
            raise ValueError(f"edge function is missing edge {eid}")
        v = f[eid]
        if v < 1:
            raise ValueError(f"edge function must be >= 1 everywhere, got {v} at {eid}")
        values.append(v)
    return values


def min_product_cut(tree: Tree, a: Iterable[int], f: Mapping[EdgeId, int]) -> ProductCut:
    """Minimise prod f(e) over monochromatic cuts for A, exactly."""
    fvals = _check_edge_function(tree, f)
    amask = tree.mask_of(a)
    if amask == 0 or amask == tree._full_mask:
        return ProductCut(1, frozenset())
    c0, c1 = _cut_costs(tree, amask, fvals)
    product = c1[0] if amask & 1 else c0[0]
    return ProductCut(product, _cut_witness(tree, amask, fvals, c0, c1))


# -- maximum colour cut ------------------------------------------------------


def max_colour_cut(tree: Tree, a: Iterable[int]) -> CutResult:
    """Maximum edge set whose removal leaves every component bicoloured.

    Returns size None when A or its complement is empty (no colour cut
    exists, not even the empty one).
    """
    amask = tree.mask_of(a)
    if amask == 0 or amask == tree._full_mask:
        return CutResult(None, frozenset())
    n = tree.n
    # state bits: 1 = component seen an A leaf, 2 = seen a non-A leaf
    states: list[dict[int, int] | None] = [None] * tree.num_vertices
    choices: list[list[dict[int, tuple[int, int, bool]]]] = [[] for _ in range(tree.num_vertices)]
    for v in tree._postorder:
        if v < n:
            acc = {1 if (amask >> v) & 1 else 2: 0}
        else:
            acc = {0: 0}
        tables = choices[v]
        for u, _ in tree._children[v]:
            child = states[u]
            cut_gain = child.get(3)
            table: dict[int, tuple[int, int, bool]] = {}
            nxt: dict[int, int] = {}
            for ps in sorted(acc):
                pg = acc[ps]
                if cut_gain is not None:
                    g = pg + cut_gain + 1
                    if g > nxt.get(ps, -1):
                        nxt[ps] = g
                        table[ps] = (ps, 3, True)
                for cs in sorted(child):
                    rs = ps | cs
                    g = pg + child[cs]
                    if g > nxt.get(rs, -1):
                        nxt[rs] = g
                        table[rs] = (ps, cs, False)
            acc = nxt
            tables.append(table)
        states[v] = acc
    best = states[0].get(3)
    if best is None:
        return CutResult(None, frozenset())
    cut_edges = []
    stack = [(0, 3)]
    while stack:
        v, s = stack.pop()
        kids = tree._children[v]
        tables = choices[v]
        for i in range(len(kids) - 1, -1, -1):
            ps, cs, was_cut = tables[i][s]
            u, ei = kids[i]
            if was_cut:
                cut_edges.append(ei)
                stack.append((u, 3))
            else:
                stack.append((u, cs))
            s = ps
    return CutResult(best, frozenset(tree._edge_ids[i] for i in cut_edges))


# -- verification -------------------------------------------------------------


def _component_flags(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]):
    amask = tree.mask_of(a)
    cut_idx = {tree._edge_pos[tree.resolve_edge(eid)] for eid in cut}
    parent = list(range(tree.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(tree._edge_ends):
        if i not in cut_idx:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    flags: dict[int, list[bool]] = {}
    for v in range(tree.num_vertices):
        flags.setdefault(find(v), [False, False])
    for leaf in range(tree.n):
        flag = flags[find(leaf)]
        flag[1 if (amask >> leaf) & 1 else 0] = True
    return flags


def verify_mono_cut(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> bool:
    """True iff removing ``cut`` leaves no component with leaves of both colours."""
    flags = _component_flags(tree, a, cut)
    return all(not (has_b and has_a) for has_b, has_a in flags.values())


def verify_colour_cut(tree: Tree, a: Iterable[int], cut: Iterable[EdgeId]) -> bool:
    """True iff removing ``cut`` leaves every component with leaves of both colours."""
    flags = _component_flags(tree, a, cut)
    return all(has_b and has_a for has_b, has_a in flags.values())
