"""Tree tensor-network models given by per-edge bond bounds.

A model is a tree, a bond function f >= 1 on its edges, and a physical
dimension per leaf.  The generic flattening rank of the model at a leaf
subset A is governed by the cheapest monochromatic cut for A, which is
what predict_rank computes.  Over the bonds clamped at each leaf edge by
its leaf's dimension, that cut is the oracle's stopping bound, and at
each edge's own bipartition it is the optimal bond (optimalize).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .cuts import _cheapest_cut, min_product_cut
from .trees import EdgeId, Tree, parse_tree


@dataclass(frozen=True, eq=False)
class TnsModel:
    tree: Tree
    f: dict[EdgeId, int]
    dims: dict[int, int]

    def __post_init__(self):
        edges = set(self.tree.edges())
        if set(self.f) != edges:
            raise ValueError("bond function must cover exactly the tree's edges")
        if any(v < 1 for v in self.f.values()):
            raise ValueError("bond function must be >= 1 everywhere")
        if set(self.dims) != set(range(1, self.tree.n + 1)):
            raise ValueError("dims must cover exactly the leaves 1..n")
        if any(d < 1 for d in self.dims.values()):
            raise ValueError("dims must be >= 1 everywhere")

    @classmethod
    def constant(cls, tree: Tree, r: int, dims: Mapping[int, int] | int | None = None) -> "TnsModel":
        """Model with f identically r; dims default to r on every leaf."""
        if dims is None:
            dims = r
        if isinstance(dims, int):
            dims = {lab: dims for lab in range(1, tree.n + 1)}
        return cls(tree, {e: r for e in tree.edges()}, dict(dims))

    def is_constant(self) -> int | None:
        """The constant value of f, or None if f is not constant."""
        values = set(self.f.values())
        return values.pop() if len(values) == 1 else None

    def shape(self) -> tuple[int, ...]:
        return tuple(self.dims[lab] for lab in range(1, self.tree.n + 1))

    def to_json_dict(self) -> dict:
        return {
            "tree": self.tree.serialize(),
            "f": {e.key: self.f[e] for e in self.tree.edges()},
            "dims": {str(lab): self.dims[lab] for lab in range(1, self.tree.n + 1)},
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def model_from_json_dict(data: Mapping) -> TnsModel:
    """Build a model from the JSON object form.

    "f" may be a scalar (constant function); "dims" may be omitted when f
    is constant, defaulting every leaf to that constant.  Malformed input
    raises ValueError.
    """
    if not isinstance(data, Mapping):
        raise ValueError("model file must hold a JSON object")
    text = data.get("tree")
    if text is None:
        raise ValueError('model file needs a "tree" entry')
    if not isinstance(text, str):
        raise ValueError('"tree" must be a string')
    tree = parse_tree(text)
    raw_f = data.get("f")
    if raw_f is None:
        raise ValueError('model file needs an "f" entry')
    if _is_int(raw_f):
        f = {e: raw_f for e in tree.edges()}
    elif isinstance(raw_f, Mapping):
        f = {}
        edge_keys: dict[EdgeId, str] = {}
        for key, value in raw_f.items():
            try:
                eid = tree.resolve_edge(EdgeId.from_key(key))
            except ValueError:
                raise ValueError(f"edge key {key!r} does not name an edge of the tree") from None
            if eid in edge_keys:
                raise ValueError(f"edge keys {edge_keys[eid]!r} and {key!r} name the same edge")
            if not _is_int(value):
                raise ValueError(f"bond value for {key!r} must be an integer")
            edge_keys[eid] = key
            f[eid] = value
    else:
        raise ValueError('"f" must be an integer or an object of integers')
    raw_dims = data.get("dims")
    if raw_dims is None:
        values = set(f.values())
        if len(values) != 1:
            raise ValueError('"dims" may only be omitted when f is constant')
        constant = values.pop()
        dims = {lab: constant for lab in range(1, tree.n + 1)}
    elif isinstance(raw_dims, Mapping):
        dims = {}
        leaf_keys: dict[int, str] = {}
        for key, value in raw_dims.items():
            if not _is_int(value):
                raise ValueError(f"dimension for leaf {key!r} must be an integer")
            leaf = int(key)
            if leaf in leaf_keys:
                raise ValueError(f"leaf keys {leaf_keys[leaf]!r} and {key!r} name the same leaf")
            leaf_keys[leaf] = key
            dims[leaf] = value
    else:
        raise ValueError('"dims" must be an object of integers')
    return TnsModel(tree, f, dims)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: reject an object that repeats a literal key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"model file repeats the key {key!r}")
        obj[key] = value
    return obj


def load_model(path) -> TnsModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("model file is nested too deeply") from None
    return model_from_json_dict(data)


# -- rank prediction ---------------------------------------------------------


@dataclass(frozen=True)
class RankPrediction:
    """Predicted flattening rank: exact generic value or an upper bound."""

    value: int
    exact: bool
    witness: frozenset[EdgeId]


def predict_rank(model: TnsModel, a: Iterable[int]) -> RankPrediction:
    """Flattening-rank prediction for the leaf subset ``a``.

    Exact (generic) when f is constant with value at most every leaf
    dimension; otherwise the value is an upper bound for every tensor in
    the model.
    """
    amask = model.tree.mask_of(a)
    if amask == 0 or amask == model.tree._full_mask:
        return RankPrediction(1, True, frozenset())
    cut = min_product_cut(model.tree, model.tree.labels_of_mask(amask), model.f)
    r = model.is_constant()
    exact = r is not None and all(r <= d for d in model.dims.values())
    return RankPrediction(cut.product, exact, cut.witness)


# -- optimal bond function -----------------------------------------------------


def _clamped_bonds(model: TnsModel) -> list[int]:
    """Bonds in canonical edge order, each leaf edge's clamped by its leaf's dimension."""
    tree = model.tree
    bonds = []
    for eid, (u, v) in zip(tree.edges(), tree._edge_ends):
        bond = model.f[eid]
        for end in (u, v):
            if end < tree.n:
                bond = min(bond, model.dims[end + 1])
        bonds.append(bond)
    return bonds


def _cut_bound(model: TnsModel, amask: int) -> int:
    """Cheapest monochromatic cut product for the leaf mask over the clamped bonds.

    Every tensor of the model has flattening rank at most this.  Cutting the
    leaf edges of A, or of its complement, shows that it is at most
    min(rows, cols) as well.
    """
    return _cheapest_cut(model.tree, amask, _clamped_bonds(model))


def optimalize(model: TnsModel) -> TnsModel:
    """Smallest pointwise bond function defining the same set of tensors.

    Edge e gets h(e) = ``_cut_bound`` of its own bipartition, the cheapest
    cut over the bonds g clamped at the leaves.  h is the fixed point f* of
    clamping each edge by its bipartition's cheapest cut and by the
    dimension products of its two sides:

    - f* >= h: clamping keeps f >= h.  Cutting e alone, or the leaf edges
      of a side, is a cut; and for any cut C of a side, cheapest cuts over
      g of the sides of each c in C together cut that side, so its cost
      over g is at most the product of h, hence of f, over C.
    - f* <= h: f* <= g pointwise, and f*(e) is at most its bipartition's
      cheapest cut over f*.

    Idempotent, never increases f, never drops below 1.
    """
    tree = model.tree
    bonds = _clamped_bonds(model)
    f = {eid: _cheapest_cut(tree, side, bonds) for eid, side in zip(tree.edges(), tree._edge_sides)}
    return TnsModel(tree, f, dict(model.dims))


# -- model comparison -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeCheck:
    edge: EdgeId
    required: int
    actual: int
    ok: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-edge test of whether one model's tensors all lie in another.

    Each edge's ``required`` bond is the largest flattening rank of the
    first model's tensors at the leaf set that the edge cuts off: the
    cheapest cut over the first model's bonds clamped at the leaves
    (``_cut_bound``), which its generic tensors attain.  Every tensor of
    the second model has rank at most ``actual`` there, so a failing edge
    is a proof of non-inclusion.  The test is exact: a tensor lies in a
    tree model exactly when each edge's flattening rank is at most that
    edge's bond (Hackbusch and Kühn, J. Fourier Anal. Appl. 2009; Falcó
    and Hackbusch, Found. Comput. Math. 2012), so ``passed``, every edge
    meeting its requirement, holds exactly when the first model is
    contained in the second.  The JSON ``note`` still reads "necessary
    condition", as the documented outputs print it.
    """

    edges: tuple[EdgeCheck, ...]
    passed: bool
    witness: EdgeId | None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "witness": self.witness.key if self.witness else None,
            "note": "necessary condition for inclusion of the first model in the second; passing does not prove inclusion",
            "edges": [
                {"edge": c.edge.key, "required": c.required, "actual": c.actual, "ok": c.ok}
                for c in self.edges
            ],
        }


def compare_models(m1: TnsModel, m2: TnsModel) -> ComparisonReport:
    """Decide, edge by edge, whether m2 contains every tensor of m1.

    For each edge of m2's tree the required bond is ``_cut_bound`` of m1
    at the leaf subset that the edge cuts out of m2: m1's cheapest cut over
    its bonds clamped by the leaf dimensions, not over its raw f, which can
    exceed what the dimensions allow.  m1's generic tensor attains every
    required bond at once, and m2 holds exactly the tensors whose edge
    flattening ranks stay within its bonds, so the report passes exactly
    when m1 is contained in m2.
    """
    if m1.tree.n != m2.tree.n:
        raise ValueError("models must share the same leaf set")
    if m1.dims != m2.dims:
        raise ValueError("models must have identical leaf dimensions")
    bonds = _clamped_bonds(m1)  # _cut_bound(m1, side), with the bonds clamped once
    checks = []
    for eid, side in zip(m2.tree.edges(), m2.tree._edge_sides):
        required = _cheapest_cut(m1.tree, side, bonds)
        checks.append(EdgeCheck(eid, required, m2.f[eid], m2.f[eid] >= required))
    witness = next((c.edge for c in checks if not c.ok), None)
    return ComparisonReport(tuple(checks), witness is None, witness)


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
