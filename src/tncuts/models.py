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
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .cuts import _cheapest_cut, _product_cut
from .trees import EdgeId, Tree, _parse_label, parse_tree


class _Frozen:
    """Slotted record whose fields only ``__init__`` sets: ``TnsModel``, ``oracle.DenseTensor``.

    Assigning or deleting a field raises AttributeError.  The repr lists
    the fields by name, ``TnsModel(tree=..., f=..., dims=...)``, and copies
    and pickles pass them to ``__init__`` again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by assigning fields
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class TnsModel(_Frozen):
    """A tree, a bond function f >= 1 on its edges and a dimension per leaf.

    Its fields cannot be reassigned, and it is equal only to itself: two
    models with the same fields are still two objects.
    """

    __slots__ = ("tree", "f", "dims")

    def __init__(self, tree: Tree, f: dict[EdgeId, int], dims: dict[int, int]):
        if set(f) != set(tree.edges()):
            raise ValueError("bond function must cover exactly the tree's edges")
        if any(v < 1 for v in f.values()):
            raise ValueError("bond function must be >= 1 everywhere")
        if set(dims) != set(range(1, tree.n + 1)):
            raise ValueError("dims must cover exactly the leaves 1..n")
        if any(d < 1 for d in dims.values()):
            raise ValueError("dims must be >= 1 everywhere")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "dims", dims)

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
        def edge(key: str) -> EdgeId:
            try:
                return tree.resolve_edge(EdgeId.from_key(key))
            except ValueError:
                raise ValueError(f"edge key {key!r} does not name an edge of the tree") from None

        f = _int_map(raw_f, edge, "edge")
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
        dims = _int_map(raw_dims, _parse_label, "leaf")
    else:
        raise ValueError('"dims" must be an object of integers')
    return TnsModel(tree, f, dims)


def _int_map(raw: Mapping, item: Callable[[str], Hashable], noun: str) -> dict:
    """The JSON object ``raw`` of integers keyed by ``item(key)``, the
    ``noun`` a key names; a value that is not an integer, a key ``item``
    refuses, or two keys naming one item raise ValueError."""
    out = {}
    keys = {}
    for key, value in raw.items():
        if not _is_int(value):
            raise ValueError(f"value for {noun} key {key!r} must be an integer")
        it = item(key)
        if it in keys:
            raise ValueError(f"{noun} keys {keys[it]!r} and {key!r} name the same {noun}")
        keys[it] = key
        out[it] = value
    return out


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


class RankPrediction(NamedTuple):
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
    tree = model.tree
    amask = tree.mask_of(a)
    if amask == 0 or amask == tree._full_mask:
        return RankPrediction(1, True, frozenset())
    product, witness = _product_cut(tree, amask, [model.f[e] for e in tree.edges()])
    r = model.is_constant()
    exact = r is not None and all(r <= d for d in model.dims.values())
    return RankPrediction(product, exact, witness)


# -- optimal bond function -----------------------------------------------------


def _clamped_bonds(model: TnsModel) -> list[int]:
    """Bonds in canonical edge order, each leaf edge's clamped by its leaf's dimension.

    Leaf i's edge is ``edges()[i - 1]``, and on 2 leaves both leaves
    share edge 0 (see ``Tree``).
    """
    bonds = [model.f[e] for e in model.tree.edges()]
    for leaf, d in model.dims.items():
        i = min(leaf, len(bonds)) - 1
        bonds[i] = min(bonds[i], d)
    return bonds


def generic_rank(model: TnsModel, a: Iterable[int]) -> RankPrediction:
    """Flattening rank of a generic tensor of the model at the leaf subset ``a``.

    Always exact: the value is the cheapest monochromatic cut over the
    bonds clamped at the leaves (``_clamped_bonds``), and the witness is a
    cut attaining it.  No tensor of the model has a larger rank there
    (cutting the leaf edges of A, or of its complement, keeps the value
    within min(rows, cols) as well), and a generic one attains it: the
    paper's main result, an algorithm for the generic flattening rank at
    any flattening.  Generic means outside a
    proper algebraic subset of the cores over an infinite field; the exact
    oracle (``estimate_generic_rank``) draws random cores over GF(p)
    instead, and acceptance criterion 13 checks that it meets this value.
    Unlike ``predict_rank``, which reads the raw bonds, this holds for any
    bond function and any leaf dimensions.
    """
    product, witness = _product_cut(model.tree, model.tree.mask_of(a), _clamped_bonds(model))
    return RankPrediction(product, True, witness)


def optimalize(model: TnsModel) -> TnsModel:
    """Smallest pointwise bond function defining the same set of tensors.

    Edge e gets h(e), its own bipartition's cheapest cut over the bonds g
    clamped at the leaves (``generic_rank`` there).  h is the fixed point
    f* of clamping each edge by its bipartition's cheapest cut and by the
    dimension products of its two sides:

    - f* >= h: clamping keeps f >= h.  Cutting e alone, or the leaf edges
      of a side, is a cut; and for any cut C of a side, cheapest cuts over
      g of the sides of each c in C together cut that side, so its cost
      over g is at most the product of h, hence of f, over C.
    - f* <= h: f* <= g pointwise, and f*(e) is at most its bipartition's
      cheapest cut over f*.

    Idempotent, never increases f, never drops below 1.  It is the
    ``required`` column of ``compare_models(model, model)``: the smallest
    bond function on the same tree whose model still contains this one.
    """
    f = {check.edge: check.required for check in compare_models(model, model).edges}
    return TnsModel(model.tree, f, dict(model.dims))


# -- model comparison -----------------------------------------------------------


class EdgeCheck(NamedTuple):
    edge: EdgeId
    required: int
    actual: int
    ok: bool


class ComparisonReport(NamedTuple):
    """Per-edge test of whether one model's tensors all lie in another.

    Each edge's ``required`` bond is the largest flattening rank of the
    first model's tensors at the leaf set that the edge cuts off: the
    cheapest cut over the first model's bonds clamped at the leaves
    (``generic_rank``), which its generic tensors attain.  Every tensor of
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
            "edges": [{**c._asdict(), "edge": c.edge.key} for c in self.edges],
        }


def compare_models(m1: TnsModel, m2: TnsModel) -> ComparisonReport:
    """Decide, edge by edge, whether m2 contains every tensor of m1.

    For each edge of m2's tree the required bond is m1's ``generic_rank``
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
    bonds = _clamped_bonds(m1)
    checks = []
    for eid, side in zip(m2.tree.edges(), m2.tree._edge_sides):
        required = _cheapest_cut(m1.tree, side, bonds)
        checks.append(EdgeCheck(eid, required, m2.f[eid], m2.f[eid] >= required))
    witness = next((c.edge for c in checks if not c.ok), None)
    return ComparisonReport(tuple(checks), witness is None, witness)
