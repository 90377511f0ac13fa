"""Exact rank oracle: random tensors from a model over a prime field.

Sampling assigns every inner vertex a random core (one axis per incident
edge) and every leaf a random matrix into its physical space, then
contracts leaf-to-root, each subtree as one matrix from its parent bond to
its leaves, as in the Hierarchical Tucker format.  All arithmetic is exact in GF(p), so flattening
ranks are true ranks with no thresholds; a large prime stands in for
genericity with failure probability on the order of (matrix size)/p.

A draw depends only on the tree, the clamped bonds, the leaf dimensions, the
seed and p, and callers ask for the same few draws over and over (one per
trial for every subset of a model).  So sampled tensors are shared and
read-only: a repeated draw returns the tensor drawn before, from a
least-recently-used memo that holds at most ``_SAMPLE_MEMO_BYTES`` (4 MiB)
of tensor data.  A lock guards the memo, not the draw, so the sampler is
safe to call from several threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import accumulate
from math import prod
from typing import Iterable

import numpy as np

from .cuts import _cheapest_cut
from .fieldmath import DEFAULT_PRIME, SIZE_CAP, _eliminate, _rank_buffer, matmul_mod, validate_prime
from .models import TnsModel, _clamped_bonds, _Frozen
from .rng import CounterRng, derive_seed
from .trees import SizeCapError, Tree

_MAX_AXES = 64  # numpy (>= 2.0) supports at most 64 array axes


class DenseTensor(_Frozen):
    """Dense multi-index array over GF(p), axes ordered by leaf label.

    Its fields cannot be reassigned, and it is equal only to itself.  The
    entries are checked to lie in [0, p) once, here, and ``data`` is a
    read-only view of the given array, which the caller must not change
    afterwards either: ``flattening_rank`` relies on the check and does
    not reduce the entries again.
    """

    __slots__ = ("data", "p")

    def __init__(self, data: np.ndarray, p: int):
        if data.dtype != np.int64:
            raise ValueError("tensor entries must be int64 residues")
        if data.size and (data.min() < 0 or data.max() >= p):
            raise ValueError("tensor entries must lie in [0, p)")
        data = data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "p", p)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def n(self) -> int:
        return self.data.ndim

    def is_zero(self) -> bool:
        return not self.data.any()


# Sampled tensors by draw key, least recently used first; their data holds
# at most _SAMPLE_MEMO_BYTES bytes, and a tensor larger than that is never kept.
_SAMPLE_MEMO_BYTES = 1 << 22
_sample_memo: OrderedDict[tuple, DenseTensor] = OrderedDict()
_sample_memo_bytes = 0
_sample_memo_lock = threading.Lock()


def _clear_sample_memo() -> None:
    global _sample_memo_bytes
    with _sample_memo_lock:
        _sample_memo.clear()
        _sample_memo_bytes = 0


def _remember(key: tuple, t: DenseTensor) -> None:
    global _sample_memo_bytes
    size = t.data.nbytes
    if size > _SAMPLE_MEMO_BYTES:
        return
    with _sample_memo_lock:
        if key in _sample_memo:  # another thread drew it meanwhile
            return
        _sample_memo[key] = t
        _sample_memo_bytes += size
        while _sample_memo_bytes > _SAMPLE_MEMO_BYTES:
            _sample_memo_bytes -= _sample_memo.popitem(last=False)[1].data.nbytes


def sample_tns_tensor(model: TnsModel, seed: int = 0, p: int = DEFAULT_PRIME) -> DenseTensor:
    """Random tensor of the model, deterministic in (model, seed, p).

    Cores are drawn for inner vertices in canonical order, then leaf
    matrices in label order; the draw order is part of the frozen scheme.
    The returned tensor is shared and read-only (writing into its data
    raises ValueError): a repeated draw, keyed by the tree, the clamped
    bonds, the leaf dimensions, the seed and p, returns the same tensor
    while it stays within the memo's byte budget.
    """
    return _sample(model, _clamped_bonds(model), seed, p)


def _sample(model: TnsModel, bonds: list[int], seed: int, p: int) -> DenseTensor:
    """``sample_tns_tensor`` given the model's clamped bonds."""
    validate_prime(p)
    n = model.tree.n
    if n > _MAX_AXES:
        raise SizeCapError(f"a dense tensor on {n} leaves exceeds numpy's cap of {_MAX_AXES} axes")
    dims = model.shape()
    total = prod(dims)
    if total > SIZE_CAP:
        raise SizeCapError(f"dense tensor of {total} entries exceeds the cap of {SIZE_CAP}")
    key = (model.tree, tuple(bonds), dims, seed, p)
    with _sample_memo_lock:
        t = _sample_memo.get(key)
        if t is not None:
            _sample_memo.move_to_end(key)
            return t
    t = _draw(model.tree, bonds, dims, seed, p)
    _remember(key, t)
    return t


def _draw(tree: Tree, bonds: list[int], dims: tuple[int, ...], seed: int, p: int) -> DenseTensor:
    """The sampler proper: a fresh read-only tensor, no memo."""
    n = tree.n
    core_edges = [
        sorted([tree._parent_edge[v], *(ei for _, ei in tree._children[v])]) for v in range(n, tree.num_vertices)
    ]
    shapes = [tuple(bonds[i] for i in edge_idx) for edge_idx in core_edges]
    # leaf vertex v's edge is edge v, and on 2 leaves both share edge 0 (see Tree)
    shapes += [(dims[leaf], bonds[min(leaf, len(bonds) - 1)]) for leaf in range(n)]
    sizes = [prod(shape) for shape in shapes]
    if sum(sizes) > SIZE_CAP:
        raise SizeCapError(f"drawing {sum(sizes)} entries exceeds the cap of {SIZE_CAP}")
    # One draw sliced in the frozen order: residues(a) then residues(b)
    # gives exactly the values of residues(a + b).
    block = CounterRng(seed).residues(sum(sizes), p)
    parts = [
        block[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, accumulate(sizes))
    ]
    leaf_mats = parts[len(core_edges) :]

    # Leaf to root: each subtree is a matrix with its parent bond as rows and
    # its leaves as columns, flattened in the order listed in ``labels``.
    subtree = {leaf: (leaf_mats[leaf].T, [leaf + 1]) for leaf in range(1, n)}
    for v in [v for v in tree._postorder if v >= n]:
        (c1, e1), (c2, e2) = tree._children[v]
        (m1, l1), (m2, l2) = subtree.pop(c1), subtree.pop(c2)
        # core axes (parent, e2, e1): rows (parent, e2) times the leaves of c1,
        # then rows (parent, leaves of c1) times the leaves of c2
        core = parts[v - n].transpose([core_edges[v - n].index(ei) for ei in (tree._parent_edge[v], e2, e1)])
        arr = matmul_mod(core.reshape(-1, len(m1)), m1, p)
        arr = arr.reshape(len(core), len(m2), -1).transpose(0, 2, 1).reshape(-1, len(m2))
        subtree[v] = (matmul_mod(arr, m2, p).reshape(len(core), -1), l1 + l2)
    arr, labels = subtree.pop(tree._children[0][0][0])
    data = matmul_mod(leaf_mats[0], arr, p).reshape([dims[lab - 1] for lab in [1] + labels])
    return DenseTensor(np.ascontiguousarray(np.transpose(data, np.argsort([1] + labels))), p)


def flattening_rank(t: DenseTensor, a: Iterable[int]) -> int:
    """Exact rank of the matrix with A-leaf indices as rows.

    Both sides are sized from the tensor's shape, and the shorter one
    becomes the rows (the rank is the same on the transpose).  The
    flattening is then one copy, straight from the transposed tensor into
    the buffer that ``_eliminate`` works on in place: ``DenseTensor``
    checked that the entries lie in [0, p), so nothing is reduced, and the
    tensor is left as it was.
    A side with no leaves (A empty, or every leaf) has one row, so the
    rank is 1 for a nonzero tensor and 0 for a zero one; a zero-length
    axis on either side gives rank 0.  More than RANK_WORK_CAP
    multiply-adds raise SizeCapError before the copy.
    """
    labels = set(a)
    for lab in labels:
        if not 1 <= lab <= t.n:
            raise ValueError(f"unknown leaf label {lab}")
    rows = sorted(lab - 1 for lab in labels)
    cols = [i for i in range(t.n) if i + 1 not in labels]
    m, k = prod(t.shape[i] for i in rows), prod(t.shape[i] for i in cols)
    if m > k:
        rows, cols, m, k = cols, rows, k, m
    buf = _rank_buffer(m, k, t.p)
    np.copyto(buf.reshape([t.shape[i] for i in rows + cols]), np.transpose(t.data.view(np.uint64), rows + cols))
    return _eliminate(buf, t.p)


def estimate_generic_rank(
    model: TnsModel,
    a: Iterable[int],
    trials: int = 3,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> int:
    """Max flattening rank over at most ``trials`` independently seeded samples.

    A lower bound for the generic rank that meets it with overwhelming
    probability; trial i uses the derived seed ``derive_seed(seed, i)``.
    Sampling stops early once a trial attains the min-product cut of the
    optimalised model (over the clamped bonds the sampler uses): no tensor
    of the model has a larger rank, so the remaining trials could not raise
    the maximum and the result equals the max over all ``trials`` samples.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    labels = frozenset(a)
    bonds = _clamped_bonds(model)
    # Exact equality: a wrong bound that no trial meets runs every trial.
    bound = _cheapest_cut(model.tree, model.tree.mask_of(labels), bonds)
    best = 0
    for i in range(trials):
        t = _sample(model, bonds, derive_seed(seed, i), p)
        best = max(best, flattening_rank(t, labels))
        if best == bound:
            break
    return best


def check_membership(t: DenseTensor, model: TnsModel) -> bool:
    """Edge characterisation: every edge flattening rank within its bond."""
    if t.shape != model.shape():
        raise ValueError(f"tensor shape {t.shape} does not match model dims {model.shape()}")
    tree = model.tree
    return all(
        flattening_rank(t, tree.leaves_left_of(eid)) <= model.f[eid] for eid in tree.edges()
    )


def kron(t1: DenseTensor, t2: DenseTensor) -> DenseTensor:
    """Outer product; t2's leaves follow t1's, shifted by t1.n.

    Flattening ranks multiply across the two factors.
    """
    if t1.p != t2.p:
        raise ValueError("tensors must share the same prime")
    if t1.data.size * t2.data.size > SIZE_CAP:
        raise SizeCapError("outer product exceeds the size cap")
    data = np.multiply.outer(t1.data, t2.data) % t1.p
    return DenseTensor(data, t1.p)
