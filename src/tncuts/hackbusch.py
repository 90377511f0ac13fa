"""Tensor-train versus balanced-tree bond growth.

For a tree whose leaf order matters, the interval exponent is the largest
minimal monochromatic cut over the prefix subsets {1..j}.  It tells how
much a train-track (caterpillar) bond must grow to hold every tensor of
the balanced model: bond r^k suffices, r^k - 1 does not.  The landmarks
a_k = 4^0 + ... + 4^k mark where the exponent of the balanced family jumps.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple, Sequence

from .cuts import _mono_sizes
from .rng import CounterRng
from .trees import LandmarkMismatchError, Tree, build_almost_perfect_binary


def a_seq(k: int) -> int:
    """Landmark leaf counts: a_0 = 0, a_k = sum of 4^i for i = 0..k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0
    return (4 ** (k + 1) - 1) // 3


def landmark_index(n: int) -> int:
    """Smallest k >= 1 with n <= a_k."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = 1
    while a_seq(k) < n:
        k += 1
    return k


class ExponentResult(NamedTuple):
    k: int
    witness_j: int


def _prefix_exponent(tree: Tree, order: Sequence[int]) -> ExponentResult:
    """tt_exponent over the prefixes of ``order``, a list of leaf vertices (label - 1)."""
    sizes = list(_mono_sizes(tree, order[: tree.n - 1]))
    best = max(sizes)
    return ExponentResult(best, sizes.index(best) + 1)


def tt_exponent(tree: Tree) -> ExponentResult:
    """Largest minimal monochromatic cut over prefixes {1..j}, 1 <= j < n.

    The leaf labelling is the ordering.  witness_j is the smallest j
    attaining the maximum.
    """
    return _prefix_exponent(tree, range(tree.n))


class PermScanResult(NamedTuple):
    k_min: int
    witness: tuple[int, ...]


def min_exponent_over_permutations(
    tree: Tree,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
) -> PermScanResult:
    """Minimum interval exponent over relabellings of the leaves.

    mode "exhaustive" scans all n! permutations (n <= 8 only); "sampled"
    tries ``trials`` random permutations from the seeded generator.
    witness[i-1] is the new label of the leaf currently labelled i.

    A prefix's minimal monochromatic cut depends only on its leaf set, so
    the exhaustive scan first tabulates the cut size of all 2^n leaf masks
    and then reads every prefix of every order from that table.  It walks
    the masks in Gray-code order: mask i ^ (i >> 1) is the one before it
    with leaf (i & -i).bit_length() - 1 flipped, one root-path update of
    the cut DP per mask.  A sampled order instead takes one root-path
    update per prefix.
    """
    n = tree.n
    if mode == "exhaustive":
        if n > 8:
            raise ValueError("exhaustive permutation scan is limited to n <= 8")
        candidates = permutations(range(1, n + 1))
        sizes = [0] * (1 << n)
        steps = range(1, 1 << n)
        for i, size in zip(steps, _mono_sizes(tree, [(i & -i).bit_length() - 1 for i in steps])):
            sizes[i ^ (i >> 1)] = size

        def exponent(order):
            k = mask = 0
            for v in order[:-1]:
                mask |= 1 << v
                if sizes[mask] > k:
                    k = sizes[mask]
            return k
    elif mode == "sampled":
        if trials < 1:
            raise ValueError("need at least one trial")
        rng = CounterRng(seed)

        def sample():
            for _ in range(trials):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                yield tuple(perm)

        candidates = sample()

        def exponent(order):
            return _prefix_exponent(tree, order).k
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best: int | None = None
    witness: tuple[int, ...] | None = None
    for perm in candidates:
        # tt_exponent(relabel(tree, perm)): the relabelled prefix {1..j} is the set
        # of leaves with new labels <= j, and cut sizes do not depend on labels.
        k = exponent(sorted(range(n), key=perm.__getitem__))
        if best is None or k < best:
            best, witness = k, perm
            if best == 1:
                break  # nonempty proper prefixes always need one cut
    return PermScanResult(best, witness)


class Verdict(NamedTuple):
    """Bond growth verdict for the balanced model on n leaves at bond r."""

    n: int
    r: int
    k: int
    witness_j: int
    inclusion_bond: int
    exclusion_bond: int

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "inclusion": f"HT({self.n},{self.r}) ⊆ TT({self.n},{self.inclusion_bond})",
            "exclusion": f"HT({self.n},{self.r}) ⊄ TT({self.n},{self.exclusion_bond})",
        }


def hackbusch_verdict(n: int, r: int) -> Verdict:
    """Exponent of the balanced tree on n leaves, checked against landmarks.

    Every interval flattening of a balanced-model tensor has rank at most
    r^k, so the train-track model with bond r^k contains it; at witness_j
    the generic rank is exactly r^k, so bond r^k - 1 does not suffice.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if r < 2:
        raise ValueError("need r >= 2")
    k, witness_j = tt_exponent(build_almost_perfect_binary(n))
    expected = landmark_index(n)
    if k != expected:
        raise LandmarkMismatchError(
            f"exponent {k} for n={n} falls outside the landmark interval "
            f"(expected {expected}); the balanced construction does not match"
        )
    return Verdict(n, r, k, witness_j, r**k, r**k - 1)
