"""Acceptance suite: every criterion at its stated tolerance.

Each criterion is one test that prints a single PASS line (visible with
`pytest -s`).  All randomness is seeded; the suite is deterministic.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cut_oracle import brute_force_min_mono
from tncuts import (
    CounterRng,
    TnsModel,
    all_binary_trees,
    build_almost_perfect_binary,
    check_membership,
    complement,
    construct_hard_subset,
    estimate_generic_rank,
    flattening_rank,
    kron,
    max_colour_cut,
    min_exponent_over_permutations,
    min_mono_cut,
    optimalize,
    parse_tree,
    predict_rank,
    random_binary_tree,
    relabel,
    sample_tns_tensor,
    tree_shapes,
    tt_exponent,
    verify_colour_cut,
    verify_mono_cut,
)
from tncuts.models import _cut_bound
from tncuts.rng import derive_seed

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EX12 = parse_tree("((((1,2),3),((4,5),6)),(((7,8),9),((10,11),12)))")
A12 = frozenset({1, 4, 8, 9, 11, 12})

RANDOM_TREE_SEED = 101
BOUND_SEED = 202
KRON_SEED = 303
OPT_SEED = 404
GROWTH_SEED = 505
GENERIC_SEED = 606
RETRY_SEED = 424242


def subset_from_bits(n: int, bits: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(n) if (bits >> i) & 1)


# ---------------------------------------------------------------- criteria 1+2


@pytest.fixture(scope="module")
def cut_corpus():
    """DP vs brute force plus the size offset, over the full stated corpus."""
    stats = {
        "pairs": 0,
        "dp_vs_brute_fails": 0,
        "offset_fails": 0,
        "witness_fails": 0,
    }

    def check(tree, a):
        mono = min_mono_cut(tree, a)
        colour = max_colour_cut(tree, a)
        stats["pairs"] += 1
        if mono.size != brute_force_min_mono(tree, a):
            stats["dp_vs_brute_fails"] += 1
        if a and len(a) < tree.n:
            if mono.size != colour.size + 1:
                stats["offset_fails"] += 1
            if len(colour.witness) != colour.size or not verify_colour_cut(tree, a, colour.witness):
                stats["witness_fails"] += 1
        else:
            if mono.size != 0 or colour.size is not None:
                stats["offset_fails"] += 1
        if not verify_mono_cut(tree, a, mono.witness):
            stats["witness_fails"] += 1

    for n in range(2, 8):
        for tree in all_binary_trees(n):
            for bits in range(1 << n):
                check(tree, subset_from_bits(n, bits))

    rng = CounterRng(RANDOM_TREE_SEED)
    for _ in range(200):
        n = 8 + rng.randbelow(5)
        tree = random_binary_tree(n, rng=rng)
        for _ in range(50):
            check(tree, subset_from_bits(n, rng.randbelow(1 << n)))

    return stats


def test_criterion_1_dp_matches_brute_force(cut_corpus):
    assert cut_corpus["dp_vs_brute_fails"] == 0
    assert cut_corpus["pairs"] == 128220 + 200 * 50
    print(f"\n[acceptance] criterion 1 PASS: DP == brute force on {cut_corpus['pairs']} (tree, A) pairs")


def test_criterion_2_cut_size_offset(cut_corpus):
    assert cut_corpus["offset_fails"] == 0
    assert cut_corpus["witness_fails"] == 0
    print(f"[acceptance] criterion 2 PASS: |M| == |C| + 1 (with empty-case sentinels) on {cut_corpus['pairs']} pairs")


# ------------------------------------------------------------------ criterion 3


def test_criterion_3_twelve_leaf_example():
    mono = min_mono_cut(EX12, A12)
    colour = max_colour_cut(EX12, A12)
    assert mono.size == 5
    assert colour.size == 4
    assert verify_mono_cut(EX12, A12, mono.witness)
    assert verify_colour_cut(EX12, A12, colour.witness)
    print("[acceptance] criterion 3 PASS: 12-leaf example has minmono 5, colour cut 4, witnesses verified")


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_generic_rank_exactness():
    instances = 0
    retries = 0
    for r in (2, 3):
        for n in range(2, 7):
            for tree in all_binary_trees(n):
                model = TnsModel.constant(tree, r)
                for bits in range(1 << n):
                    a = subset_from_bits(n, bits)
                    expected = r ** min_mono_cut(tree, a).size
                    got = estimate_generic_rank(model, a, trials=3, seed=0)
                    instances += 1
                    if got != expected:
                        retries += 1
                        got = estimate_generic_rank(model, a, trials=3, seed=RETRY_SEED)
                    assert got == expected, (r, tree.serialize(), sorted(a))
    print(f"[acceptance] criterion 4 PASS: oracle == r^minmono on {instances} instances ({retries} retried)")


# ------------------------------------------------------------------ criterion 5


@pytest.fixture(scope="module")
def bound_corpus():
    """500 random models; records bound violations and transpose symmetry."""
    rng = CounterRng(BOUND_SEED)
    violations = 0
    symmetry_fails = 0
    for i in range(500):
        n = 2 + rng.randbelow(7)
        tree = random_binary_tree(n, rng=rng)
        f = {e: 1 + rng.randbelow(4) for e in tree.edges()}
        dims = {lab: 2 + rng.randbelow(3) for lab in range(1, n + 1)}
        model = TnsModel(tree, f, dims)
        a = subset_from_bits(n, rng.randbelow(1 << n))
        predicted = predict_rank(model, a).value
        sample = sample_tns_tensor(model, seed=derive_seed(BOUND_SEED, i))
        rank = flattening_rank(sample, a)
        if rank > predicted:
            violations += 1
        if rank != flattening_rank(sample, complement(tree, a)):
            symmetry_fails += 1
    return {"violations": violations, "symmetry_fails": symmetry_fails, "models": 500}


def test_criterion_5_upper_bound(bound_corpus):
    assert bound_corpus["violations"] == 0
    print(f"[acceptance] criterion 5 PASS: sampled rank <= prediction on {bound_corpus['models']} random models")


# ------------------------------------------------------------------ criterion 6


@pytest.fixture(scope="module")
def kron_corpus():
    rng = CounterRng(KRON_SEED)
    fails = 0
    symmetry_fails = 0
    for i in range(50):
        tensors = []
        ranks = []
        subsets = []
        for side in range(2):
            n = 2 + rng.randbelow(3)
            tree = random_binary_tree(n, rng=rng)
            f = {e: 1 + rng.randbelow(3) for e in tree.edges()}
            dims = {lab: 2 + rng.randbelow(2) for lab in range(1, n + 1)}
            model = TnsModel(tree, f, dims)
            t = sample_tns_tensor(model, seed=derive_seed(KRON_SEED, 2 * i + side))
            a = subset_from_bits(n, rng.randbelow(1 << n))
            tensors.append(t)
            subsets.append(a)
            ranks.append(flattening_rank(t, a))
        joined = kron(tensors[0], tensors[1])
        shift = tensors[0].n
        union = subsets[0] | {lab + shift for lab in subsets[1]}
        got = flattening_rank(joined, union)
        if got != ranks[0] * ranks[1]:
            fails += 1
        full = frozenset(range(1, joined.n + 1))
        if got != flattening_rank(joined, full - union):
            symmetry_fails += 1
    return {"fails": fails, "symmetry_fails": symmetry_fails, "pairs": 50}


def test_criterion_6_kronecker_multiplicativity(kron_corpus):
    assert kron_corpus["fails"] == 0
    print(f"[acceptance] criterion 6 PASS: outer-product ranks multiply on {kron_corpus['pairs']} pairs")


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_transpose_symmetry(bound_corpus, kron_corpus):
    checked = bound_corpus["models"] + kron_corpus["pairs"]
    fails = bound_corpus["symmetry_fails"] + kron_corpus["symmetry_fails"]
    # the tensors of criterion 4: same models, same derived seeds
    for r in (2, 3):
        for n in range(2, 7):
            for tree in all_binary_trees(n):
                model = TnsModel.constant(tree, r)
                for trial in range(3):
                    t = sample_tns_tensor(model, seed=derive_seed(0, trial))
                    checked += 1
                    for bits in range(1 << (n - 1)):  # each complement pair once
                        a = subset_from_bits(n, bits)
                        if flattening_rank(t, a) != flattening_rank(t, complement(tree, a)):
                            fails += 1
    assert fails == 0
    print(f"[acceptance] criterion 7 PASS: transpose symmetry on {checked} tensors from criteria 4-6")


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_exponent_thresholds():
    for n in range(2, 23):
        k = tt_exponent(build_almost_perfect_binary(n)).k
        if n <= 5:
            assert k == 1, n
        elif n <= 21:
            assert k == 2, n
        else:
            assert k == 3, n
    print("[acceptance] criterion 8 PASS: exponent is 1 on [2,5], 2 on [6,21], 3 at 22")


# ------------------------------------------------------------------ criterion 9


def test_criterion_9_permutation_minimality():
    for n in range(4, 8):
        tree = build_almost_perfect_binary(n)
        natural = tt_exponent(tree).k
        scanned = min_exponent_over_permutations(tree, mode="exhaustive").k_min
        assert scanned == natural, n
    print("[acceptance] criterion 9 PASS: natural order is minimal over all permutations for n in [4,7]")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_exponential_growth():
    checked = 0
    for n in range(4, 11):
        for tree in tree_shapes(n):
            a = construct_hard_subset(tree)
            size = min_mono_cut(tree, a).size
            assert size >= n // 2, (n, tree.serialize())
            checked += 1
            if n <= 8:
                model = TnsModel.constant(tree, 2)
                assert estimate_generic_rank(model, a, trials=3, seed=0) == 2**size
    rng = CounterRng(GROWTH_SEED)
    for i in range(100):
        n = 11 + i % 6
        tree = random_binary_tree(n, rng=rng)
        a = construct_hard_subset(tree)
        assert min_mono_cut(tree, a).size >= n // 2, (n, tree.serialize())
        checked += 1
    print(f"[acceptance] criterion 10 PASS: hard subsets force cut size >= floor(n/2) on {checked} trees")


# ----------------------------------------------------------------- criterion 11


def test_criterion_11_optimalize():
    rng = CounterRng(OPT_SEED)
    for i in range(100):
        n = 2 + rng.randbelow(6)
        tree = random_binary_tree(n, rng=rng)
        f = {e: 1 + rng.randbelow(4) for e in tree.edges()}
        dims = {lab: 2 + rng.randbelow(2) for lab in range(1, n + 1)}
        model = TnsModel(tree, f, dims)
        opt = optimalize(model)
        assert optimalize(opt).f == opt.f
        assert all(1 <= opt.f[e] <= model.f[e] for e in tree.edges())
        original_sample = sample_tns_tensor(model, seed=derive_seed(OPT_SEED, 2 * i))
        opt_sample = sample_tns_tensor(opt, seed=derive_seed(OPT_SEED, 2 * i + 1))
        assert check_membership(original_sample, opt)
        assert check_membership(opt_sample, model)
    print("[acceptance] criterion 11 PASS: optimalize is idempotent, shrinking, and membership-preserving on 100 models")


# ----------------------------------------------------------------- criterion 12


def test_criterion_12_cli_determinism():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    for name, args in sorted(manifest.items()):
        out = subprocess.run(
            [sys.executable, "-m", "tncuts", *args], capture_output=True, cwd=ROOT
        )
        assert out.returncode == 0, (name, out.stderr.decode())
        assert out.stdout == (GOLDEN / f"{name}.json").read_bytes(), name
    print(f"[acceptance] criterion 12 PASS: {len(manifest)} documented invocations reproduce golden bytes")


# ----------------------------------------------------------------- criterion 13


def test_criterion_13_generic_rank_of_every_model():
    # the paper's main result: the generic flattening rank of any model, at
    # any leaf subset, is the cheapest cut over the bonds clamped at the leaves
    rng = CounterRng(GENERIC_SEED)
    instances = 0
    retries = 0
    non_constant = 0
    for _ in range(600):
        n = 2 + rng.randbelow(5)
        tree = random_binary_tree(n, rng=rng)
        f = {e: 1 + rng.randbelow(6) for e in tree.edges()}
        dims = {lab: 1 + rng.randbelow(5) for lab in range(1, n + 1)}
        model = TnsModel(tree, f, dims)
        non_constant += model.is_constant() is None
        for bits in range(1 << n):
            a = subset_from_bits(n, bits)
            expected = _cut_bound(model, bits)
            got = estimate_generic_rank(model, a, trials=3, seed=0)
            instances += 1
            if got != expected:
                retries += 1
                got = estimate_generic_rank(model, a, trials=3, seed=RETRY_SEED)
            assert got == expected, (tree.serialize(), model.to_json_dict(), sorted(a))
    assert (instances, non_constant) == (15132, 491)
    print(
        f"[acceptance] criterion 13 PASS: oracle == clamped-bond cut on {instances} instances "
        f"of 600 random models, {non_constant} with non-constant f ({retries} retried)"
    )
