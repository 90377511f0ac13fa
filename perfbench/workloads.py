"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (that is its set-up),
then hands out one *pass* of ops at a time.  A pass is a fixed-composition
draw from the workload's corpus: the same number of ops from every stratum
of input size, so passes cost about the same whatever the seed, and the
runner only ever stops between passes.  Why each workload exists is
recorded in ``rationale.json`` next to this file.

An op is a zero-argument ``run`` (the timed call into tncuts) and a
``check`` of its result that runs untimed.  ``check`` returns "ok",
"retried" (wrong at first, right on the retry seed, as acceptance
criteria 4 and 7 allow) or "fail".
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import tncuts as tc
import tncuts.cli

# Oracle retries use this offset from the run's seed (the acceptance suite
# retries on a fixed second seed the same way).
RETRY_SALT = 424242


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _bits_subset(n: int, bits: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(n) if (bits >> i) & 1)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work_dir: Path, in_process: bool = False):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.in_process = in_process

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def warm_up(self) -> None:
        """Run a few ops of a throwaway pass, so lazy imports and caches settle."""
        for op in self.pass_ops(-1)[:4]:
            op.check(op.run())


# -- oracle_sweep -----------------------------------------------------------------


class OracleSweep(Workload):
    """estimate_generic_rank(trials=3) over criterion 4's corpus."""

    name = "oracle_sweep"
    BONDS = (2, 3)
    # (tree, subset) pairs per pass for each (r, n); the corpus holds
    # 4, 8, 48, 480 and 6720 pairs per r at n = 2..6.
    PER_PASS = {2: 1, 3: 1, 4: 2, 5: 10, 6: 100}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.models = {}
        for n in self.PER_PASS:
            trees = list(tc.all_binary_trees(n))
            for r in self.BONDS:
                self.models[r, n] = [tc.TnsModel.constant(tree, r) for tree in trees]

    def pass_ops(self, index):
        rng = self._rng(index)
        ops = []
        for (r, n), models in self.models.items():
            for _ in range(self.PER_PASS[n]):
                model = models[rng.randrange(len(models))]
                ops.append(self._op(model, r, _bits_subset(n, rng.randrange(1 << n))))
        rng.shuffle(ops)
        return ops

    def _op(self, model, r, a):
        seed = self.seed

        def run():
            return tc.estimate_generic_rank(model, a, trials=3, seed=seed)

        def check(got):
            expected = r ** tc.min_mono_cut(model.tree, a).size
            if got == expected:
                return "ok"
            retry = tc.estimate_generic_rank(model, a, trials=3, seed=seed + RETRY_SALT)
            return "retried" if retry == expected else "fail"

        return Op("estimate", run, check)


# -- flatten_wide -----------------------------------------------------------------


class FlattenWide(Workload):
    """flattening_rank on a few wide tensors sampled once each."""

    name = "flatten_wide"
    # (shape, leaves, constant bond = leaf dimension)
    TENSORS = (
        ("abt", 10, 3),
        ("caterpillar", 10, 3),
        ("random", 10, 3),
        ("random", 9, 3),
        ("abt", 8, 2),
        ("random", 10, 2),
    )
    # Share of each (tensor, |A|) stratum drawn per pass, at least one op.
    PASS_SHARE = 1 / 64
    # Share of ops whose rank is also checked on the transposed flattening.
    TRANSPOSE_SHARE = 1 / 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.models = []
        self.tensors = []
        self._retry_tensors = {}
        for i, (shape, n, r) in enumerate(self.TENSORS):
            if shape == "abt":
                tree = tc.build_almost_perfect_binary(n)
            elif shape == "caterpillar":
                tree = tc.build_train_track(n)
            else:
                tree = tc.random_binary_tree(n, seed=tc.derive_seed(self.seed, 100 + i))
            model = tc.TnsModel.constant(tree, r)
            self.models.append(model)
            self.tensors.append(tc.sample_tns_tensor(model, tc.derive_seed(self.seed, i)))
        # One subset per complementary pair: those avoiding leaf 1.
        self.strata = []
        for i, (_, n, _) in enumerate(self.TENSORS):
            by_size: dict[int, list[int]] = {}
            for bits in range(1, 1 << (n - 1)):
                by_size.setdefault(bin(bits).count("1"), []).append(bits << 1)
            for size in sorted(by_size):
                members = by_size[size]
                self.strata.append((i, members, max(1, round(len(members) * self.PASS_SHARE))))

    def pass_ops(self, index):
        rng = self._rng(index)
        ops = []
        for i, members, count in self.strata:
            for bits in rng.sample(members, count):
                transpose = rng.random() < self.TRANSPOSE_SHARE
                ops.append(self._op(i, _bits_subset(self.TENSORS[i][1], bits), transpose))
        rng.shuffle(ops)
        return ops

    def _retry_tensor(self, i):
        if i not in self._retry_tensors:
            seed = tc.derive_seed(self.seed + RETRY_SALT, i)
            self._retry_tensors[i] = tc.sample_tns_tensor(self.models[i], seed)
        return self._retry_tensors[i]

    def _op(self, i, a, transpose):
        tensor = self.tensors[i]
        tree = self.models[i].tree
        r = self.TENSORS[i][2]

        def run():
            return tc.flattening_rank(tensor, a)

        def check(got):
            if transpose and tc.flattening_rank(tensor, tc.complement(tree, a)) != got:
                return "fail"
            expected = r ** tc.min_mono_cut(tree, a).size
            if got == expected:
                return "ok"
            return "retried" if tc.flattening_rank(self._retry_tensor(i), a) == expected else "fail"

        return Op("flatten", run, check)


# -- cut_corpus ---------------------------------------------------------------------


class CutCorpus(Workload):
    """The cut side of criteria 1, 2, 8 and 10; no field arithmetic."""

    name = "cut_corpus"
    # (tree, subset) pairs per pass drawn from all labelled trees with n leaves;
    # the corpus holds 4, 8, 48, 480, 6720 and 120960 pairs at n = 2..7.
    EXHAUSTIVE_PER_PASS = {2: 1, 3: 1, 4: 2, 5: 8, 6: 60, 7: 900}
    RANDOM_LEAVES = range(8, 13)
    RANDOM_TREES_PER_N = 20
    RANDOM_PER_PASS = 60
    ABT_LEAVES = range(2, 23)
    SHAPE_LEAVES = range(4, 11)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trees = {n: list(tc.all_binary_trees(n)) for n in self.EXHAUSTIVE_PER_PASS}
        rng = tc.CounterRng(tc.derive_seed(self.seed, 1))
        for n in self.RANDOM_LEAVES:
            self.trees[n] = [tc.random_binary_tree(n, rng=rng) for _ in range(self.RANDOM_TREES_PER_N)]
        self.abts = [tc.build_almost_perfect_binary(n) for n in self.ABT_LEAVES]
        self.shapes = [tree for n in self.SHAPE_LEAVES for tree in tc.tree_shapes(n)]

    def pass_ops(self, index):
        rng = self._rng(index)
        ops = []
        counts = dict(self.EXHAUSTIVE_PER_PASS)
        counts.update({n: self.RANDOM_PER_PASS for n in self.RANDOM_LEAVES})
        for n, count in counts.items():
            trees = self.trees[n]
            for _ in range(count):
                tree = trees[rng.randrange(len(trees))]
                ops.append(self._pair_op(tree, _bits_subset(n, rng.randrange(1 << n))))
        ops.extend(self._exponent_op(tree) for tree in self.abts)
        ops.extend(self._hardset_op(tree) for tree in self.shapes)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _pair_op(tree, a):
        def run():
            mono = tc.min_mono_cut(tree, a)
            colour = tc.max_colour_cut(tree, a)
            mono_ok = tc.verify_mono_cut(tree, a, mono.witness)
            colour_ok = colour.size is None or tc.verify_colour_cut(tree, a, colour.witness)
            return mono, colour, mono_ok, colour_ok

        def check(result):
            mono, colour, mono_ok, colour_ok = result
            if not (mono_ok and colour_ok and len(mono.witness) == mono.size):
                return "fail"
            if 0 < len(a) < tree.n:
                sizes_ok = colour.size is not None and mono.size == colour.size + 1
                sizes_ok = sizes_ok and len(colour.witness) == colour.size
            else:
                sizes_ok = mono.size == 0 and colour.size is None
            return "ok" if sizes_ok else "fail"

        return Op("pair", run, check)

    @staticmethod
    def _exponent_op(tree):
        def run():
            return tc.tt_exponent(tree)

        def check(result):
            k, j = result
            if k != tc.landmark_index(tree.n):
                return "fail"
            return "ok" if tc.min_mono_cut(tree, range(1, j + 1)).size == k else "fail"

        return Op("tt_exponent", run, check)

    @staticmethod
    def _hardset_op(tree):
        def run():
            return tc.construct_hard_subset(tree)

        def check(a):
            return "ok" if tc.min_mono_cut(tree, a).size >= tree.n // 2 else "fail"

        return Op("hardset", run, check)


# -- cli_mix ----------------------------------------------------------------------


def random_tree_expr(n: int, rng: random.Random) -> str:
    """Parenthesised binary tree on labels 1..n with random shape and labels."""
    labels = [str(lab) for lab in range(1, n + 1)]
    rng.shuffle(labels)

    def build(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return labels[lo]
        mid = rng.randrange(lo + 1, hi)
        return f"({build(lo, mid)},{build(mid, hi)})"

    return build(0, n)


class CliMix(Workload):
    """One ``python -m tncuts`` process per op.

    With ``in_process`` the same argv goes to ``tncuts.cli.main`` in this
    process instead; traced runs use that, since spans cannot see into a
    child process.
    """

    name = "cli_mix"
    HACKBUSCH_SIZES = (86, 342, 1366)
    BIG_LEAVES = 200
    # Caterpillars above about 1000 leaves crash parse_tree with
    # RecursionError; they stay out of the timed set (see rationale.json).

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        golden = self.root / "tests" / "golden"
        manifest = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
        self.goldens = {name: (argv, (golden / f"{name}.json").read_bytes()) for name, argv in sorted(manifest.items())}

        self.work_dir.mkdir(parents=True, exist_ok=True)
        abt7 = tc.build_almost_perfect_binary(7)
        abt7_path = self._write("abt7.txt", abt7.serialize())
        natural_k = tc.tt_exponent(abt7).k

        rng = random.Random(f"{self.name}:{self.seed}")
        expr = random_tree_expr(self.BIG_LEAVES, rng)
        tree = tc.parse_tree(expr)
        f = {e.key: rng.randint(1, 4) for e in tree.edges()}
        dims = {str(lab): rng.randint(2, 3) for lab in range(1, tree.n + 1)}
        tree_path = self._write("big_tree.txt", expr)
        model_path = self._write("big_model.json", json.dumps({"tree": expr, "f": f, "dims": dims}))
        model = tc.load_model(model_path)
        subset = frozenset(lab for lab in range(1, tree.n + 1) if rng.random() < 0.5)
        subset_arg = ",".join(map(str, sorted(subset)))

        mono = tc.min_mono_cut(tree, subset)
        colour = tc.max_colour_cut(tree, subset)
        if not tc.verify_mono_cut(tree, subset, mono.witness) or mono.size != colour.size + 1:
            raise RuntimeError("library cut results on the generated tree do not verify")
        hard = tc.construct_hard_subset(tree)
        hard_size = tc.min_mono_cut(tree, hard).size
        if hard_size < tree.n // 2:
            raise RuntimeError("hard subset of the generated tree is not hard")
        pred = tc.predict_rank(model, subset)

        def keys(edges):
            return [e.key for e in sorted(edges)]

        self.checks = [
            (["minmono", "--tree", tree_path, "--subset", subset_arg],
             {"size": mono.size, "witness": keys(mono.witness), "colour_cut_size": colour.size}),
            (["hardset", "--tree", tree_path, "--r", "2"],
             {"subset": sorted(hard), "minmono": hard_size, "rank_bound": 2**hard_size}),
            (["predict", "--model", model_path, "--subset", subset_arg],
             {"value": pred.value, "exact": pred.exact, "witness": keys(pred.witness)}),
            (["permscan", "--tree", abt7_path, "--mode", "exhaustive"],
             {"n": 7, "mode": "exhaustive", "k_min": natural_k}),
        ]

    def warm_up(self) -> None:
        argv, want = self.goldens["minmono_cat4"]
        op = self._golden_op(argv, want, self.in_process)
        op.check(op.run())

    def _write(self, name: str, text: str) -> str:
        path = self.work_dir / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))

    def pass_ops(self, index):
        ops = [self._golden_op(argv, want, self.in_process) for argv, want in self.goldens.values()]
        ops.extend(self._hackbusch_op(n) for n in self.HACKBUSCH_SIZES)
        ops.extend(self._json_op(argv, want) for argv, want in self.checks)
        self._rng(index).shuffle(ops)
        return ops

    def golden_ops(self) -> list[Op]:
        """The golden invocations as processes, whatever ``in_process`` says."""
        return [self._golden_op(argv, want, False) for argv, want in self.goldens.values()]

    def _runner(self, argv, in_process: bool):
        if in_process:
            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = tncuts.cli.main(list(argv))
                return code, out.getvalue().encode("utf-8")
        else:
            cmd = [sys.executable, "-m", "tncuts", *argv]

            def run():
                proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=120)
                return proc.returncode, proc.stdout
        return run

    def _golden_op(self, argv, want, in_process):
        def check(result):
            code, out = result
            return "ok" if code == 0 and out == want else "fail"

        return Op("golden", self._runner(argv, in_process), check)

    def _hackbusch_op(self, n):
        def check(result):
            code, out = result
            return "ok" if code == 0 and json.loads(out)["k"] == tc.landmark_index(n) else "fail"

        return Op("hackbusch", self._runner(["hackbusch", "--n", str(n), "--r", "2"], self.in_process), check)

    def _json_op(self, argv, want):
        def check(result):
            code, out = result
            if code != 0:
                return "fail"
            got = json.loads(out)
            if argv[0] == "permscan":
                witness = got.pop("witness")
                if sorted(witness) != list(range(1, 8)):
                    return "fail"
            return "ok" if got == want else "fail"

        return Op(argv[0], self._runner(argv, self.in_process), check)


WORKLOADS = {cls.name: cls for cls in (OracleSweep, FlattenWide, CutCorpus, CliMix)}
