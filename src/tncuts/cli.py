"""Command-line front end.  JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 input error, 2 internal assertion (landmark
mismatch), 3 resource cap exceeded.  Every randomised command takes an
explicit --seed (default 0); identical inputs and flags reproduce
byte-identical output.

Runaway inputs are capped (exit 3): ``verify --trials`` and ``permscan
--mode sampled --trials`` at 100000, and ``hackbusch --n`` at 21845, the
last leaf count of the seventh landmark interval; a tree or model file
whose tree has more leaves is refused as well.  ``permscan --mode
sampled`` also caps its work, trials x n^2 for a tree of n leaves, at
2 * 10^7: each trial computes the exponent of one leaf order, one
root-path update of the cut DP per prefix, O(n * depth), which is still
quadratic in n on a caterpillar.  ``verify`` samples only models whose
tensor, drawn block of cores and leaf matrices, and every contraction
product each hold at most 2^24 entries.

Start-up is most of a process's time, so each handler imports the package
modules it runs when it is called, and a process compiles only those and
``trees``, which every command reads its input with and which defines
SizeCapError and LandmarkMismatchError: numpy, for one, loads only for
``verify``, and a refused input loads none.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log10
from typing import Iterable

from .trees import _MAX_LEAVES, LandmarkMismatchError, SizeCapError, _parse_label, parse_tree

_MAX_TRIALS = 100_000
_MAX_HACKBUSCH_N = _MAX_LEAVES  # the leaf cap of every tree input too
_MAX_PERMSCAN_WORK = 20_000_000  # trials x n^2; 7-13 s at the cap on caterpillars


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 1 for input errors
        raise _CliError(message)


def _load_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def _parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(_parse_label(part.strip()) for part in text.split(","))
    except ValueError:
        raise _CliError(f"bad subset {text!r}: expected comma-separated labels") from None


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise SizeCapError(f"{flag} {value} exceeds the cap of {cap}")


def _sorted_keys(edges: Iterable) -> list[str]:
    return [e.key for e in sorted(edges)]


def _render(payload: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(payload)
    return " ".join(f"{k}={v}" for k, v in payload.items())


def _cmd_minmono(args) -> dict:
    from .cuts import max_colour_cut, min_mono_cut

    tree = _load_tree(args.tree)
    subset = _parse_subset(args.subset)
    mono = min_mono_cut(tree, subset)
    colour = max_colour_cut(tree, subset)
    return {
        "size": mono.size,
        "witness": _sorted_keys(mono.witness),
        "colour_cut_size": colour.size,
    }


def _cmd_predict(args) -> dict:
    from .models import load_model, predict_rank

    model = load_model(args.model)
    pred = predict_rank(model, _parse_subset(args.subset))
    return {"value": pred.value, "exact": pred.exact, "witness": _sorted_keys(pred.witness)}


def _cmd_verify(args) -> dict:
    from .fieldmath import DEFAULT_PRIME
    from .models import TnsModel, load_model, predict_rank
    from .oracle import estimate_generic_rank  # the one command that loads numpy

    _check_cap("--trials", args.trials, _MAX_TRIALS)
    model = load_model(args.model)
    if args.r is not None:
        model = TnsModel(model.tree, {e: args.r for e in model.tree.edges()}, model.dims)
    subset = _parse_subset(args.subset)
    pred = predict_rank(model, subset)
    p = DEFAULT_PRIME if args.prime is None else args.prime
    oracle = estimate_generic_rank(model, subset, trials=args.trials, seed=args.seed, p=p)
    agree = (oracle == pred.value) if pred.exact else (oracle <= pred.value)
    return {"predicted": pred.value, "exact": pred.exact, "oracle": oracle, "agree": agree}


def _cmd_hackbusch(args) -> dict:
    from .hackbusch import hackbusch_verdict

    _check_cap("--n", args.n, _MAX_HACKBUSCH_N)
    return hackbusch_verdict(args.n, args.r).to_json_dict()


def _cmd_compare(args) -> dict:
    from .models import compare_models, load_model

    m1 = load_model(args.model1)
    m2 = load_model(args.model2)
    return compare_models(m1, m2).to_json_dict()


def _cmd_hardset(args) -> dict:
    from .cuts import construct_hard_subset, min_mono_cut

    if args.r < 1:
        raise _CliError(f"--r must be >= 1, got {args.r}")
    tree = _load_tree(args.tree)
    subset = construct_hard_subset(tree)
    size = min_mono_cut(tree, subset).size
    # r**size has more than `limit` digits exactly when it is >= 10**limit.
    # The logarithm decides that without the power, except within rounding of
    # the edge, where the power has about `limit` digits and is cheap.
    digits = size * log10(args.r)
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit - 1 and (digits >= limit + 1 or args.r**size >= 10**limit):
        raise _CliError(f"rank_bound r**{size} has more than {limit} digits, Python's limit for printing an int")
    return {"subset": sorted(subset), "minmono": size, "rank_bound": args.r**size}


def _cmd_optimalize(args) -> dict:
    from .models import load_model, optimalize

    return optimalize(load_model(args.model)).to_json_dict()


def _cmd_permscan(args) -> dict:
    from .hackbusch import min_exponent_over_permutations

    if args.mode == "sampled":
        _check_cap("--trials", args.trials, _MAX_TRIALS)
    tree = _load_tree(args.tree)
    if args.mode == "sampled":
        _check_cap("--trials x n^2", args.trials * tree.n**2, _MAX_PERMSCAN_WORK)
    result = min_exponent_over_permutations(tree, mode=args.mode, trials=args.trials, seed=args.seed)
    payload = {"n": tree.n, "mode": args.mode, "k_min": result.k_min, "witness": list(result.witness)}
    if args.mode == "sampled":
        payload["trials"] = args.trials
        payload["seed"] = args.seed
    return payload


def build_parser() -> _Parser:
    parser = _Parser(prog="tncuts", description="Cut invariants and rank oracles for tree tensor-network models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action=argparse.BooleanOptionalAction, default=True,
                       help="emit JSON (default) or a terse key=value line")
        return p

    p = add("minmono", _cmd_minmono, "minimal monochromatic cut and colour cut size")
    p.add_argument("--tree", required=True, help="file with a parenthesised tree expression")
    p.add_argument("--subset", required=True, help="comma-separated leaf labels (may be empty)")

    p = add("predict", _cmd_predict, "predicted flattening rank for a subset")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--subset", required=True)

    p = add("verify", _cmd_verify, "compare prediction against the sampling oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--r", type=int, default=None, help="override the model with a constant bond r")
    p.add_argument("--trials", type=int, default=3, help=f"most samples drawn (at most {_MAX_TRIALS})")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("hackbusch", _cmd_hackbusch, "bond-growth verdict for the balanced tree on n leaves")
    p.add_argument("--n", type=int, required=True, help=f"leaf count (at most {_MAX_HACKBUSCH_N})")
    p.add_argument("--r", type=int, default=2)

    p = add("compare", _cmd_compare, "per-edge test of model inclusion, exact")
    p.add_argument("model1", help="candidate inner model JSON file")
    p.add_argument("model2", help="candidate outer model JSON file")

    p = add("hardset", _cmd_hardset, "leaf subset forcing cut size >= floor(n/2)")
    p.add_argument("--tree", required=True)
    p.add_argument("--r", type=int, default=2)

    p = add("optimalize", _cmd_optimalize, "shrink the bond function to its optimal form")
    p.add_argument("--model", required=True)

    p = add("permscan", _cmd_permscan, "minimum interval exponent over leaf permutations")
    p.add_argument("--tree", required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--trials", type=int, default=1000,
                   help=f"sampled permutations (at most {_MAX_TRIALS}; trials x n^2 at most {_MAX_PERMSCAN_WORK})")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Rendering can fail too (an int too long to print), before any output.
        text = _render(args.func(args), args.json)
    except (ValueError, OSError, RuntimeError) as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    print(text)
    return 0


def _exit_code(exc: Exception) -> int | None:
    """2 for a landmark mismatch, 3 for a resource cap, 1 for an input error, else None.

    Both error classes live in ``trees``, which every command loads, so
    the error path loads no module that the command did not.
    """
    if isinstance(exc, LandmarkMismatchError):
        return 2
    if isinstance(exc, SizeCapError):
        return 3
    if isinstance(exc, (ValueError, OSError)):  # json.JSONDecodeError is a ValueError
        return 1
    return None


if __name__ == "__main__":
    raise SystemExit(main())
