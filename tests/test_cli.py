"""End-to-end CLI behaviour: golden outputs, determinism, exit codes."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tncuts import build_train_track, random_binary_tree

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
# 1500 leaves nest deeper than Python's recursion limit
CAT1500 = build_train_track(1500).serialize()


def run_cli(*args, check=True):
    out = subprocess.run(
        [sys.executable, "-m", "tncuts", *args],
        capture_output=True,
        cwd=ROOT,
    )
    if check:
        assert out.returncode == 0, out.stderr.decode()
    return out


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_outputs(name):
    out = run_cli(*MANIFEST[name])
    assert out.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_runs_are_byte_identical():
    args = MANIFEST["verify_cat4"]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_stdout_is_json():
    for name in ("minmono_cat4", "hackbusch_6_2", "compare_pass"):
        payload = json.loads(run_cli(*MANIFEST[name]).stdout)
        assert isinstance(payload, dict)


def test_only_verify_loads_numpy():
    # numpy takes longer to import than the rest of the package, so the
    # commands that sample no tensor must not load it
    argvs = [argv for _, argv in sorted(MANIFEST.items()) if argv[0] != "verify"]
    code = (
        "import contextlib, io, json, sys, tncuts.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [tncuts.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr.decode()
    assert json.loads(out.stdout) == [[0] * len(argvs), False]


def test_minmono_empty_subset():
    payload = json.loads(run_cli("minmono", "--tree", "inputs/cat4.txt", "--subset", "").stdout)
    assert payload == {"size": 0, "witness": [], "colour_cut_size": None}


def test_verify_constant_override():
    payload = json.loads(
        run_cli("verify", "--model", "inputs/cat4_r2.json", "--subset", "1,3", "--r", "2").stdout
    )
    assert payload["predicted"] == 4 and payload["agree"]


def test_verify_custom_prime_and_seed():
    a = run_cli("verify", "--model", "inputs/cat4_r2.json", "--subset", "1,3",
                "--prime", "1000003", "--seed", "7").stdout
    b = run_cli("verify", "--model", "inputs/cat4_r2.json", "--subset", "1,3",
                "--prime", "1000003", "--seed", "7").stdout
    assert a == b
    assert json.loads(a)["agree"]


def test_no_json_mode():
    out = run_cli("hardset", "--tree", "inputs/cat4.txt", "--no-json")
    assert b"{" not in out.stdout
    assert b"minmono=2" in out.stdout


def test_exit_code_input_errors(tmp_path):
    bad_tree = tmp_path / "bad.txt"
    bad_tree.write_text("((1,2)", encoding="utf-8")
    out = run_cli("minmono", "--tree", str(bad_tree), "--subset", "1", check=False)
    assert out.returncode == 1
    assert out.stdout == b"" and out.stderr

    out = run_cli("minmono", "--tree", "inputs/cat4.txt", "--subset", "1,9", check=False)
    assert out.returncode == 1

    out = run_cli("minmono", "--tree", "no_such_file.txt", "--subset", "1", check=False)
    assert out.returncode == 1

    out = run_cli("minmono", "--tree", "inputs/cat4.txt", check=False)  # missing flag
    assert out.returncode == 1

    out = run_cli("hardset", "--tree", "inputs/cat4.txt", "--r", "-2", check=False)
    assert out.returncode == 1
    assert out.stdout == b"" and out.stderr.startswith(b"error: ")


@pytest.mark.parametrize("mode", ["--json", "--no-json"])
def test_unprintable_output_is_input_error(mode):
    # r**2 has 6001 digits, more than Python turns into a string by default
    out = run_cli("hardset", "--tree", "inputs/cat4.txt", "--r", str(10**3000), mode, check=False)
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr.startswith(b"error: ") and out.stderr.count(b"\n") == 1


def test_hardset_refuses_an_unprintable_rank_bound_before_the_power(tmp_path, capsys):
    # r**750 would have three million digits: refused from the cut size alone
    from tncuts import cli

    tree_path = tmp_path / "cat1500.txt"
    tree_path.write_text(CAT1500, encoding="utf-8")
    assert cli.main(["hardset", "--tree", str(tree_path), "--r", str(10**3999)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: rank_bound r**750 has more than {limit} digits, Python's limit for printing an int\n"


def test_hardset_rank_bound_at_the_digit_limit(capsys):
    # cat4's hard subset has a 2-edge cut: r**2 has 4300 digits below
    # r = 10**2150 and 4301 from there on
    from tncuts import cli

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = ["hardset", "--tree", str(ROOT / "inputs/cat4.txt"), "--r"]
        assert cli.main(argv + [str(10**2150 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["rank_bound"] == (10**2150 - 1) ** 2
        assert cli.main(argv + [str(10**2150)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "more than 4300 digits" in captured.err
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"tree": "((1,2),(3,4))", "f": 2.5}',
        '{"tree": "((1,2),(3,4))", "f": 2, "dims": {"1": "a", "2": 2, "3": 2, "4": 2}}',
        '{"tree": "((1,2),(3,4))", "f": true}',
        '{"tree": 5, "f": 2}',
        "[" * 200_000,
        '{"tree": "((1,2),(3,4))", "f": 2, "dims": ' + "[" * 200_000 + "]" * 200_000 + "}",
        (
            '{"tree": "((1,2),(3,4))", "f": {"1": 2, "2": 2, "3": 2, "4": 2, "1-2": 2, "3-4": 7},'
            ' "dims": {"1": 2, "2": 2, "3": 2, "4": 2}}'
        ),
        '{"tree": "((1,2),(3,4))", "f": 2, "dims": {"1": 2, "01": 5, "2": 2, "3": 2, "4": 2}}',
        (
            '{"tree": "((1,2),(3,4))", "f": {"1": 2, "2": 2, "3": 2, "4": 2, "1-2": 2, "1-2": 7},'
            ' "dims": {"1": 2, "2": 2, "3": 2, "4": 2}}'
        ),
        (
            '{"tree": "((1,2),(3,4))", "f": {"1": 2, "2": 2, "3": 2, "4": 2, "3-3-4": 2},'
            ' "dims": {"1": 2, "2": 2, "3": 2, "4": 2}}'
        ),
        (
            '{"tree": "((1,2),(3,4))", "f": {"2-3-4-4": 2, "2": 2, "3": 2, "4": 2, "1-2": 2},'
            ' "dims": {"1": 2, "2": 2, "3": 2, "4": 2}}'
        ),
    ],
    ids=[
        "top_level_list",
        "float_f",
        "string_dims",
        "bool_f",
        "tree_not_string",
        "deeply_nested",
        "deeply_nested_dims",
        "edge_named_twice",
        "leaf_named_twice",
        "repeated_key",
        "edge_key_repeats_label",
        "leaf_key_repeats_label",
    ],
)
def test_malformed_model_is_input_error(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    out = run_cli("predict", "--model", str(path), "--subset", "1,3", check=False)
    assert out.returncode == 1
    assert out.stdout == b""
    assert out.stderr.decode().startswith("error: ") and out.stderr.count(b"\n") == 1


def test_exit_code_resource_cap(tmp_path):
    # 13 leaves, dims 8: 8**13 entries blows the cap
    tree_text = build_train_track(13).serialize()
    model = {"tree": tree_text, "f": 2, "dims": {str(i): 8 for i in range(1, 14)}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = run_cli("verify", "--model", str(path), "--subset", "1,2", check=False)
    assert out.returncode == 3
    assert b"cap" in out.stderr

    # 70 leaves of dimension 1: one entry, but more axes than numpy allows
    model = {"tree": build_train_track(70).serialize(), "f": 1}
    path.write_text(json.dumps(model), encoding="utf-8")
    out = run_cli("verify", "--model", str(path), "--subset", "1,2", check=False)
    assert out.returncode == 3
    assert out.stdout == b""
    assert out.stderr.startswith(b"error: ") and out.stderr.count(b"\n") == 1
    assert b"cap" in out.stderr


# Models that pass the tensor cap but ask the sampler for far more memory:
# a 2^22-dimensional leaf matrix, and a 2^21 x 2^23 contraction product.
BIG_LEAF = {"tree": "((1,2),3)", "f": 4194304, "dims": {"1": 4194304, "2": 2, "3": 2}}
BIG_PRODUCT = {
    "tree": "((1,2),(3,4))",
    "f": {"1": 1, "2": 1, "3": 1, "4": 1, "1-2": 2097152},
    "dims": {"1": 1, "2": 1, "3": 8388608, "4": 2},
}
# Models within every entry cap whose kernels would run for too long: a
# 2^10 x 2^10 x 2^10 contraction, and the elimination of a 2^10 x 2^10
# flattening (2^30 multiply-adds each).
BIG_PRODUCT_WORK = {"tree": "(1,2)", "f": 1024, "dims": {"1": 1024, "2": 1024}}
BIG_RANK_WORK = {"tree": "(1,2)", "f": 1, "dims": {"1": 1024, "2": 1024}}


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--model", "inputs/cat4_r2.json", "--subset", "1,3", "--trials", "100001"),
        ("permscan", "--tree", "inputs/cat4.txt", "--mode", "sampled", "--trials", "100001"),
        ("hackbusch", "--n", "21846"),
        # 9 x 1500^2 trial work: the trials cap alone would allow hours of prefix scans
        ("permscan", "--tree", "cat1500.txt", "--mode", "sampled", "--trials", "9"),
        ("verify", "--model", "big_leaf.json", "--subset", "1"),
        ("verify", "--model", "big_product.json", "--subset", "3"),
        ("verify", "--model", "big_product_work.json", "--subset", "1"),
        ("verify", "--model", "big_rank_work.json", "--subset", "1"),
    ],
    ids=[
        "verify_trials",
        "permscan_trials",
        "hackbusch_n",
        "permscan_work",
        "sample_draw",
        "sample_product",
        "product_work",
        "rank_work",
    ],
)
def test_runaway_inputs_hit_caps(capsys, tmp_path, args):
    from tncuts import cli

    files = {
        "cat1500.txt": CAT1500,
        "big_leaf.json": json.dumps(BIG_LEAF),
        "big_product.json": json.dumps(BIG_PRODUCT),
        "big_product_work.json": json.dumps(BIG_PRODUCT_WORK),
        "big_rank_work.json": json.dumps(BIG_RANK_WORK),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(ROOT / arg) if arg.startswith("inputs/") else arg for arg in args]
    assert cli.main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exceeds the cap" in captured.err


def test_deep_caterpillar_commands(tmp_path):
    tree_path = tmp_path / "cat1500.txt"
    tree_path.write_text(CAT1500, encoding="utf-8")
    model_path = tmp_path / "cat1500.json"
    model_path.write_text(json.dumps({"tree": CAT1500, "f": 2}), encoding="utf-8")
    subset = ",".join(map(str, range(1, 1501, 2)))
    for args in (
        ("minmono", "--tree", str(tree_path), "--subset", subset),
        ("predict", "--model", str(model_path), "--subset", subset),
        ("hardset", "--tree", str(tree_path)),
    ):
        out = run_cli(*args)
        assert out.stderr == b""
        assert out.stdout.count(b"\n") == 1
        assert isinstance(json.loads(out.stdout), dict)


def test_exit_code_zero_on_success():
    assert run_cli("hackbusch", "--n", "5", "--r", "2").returncode == 0


def test_exit_code_internal_assertion(monkeypatch, capsys):
    from tncuts import LandmarkMismatchError, cli

    def boom(n, r):
        raise LandmarkMismatchError("exponent fell outside the expected interval")

    monkeypatch.setattr(cli, "hackbusch_verdict", boom)
    assert cli.main(["hackbusch", "--n", "6", "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "interval" in captured.err


def test_main_in_process_matches_subprocess(capsys):
    from tncuts import cli

    assert cli.main(["minmono", "--tree", str(ROOT / "inputs/cat4.txt"), "--subset", "1,3"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / "minmono_cat4.json").read_bytes()


_SMALL_INT = st.integers(-2, 4)
_TREE_TEXT = st.one_of(
    st.text(alphabet="(),0123456789 \n-x", max_size=40),
    st.text(max_size=20),
    st.builds(
        lambda n, seed: random_binary_tree(n, seed).serialize(), st.integers(2, 30), st.integers(0, 2**32)
    ),
)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["tree", "f", "dims", "1", "2", "1-2"]) | st.text(max_size=4), inner, max_size=4
    ),
    max_leaves=10,
)


@st.composite
def _valid_model(draw):
    # small trees and dims keep verify's dense tensors tiny
    tree = random_binary_tree(draw(st.integers(2, 7)), draw(st.integers(0, 2**32)))
    f = draw(_SMALL_INT | st.fixed_dictionaries({e.key: _SMALL_INT for e in tree.edges()}))
    model = {"tree": tree.serialize(), "f": f}
    if draw(st.booleans()):
        model["dims"] = {str(lab): draw(_SMALL_INT) for lab in range(1, tree.n + 1)}
    return json.dumps(model)


_MODEL_TEXT = st.one_of(st.text(max_size=30), _JSON.map(json.dumps), _valid_model())
_COMMANDS = [
    ("minmono", "--tree", "{tree}", "--subset", "{subset}"),
    ("hardset", "--tree", "{tree}", "--r", "{int}"),
    ("predict", "--model", "{model}", "--subset", "{subset}"),
    ("verify", "--model", "{model}", "--subset", "{subset}", "--trials", "{int}"),
    ("optimalize", "--model", "{model}"),
    ("compare", "{model}", "{model}"),
    ("permscan", "--tree", "{tree}", "--mode", "sampled", "--trials", "{int}"),
    ("hackbusch", "--n", "{int}"),
]


@settings(max_examples=80, deadline=None)
@example(command=_COMMANDS[0], tree_text=CAT1500, model_text="", subset="1,3,5", number="2")
@example(command=_COMMANDS[2], tree_text="", subset="1,3", number="2",
         model_text=json.dumps({"tree": CAT1500, "f": 2}))
@example(command=_COMMANDS[3], tree_text="", subset="1,2", number="1",
         model_text=json.dumps({"tree": build_train_track(70).serialize(), "f": 1}))
@given(
    command=st.sampled_from(_COMMANDS),
    tree_text=_TREE_TEXT,
    model_text=_MODEL_TEXT,
    subset=st.text("0123456789, -", max_size=12),
    number=st.sampled_from(["-1", "0", "1", "2", "x", "1000000"]),
)
def test_cli_fuzz_exit_codes(tmp_path_factory, command, tree_text, model_text, subset, number):
    from tncuts import cli

    work = tmp_path_factory.mktemp("fuzz")
    tree_path, model_path = work / "tree.txt", work / "model.json"
    tree_path.write_text(tree_text, encoding="utf-8", errors="surrogatepass")
    model_path.write_text(model_text, encoding="utf-8", errors="surrogatepass")
    fill = {"{tree}": str(tree_path), "{model}": str(model_path), "{subset}": subset, "{int}": number}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([fill.get(arg, arg) for arg in command])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
