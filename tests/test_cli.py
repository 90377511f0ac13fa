"""End-to-end CLI behaviour: golden outputs, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"tree": "((1,2),(3,4))", "f": 2.5}',
        '{"tree": "((1,2),(3,4))", "f": 2, "dims": {"1": "a", "2": 2, "3": 2, "4": 2}}',
        '{"tree": "((1,2),(3,4))", "f": true}',
        '{"tree": 5, "f": 2}',
    ],
    ids=["top_level_list", "float_f", "string_dims", "bool_f", "tree_not_string"],
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
    from tncuts import build_train_track

    tree_text = build_train_track(13).serialize()
    model = {"tree": tree_text, "f": 2, "dims": {str(i): 8 for i in range(1, 14)}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = run_cli("verify", "--model", str(path), "--subset", "1,2", check=False)
    assert out.returncode == 3
    assert b"cap" in out.stderr


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
