"""Command-line behavior: exit codes, file output, env fallback, and the
memory a large-goods run and its verification take."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rsa_cegd.crypto as crypto_mod
from rsa_cegd.cli import main
from rsa_cegd.transcript import load_report
from test_digests import GOLDEN_LARGE_GOODS, LARGE_GOODS

TOY = ["--bits", "32", "--exponent", "3"]


def test_run_honest_writes_verifiable_file(tmp_path, capsys):
    out = tmp_path / "honest.jsonl"
    code = main(["run", "--mode", "honest", *TOY, "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "verdict FAIR" in capsys.readouterr().out
    assert main(["verify-transcript", str(out)]) == 0


def test_run_replay_records_unfair_verdict(tmp_path):
    out = tmp_path / "replay.jsonl"
    assert main(["run", "--mode", "replay", *TOY, "--seed", "3", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[-1]["verdict"] == "UNFAIR_FOR_B"


def test_verify_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "honest.jsonl"
    main(["run", "--mode", "honest", *TOY, "--seed", "3", "--out", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    e2 = next(r for r in rows if r.get("step") == "E2")
    value = e2["fields"]["control"]
    e2["fields"]["control"] = ("1" if value[0] != "1" else "2") + value[1:]
    out.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["verify-transcript", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_missing_file_fails(tmp_path):
    assert main(["verify-transcript", str(tmp_path / "absent.jsonl")]) == 1


def drop_receipts(rows):
    del next(r for r in rows if r["type"] == "evidence")["receipts"]


def drop_party(rows):
    del next(r for r in rows if r["type"] == "evidence")["party"]


def non_hex_receipt(rows):
    evidence = next(r for r in rows if r["type"] == "evidence" and r["receipts"])
    evidence["receipts"][0]["value"] = "zz"


def object_goods(rows):
    next(r for r in rows if r["type"] == "evidence")["goods"] = {}


def duplicate_receipt(rows):
    receipts = next(r for r in rows if r.get("party") == "seller")["receipts"]
    receipts.append(dict(receipts[0]))


def list_record(rows):
    rows.insert(3, [1, 2])


def list_registry(rows):
    rows[0]["registry"] = []


def second_header(rows):
    rows.insert(1, dict(rows[0]))


def second_verdict(rows):
    rows.insert(-1, {"type": "verdict", "verdict": "FAIR"})


def bad_row_before_genuine(rows):
    # Were the last row kept, the bad one would never be checked.
    index = next(i for i, r in enumerate(rows) if r.get("party") == "seller")
    bad = json.loads(json.dumps(rows[index]))
    value = bad["receipts"][0]["value"]
    bad["receipts"][0]["value"] = ("1" if value[0] != "1" else "2") + value[1:]
    rows.insert(index, bad)


def unknown_party(rows):
    index = next(i for i, r in enumerate(rows) if r["type"] == "evidence")
    rows.insert(index, {**rows[index], "party": "mallory"})


def record_after_verdict(rows):
    rows.append(next(r for r in rows if r.get("step") == "E1"))


def milestone_after_evidence(rows):
    rows.insert(-1, next(r for r in rows if r["type"] == "milestone"))


def drop_buyer_evidence(rows):
    rows.remove(next(r for r in rows if r.get("party") == "buyer"))


@pytest.mark.parametrize("corrupt, expected", [
    (drop_receipts, "FAIL: malformed evidence for buyer: 'receipts'"),
    (drop_party, "FAIL: record 16: expected evidence for buyer, found evidence for None"),
    (non_hex_receipt, "FAIL: malformed evidence for seller: invalid literal"),
    (object_goods, "FAIL: malformed evidence for buyer: goods is not a list"),
    (duplicate_receipt, "FAIL: malformed evidence for seller: evidence lists an item twice"),
    (list_record, "FAIL: record 4 is not a JSON object"),
    (list_registry, "FAIL: malformed header: 'list' object has no attribute 'items'"),
    (second_header, "FAIL: record 2: expected message E1 of session 1, "
                   "found a record of type 'header'"),
    (second_verdict, "FAIL: record 19: expected the end, found the verdict"),
    (bad_row_before_genuine, "FAIL: evidence for seller: receipt does not verify\n"
                             "FAIL: record 18: expected the verdict, found evidence for seller"),
    (unknown_party, "FAIL: record 16: expected evidence for buyer, "
                    "found evidence for mallory"),
    (record_after_verdict, "FAIL: record 19: expected the end, "
                           "found message E1 of session 1"),
    (milestone_after_evidence, "FAIL: record 18: expected the verdict, "
                               "found milestone abort-after-E2 of session 1"),
    (drop_buyer_evidence, "FAIL: record 16: expected evidence for buyer, "
                          "found evidence for seller"),
], ids=["no-receipts", "no-party", "non-hex-value", "object-goods", "duplicate-receipt",
        "list-record", "list-registry",
        "second-header", "second-verdict", "duplicate-evidence", "unknown-party",
        "after-verdict", "after-evidence", "missing-evidence"])
def test_verify_malformed_record_fails(tmp_path, capsys, corrupt, expected):
    # A malformed record is a problem line and exit 1, never a traceback.
    path = tmp_path / "replay.jsonl"
    assert main(["run", "--mode", "replay", "--bits", "64", "--seed", "3",
                 "--out", str(path)]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    corrupt(rows)
    path.write_text("\n".join(map(json.dumps, rows)) + "\n")
    capsys.readouterr()
    assert main(["verify-transcript", str(path)]) == 1
    assert expected in capsys.readouterr().out


def test_verify_non_utf8_file_fails(tmp_path, capsys):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe\n")
    assert main(["verify-transcript", str(path)]) == 1
    assert "cannot read transcript" in capsys.readouterr().err


def test_verify_deeply_nested_json_fails(tmp_path, capsys):
    path = tmp_path / "nested.jsonl"
    path.write_text("[" * 200000 + "\n")
    assert main(["verify-transcript", str(path)]) == 1
    assert "cannot read transcript" in capsys.readouterr().err


def _genuine(path):
    assert main(["run", "--mode", "replay", "--bits", "64", "--seed", "3",
                 "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("tail", [b"not json\n", b"\xff\xfe\n", b"[" * 200000 + b"\n"],
                         ids=["not-json", "not-utf8", "nested"])
@pytest.mark.parametrize("head", ["genuine", "no-header"])
def test_verify_late_read_error_fails(tmp_path, capsys, head, tail):
    # Rows are read as they are checked, so the bad line comes after problems
    # may have been found (no-header: after the check has stopped). Those are
    # dropped: the file is unreadable, and that is all that is printed.
    path = tmp_path / "late.jsonl"
    text = _genuine(path) if head == "genuine" else b'{"type":"milestone"}\n'
    path.write_bytes(text + tail)
    capsys.readouterr()
    assert main(["verify-transcript", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cannot read transcript: ")


@pytest.mark.parametrize("genuine, repeated, key", [
    ('"verdict":"UNFAIR_FOR_B"', '"verdict":"FAIR","verdict":"UNFAIR_FOR_B"', "verdict"),
    ('"step":"R3","session":2,"sender":"arbiter","recipient":"buyer","fields":{',
     '"step":"R3","session":2,"sender":"arbiter","recipient":"buyer","fields":{'
     '"randomizer":"1",', "randomizer"),
], ids=["verdict", "r3-randomizer"])
def test_verify_repeated_key_fails(tmp_path, capsys, genuine, repeated, key):
    # json.loads keeps a repeated key's last value, which here is the genuine
    # one, so the transcript would verify while grep reads the first.
    path = tmp_path / "repeated.jsonl"
    text = _genuine(path).decode()
    assert text.count(genuine) == 1
    path.write_text(text.replace(genuine, repeated))
    capsys.readouterr()
    assert main(["verify-transcript", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cannot read transcript: repeated key {key!r}\n"


@pytest.mark.parametrize("key", sorted(GOLDEN_LARGE_GOODS))
def test_run_writes_golden_bytes(tmp_path, capsys, key):
    # The golden digests hash to_lines(); the run command writes the file
    # piece by piece, and must write the same bytes.
    mode, bits, exponent, seed = key
    path = tmp_path / "large.jsonl"
    assert main(["run", "--mode", mode, "--bits", str(bits), "--exponent", str(exponent),
                 "--seed", str(seed), "--goods-size", str(LARGE_GOODS),
                 "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_LARGE_GOODS[key]


def _traced_peak_mib(argv) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


# A file holds the goods two (eoo-forward: three) times over, as hex. A run
# holds each payload once and writes its hex in slices; verification holds a
# line, its parsed hex and the E1 ciphertexts, and of each evidence row only
# the goods hashes. Measured at 512 KiB goods: run plus write 1.6-2.1 MiB,
# load plus verify 2.5-2.6 MiB.
@pytest.mark.parametrize("mode, verify_bound", [
    ("honest", 3.0), ("replay", 3.0), ("eoo-forward", 4.0)])
def test_large_goods_memory_bound(tmp_path, capsys, mode, verify_bound):
    path = tmp_path / "large.jsonl"
    run_peak = _traced_peak_mib(["run", "--mode", mode, "--bits", "128", "--seed", "5",
                                 "--goods-size", str(512 << 10), "--out", str(path)])
    verify_peak = _traced_peak_mib(["verify-transcript", str(path)])
    assert run_peak <= 2.5, f"run plus write peaked at {run_peak:.2f} MiB"
    assert verify_peak <= verify_bound, f"load plus verify peaked at {verify_peak:.2f} MiB"


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "bogus", "--seed", "1",
              "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "honest", "--bits", "8", "--seed", "1",
              "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2
    # A negative seed, from the flag or the variable, has no canonical encoding,
    # and keygen would drop its sign.
    monkeypatch.setenv("CEGD_SEED", "-7")
    for command in (["run", "--mode", "honest", "--out", str(tmp_path / "x.jsonl")],
                    ["keygen"]):
        for seed_args in (["--seed", "-7"], []):
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                main([*command, *TOY, *seed_args])
            assert err.value.code == 2
            assert "seed must be >= 0" in capsys.readouterr().err
    # Goods beyond MAX_GOODS_SIZE, including sizes no C int holds.
    for size in ("2000000000000", "16777217"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["run", "--mode", "honest", *TOY, "--seed", "1", "--goods-size", size,
                  "--out", str(tmp_path / "x.jsonl")])
        assert err.value.code == 2
        assert "goods_size must be <=" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.jsonl"
    out_flag = tmp_path / "flag.jsonl"
    monkeypatch.setenv("CEGD_SEED", "3")
    assert main(["run", "--mode", "honest", *TOY, "--out", str(out_env)]) == 0
    assert main(["run", "--mode", "honest", *TOY, "--seed", "3",
                 "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_missing_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CEGD_SEED", raising=False)
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "honest", *TOY, "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2
    monkeypatch.setenv("CEGD_SEED", "abc")
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["run", "--mode", "honest", *TOY, "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2
    assert "CEGD_SEED is not an integer: 'abc'" in capsys.readouterr().err


def test_unwritable_out_fails(tmp_path, capsys):
    out = tmp_path / "missing" / "x.jsonl"
    assert main(["run", "--mode", "honest", *TOY, "--seed", "1", "--out", str(out)]) == 1
    assert "cannot write report" in capsys.readouterr().err


def test_identical_configs_identical_files(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        main(["run", "--mode", "eoo-forward", *TOY, "--seed", "12", "--out", str(out)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_pretty_prints_summary(tmp_path, capsys):
    out = tmp_path / "replay.jsonl"
    main(["run", "--mode", "replay", *TOY, "--seed", "3", "--out", str(out),
          "--pretty"])
    text = capsys.readouterr().out
    assert "milestones:" in text
    assert "stale-R1-accepted" in text


def test_keygen_hex_exponent(capsys):
    assert main(["keygen", "--bits", "32", "--exponent", "0x3", "--seed", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["e"] == "3"
    n = int(record["n"], 16)
    assert n.bit_length() == 32
    assert int(record["p"], 16) * int(record["q"], 16) == n


@pytest.mark.parametrize("command", [
    ["run", "--mode", "honest", "--bits", "32", "--seed", "1", "--out", "x.jsonl"],
    ["keygen", "--bits", "32", "--seed", "1"],
], ids=["run", "keygen"])
def test_bad_exponent_message_names_no_private_function(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([*command, "--exponent", "0x"])
    assert err.value.code == 2
    assert "argument --exponent: invalid integer value: '0x'" in capsys.readouterr().err


def test_module_runs_as_a_script():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "rsa_cegd.cli", "keygen", "--bits", "16",
                           "--exponent", "3", "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["e"] == "3"


def test_no_fitting_key_is_usage_error(tmp_path, capsys):
    # No 16-bit modulus admits e = 2^20 + 1: a message and exit 2, no traceback.
    too_large = ["--bits", "16", "--exponent", "1048577", "--seed", "0"]
    for argv in (["keygen", *too_large],
                 ["run", "--mode", "honest", *too_large,
                  "--out", str(tmp_path / "x.jsonl")]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "admits exponent 1048577" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_exhausted_keygen_budget_is_usage_error(tmp_path, monkeypatch, capsys):
    # A key that exists but is not found within the retry budget: exit 2 with
    # keygen's message, no traceback and no file.
    monkeypatch.setattr(crypto_mod, "_KEYGEN_ATTEMPTS", 0)
    out = tmp_path / "x.jsonl"
    for argv in (["keygen"], ["run", "--mode", "honest", "--out", str(out)]):
        with pytest.raises(SystemExit) as err:
            main([*argv, *TOY, "--seed", "1"])
        assert err.value.code == 2
        assert "no 32-bit keypair admits exponent 3" in capsys.readouterr().err
    assert not out.exists()


def test_verify_skips_blank_lines(tmp_path, capsys):
    # An empty line between two records and a whitespace-only last line are
    # not records: the file verifies, and reads as the rows without them.
    out = tmp_path / "replay.jsonl"
    assert main(["run", "--mode", "replay", *TOY, "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("".join([*lines[:2], "\n", *lines[2:], " \t"]))
    capsys.readouterr()
    assert main(["verify-transcript", str(spaced)]) == 0, capsys.readouterr().out
    assert list(load_report(spaced)) == [json.loads(line) for line in lines]
