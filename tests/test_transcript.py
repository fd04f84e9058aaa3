"""Report file format: write/load roundtrip, the message codec, and full
re-verification, including tamper detection on serialized fields and parity
between the verifier and the party handlers."""

import copy
import dataclasses
import json
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import toy_config
from rsa_cegd.credentials import _cert_digest, _recovery_cert_digest
from rsa_cegd.crypto import PublicKey, hex_to_int, int_to_hex, mod_pow, rsa_sign
from rsa_cegd.harness import (
    BUYER,
    FAIR,
    OUTSIDER,
    SELLER,
    UNFAIR_FOR_B,
    RunConfig,
    build_world,
    evaluate_fairness,
    make_sessions,
    run_honest,
    run_mode,
    run_replay_attack,
    session_goods,
    verify_report,
)
from rsa_cegd.protocol import ArbiterService, Reject, check_offer, check_recovery_request
from rsa_cegd.transcript import (
    BODIES,
    evidence_record,
    ledger_from_record,
    load_report,
    row_pieces,
    write_report_lines,
)
from rsa_cegd.vres import _control_mask, make_auth_token


def rows_for(report):
    return [json.loads(line) for line in report.to_lines()]


def _written(value):
    return "".join(row_pieces(value))


# The ledgers take what the step checks passed without checking it again, so
# this is the guard that every evidence item a run writes verifies.
@pytest.mark.parametrize("mode, bits, seed", [
    (mode, bits, seed) for mode in ("honest", "replay", "eoo-forward")
    for bits in (16, 32, 64, 128) for seed in range(1, 6)],
    ids=lambda value: str(value))
def test_all_modes_verify_clean(mode, bits, seed):
    report = run_mode(toy_config(seed=seed, mode=mode, bits=bits))
    assert verify_report(rows_for(report)) == []


def test_write_load_roundtrip(tmp_path):
    report = run_honest(toy_config(seed=7))
    path = tmp_path / "honest.jsonl"
    write_report_lines(report.rows(), path)
    assert path.read_text() == "".join(line + "\n" for line in report.to_lines())
    assert list(load_report(path)) == rows_for(report)


def test_detects_flipped_vres_component():
    report = run_honest(toy_config(seed=7))
    rows = rows_for(report)
    e2 = next(r for r in rows if r.get("step") == "E2")
    value = e2["fields"]["blinded_receipt"]
    e2["fields"]["blinded_receipt"] = ("1" if value[0] != "1" else "2") + value[1:]
    problems = verify_report(rows)
    assert problems == ["session 1 E2: bad-vres"]


def test_detects_flipped_ciphertext():
    report = run_honest(toy_config(seed=7))
    rows = rows_for(report)
    e1 = next(r for r in rows if r.get("step") == "E1")
    ct = e1["fields"]["ciphertext"]
    e1["fields"]["ciphertext"] = ("0" if ct[0] != "0" else "1") + ct[1:]
    problems = verify_report(rows)
    assert problems == ["session 1 E1: hd-mismatch"]


def test_detects_tampered_receipt_evidence():
    report = run_replay_attack(toy_config(seed=6, mode="replay"))
    rows = rows_for(report)
    evidence = next(r for r in rows
                    if r["type"] == "evidence" and r["receipts"])
    value = evidence["receipts"][0]["value"]
    evidence["receipts"][0]["value"] = ("1" if value[0] != "1" else "2") + value[1:]
    problems = verify_report(rows)
    assert any("receipt does not verify" in p for p in problems)


def test_detects_verdict_mismatch():
    report = run_honest(toy_config(seed=7))
    rows = rows_for(report)
    rows[-1] = {"type": "verdict", "verdict": "UNFAIR_FOR_B",
                "goods_hash": "aa", "receipt_holder": "seller"}
    problems = verify_report(rows)
    assert any("verdict mismatch" in p for p in problems)


def test_detects_missing_header():
    report = run_honest(toy_config(seed=7))
    rows = rows_for(report)
    assert verify_report(rows[1:]) == ["missing header record"]


def test_detects_missing_verdict():
    report = run_honest(toy_config(seed=7))
    rows = rows_for(report)
    assert verify_report(rows[:-1]) == ["record 9: expected the verdict, found the end"]


def test_stale_recovery_transcript_still_verifies():
    # The replay transcript's R1 reuses a session-1 tuple inside session 2;
    # the per-record checks are internal-consistency checks, so the file
    # must verify clean even though the run it records was an attack.
    report = run_replay_attack(toy_config(seed=13, mode="replay"))
    assert verify_report(rows_for(report)) == []


# --- the message codec -----------------------------------------------------------

@pytest.mark.parametrize("bits, exponent", [(32, 3), (256, 65537)])
@pytest.mark.parametrize("mode", ["honest", "replay", "eoo-forward"])
def test_codec_round_trip(mode, bits, exponent):
    # Encoding a decoded body or ledger gives back the same fields, in the
    # same order. Rows hold byte strings as bytes, which only the writer
    # turns into hex, so both sides are compared as written.
    for seed in (1, 2, 3):
        report = run_mode(RunConfig(mode=mode, bits=bits, exponent=exponent, seed=seed))
        for record in rows_for(report):
            if record["type"] == "message":
                fields = record["fields"]
                encoded = BODIES[record["step"]][0](BODIES[record["step"]][1](fields))
                assert _written(encoded) == _written(fields)
            elif record["type"] == "evidence":
                encoded = evidence_record(record["party"], ledger_from_record(record))
                assert _written(encoded) == _written(record)


def _hexed(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    return value


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text() | st.binary(max_size=9000)


@settings(max_examples=200, deadline=None)
@given(st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12))
def test_row_pieces_match_json_dumps(value):
    # Bytes are written as their hex, in slices (9000 bytes span three), and
    # everything else exactly as json.dumps writes it.
    assert _written(value) == json.dumps(_hexed(value), separators=(",", ":"))


def test_row_without_long_bytes_is_one_piece():
    # Only a byte string longer than one slice splits a row.
    assert list(row_pieces({"a": b"\x01"})) == ['{"a":"01"}']


# --- parity: the verifier reports what the receiving handler rejects -------------

def _config(mode):
    return RunConfig(mode=mode, bits=64, seed=3)


@lru_cache(maxsize=None)
def _lines(mode):
    return tuple(run_mode(_config(mode)).to_lines())


def _rows(mode):
    return [json.loads(line) for line in _lines(mode)]


def _flip(text):
    return ("1" if text[0] != "1" else "2") + text[1:]


def _receiving_handler(mode, step):
    """The handler that receives `step`, in the state it is in when that step
    arrives during session 1 of the scripted run."""
    config = _config(mode)
    world = build_world(config)
    if step == "R1":
        arbiter = ArbiterService(world.arbiter, world.registry)
        return lambda body: arbiter.on_recovery_request(body, SELLER)
    sender, receiver = make_sessions(world, 1)
    offer = sender.start(*session_goods(config, 1))
    if step == "E1":
        return receiver.on_goods_offer
    enc_receipt = receiver.on_goods_offer(offer)
    if step == "E2":
        return sender.on_encrypted_receipt
    if step == "E3":
        return receiver.on_key_release
    sender.on_encrypted_receipt(enc_receipt)
    return sender.on_receipt_release


_PARITY_CASES = [
    ("honest", "E1", ("origin_proof",), _flip, "eoo-mismatch"),
    ("honest", "E1", ("ciphertext",), _flip, "hd-mismatch"),
    ("honest", "E1", ("cert", "signature"), _flip, "bad-cert-signature"),
    ("honest", "E2", ("blinded_receipt",), _flip, "bad-vres"),
    ("honest", "E2", ("auth_token",), _flip, "bad-token"),
    ("honest", "E2", ("recovery_cert", "signature"), _flip, "bad-recovery-cert"),
    ("honest", "E3", ("randomizer",), _flip, "bad-key"),
    ("honest", "E4", ("randomizer",), _flip, "bad-rb"),
    ("replay", "R1", ("sender_randomizer",), _flip, "bad-sender-randomizer"),
    ("replay", "R1", ("counterparty",), lambda _: "nobody", "unknown-counterparty"),
]


@pytest.mark.parametrize("mode, step, path, tamper, code", _PARITY_CASES,
                         ids=[f"{c[1]}-{'.'.join(c[2])}" for c in _PARITY_CASES])
def test_verifier_matches_handler(mode, step, path, tamper, code):
    rows = _rows(mode)
    record = next(r for r in rows if r.get("step") == step)
    parent = record["fields"]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = tamper(parent[path[-1]])
    with pytest.raises(Reject) as err:
        _receiving_handler(mode, step)(BODIES[step][1](record["fields"]))
    assert err.value.reason == code
    prefix = f"session {record['session']} {step}: "
    problems = verify_report(rows)
    assert [p for p in problems if p.startswith(prefix)] == [prefix + code]


# --- routes ---------------------------------------------------------------------

@pytest.mark.parametrize("value", ["another-party", 5, None, "delete"])
@pytest.mark.parametrize("mode", ["honest", "replay"])
def test_misrouted_message_is_a_problem(mode, value):
    pristine = _rows(mode)
    header = pristine[0]
    parties = sorted(header["parties"]) + [header["arbiter"]["id"]]
    for index, record in enumerate(pristine):
        if record["type"] != "message":
            continue
        for key in ("sender", "recipient"):
            rows = copy.deepcopy(pristine)
            if value == "delete":
                del rows[index][key]
            elif value == "another-party":
                rows[index][key] = next(p for p in parties if p != record[key])
            else:
                rows[index][key] = value
            # Reported once, at the message itself, whatever the step's
            # check would say of the new route; nothing raises.
            expected = f"session {record['session']} {record['step']}: misrouted"
            assert verify_report(rows) == [expected], f"{key} = {value!r}"


# --- the header's fields -----------------------------------------------------------

_HEADER_EDITS = [
    (("format",), 2, "header: unsupported format 2"),
    (("format",), "delete", "header: unsupported format None"),
    (("mode",), "nope", "header: unknown mode 'nope'"),
    (("parties",), ["buyer"], "header: parties do not match the registry"),
    (("exponent",), "3", "header: seller key exponent is not the header's exponent"),
    (("exponent",), "delete", "malformed header: 'exponent'"),
    (("bits",), 63, "header: arbiter key modulus is not 63 bits"),
    (("registry", "buyer", "e"), "3", "header: buyer key exponent is not the header's exponent"),
    (("ca", "n"), lambda n: n[1:], "header: ca key modulus is not 64 bits"),
    (("arbiter", "e"), "3", "header: arbiter key exponent is not the header's exponent"),
    (("goods_size",), 63, "session 2 E1: goods-size-mismatch"),
    (("goods_size",), "zz", "session 1 E1: goods-size-mismatch"),
    (("seed",), "abc", "header: seed must be an integer"),
    (("seed",), -1, "header: seed must be >= 0"),
    (("seed",), True, "header: seed must be an integer"),
    (("seed",), "delete", "header: seed must be an integer"),
    (("bits",), 64.0, "header: bits must be an integer"),
    (("format",), 1.0, "header: unsupported format 1.0"),
    (("goods_size",), float, "header: goods_size must be an integer"),
    (("ca", "n"), "3", "header: ca key modulus is not odd and above its exponent"),
]


@pytest.mark.parametrize("path, value, expected", _HEADER_EDITS,
                         ids=[f"{'.'.join(c[0])}-{i}" for i, c in enumerate(_HEADER_EDITS)])
def test_header_edit_is_a_problem(path, value, expected):
    rows = _rows("replay")
    node = rows[0]
    for key in path[:-1]:
        node = node[key]
    if value == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    assert expected in verify_report(rows)


# --- one fault, one problem -------------------------------------------------------

def _edit_seller_receipt(edit):
    def apply(rows):
        row = next(r for r in rows if r.get("party") == "seller")
        row["receipts"][0]["value"] = edit(row["receipts"][0]["value"])
    return apply


def _hex_exponent(rows):
    rows[0]["exponent"] = "0x10001"


def _underscore_in_modulus(rows):
    n = rows[0]["registry"]["buyer"]["n"]
    rows[0]["registry"]["buyer"]["n"] = n[0] + "_" + n[1:]


def _drop_buyer_receipts(rows):
    del next(r for r in rows if r.get("party") == "buyer")["receipts"]


def _edit_first_e1(edit, *path):
    def apply(rows):
        node = next(r for r in rows if r.get("step") == "E1")["fields"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = edit(node[path[-1]])
    return apply


def _spaced(text):
    return " ".join(text[i:i + 2] for i in range(0, len(text), 2))


def _upper_buyer_payload(rows):
    goods = next(r for r in rows if r.get("party") == "buyer")["goods"][0]
    goods["payload"] = goods["payload"].upper()


def _add_key(*path):
    """Adds the key "extra" to the node `path` leads to: a record found by
    the (key, value) pair path[0], then keys and list indices."""
    def apply(rows):
        key, value = path[0]
        node = next(r for r in rows if r.get(key) == value)
        for step in path[1:]:
            node = node[step]
        node["extra"] = 1
    return apply


def _principal_id(name, value):
    """Sets the id of the header's `name` entry to `value`, or deletes it."""
    def apply(rows):
        if value == "delete":
            del rows[0][name]["id"]
        else:
            rows[0][name]["id"] = value
    return apply


def _outsider_modulus_plus_one(rows):
    key = rows[0]["registry"]["outsider"]
    key["n"] = int_to_hex(hex_to_int(key["n"]) + 1)


def _set(path, value):
    """Sets the leaf `path` leads to (see _node) to `value`."""
    def apply(rows):
        _node(rows, path[:-1])[path[-1]] = value
    return apply


_NON_CANONICAL = "hex is not in canonical form"
_ONE_PROBLEM_EDITS = [
    ("receipt-0x", "replay", _edit_seller_receipt(lambda v: "0x" + v),
     f"malformed evidence for seller: {_NON_CANONICAL}"),
    ("receipt-upper", "replay", _edit_seller_receipt(lambda v: "A" + v.upper()),
     f"malformed evidence for seller: {_NON_CANONICAL}"),
    ("receipt-leading-zero", "replay", _edit_seller_receipt(lambda v: "0" + v),
     f"malformed evidence for seller: {_NON_CANONICAL}"),
    ("receipt-negative", "replay", _edit_seller_receipt(lambda v: "-" + v),
     f"malformed evidence for seller: {_NON_CANONICAL}"),
    ("blinded-key-0x", "replay", _edit_first_e1(lambda v: "0x" + v, "blinded_key"),
     f"malformed E1 record: {_NON_CANONICAL}"),
    ("exponent-0x", "replay", _hex_exponent, f"malformed header: {_NON_CANONICAL}"),
    ("modulus-underscore", "replay", _underscore_in_modulus,
     f"malformed header: {_NON_CANONICAL}"),
    ("buyer-no-receipts", "replay", _drop_buyer_receipts,
     "malformed evidence for buyer: 'receipts'"),
    ("ciphertext-upper", "replay", _edit_first_e1(str.upper, "ciphertext"),
     f"malformed E1 record: {_NON_CANONICAL}"),
    ("description-spaced", "replay", _edit_first_e1(_spaced, "cert", "description"),
     f"malformed E1 record: {_NON_CANONICAL}"),
    ("payload-upper", "honest", _upper_buyer_payload,
     f"malformed evidence for buyer: {_NON_CANONICAL}"),
    ("e1-fields-extra", "replay", _add_key(("step", "E1"), "fields"),
     "malformed E1 record: unknown fields ['extra']"),
    ("e1-cert-extra", "replay", _add_key(("step", "E1"), "fields", "cert"),
     "malformed E1 record: unknown fields ['extra']"),
    ("e2-recovery-cert-extra", "replay", _add_key(("step", "E2"), "fields", "recovery_cert"),
     "malformed E2 record: unknown fields ['extra']"),
    ("r1-fields-extra", "replay", _add_key(("step", "R1"), "fields"),
     "malformed R1 record: unknown fields ['extra']"),
    ("header-extra", "replay", _add_key(("type", "header")), "header: unknown key 'extra'"),
    ("registry-key-extra", "replay", _add_key(("type", "header"), "registry", "buyer"),
     "malformed header: unknown fields ['extra']"),
    ("ca-key-extra", "replay", _add_key(("type", "header"), "ca"),
     "malformed header: unknown fields ['extra']"),
    ("arbiter-key-extra", "replay", _add_key(("type", "header"), "arbiter"),
     "malformed header: unknown fields ['extra']"),
    ("message-extra", "replay", _add_key(("step", "E1")), "record 2: unknown key 'extra'"),
    ("milestone-extra", "replay", _add_key(("type", "milestone")),
     "record 4: unknown key 'extra'"),
    ("evidence-extra", "replay", _add_key(("party", "seller")),
     "record 17: unknown key 'extra'"),
    ("receipt-item-extra", "replay", _add_key(("party", "seller"), "receipts", 0),
     "malformed evidence for seller: unknown fields ['extra']"),
    ("goods-item-extra", "honest", _add_key(("party", "buyer"), "goods", 0),
     "malformed evidence for buyer: a goods item has unknown fields"),
    ("ca-id-changed", "replay", _principal_id("ca", "x"),
     "header: ca id is not 'cert-authority'"),
    ("ca-id-deleted", "honest", _principal_id("ca", "delete"),
     "header: ca id is not 'cert-authority'"),
    ("arbiter-id-changed-honest", "honest", _principal_id("arbiter", "x"),
     "header: arbiter id is not 'arbiter'"),
    ("arbiter-id-changed-replay", "replay", _principal_id("arbiter", "x"),
     "header: arbiter id is not 'arbiter'"),
    ("outsider-modulus-even", "eoo-forward", _outsider_modulus_plus_one,
     "header: outsider key modulus is not odd and above its exponent"),
    # A party name that is not a string is malformed, not an unknown party.
    ("receipt-signer-number", "replay", _set((("party", "seller"), "receipts", 0, "signer"), 5),
     "malformed evidence for seller: party name must be a string, not int"),
    ("r1-counterparty-number", "replay", _set((("step", "R1"), "fields", "counterparty"), 5),
     "malformed R1 record: party name must be a string, not int"),
]


@pytest.mark.parametrize("mode, edit, expected", [c[1:] for c in _ONE_PROBLEM_EDITS],
                         ids=[c[0] for c in _ONE_PROBLEM_EDITS])
def test_malformed_field_is_one_problem(mode, edit, expected):
    # Integers and byte strings are accepted only in canonical lowercase hex,
    # and a row that does not decode is reported once, not again by the verdict.
    # A header principal's id, or a key's form, is one header problem.
    rows = _rows(mode)
    edit(rows)
    assert verify_report(rows) == [expected]


@pytest.mark.parametrize("value", [1.0, True, "1", 0])
@pytest.mark.parametrize("mode", ["honest", "replay", "eoo-forward"])
def test_session_must_be_positive_int(mode, value):
    # 1.0 and True compare equal to 1, so only the type tells them apart.
    rows = _rows(mode)
    expected = []
    for number, row in enumerate(rows, start=1):
        if row["type"] in ("message", "milestone") and row["session"] == 1:
            row["session"] = value
            expected.append(f"record {number}: {row['type']} session is not a positive integer")
    assert verify_report(rows) == expected


# --- the header's mode against the records (SKELETON) ------------------------------

def _replay_as_honest(rows):
    rows[0]["mode"] = "honest"


def _honest_as_eoo_forward(rows):
    rows[0]["mode"] = "eoo-forward"


def _drop_forward_milestone(rows):
    rows[:] = [r for r in rows if r.get("label") != "eoo-forwarded-out-of-band"]


@pytest.mark.parametrize("mode, edit, expected", [
    ("replay", _replay_as_honest,
     ["record 4: expected message E3 of session 1, found milestone abort-after-E2 of session 1"]),
    # An eoo-forward world registers the outsider too, and without the mode's
    # parties nothing past the header is checked.
    ("honest", _honest_as_eoo_forward,
     ["header: registry is not the parties of mode 'eoo-forward'"]),
    ("eoo-forward", _drop_forward_milestone,
     ["record 7: expected milestone eoo-forwarded-out-of-band of session 1, "
      "found evidence for buyer"]),
], ids=["replay-as-honest", "honest-as-eoo-forward", "eoo-forward-without-forward"])
def test_mode_must_match_milestones(mode, edit, expected):
    rows = _rows(mode)
    edit(rows)
    assert verify_report(rows) == expected


def _place(row):
    """A genuine record's place in the words of a record-order problem."""
    if row["type"] == "message":
        return f"message {row['step']} of session {row['session']}"
    if row["type"] == "milestone":
        return f"milestone {row['label']} of session {row['session']}"
    return f"evidence for {row['party']}" if row["type"] == "evidence" else "the verdict"


@pytest.mark.parametrize("mode", ["honest", "replay", "eoo-forward"])
def test_each_deleted_record_is_one_problem(mode):
    # Deleting any record after the header is one record-order problem at its
    # number and nothing else: a message whose check reads the deleted one is
    # not checked, and no evidence or verdict is checked after the first
    # misplaced record.
    rows = _rows(mode)
    wrong = []
    for index in range(1, len(rows)):
        found = _place(rows[index + 1]) if index + 1 < len(rows) else "the end"
        expected = [f"record {index + 1}: expected {_place(rows[index])}, found {found}"]
        problems = verify_report(rows[:index] + rows[index + 1:])
        if problems != expected:
            wrong.append((index, problems))
    assert wrong == []


# --- fuzz: the verifier never raises ----------------------------------------------

_BAD_VALUES = [[], {}, 5, "zz", None]
_FUZZ_CONFIG = RunConfig(mode="replay", bits=32, exponent=3, seed=3)
_FUZZ_ROWS = [json.loads(line) for line in run_mode(_FUZZ_CONFIG).to_lines()]


def _paths(node, prefix=()):
    """Every (record index, key, ...) path into the rows, at any depth."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_FUZZ_PATHS = list(_paths(_FUZZ_ROWS))
_field_edit = st.tuples(st.sampled_from(_FUZZ_PATHS),
                        st.sampled_from(list(range(len(_BAD_VALUES))) + ["delete"]))
_record_edit = st.tuples(st.sampled_from(["delete", "duplicate", "append", "swap"]),
                         st.integers(0, len(_FUZZ_ROWS) - 1),
                         st.integers(0, len(_FUZZ_ROWS) - 1))


def _apply_field_edit(rows, path, choice):
    node = rows
    try:
        for key in path[:-1]:
            node = node[key]
        if choice == "delete":
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(_BAD_VALUES[choice])
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit removed or replaced this path


def _apply_record_edit(rows, op, i, j):
    i, j = i % len(rows), j % len(rows)
    if op == "delete":
        del rows[i]
    elif op == "duplicate":
        rows.insert(j, copy.deepcopy(rows[i]))
    elif op == "append":  # insert cannot put a row after the last
        rows.append(copy.deepcopy(rows[i]))
    else:
        rows[i], rows[j] = rows[j], rows[i]


@settings(max_examples=300, deadline=None)
@given(field_edits=st.lists(_field_edit, max_size=3),
       record_edits=st.lists(_record_edit, max_size=2))
# A row with a session of the wrong type, appended after the verdict: there is
# no skeleton entry left for it, so it must end the comparison.
@example(field_edits=[((7, "session"), 0)], record_edits=[("append", 7, 0)])
def test_verifier_never_raises(field_edits, record_edits):
    rows = copy.deepcopy(_FUZZ_ROWS)
    for path, choice in field_edits:
        _apply_field_edit(rows, path, choice)
    for op, i, j in record_edits:
        if rows:
            _apply_record_edit(rows, op, i, j)
    problems = verify_report(rows)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


# --- sweep: one accepted spelling per transcript ------------------------------------

_DELETE = object()


def _leaves(node, path=()):
    """The path to every leaf of a record: keys and list indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _walk(node, path):
    for key in path:
        node = node[key]
    return node


def _leaf_edits(value, moduli):
    """(name, new value) of each edit of one leaf; _DELETE deletes it."""
    yield "null", None
    yield "delete", _DELETE
    if type(value) is int:
        yield "+1", value + 1
        yield "string", str(value)
        return
    yield "string", value + "0"
    try:
        number = hex_to_int(value)
    except ValueError:
        return  # a name, not a hex integer
    yield "+1", int_to_hex(number + 1)
    for index, modulus in enumerate(moduli):
        yield f"+modulus {index}", int_to_hex(number + modulus)


def _record_edits(count):
    """(name, rows -> edited rows) of each delete, duplicate and neighbour swap
    of the records after the header."""
    for i in range(1, count):
        yield f"delete {i}", lambda rows, i=i: rows[:i] + rows[i + 1:]
        yield f"duplicate {i}", lambda rows, i=i: rows[:i + 1] + rows[i:]
        if i + 1 < count:
            yield f"swap {i}", lambda rows, i=i: [*rows[:i], rows[i + 1], rows[i], *rows[i + 2:]]


@pytest.mark.parametrize("mode", ["honest", "replay", "eoo-forward"])
def test_every_edit_is_a_problem(mode):
    # Every leaf edited four ways (+1, a string edit, null, deleted), each hex
    # integer also plus each header modulus, the E2 recovery modulus and each
    # product of two of them; every record deleted, duplicated and swapped with
    # its neighbour. Only the seed's value needs a re-run to check, so only
    # seed + 1 verifies clean. The verifier reads rows without editing them, so
    # the edited rows share every record but the one edit.
    lines, rows = _lines(mode), _rows(mode)
    header = rows[0]
    keys = [*header["registry"].values(), header["ca"], header["arbiter"],
            _node(rows, (_E2, "fields", "recovery_cert"))]
    single = [hex_to_int(key["n"]) for key in keys]
    moduli = single + [a * b for index, a in enumerate(single) for b in single[index + 1:]]
    clean = []
    for index, line in enumerate(lines):
        for *path, leaf in _leaves(rows[index]):
            for name, value in _leaf_edits(_walk(rows[index], path)[leaf], moduli):
                record = json.loads(line)
                parent = _walk(record, path)
                if value is _DELETE:
                    del parent[leaf]
                else:
                    parent[leaf] = value
                if verify_report([*rows[:index], record, *rows[index + 1:]]) == []:
                    clean.append((index, (*path, leaf), name))
    for name, edit in _record_edits(len(rows)):
        if verify_report(edit(rows)) == []:
            clean.append(name)
    assert clean == [(0, ("seed",), "+1")]


# --- signatures must lie below their modulus --------------------------------------

def _node(rows, path):
    """The node `path` leads to: a record found by the (key, value) pair
    path[0], then keys and list indices."""
    key, value = path[0]
    node = next(r for r in rows if r.get(key) == value)
    for step in path[1:]:
        node = node[step]
    return node


# (name, modes, signature's path, its signer's modulus' path, the one problem)
_E1, _E2 = ("step", "E1"), ("step", "E2")
_HEADER = ("type", "header")
_ALL_MODES = ("honest", "replay", "eoo-forward")
_SIGNATURE_PLUS_MODULUS = [
    ("e1-origin-proof", _ALL_MODES, (_E1, "fields", "origin_proof"),
     (_HEADER, "registry", "seller", "n"), "session 1 E1: eoo-mismatch"),
    ("e1-cert-signature", _ALL_MODES, (_E1, "fields", "cert", "signature"),
     (_HEADER, "ca", "n"), "session 1 E1: bad-cert-signature"),
    ("e2-auth-token", _ALL_MODES, (_E2, "fields", "auth_token"),
     (_HEADER, "registry", "buyer", "n"), "session 1 E2: bad-token"),
    ("e2-blinded-receipt", _ALL_MODES, (_E2, "fields", "blinded_receipt"),
     (_HEADER, "registry", "buyer", "n"), "session 1 E2: bad-vres"),
    ("e2-control", _ALL_MODES, (_E2, "fields", "control"),
     (_E2, "fields", "recovery_cert", "n"), "session 1 E2: bad-vres"),
    ("receipt", _ALL_MODES, (("party", "seller"), "receipts", 0, "value"),
     (_HEADER, "registry", "buyer", "n"), "evidence for seller: receipt does not verify"),
    ("buyer-origin-proof", ("honest", "eoo-forward"),
     (("party", "buyer"), "origin_proofs", 0, "value"), (_HEADER, "registry", "seller", "n"),
     "evidence for buyer: origin proof does not verify"),
    ("outsider-origin-proof", ("eoo-forward",),
     (("party", "outsider"), "origin_proofs", 0, "value"),
     (_HEADER, "registry", "seller", "n"),
     "evidence for outsider: origin proof does not verify"),
]


@pytest.mark.parametrize("mode, path, modulus_path, expected", [
    (mode, *case[2:]) for case in _SIGNATURE_PLUS_MODULUS for mode in case[1]],
    ids=[f"{case[0]}-{mode}" for case in _SIGNATURE_PLUS_MODULUS for mode in case[1]])
def test_signature_plus_modulus_is_one_problem(mode, path, modulus_path, expected):
    # s + n has the same e-th power mod n as s, so only the bound s < n
    # rejects it.
    rows = _rows(mode)
    modulus = hex_to_int(_node(rows, modulus_path[:-1])[modulus_path[-1]])
    parent = _node(rows, path[:-1])
    parent[path[-1]] = int_to_hex(hex_to_int(parent[path[-1]]) + modulus)
    assert verify_report(rows) == [expected]


# (name, modes, value's path, the paths of the moduli whose product is added,
# the one problem)
_R1, _R2 = ("step", "R1"), ("step", "R2")
_VALUE_PLUS_MODULUS = [
    ("e1-blinded-key", _ALL_MODES, (_E1, "fields", "blinded_key"),
     [(_HEADER, "registry", "seller", "n")], "session 1 E1: bad-enc-key"),
    ("e3-randomizer", ("honest", "eoo-forward"), (("step", "E3"), "fields", "randomizer"),
     [(_HEADER, "registry", "seller", "n")], "session 1 E3: bad-key"),
    ("e4-randomizer", ("honest", "eoo-forward"), (("step", "E4"), "fields", "randomizer"),
     [(_HEADER, "registry", "buyer", "n"), (_E2, "fields", "recovery_cert", "n")],
     "session 1 E4: bad-rb"),
    ("r1-sender-randomizer", ("replay",), (_R1, "fields", "sender_randomizer"),
     [(_HEADER, "registry", "seller", "n")], "session 2 R1: bad-sender-randomizer"),
    ("r2-randomizer", ("replay",), (_R2, "fields", "randomizer"),
     [(_R1, "fields", "recovery_cert", "n")], "session 2 R2: residue-mismatch"),
]


@pytest.mark.parametrize("mode, path, modulus_paths, expected", [
    (mode, *case[2:]) for case in _VALUE_PLUS_MODULUS for mode in case[1]],
    ids=[f"{case[0]}-{mode}" for case in _VALUE_PLUS_MODULUS for mode in case[1]])
def test_value_plus_modulus_is_one_problem(mode, path, modulus_paths, expected):
    # A value a step reduces or inverts modulo n acts as itself plus n, so
    # only the bound v < n rejects the second spelling.
    rows = _rows(mode)
    modulus = 1
    for modulus_path in modulus_paths:
        modulus *= hex_to_int(_node(rows, modulus_path[:-1])[modulus_path[-1]])
    parent = _node(rows, path[:-1])
    parent[path[-1]] = int_to_hex(hex_to_int(parent[path[-1]]) + modulus)
    assert verify_report(rows) == [expected]


# --- each verifier check, pinned by the one problem it reports ---------------------
# An edit that a signature covers is re-signed with the run's own keys, so only
# the check under test can fire.

def _unknown_step(rows, world):
    e3 = next(r for r in rows if r.get("step") == "E3")
    rows.insert(rows.index(e3) + 1, {**e3, "step": "E5"})


def _delete_message(step, session):
    def apply(rows, world):
        rows.remove(next(r for r in rows
                         if r.get("step") == step and r["session"] == session))
    return apply


def _flip_field(step, *path):
    def apply(rows, world):
        parent = _node(rows, (("step", step), "fields", *path[:-1]))
        parent[path[-1]] = _flip(parent[path[-1]])
    return apply


def _recovery_cert_exponent(step):
    """Gives `step`'s recovery certificate the exponent 3, re-signed by the
    arbiter; the signer's exponent is 65537."""
    def apply(rows, world):
        cert = _node(rows, (("step", step), "fields", "recovery_cert"))
        pub = PublicKey(3, hex_to_int(cert["n"]))
        digest = _recovery_cert_digest(pub, hex_to_int(cert["masked_exponent"]),
                                       world.arbiter.n)
        cert["e"] = int_to_hex(pub.e)
        cert["signature"] = int_to_hex(rsa_sign(world.arbiter, digest))
    return apply


def _seller_as_counterparty(rows, world):
    # The seller signs a token that names itself, so R1 passes, and R3, which
    # goes to the buyer, does not go to R1's counterparty.
    fields = _node(rows, (_R1, "fields"))
    fields["counterparty"] = SELLER
    body = BODIES["R1"][1](fields)
    token = make_auth_token(world.keyrings[SELLER], body.recovery_cert,
                            body.enc_randomizer, body.sender_enc_randomizer, SELLER)
    fields["auth_token"] = int_to_hex(token)


def _extra_registered_party(rows, world):
    # A key the header's checks accept, and evidence that holds nothing.
    header = rows[0]
    header["registry"]["mallory"] = header["registry"][BUYER]
    header["parties"] = sorted(header["registry"])
    rows.insert(-1, {"type": "evidence", "party": "mallory", "goods": [],
                     "receipts": [], "origin_proofs": []})


def _registry_without_buyer(rows, world):
    header = rows[0]
    del header["registry"][BUYER]
    header["parties"] = sorted(header["registry"])


def _enc_key_sharing_a_factor(rows, world):
    # The goods certificate, re-signed by the CA, encrypts a key k^e that
    # shares the seller's prime p, so it has no inverse mod n.
    cert = _node(rows, (_E1, "fields", "cert"))
    enc_key = world.keyrings[SELLER].p
    digest = _cert_digest(bytes.fromhex(cert["description"]),
                          hex_to_int(cert["ciphertext_hash"]),
                          hex_to_int(cert["goods_hash"]), enc_key, world.ca.n)
    cert["enc_key"] = int_to_hex(enc_key)
    cert["signature"] = int_to_hex(rsa_sign(world.ca, digest))


def _e3_randomizer_without_inverse(rows, world):
    _node(rows, (("step", "E3"), "fields"))["randomizer"] = int_to_hex(
        world.keyrings[SELLER].p)


def _goods_hash_plus_one(rows, world):
    # The CA re-signs the certificate and the seller the origin proof, so E1
    # passes; E3's randomizer still unwraps the certified key, whose goods
    # hash to the old value. The buyer's triple signs the old hash too.
    fields = _node(rows, (_E1, "fields"))
    cert = fields["cert"]
    goods_hash = hex_to_int(cert["goods_hash"]) + 1
    digest = _cert_digest(bytes.fromhex(cert["description"]),
                          hex_to_int(cert["ciphertext_hash"]), goods_hash,
                          hex_to_int(cert["enc_key"]), world.ca.n)
    cert["goods_hash"] = int_to_hex(goods_hash)
    cert["signature"] = int_to_hex(rsa_sign(world.ca, digest))
    fields["origin_proof"] = int_to_hex(rsa_sign(world.keyrings[SELLER], goods_hash))


def _e4_randomizer_plus_buyer_modulus(rows, world):
    # r + n unblinds like r, since it is r mod n, but it is another residue
    # mod n', so it does not encrypt to E2's enc_randomizer.
    fields = _node(rows, (("step", "E4"), "fields"))
    fields["randomizer"] = int_to_hex(
        hex_to_int(fields["randomizer"]) + world.keyrings[BUYER].n)


def _e4_randomizer_without_inverse(rows, world):
    # A triple built by hand on the buyer's prime p, which generate_vres
    # refuses: it passes check_vres, and p has no inverse mod n.
    buyer, recovery = world.keyrings[BUYER], world.buyer_recovery[1]
    randomizer = buyer.p
    enc_randomizer = mod_pow(randomizer, buyer.e, buyer.n * recovery.n)
    offer = BODIES["E1"][1](_node(rows, (_E1, "fields")))
    sender_enc_randomizer = check_offer(offer, world.ca.public, world.registry[SELLER])
    fields = _node(rows, (_E2, "fields"))
    fields["enc_randomizer"] = int_to_hex(enc_randomizer)
    fields["blinded_receipt"] = int_to_hex(
        randomizer * rsa_sign(buyer, offer.cert.goods_hash) % buyer.n)
    fields["control"] = int_to_hex(
        randomizer * rsa_sign(recovery, _control_mask(enc_randomizer, recovery.n))
        % recovery.n)
    fields["auth_token"] = int_to_hex(make_auth_token(
        buyer, world.buyer_recovery[0], enc_randomizer, sender_enc_randomizer, SELLER))
    _node(rows, (("step", "E4"), "fields"))["randomizer"] = int_to_hex(randomizer)


def _unknown_record_type(rows, world):
    rows.insert(1, {"type": "note"})


def _not_an_object(rows, world):
    rows.insert(3, [1, 2])


def _buyer_party_in_a_list(rows, world):
    _node(rows, (("party", BUYER),))["party"] = [BUYER]


def _second_verdict(rows, world):
    rows.append({"type": "verdict", "verdict": "UNFAIR_FOR_A"})


def _bad_session_after_verdict(rows, world):
    rows.append({"type": "milestone", "session": 0, "label": "x"})


def _bad_session_then_verdict(rows, world):
    rows += [{"type": "milestone", "session": 0, "label": "x"}, rows[-1]]


def _receipt_from_unregistered_signer(rows, world):
    receipt = _node(rows, (("party", "seller"), "receipts", 0))
    receipt["signer"] = "nobody"
    # The verdict these rows give, so that only the signer is reported.
    rows[-1] = {"type": "verdict", "verdict": "UNFAIR_FOR_B",
                "goods_hash": receipt["goods_hash"], "receipt_holder": "seller"}


def _buyer_payload_flipped(rows, world):
    goods = _node(rows, (("party", "buyer"), "goods", 0))
    goods["payload"] = _flip(goods["payload"])


_PINNED_CHECKS = [
    # The step checks run on messages out of place too.
    ("unknown-step", "honest", _unknown_step,
     ["record 5: expected message E4 of session 1, found message E5 of session 1",
      "session 1 E5: unknown-step"]),
    # A missing message is the skeleton's problem; its dependents are not checked.
    ("missing-E1", "replay", _delete_message("E1", 2),
     ["record 6: expected message E1 of session 2, found message E2 of session 2"]),
    ("missing-R1", "replay", _delete_message("R1", 2),
     ["record 9: expected message R1 of session 2, "
      "found milestone stale-R1-accepted of session 2"]),
    ("missing-E1-honest", "honest", _delete_message("E1", 1),
     ["record 2: expected message E1 of session 1, found message E2 of session 1"]),
    ("forward-mismatch", "replay", _flip_field("R3", "randomizer"),
     ["session 2 R3: forward-mismatch"]),
    ("residue-mismatch", "replay", _flip_field("R2", "randomizer"),
     ["session 2 R2: residue-mismatch"]),
    ("e2-exponent-mismatch", "honest", _recovery_cert_exponent("E2"),
     ["session 1 E2: exponent-mismatch"]),
    ("r1-exponent-mismatch", "replay", _recovery_cert_exponent("R1"),
     ["session 2 R1: exponent-mismatch"]),
    ("r1-bad-recovery-cert", "replay", _flip_field("R1", "recovery_cert", "signature"),
     ["session 2 R1: bad-recovery-cert"]),
    ("r3-not-to-counterparty", "replay", _seller_as_counterparty,
     ["session 2 R3: misrouted"]),
    ("extra-registered-party", "honest", _extra_registered_party,
     ["header: registry is not the parties of mode 'honest'"]),
    # The step checks need the buyer's key, so nothing past the header is checked.
    ("registry-without-buyer", "replay", _registry_without_buyer,
     ["header: registry is not the parties of mode 'replay'"]),
    ("bad-enc-key", "honest", _enc_key_sharing_a_factor, ["session 1 E1: bad-enc-key"]),
    ("e3-randomizer-without-inverse", "honest", _e3_randomizer_without_inverse,
     ["session 1 E3: bad-key"]),
    ("goods-hash-plus-one", "honest", _goods_hash_plus_one,
     ["session 1 E2: bad-vres", "session 1 E3: bad-key"]),
    ("e4-randomizer-plus-buyer-modulus", "honest", _e4_randomizer_plus_buyer_modulus,
     ["session 1 E4: bad-rb"]),
    ("e4-randomizer-without-inverse", "honest", _e4_randomizer_without_inverse,
     ["session 1 E4: bad-rb"]),
    ("unknown-record-type", "honest", _unknown_record_type,
     ["record 2: expected message E1 of session 1, found a record of type 'note'"]),
    # A record that is not an object ends the comparison, so the records after
    # it are not each reported as out of place.
    ("not-an-object", "honest", _not_an_object, ["record 4 is not a JSON object"]),
    # Evidence and a verdict out of place are not checked: a party that is a
    # list is never used as a key, and a second verdict is not compared.
    ("evidence-party-in-a-list", "honest", _buyer_party_in_a_list,
     ["record 7: expected evidence for buyer, found evidence for ['buyer']"]),
    ("second-verdict", "honest", _second_verdict,
     ["record 10: expected the end, found the verdict"]),
    # A record whose session is not a positive integer also ends the comparison,
    # wherever it is: past the verdict, there is no skeleton entry to compare.
    ("bad-session-after-verdict", "honest", _bad_session_after_verdict,
     ["record 10: milestone session is not a positive integer"]),
    ("bad-session-then-verdict", "honest", _bad_session_then_verdict,
     ["record 10: milestone session is not a positive integer"]),
    ("unknown-signer", "honest", _receipt_from_unregistered_signer,
     ["evidence for seller: receipt from unknown signer 'nobody'"]),
    ("goods-hash-mismatch", "honest", _buyer_payload_flipped,
     ["evidence for buyer: goods payload does not match its hash"]),
]


@pytest.mark.parametrize("mode, edit, expected", [c[1:] for c in _PINNED_CHECKS],
                         ids=[c[0] for c in _PINNED_CHECKS])
def test_verifier_check_is_pinned(mode, edit, expected):
    rows = _rows(mode)
    edit(rows, build_world(_config(mode)))
    assert verify_report(rows) == expected


def test_wrong_randomizer_is_rejected_before_decryption(monkeypatch):
    # key^e == enc_key is checked before the goods are decrypted, so a wrong
    # E3 randomizer costs no pass over the ciphertext.
    calls = []
    monkeypatch.setattr("rsa_cegd.protocol.sym_decrypt", lambda *args: calls.append(args))
    rows = _rows("honest")
    _node(rows, (("step", "E3"), "fields"))["randomizer"] = int_to_hex(2)
    assert verify_report(rows) == ["session 1 E3: bad-key"]
    assert calls == []


def test_unknown_requester_is_pinned():
    # The verifier takes every R1 as the seller's (its ROUTE), so only direct
    # callers and the arbiter can name a requester the registry lacks. The
    # buyer's token names the requester, so it is signed anew for it.
    world = build_world(_config("replay"))
    request = BODIES["R1"][1](_node(_rows("replay"), (_R1, "fields")))
    token = make_auth_token(world.keyrings[BUYER], request.recovery_cert,
                            request.enc_randomizer, request.sender_enc_randomizer, "nobody")
    with pytest.raises(Reject) as err:
        check_recovery_request(dataclasses.replace(request, auth_token=token), "nobody",
                               world.arbiter.public, world.registry)
    assert err.value.reason == "unknown-requester"


# --- evidence rows forged to match a forged verdict ------------------------------

# (mode, party, the evidence lists emptied, the verdict the edited rows give)
_FORGED_EVIDENCE = [
    ("replay", SELLER, ("receipts",), FAIR),
    ("eoo-forward", OUTSIDER, ("goods", "origin_proofs"), FAIR),
    ("honest", BUYER, ("goods", "origin_proofs"), UNFAIR_FOR_B),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the verifier recomputes the verdict from the "
                          "evidence rows, not from the messages that passed their checks")
@pytest.mark.parametrize("mode, party, emptied, verdict", _FORGED_EVIDENCE,
                         ids=[c[0] for c in _FORGED_EVIDENCE])
def test_forged_evidence_is_a_problem(mode, party, emptied, verdict):
    rows = _rows(mode)
    evidence = [row for row in rows if row["type"] == "evidence"]
    for key in emptied:
        next(row for row in evidence if row["party"] == party)[key] = []
    forged = evaluate_fairness({row["party"]: ledger_from_record(row) for row in evidence})
    if forged.status != verdict:  # not an AssertionError: the edit itself went wrong
        pytest.fail(f"the edited evidence gives {forged.status}, not {verdict}")
    rows[-1] = forged.to_record()
    assert verify_report(rows) != []
