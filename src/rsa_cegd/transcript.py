"""Transcript records and the JSON-lines report file format.

A report file is one JSON object per line: a header record, then the
records of its mode's run in the order harness.SKELETON lists (messages and
milestones as they happened, one evidence record per party, parties sorted,
and the verdict record).

Record shapes (all big integers in canonical lowercase hex, all byte
strings in lowercase hex with no spaces):

  header    {"type":"header","format":1,"mode":...,"bits":...,
             "exponent":hex,"seed":int,"goods_size":int,
             "parties":[id,...],"registry":{id:{"e":hex,"n":hex},...},
             "ca":{"id":...,"e":hex,"n":hex},
             "arbiter":{"id":...,"e":hex,"n":hex}}
  message   {"type":"message","step":"E1".."R3","session":int,
             "sender":id,"recipient":id,"fields":{...}}
  milestone {"type":"milestone","session":int,"label":...}
  evidence  {"type":"evidence","party":id,
             "goods":[{"goods_hash":hex,"payload":hex},...],
             "receipts":[{"signer":id,"goods_hash":hex,"value":hex},...],
             "origin_proofs":[{"originator":id,"goods_hash":hex,
                               "value":hex},...]}
  verdict   {"type":"verdict","verdict":"FAIR"}
            {"type":"verdict","verdict":"UNFAIR_FOR_B",
             "goods_hash":hex,"receipt_holder":id}
            {"type":"verdict","verdict":"UNFAIR_FOR_A",
             "goods_hash":hex,"eoo_holder":id}

In memory a row holds each byte string as the bytes object the run holds
(the E1 ciphertext and the goods payloads run to MiBs); only the writer
turns it into hex, a long one a slice at a time, so no hex copy of large
goods ever exists.

The "fields" of a message follow the wire layout of its step, in wire
order; BODIES holds one (encode, decode) pair per step, built from those
layouts, and is the only code that maps message bodies to fields and back.
Likewise evidence_record is the only code that writes a ledger's items, and
ledger_from_record, its inverse, the only reader of evidence rows.

Identical runs serialize to byte-identical files: nothing time- or
environment-dependent is recorded.
"""

import json
from collections.abc import Iterable, Iterator
from itertools import filterfalse
from operator import attrgetter
from typing import get_type_hints

from .credentials import GoodsCertificate, RecoverableCert
from .crypto import PublicKey, hex_to_int, int_to_hex
from .protocol import (
    EncryptedReceipt,
    EvidenceLedger,
    GoodsOffer,
    KeyRelease,
    ReceiptRelease,
    RecoveredGoodsKey,
    RecoveredReceiptKey,
    RecoveryRequest,
)
from .vres import Signature


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"party name must be a string, not {type(value).__name__}")
    return value


def _hex_bytes(text: str) -> bytes:
    """Inverse of bytes.hex: only lowercase hex without spaces is accepted.
    Checked in place, since the text can be the goods, several MiB long."""
    raw = bytes.fromhex(text)
    if len(text) != 2 * len(raw) or any(c in text for c in "ABCDEF"):
        raise ValueError("hex is not in canonical form")
    return raw


def _same(value):
    return value


# Field kinds: (encode, decode) of one wire value; a codec is one too. A byte
# string stays bytes in the row (row_pieces writes it as hex), so a row
# shares the run's copy.
_HEX_INT = (int_to_hex, hex_to_int)
_HEX_BYTES = (_same, _hex_bytes)
_NAME = (str, _name)


def _codec(cls, layout):
    """(encode, decode) between `cls` and its wire fields. `layout` lists
    (wire name, kind[, path]) in wire order; a path "outer.attr" names a
    field of a nested value type that the wire flattens, and a plain "attr"
    the attribute that a renamed wire field holds. Decoding fields of the
    wrong shape, or with a key the layout does not list, raises KeyError,
    TypeError or ValueError."""
    getters, flat, nested = [], [], {}
    for name, (to_wire, from_wire), *path in layout:
        path = path[0] if path else name
        getters.append((name, to_wire, attrgetter(path)))
        outer, _, attr = path.rpartition(".")
        (nested.setdefault(outer, []) if outer else flat).append((name, from_wire, attr))
    names = {name for name, _, _ in getters}
    types = get_type_hints(cls)

    def encode(obj) -> dict:
        return {name: to_wire(get(obj)) for name, to_wire, get in getters}

    def decode(fields: dict):
        values = {attr: from_wire(fields[name]) for name, from_wire, attr in flat}
        for outer, group in nested.items():
            values[outer] = types[outer](
                **{attr: from_wire(fields[name]) for name, from_wire, attr in group})
        # Every listed key was read above, so only an unlisted one adds length.
        if len(fields) != len(getters):
            raise ValueError(f"unknown fields {sorted(fields.keys() - names)}")
        return cls(**values)

    return encode, decode


_GOODS_CERT = _codec(GoodsCertificate, [
    ("description", _HEX_BYTES), ("ciphertext_hash", _HEX_INT),
    ("goods_hash", _HEX_INT), ("enc_key", _HEX_INT), ("signature", _HEX_INT)])
_RECOVERY_CERT = _codec(RecoverableCert, [
    ("e", _HEX_INT, "pub.e"), ("n", _HEX_INT, "pub.n"),
    ("masked_exponent", _HEX_INT), ("signature", _HEX_INT)])
_RANDOMIZER = [("randomizer", _HEX_INT)]
key_fields, key_from_fields = _codec(PublicKey, [("e", _HEX_INT), ("n", _HEX_INT)])
_RECEIPT = _codec(Signature, [
    ("signer", _NAME), ("goods_hash", _HEX_INT), ("value", _HEX_INT)])
_ORIGIN_PROOF = _codec(Signature, [
    ("originator", _NAME, "signer"), ("goods_hash", _HEX_INT), ("value", _HEX_INT)])

# Step tag -> (encode, decode) of its message body.
BODIES = {cls.STEP: _codec(cls, layout) for cls, layout in [
    (GoodsOffer, [("ciphertext", _HEX_BYTES), ("cert", _GOODS_CERT),
                  ("blinded_key", _HEX_INT), ("origin_proof", _HEX_INT)]),
    (EncryptedReceipt, [
        ("blinded_receipt", _HEX_INT, "vres.blinded_receipt"),
        ("control", _HEX_INT, "vres.control"),
        ("enc_randomizer", _HEX_INT, "vres.enc_randomizer"),
        ("auth_token", _HEX_INT), ("recovery_cert", _RECOVERY_CERT)]),
    (KeyRelease, _RANDOMIZER),
    (ReceiptRelease, _RANDOMIZER),
    (RecoveryRequest, [
        ("recovery_cert", _RECOVERY_CERT), ("enc_randomizer", _HEX_INT),
        ("auth_token", _HEX_INT), ("sender_enc_randomizer", _HEX_INT),
        ("sender_randomizer", _HEX_INT), ("counterparty", _NAME)]),
    (RecoveredReceiptKey, _RANDOMIZER),
    (RecoveredGoodsKey, _RANDOMIZER),
]}


def message_record(body, session: int) -> dict:
    """The record of `body` sent in `session`, along its step's ROUTE."""
    sender, recipient = body.ROUTE
    return {
        "type": "message",
        "step": body.STEP,
        "session": session,
        "sender": sender,
        "recipient": recipient,
        "fields": BODIES[body.STEP][0](body),
    }


def milestone_record(label: str, session: int) -> dict:
    return {"type": "milestone", "session": session, "label": label}


def evidence_record(party: str, ledger: EvidenceLedger) -> dict:
    """The evidence row of one party's ledger, entries sorted by their keys."""
    return {
        "type": "evidence",
        "party": party,
        "goods": [{"goods_hash": int_to_hex(h), "payload": payload}
                  for h, payload in sorted(ledger.goods.items())],
        "receipts": [_RECEIPT[0](r) for _, r in sorted(ledger.receipts.items())],
        "origin_proofs": [_ORIGIN_PROOF[0](p)
                          for _, p in sorted(ledger.origin_proofs.items())],
    }


def ledger_from_record(row: dict) -> EvidenceLedger:
    """The ledger an evidence row encodes, keyed as the handlers key it.
    A row of the wrong shape, or one listing an item twice, raises KeyError,
    TypeError or ValueError."""
    keys = ("goods", "receipts", "origin_proofs")
    for key in keys:
        if not isinstance(row[key], list):
            raise TypeError(f"{key} is not a list")
    ledger = EvidenceLedger()
    ledger.goods = {hex_to_int(g["goods_hash"]): _hex_bytes(g["payload"])
                    for g in row["goods"]}
    if any(len(g) != 2 for g in row["goods"]):
        raise ValueError("a goods item has unknown fields")
    ledger.receipts = {(r.signer, r.goods_hash): r
                       for r in map(_RECEIPT[1], row["receipts"])}
    ledger.origin_proofs = {(p.signer, p.goods_hash): p
                            for p in map(_ORIGIN_PROOF[1], row["origin_proofs"])}
    if any(len(getattr(ledger, key)) != len(row[key]) for key in keys):
        raise ValueError("evidence lists an item twice")
    return ledger


# Bytes hexed per piece: 8192 hex digits, the text layer's chunk size, up to
# which it takes an ASCII string as it is rather than encoding a copy.
_HEX_SLICE = 4096


def _small_hex(value) -> str:
    """The encoder's hook: a byte string of up to one slice goes in whole, as
    its hex; it refuses a longer one, and any other type, as json.dumps does."""
    if type(value) is not bytes:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if len(value) <= _HEX_SLICE:
        return value.hex()
    raise TypeError("cannot encode a bytes whole")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_small_hex)


def _whole(value) -> str | None:
    """The JSON text of `value`, or None for a dict or list that holds a
    byte string longer than one slice, which the encoder refuses."""
    try:
        return _ENCODER.encode(value)
    except TypeError:
        if type(value) in (dict, list):
            return None
        raise


def row_pieces(value) -> Iterator[str]:
    """The compact JSON text of `value` (json.dumps with separators (",", ":")),
    in pieces, bytes written as the string of their lowercase hex, and TypeError
    for anything else json.dumps refuses. A byte string over one slice is hexed
    a slice at a time into pieces of its own (hex needs no escaping); only a
    dict or list that holds one is split further, anything else is one piece."""
    kind = type(value)
    if kind is bytes:
        yield '"'
        view = memoryview(value)
        for start in range(0, len(view), _HEX_SLICE):
            yield view[start:start + _HEX_SLICE].hex()
        yield '"'
    elif (text := _whole(value)) is not None:
        yield text
    elif kind is dict:
        opener = "{"
        for key, item in value.items():
            yield opener + _ENCODER.encode(key) + ":"
            yield from row_pieces(item)
            opener = ","
        yield "}"
    else:
        opener = "["
        for item in value:
            yield opener
            yield from row_pieces(item)
            opener = ","
        yield "]"


def report_lines(rows: Iterable[dict]) -> list[str]:
    """The lines write_report_lines writes for `rows`, without newlines."""
    return ["".join(row_pieces(row)) for row in rows]


def write_report_lines(rows: Iterable[dict], path) -> None:
    """Write one line per row, piece by piece: no line of the goods' size,
    nor the hex of a whole payload, is ever built."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            for piece in row_pieces(row):
                handle.write(piece)
            handle.write("\n")


def _unique_keys(pairs: list) -> dict:
    """An object's dict. json.loads keeps a repeated key's last value while a
    text tool such as grep sees its first, so a repeat is refused."""
    row = dict(pairs)
    if len(row) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return row


def load_report(path) -> Iterator[dict]:
    """The rows of a report file, each line read and parsed as the caller
    asks for the next row; blank lines are skipped. A line that cannot be
    read raises OSError, ValueError (not UTF-8, not JSON, an object with a
    repeated key) or RecursionError (JSON nested too deeply) when its row is
    asked for."""
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    with open(path, "r", encoding="utf-8") as handle:
        # map keeps no line once it is parsed; isspace, unlike strip, copies
        # nothing.
        yield from map(decode, filterfalse(str.isspace, handle))
