"""Deterministic in-memory simulation of the exchange and its breaks.

Three scripted scenarios share one world-building path:

  run_honest         one complete E1..E4 session; ends FAIR.
  run_replay_attack  the seller runs a session up to E2, goes quiet while
                     keeping the buyer's recovery material, repeats that
                     in a second session for different goods, then feeds
                     the *first* session's recovery tuple to the arbiter
                     during the second. The arbiter has no freshness test,
                     so it hands the seller the old receipt randomizer and
                     the buyer the old goods randomizer, which fails
                     against the session the buyer is actually in. Ends
                     UNFAIR_FOR_B.
  run_eoo_forward    an honest exchange, after which the buyer hands goods
                     plus origin proof to an outsider over a side channel
                     (modeled as a direct ledger transfer). The proof
                     binds no receiver, so it verifies for the outsider
                     just as it did for the buyer, and the seller holds no
                     receipt from the outsider. Ends UNFAIR_FOR_A.

Every run is a pure function of its RunConfig: world keys, per-session
payloads and blinding factors all derive from the seed, so reports are
byte-identical across repeats. Scripts check their own expectations as
they go and raise ScriptError on any deviation; a Reject in an honest
exchange is a harness bug, not a finding.
"""

import random
from dataclasses import dataclass, field

from . import transcript
from .credentials import (
    CaIdentity,
    RecoverableCert,
    TtpIdentity,
    hash_goods,
    issue_recoverable_cert,
    verify_goods_cert,
    verify_recoverable_cert,
)
from .crypto import (
    PublicKey,
    RsaKeyPair,
    derive_seed,
    hex_to_int,
    int_to_hex,
    mod_pow,
    rsa_keygen_with_exponent,
    sym_decrypt,
)
from .protocol import (
    ArbiterService,
    EvidenceLedger,
    PartyKeyring,
    ReceiverSession,
    Reject,
    SenderSession,
)
from .vres import (
    VresTriple,
    derive_enc_randomizer,
    unwrap_key,
    verify_auth_token,
    verify_origin_proof,
    verify_vres,
)

SELLER = "seller"
BUYER = "buyer"
OUTSIDER = "outsider"
ARBITER = "arbiter"
CERT_AUTHORITY = "cert-authority"

FAIR = "FAIR"
UNFAIR_FOR_B = "UNFAIR_FOR_B"
UNFAIR_FOR_A = "UNFAIR_FOR_A"

MODES = ("honest", "replay", "eoo-forward")


class ScriptError(RuntimeError):
    """A scripted run deviated from its expected course."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    bits: int = 512
    exponent: int = 65537
    seed: int = 0
    goods_size: int = 64

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bits < 16:
            raise ValueError("bits must be >= 16")
        if self.exponent < 3 or self.exponent % 2 == 0:
            raise ValueError("exponent must be odd and >= 3")
        if self.goods_size < 1:
            raise ValueError("goods_size must be positive")


@dataclass(frozen=True)
class FairnessVerdict:
    status: str
    goods_hash: int | None = None
    receipt_holder: str | None = None
    eoo_holder: str | None = None

    def to_record(self) -> dict:
        record = {"type": "verdict", "verdict": self.status}
        if self.status == UNFAIR_FOR_B:
            record["goods_hash"] = int_to_hex(self.goods_hash)
            record["receipt_holder"] = self.receipt_holder
        elif self.status == UNFAIR_FOR_A:
            record["goods_hash"] = int_to_hex(self.goods_hash)
            record["eoo_holder"] = self.eoo_holder
        return record


@dataclass
class World:
    config: RunConfig
    ca: CaIdentity
    arbiter: TtpIdentity
    keyrings: dict[str, PartyKeyring]
    registry: dict[str, PublicKey]
    recovery_certs: dict[str, tuple[RecoverableCert, RsaKeyPair]]
    ledgers: dict[str, EvidenceLedger]
    records: list = field(default_factory=list)

    def log_message(self, body, sender: str, recipient: str, session: int) -> None:
        self.records.append(transcript.message_record(body, sender, recipient, session))

    def log_milestone(self, label: str, session: int) -> None:
        self.records.append(transcript.milestone_record(label, session))

    @property
    def milestones(self) -> list[str]:
        return [r["label"] for r in self.records if r["type"] == "milestone"]

    def header(self) -> dict:
        cfg = self.config
        return {
            "type": "header",
            "format": 1,
            "mode": cfg.mode,
            "bits": cfg.bits,
            "exponent": int_to_hex(cfg.exponent),
            "seed": cfg.seed,
            "goods_size": cfg.goods_size,
            "parties": sorted(self.ledgers),
            "registry": {
                party: {"e": int_to_hex(pub.e), "n": int_to_hex(pub.n)}
                for party, pub in sorted(self.registry.items())
            },
            "ca": {"id": self.ca.party_id,
                   "e": int_to_hex(self.ca.keys.e),
                   "n": int_to_hex(self.ca.keys.n)},
            "arbiter": {"id": self.arbiter.party_id,
                        "e": int_to_hex(self.arbiter.keys.e),
                        "n": int_to_hex(self.arbiter.keys.n)},
        }


@dataclass
class AttackReport:
    header: dict
    records: list
    evidence: dict
    verdict: FairnessVerdict

    @property
    def narrative(self) -> list[str]:
        return [r["label"] for r in self.records if r["type"] == "milestone"]

    def to_lines(self) -> list[str]:
        return transcript.report_lines(self.header, self.records, self.evidence,
                                       self.verdict.to_record())


def build_world(config: RunConfig, include_outsider: bool = False) -> World:
    config.validate()
    seed = config.seed

    def keypair(label: str) -> RsaKeyPair:
        return rsa_keygen_with_exponent(config.bits, config.exponent,
                                        derive_seed(seed, label))

    ca = CaIdentity(CERT_AUTHORITY, keypair("ca"))
    arbiter = TtpIdentity(ARBITER, keypair("arbiter"))
    party_ids = [SELLER, BUYER] + ([OUTSIDER] if include_outsider else [])
    keyrings = {pid: PartyKeyring(pid, keypair(f"party-{pid}")) for pid in party_ids}
    registry = {pid: ring.keys.public for pid, ring in keyrings.items()}
    buyer_cert, buyer_recovery = issue_recovery_material(
        arbiter, keyrings[BUYER].keys.e, config.bits, derive_seed(seed, "recovery-buyer"))
    return World(
        config=config,
        ca=ca,
        arbiter=arbiter,
        keyrings=keyrings,
        registry=registry,
        recovery_certs={BUYER: (buyer_cert, buyer_recovery)},
        ledgers={pid: EvidenceLedger(pid) for pid in party_ids},
    )


def issue_recovery_material(arbiter: TtpIdentity, exponent: int, bits: int,
                            seed: int) -> tuple[RecoverableCert, RsaKeyPair]:
    return issue_recoverable_cert(arbiter, exponent, bits, seed)


def session_goods(config: RunConfig, session: int) -> tuple[bytes, bytes]:
    rng = random.Random(derive_seed(config.seed, f"goods-{session}"))
    payload = rng.randbytes(config.goods_size)
    description = f"catalog item {session}".encode("ascii")
    return payload, description


def make_sessions(world: World, session: int) -> tuple[SenderSession, ReceiverSession]:
    config = world.config
    sender_rng = random.Random(derive_seed(config.seed, f"session-{session}-sender"))
    receiver_rng = random.Random(derive_seed(config.seed, f"session-{session}-receiver"))
    cert, recovery_keys = world.recovery_certs[BUYER]
    sender = SenderSession(world.keyrings[SELLER], BUYER, world.ca,
                           world.arbiter.keys.public, world.registry,
                           world.ledgers[SELLER], sender_rng)
    receiver = ReceiverSession(world.keyrings[BUYER], SELLER,
                               world.ca.keys.public, world.arbiter.keys.public,
                               world.registry, cert, recovery_keys,
                               world.ledgers[BUYER], receiver_rng)
    return sender, receiver


def verdict_from_snapshot(snapshots: dict[str, dict]) -> FairnessVerdict:
    """Pure verdict over evidence holdings, snapshot-shaped (hex values).

    Unfair for the receiving side when anyone holds a receipt whose signer
    does not hold the matching goods; unfair for the originating side when
    anyone holds an origin proof without the originator holding that
    party's receipt for the same goods. Checked in that order, parties and
    entries in sorted order, so the verdict is deterministic.
    """
    goods_held = {party: {g["goods_hash"] for g in snap["goods"]}
                  for party, snap in snapshots.items()}
    receipts_held = {party: {(r["signer"], r["goods_hash"]) for r in snap["receipts"]}
                     for party, snap in snapshots.items()}
    for party in sorted(snapshots):
        for entry in sorted(snapshots[party]["receipts"],
                            key=lambda r: (r["signer"], r["goods_hash"])):
            if entry["goods_hash"] not in goods_held.get(entry["signer"], set()):
                return FairnessVerdict(UNFAIR_FOR_B,
                                       goods_hash=hex_to_int(entry["goods_hash"]),
                                       receipt_holder=party)
    for party in sorted(snapshots):
        for entry in sorted(snapshots[party]["origin_proofs"],
                            key=lambda p: (p["originator"], p["goods_hash"])):
            originator = entry["originator"]
            if (party, entry["goods_hash"]) not in receipts_held.get(originator, set()):
                return FairnessVerdict(UNFAIR_FOR_A,
                                       goods_hash=hex_to_int(entry["goods_hash"]),
                                       eoo_holder=party)
    return FairnessVerdict(FAIR)


def evaluate_fairness(world: World) -> FairnessVerdict:
    snapshots = {party: ledger.snapshot() for party, ledger in world.ledgers.items()}
    return verdict_from_snapshot(snapshots)


def _report(world: World, verdict: FairnessVerdict) -> AttackReport:
    evidence = {party: ledger.snapshot() for party, ledger in world.ledgers.items()}
    return AttackReport(world.header(), world.records, evidence, verdict)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise ScriptError(f"scripted run deviated: {what}")


def run_honest(config: RunConfig) -> AttackReport:
    """One complete exchange; both ledgers end up holding their item."""
    world = build_world(config)
    sender, receiver = make_sessions(world, 1)
    goods, description = session_goods(config, 1)

    offer = sender.start(goods, description)
    world.log_message(offer, SELLER, BUYER, 1)
    enc_receipt = receiver.on_goods_offer(offer)
    world.log_message(enc_receipt, BUYER, SELLER, 1)
    key_release = sender.on_encrypted_receipt(enc_receipt)
    _expect(key_release is not None, "sender withheld the key release")
    world.log_message(key_release, SELLER, BUYER, 1)
    receipt_release = receiver.on_key_release(key_release)
    _expect(receipt_release is not None, "receiver withheld the receipt release")
    world.log_message(receipt_release, BUYER, SELLER, 1)
    sender.on_receipt_release(receipt_release)
    world.log_milestone("exchange-completed", 1)

    goods_hash = offer.cert.goods_hash
    _expect(goods_hash in world.ledgers[BUYER].goods, "buyer ledger missing goods")
    _expect((BUYER, goods_hash) in world.ledgers[SELLER].receipts,
            "seller ledger missing receipt")
    return _report(world, evaluate_fairness(world))


def run_replay_attack(config: RunConfig) -> AttackReport:
    """Two sessions; the first session's recovery tuple is replayed in the
    second. Nothing in the tuple identifies a run, so the arbiter accepts
    it and reopens the first session's values."""
    world = build_world(config)
    arbiter = ArbiterService(world.arbiter, world.registry)

    # Session 1: stop after verifying E2, keeping the recovery material.
    sender1, receiver1 = make_sessions(world, 1)
    goods1, description1 = session_goods(config, 1)
    offer1 = sender1.start(goods1, description1)
    world.log_message(offer1, SELLER, BUYER, 1)
    enc_receipt1 = receiver1.on_goods_offer(offer1)
    world.log_message(enc_receipt1, BUYER, SELLER, 1)
    _expect(sender1.on_encrypted_receipt(enc_receipt1, abort=True) is None,
            "abort emitted a message")
    world.log_milestone("abort-after-E2", 1)
    stale_request = sender1.recovery_request()
    world.log_milestone("recovery-material-stored", 1)

    # Session 2: same counterparties, different goods, same abort.
    sender2, receiver2 = make_sessions(world, 2)
    goods2, description2 = session_goods(config, 2)
    offer2 = sender2.start(goods2, description2)
    world.log_message(offer2, SELLER, BUYER, 2)
    enc_receipt2 = receiver2.on_goods_offer(offer2)
    world.log_message(enc_receipt2, BUYER, SELLER, 2)
    _expect(sender2.on_encrypted_receipt(enc_receipt2, abort=True) is None,
            "abort emitted a message")
    world.log_milestone("abort-after-E2", 2)

    # Recovery invoked during session 2 with session 1's tuple.
    world.log_message(stale_request, SELLER, ARBITER, 2)
    receipt_key, goods_key = arbiter.on_recovery_request(stale_request, SELLER)
    world.log_milestone("stale-R1-accepted", 2)
    world.log_message(receipt_key, ARBITER, SELLER, 2)
    sender1.on_recovered_randomizer(receipt_key)
    goods_hash1 = offer1.cert.goods_hash
    _expect((BUYER, goods_hash1) in world.ledgers[SELLER].receipts,
            "seller failed to recover the stale receipt")
    world.log_milestone("stale-receipt-recovered", 2)

    world.log_message(goods_key, ARBITER, BUYER, 2)
    try:
        receiver2.on_recovered_randomizer(goods_key)
    except Reject as rej:
        _expect(rej.reason == "bad-key", f"unexpected reject {rej.reason}")
        world.log_milestone("stale-key-rejected", 2)
    else:
        raise ScriptError("stale goods randomizer unlocked the wrong session")
    _expect(not world.ledgers[BUYER].goods, "buyer ledger should hold no goods")

    # Side observation, checked outside the buyer's behavior: the delivered
    # randomizer does open session 1's ciphertext if anyone tried.
    seller_pub = world.registry[SELLER]
    old_key = unwrap_key(offer1.blinded_key, goods_key.randomizer, seller_pub.n)
    _expect(mod_pow(old_key, seller_pub.e, seller_pub.n) == offer1.cert.enc_key,
            "stale randomizer should fit session 1's wrapped key")
    _expect(hash_goods(sym_decrypt(old_key, offer1.ciphertext)) == goods_hash1,
            "stale randomizer should decrypt session 1's goods")
    world.log_milestone("stale-key-opens-prior-session", 2)

    verdict = evaluate_fairness(world)
    _expect(verdict.status == UNFAIR_FOR_B, f"verdict {verdict.status}")
    return _report(world, verdict)


def run_eoo_forward(config: RunConfig) -> AttackReport:
    """Honest exchange, then the buyer hands (goods, origin proof) to an
    outsider off the wire. The proof names no receiver, so the outsider's
    copy verifies bit-identically while the seller holds no receipt from
    the outsider."""
    world = build_world(config, include_outsider=True)
    sender, receiver = make_sessions(world, 1)
    goods, description = session_goods(config, 1)

    offer = sender.start(goods, description)
    world.log_message(offer, SELLER, BUYER, 1)
    enc_receipt = receiver.on_goods_offer(offer)
    world.log_message(enc_receipt, BUYER, SELLER, 1)
    key_release = sender.on_encrypted_receipt(enc_receipt)
    world.log_message(key_release, SELLER, BUYER, 1)
    receipt_release = receiver.on_key_release(key_release)
    world.log_message(receipt_release, BUYER, SELLER, 1)
    sender.on_receipt_release(receipt_release)
    world.log_milestone("exchange-completed", 1)

    pre_verdict = evaluate_fairness(world)
    _expect(pre_verdict.status == FAIR, "world unfair before the forward")

    goods_hash = offer.cert.goods_hash
    buyer_ledger = world.ledgers[BUYER]
    proof = buyer_ledger.origin_proofs[(SELLER, goods_hash)]
    outsider_ledger = world.ledgers[OUTSIDER]
    outsider_ledger.record_goods(buyer_ledger.goods[goods_hash], goods_hash)
    outsider_ledger.record_origin_proof(proof, world.registry[SELLER])
    world.log_milestone("eoo-forwarded-out-of-band", 1)

    verdict = evaluate_fairness(world)
    _expect(verdict.status == UNFAIR_FOR_A, f"verdict {verdict.status}")
    return _report(world, verdict)


RUNNERS = {
    "honest": run_honest,
    "replay": run_replay_attack,
    "eoo-forward": run_eoo_forward,
}


def run_mode(config: RunConfig) -> AttackReport:
    config.validate()
    return RUNNERS[config.mode](config)


# ---------------------------------------------------------------------------
# Transcript verification: re-check every signature and congruence in a
# report and recompute its verdict from the evidence records.

# What a record of the wrong shape raises while it is checked: a missing key,
# a value of the wrong JSON type, or text that is not hex.
_MALFORMED = (KeyError, TypeError, ValueError)


def _pub_from(fields: dict) -> PublicKey:
    return PublicKey(hex_to_int(fields["e"]), hex_to_int(fields["n"]))


class _SessionTrace:
    def __init__(self):
        self.offer = None          # E1 fields
        self.offer_sender = None
        self.enc_receipt = None    # E2 fields
        self.enc_receipt_sender = None
        self.request = None        # R1 fields
        self.request_sender = None


def verify_report(rows: list[dict]) -> list[str]:
    """Return a list of problems; empty means the transcript checks out."""
    problems: list[str] = []
    if not rows or not isinstance(rows[0], dict) or rows[0].get("type") != "header":
        return ["missing header record"]
    header = rows[0]
    try:
        registry = {pid: _pub_from(entry)
                    for pid, entry in header["registry"].items()}
        ca_pub = _pub_from(header["ca"])
        arbiter_pub = _pub_from(header["arbiter"])
    except (*_MALFORMED, AttributeError) as exc:  # registry not an object
        return [f"malformed header: {exc}"]

    sessions: dict[int, _SessionTrace] = {}
    evidence_rows: dict[str, dict] = {}
    verdict_row = None

    def trace(sid: int) -> _SessionTrace:
        return sessions.setdefault(sid, _SessionTrace())

    for number, row in enumerate(rows[1:], start=2):
        if not isinstance(row, dict):
            problems.append(f"record {number} is not a JSON object")
            continue
        kind = row.get("type")
        if kind == "message":
            try:
                _check_message(row, trace(row["session"]), registry, ca_pub,
                               arbiter_pub, problems)
            except _MALFORMED as exc:
                problems.append(f"malformed {row.get('step')} record: {exc}")
        elif kind == "evidence":
            party = row.get("party")
            if isinstance(party, str):
                evidence_rows[party] = row
            else:
                problems.append(f"record {number}: evidence without a party name")
        elif kind == "verdict":
            verdict_row = row
        elif kind == "milestone":
            pass
        else:
            problems.append(f"unknown record type {kind!r}")

    for party, row in sorted(evidence_rows.items()):
        try:
            _check_evidence(row, registry, problems)
        except _MALFORMED as exc:
            problems.append(f"malformed evidence for {party}: {exc}")

    if verdict_row is None:
        problems.append("missing verdict record")
        return problems
    try:
        snapshots = {
            party: {"goods": row["goods"], "receipts": row["receipts"],
                    "origin_proofs": row["origin_proofs"]}
            for party, row in evidence_rows.items()
        }
        recomputed = verdict_from_snapshot(snapshots).to_record()
    except _MALFORMED as exc:
        problems.append(f"cannot recompute verdict: {exc}")
        return problems
    if recomputed != verdict_row:
        problems.append(
            f"verdict mismatch: recorded {verdict_row}, recomputed {recomputed}")
    return problems


def _check_message(row: dict, tr: _SessionTrace, registry, ca_pub, arbiter_pub,
                   problems: list[str]) -> None:
    step = row["step"]
    sid = row["session"]
    fields = row["fields"]

    def flag(what: str) -> None:
        problems.append(f"session {sid} {step}: {what}")

    if step == "E1":
        cert = transcript.goods_cert_from_fields(fields["cert"])
        ciphertext = bytes.fromhex(fields["ciphertext"])
        sender_pub = registry.get(row["sender"])
        if sender_pub is None:
            flag(f"unknown sender {row['sender']!r}")
            return
        if not verify_goods_cert(cert, ciphertext, ca_pub):
            flag("goods certificate fails against its ciphertext")
        if not verify_origin_proof(hex_to_int(fields["origin_proof"]),
                                   cert.goods_hash, sender_pub):
            flag("origin proof fails")
        tr.offer = fields
        tr.offer_sender = row["sender"]
    elif step == "E2":
        if tr.offer is None:
            flag("no matching E1 in this session")
            return
        rec_cert = transcript.recovery_cert_from_fields(fields["recovery_cert"])
        signer_pub = registry.get(row["sender"])
        offer_pub = registry.get(tr.offer_sender)
        if signer_pub is None or offer_pub is None:
            flag("unknown party in session")
            return
        if not verify_recoverable_cert(rec_cert, arbiter_pub):
            flag("recovery certificate signature fails")
        if rec_cert.pub.e != signer_pub.e:
            flag("recovery certificate exponent differs from the signer's")
        offer_cert = transcript.goods_cert_from_fields(tr.offer["cert"])
        triple = VresTriple(
            enc_randomizer=hex_to_int(fields["enc_randomizer"]),
            blinded_receipt=hex_to_int(fields["blinded_receipt"]),
            control=hex_to_int(fields["control"]),
        )
        if not verify_vres(triple, offer_cert.goods_hash, signer_pub, rec_cert.pub):
            flag("encrypted receipt congruences fail")
        try:
            sender_enc_rand = derive_enc_randomizer(
                hex_to_int(tr.offer["blinded_key"]), offer_cert.enc_key, offer_pub)
        except ValueError:
            flag("cannot derive the offer's encrypted randomizer")
            return
        if not verify_auth_token(hex_to_int(fields["auth_token"]), signer_pub,
                                 rec_cert, triple.enc_randomizer,
                                 sender_enc_rand, tr.offer_sender):
            flag("authorization token fails")
        tr.enc_receipt = fields
        tr.enc_receipt_sender = row["sender"]
    elif step == "E3":
        if tr.offer is None:
            flag("no matching E1 in this session")
            return
        randomizer = hex_to_int(fields["randomizer"])
        offer_cert = transcript.goods_cert_from_fields(tr.offer["cert"])
        offer_pub = registry.get(tr.offer_sender)
        sender_enc_rand = derive_enc_randomizer(
            hex_to_int(tr.offer["blinded_key"]), offer_cert.enc_key, offer_pub)
        if mod_pow(randomizer, offer_pub.e, offer_pub.n) != sender_enc_rand:
            flag("released randomizer does not match the offer")
            return
        key = unwrap_key(hex_to_int(tr.offer["blinded_key"]), randomizer, offer_pub.n)
        if mod_pow(key, offer_pub.e, offer_pub.n) != offer_cert.enc_key:
            flag("unwrapped key fails the certified encrypted key")
            return
        payload = sym_decrypt(key, bytes.fromhex(tr.offer["ciphertext"]))
        if hash_goods(payload) != offer_cert.goods_hash:
            flag("decrypted goods do not match the certified hash")
    elif step == "E4":
        if tr.enc_receipt is None:
            flag("no matching E2 in this session")
            return
        signer_pub = registry.get(tr.enc_receipt_sender)
        rec_cert = transcript.recovery_cert_from_fields(
            tr.enc_receipt["recovery_cert"])
        randomizer = hex_to_int(fields["randomizer"])
        combined = signer_pub.n * rec_cert.pub.n
        if mod_pow(randomizer, signer_pub.e, combined) != hex_to_int(
                tr.enc_receipt["enc_randomizer"]):
            flag("released randomizer does not open the encrypted receipt")
    elif step == "R1":
        rec_cert = transcript.recovery_cert_from_fields(fields["recovery_cert"])
        requester_pub = registry.get(row["sender"])
        counter_pub = registry.get(fields["counterparty"])
        if requester_pub is None or counter_pub is None:
            flag("unknown party in recovery request")
            return
        if not verify_recoverable_cert(rec_cert, arbiter_pub):
            flag("recovery certificate signature fails")
        if rec_cert.pub.e != counter_pub.e:
            flag("recovery certificate exponent differs from the counterparty's")
        if not verify_auth_token(hex_to_int(fields["auth_token"]), counter_pub,
                                 rec_cert, hex_to_int(fields["enc_randomizer"]),
                                 hex_to_int(fields["sender_enc_randomizer"]),
                                 row["sender"]):
            flag("authorization token fails")
        if mod_pow(hex_to_int(fields["sender_randomizer"]), requester_pub.e,
                   requester_pub.n) != hex_to_int(fields["sender_enc_randomizer"]):
            flag("sender randomizer does not match its encryption")
        tr.request = fields
        tr.request_sender = row["sender"]
    elif step == "R2":
        if tr.request is None:
            flag("no matching R1 in this session")
            return
        rec_cert = transcript.recovery_cert_from_fields(tr.request["recovery_cert"])
        randomizer = hex_to_int(fields["randomizer"])
        expected = hex_to_int(tr.request["enc_randomizer"]) % rec_cert.pub.n
        if mod_pow(randomizer, rec_cert.pub.e, rec_cert.pub.n) != expected:
            flag("recovered randomizer does not open the request's residue")
    elif step == "R3":
        if tr.request is None:
            flag("no matching R1 in this session")
            return
        if fields["randomizer"] != tr.request["sender_randomizer"]:
            flag("forwarded randomizer differs from the request's")
    else:
        flag(f"unknown step tag {step!r}")


def _check_evidence(row: dict, registry, problems: list[str]) -> None:
    party = row["party"]

    def flag(what: str) -> None:
        problems.append(f"evidence for {party}: {what}")

    for entry in row["goods"]:
        payload = bytes.fromhex(entry["payload"])
        if hash_goods(payload) != hex_to_int(entry["goods_hash"]):
            flag("goods payload does not match its hash")
    for entry in row["receipts"]:
        signer_pub = registry.get(entry["signer"])
        if signer_pub is None:
            flag(f"receipt from unknown signer {entry['signer']!r}")
            continue
        value = hex_to_int(entry["value"])
        if mod_pow(value, signer_pub.e, signer_pub.n) != \
                hex_to_int(entry["goods_hash"]) % signer_pub.n:
            flag("receipt does not verify")
    for entry in row["origin_proofs"]:
        originator_pub = registry.get(entry["originator"])
        if originator_pub is None:
            flag(f"origin proof from unknown originator {entry['originator']!r}")
            continue
        if not verify_origin_proof(hex_to_int(entry["value"]),
                                   hex_to_int(entry["goods_hash"]), originator_pub):
            flag("origin proof does not verify")
