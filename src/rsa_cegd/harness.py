"""Deterministic in-memory simulation of the exchange and its breaks.

Three scripted scenarios share one world builder and one exchange driver:

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
byte-identical across repeats. A run checks its records against SKELETON
and its verdict against the one its script expects, and raises ScriptError
if either differs. A Reject from a handler propagates: in an honest exchange
it is a harness bug, not a finding.
"""

import random
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields

from . import transcript
from .credentials import RecoverableCert, hash_goods, issue_recoverable_cert
from .crypto import (
    PublicKey,
    RsaKeyPair,
    derive_seed,
    hex_to_int,
    int_to_hex,
    rsa_keygen_with_exponent,
    rsa_verify,
)
from .protocol import (
    ARBITER,
    BUYER,
    SELLER,
    ArbiterService,
    EvidenceLedger,
    ReceiverSession,
    Reject,
    SenderSession,
    check_encrypted_receipt,
    check_offer,
    check_recovery_request,
    open_goods,
    open_receipt,
)

OUTSIDER = "outsider"
CERT_AUTHORITY = "cert-authority"

FAIR = "FAIR"
UNFAIR_FOR_B = "UNFAIR_FOR_B"
UNFAIR_FOR_A = "UNFAIR_FOR_A"

MODES = ("honest", "replay", "eoo-forward")

# Mode -> the parties its world registers, each with a key and a ledger.
PARTIES = {"honest": (SELLER, BUYER), "replay": (SELLER, BUYER),
           "eoo-forward": (SELLER, BUYER, OUTSIDER)}


def _shape(row: dict) -> str:
    """A record's place in a run, in words: "message E1 of session 1",
    "milestone <label> of session 1", "evidence for buyer", "the verdict" or
    "a record of type 'note'". Compared only once a message's or milestone's
    session is known to be an int: a session "1" would read as 1."""
    kind = row.get("type")
    if kind in ("message", "milestone"):  # a tuple: kind may be unhashable
        return (f"{kind} {row.get('step' if kind == 'message' else 'label')} "
                f"of session {row.get('session')}")
    if kind == "evidence":
        return f"evidence for {row.get('party')}"
    return "the verdict" if kind == "verdict" else f"a record of type {kind!r}"


# Mode -> the place of each record its run writes after the header, in order:
# messages and milestones, one evidence row per party (sorted), the verdict.
# Every run is checked against it, and so is every transcript.
_EXCHANGE = ("message E1 of session 1", "message E2 of session 1", "message E3 of session 1",
             "message E4 of session 1", "milestone exchange-completed of session 1")
SKELETON = {mode: (*records, *(f"evidence for {party}" for party in sorted(PARTIES[mode])),
                   "the verdict") for mode, records in {
    "honest": _EXCHANGE,
    "replay": ("message E1 of session 1", "message E2 of session 1",
               "milestone abort-after-E2 of session 1",
               "milestone recovery-material-stored of session 1",
               "message E1 of session 2", "message E2 of session 2",
               "milestone abort-after-E2 of session 2", "message R1 of session 2",
               "milestone stale-R1-accepted of session 2", "message R2 of session 2",
               "milestone stale-receipt-recovered of session 2", "message R3 of session 2",
               "milestone stale-key-rejected of session 2",
               "milestone stale-key-opens-prior-session of session 2"),
    "eoo-forward": (*_EXCHANGE, "milestone eoo-forwarded-out-of-band of session 1"),
}.items()}

# At 16 MiB of goods a run peaks 47-64 MiB and its verification about 111
# MiB above the interpreter's own ~21 MiB of RSS: 3-7 times the goods.
MAX_GOODS_SIZE = 1 << 24


class ScriptError(RuntimeError):
    """A scripted run deviated from its expected course."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    bits: int = 512
    exponent: int = 65537
    seed: int = 0
    goods_size: int = 64

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("bits", "exponent", "seed", "goods_size"):
            if type(getattr(self, name)) is not int:  # not isinstance: True is an int
                raise TypeError(f"{name} must be an integer")
        if self.bits < 16:
            raise ValueError("bits must be >= 16")
        if self.exponent < 3 or self.exponent % 2 == 0:
            raise ValueError("exponent must be odd and >= 3")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.goods_size < 1:
            raise ValueError("goods_size must be positive")
        if self.goods_size > MAX_GOODS_SIZE:
            raise ValueError(f"goods_size must be <= {MAX_GOODS_SIZE}")


@dataclass(frozen=True)
class FairnessVerdict:
    status: str
    goods_hash: int | None = None
    receipt_holder: str | None = None
    eoo_holder: str | None = None

    def to_record(self) -> dict:
        record = {"type": "verdict", "verdict": self.status}
        holder = {UNFAIR_FOR_B: "receipt_holder", UNFAIR_FOR_A: "eoo_holder"}.get(self.status)
        if holder is not None:
            record["goods_hash"] = int_to_hex(self.goods_hash)
            record[holder] = getattr(self, holder)
        return record


@dataclass
class World:
    config: RunConfig
    ca: RsaKeyPair
    arbiter: RsaKeyPair
    keyrings: dict[str, RsaKeyPair]
    buyer_recovery: tuple[RecoverableCert, RsaKeyPair]
    ledgers: dict[str, EvidenceLedger]
    records: list = field(default_factory=list)

    @property
    def registry(self) -> dict[str, PublicKey]:
        """Each party's public key."""
        return {party: keys.public for party, keys in self.keyrings.items()}

    def deliver(self, body, session: int, handler, *args, **kwargs):
        """Log `body` as sent in `session`, then return `handler(body, ...)`."""
        self.records.append(transcript.message_record(body, session))
        return handler(body, *args, **kwargs)

    def log_milestone(self, label: str, session: int) -> None:
        self.records.append(transcript.milestone_record(label, session))

    def header(self) -> dict:
        return {
            "type": "header",
            "format": 1,
            **asdict(self.config),
            "exponent": int_to_hex(self.config.exponent),  # in asdict's place
            "parties": sorted(self.ledgers),
            "registry": {party: transcript.key_fields(pub)
                         for party, pub in sorted(self.registry.items())},
            "ca": {"id": CERT_AUTHORITY, **transcript.key_fields(self.ca.public)},
            "arbiter": {"id": ARBITER, **transcript.key_fields(self.arbiter.public)},
        }


@dataclass
class AttackReport:
    header: dict
    records: list
    evidence: dict
    verdict: FairnessVerdict

    @property
    def narrative(self) -> list[str]:
        return [row["label"] for row in self.records if row["type"] == "milestone"]

    def rows(self) -> list[dict]:
        """The rows of the report file, in SKELETON's order."""
        return [self.header, *self.records,
                *(row for _, row in sorted(self.evidence.items())), self.verdict.to_record()]

    def to_lines(self) -> list[str]:
        return transcript.report_lines(self.rows())


def build_world(config: RunConfig) -> World:
    seed = config.seed

    def keypair(label: str) -> RsaKeyPair:
        return rsa_keygen_with_exponent(config.bits, config.exponent,
                                        derive_seed(seed, label))

    ca = keypair("ca")
    arbiter = keypair("arbiter")
    party_ids = PARTIES[config.mode]
    keyrings = {pid: keypair(f"party-{pid}") for pid in party_ids}
    buyer_cert, buyer_recovery = issue_recoverable_cert(
        arbiter, keyrings[BUYER].e, config.bits, derive_seed(seed, "recovery-buyer"))
    return World(
        config=config,
        ca=ca,
        arbiter=arbiter,
        keyrings=keyrings,
        buyer_recovery=(buyer_cert, buyer_recovery),
        ledgers={pid: EvidenceLedger() for pid in party_ids},
    )


def session_goods(config: RunConfig, session: int) -> tuple[bytes, bytes]:
    rng = random.Random(derive_seed(config.seed, f"goods-{session}"))
    payload = rng.randbytes(config.goods_size)
    description = f"catalog item {session}".encode("ascii")
    return payload, description


def make_sessions(world: World, session: int) -> tuple[SenderSession, ReceiverSession]:
    config = world.config
    sender_rng = random.Random(derive_seed(config.seed, f"session-{session}-sender"))
    receiver_rng = random.Random(derive_seed(config.seed, f"session-{session}-receiver"))
    cert, recovery_keys = world.buyer_recovery
    sender = SenderSession(world.keyrings[SELLER], world.ca, world.arbiter.public,
                           world.keyrings[BUYER].public, world.ledgers[SELLER], sender_rng)
    receiver = ReceiverSession(world.keyrings[BUYER], world.ca.public,
                               world.keyrings[SELLER].public, cert, recovery_keys,
                               world.ledgers[BUYER], receiver_rng)
    return sender, receiver


def evaluate_fairness(ledgers: dict[str, EvidenceLedger]) -> FairnessVerdict:
    """Pure verdict over evidence holdings.

    Unfair for the receiving side when anyone holds a receipt whose signer
    does not hold the matching goods; unfair for the originating side when
    anyone holds an origin proof without the originator holding that
    party's receipt for the same goods. Checked in that order, parties and
    ledger keys in sorted order (the order of evidence rows), so the
    verdict is deterministic.
    """
    for party in sorted(ledgers):
        for signer, goods_hash in sorted(ledgers[party].receipts):
            if signer not in ledgers or goods_hash not in ledgers[signer].goods:
                return FairnessVerdict(UNFAIR_FOR_B, goods_hash=goods_hash,
                                       receipt_holder=party)
    for party in sorted(ledgers):
        for originator, goods_hash in sorted(ledgers[party].origin_proofs):
            if (originator not in ledgers
                    or (party, goods_hash) not in ledgers[originator].receipts):
                return FairnessVerdict(UNFAIR_FOR_A, goods_hash=goods_hash,
                                       eoo_holder=party)
    return FairnessVerdict(FAIR)


def _report(world: World, expected: str) -> AttackReport:
    verdict = evaluate_fairness(world.ledgers)
    _expect(verdict.status == expected, f"verdict {verdict.status}")
    evidence = {party: transcript.evidence_record(party, ledger)
                for party, ledger in world.ledgers.items()}
    report = AttackReport(world.header(), world.records, evidence, verdict)
    _expect(tuple(map(_shape, report.rows()[1:])) == SKELETON[world.config.mode],
            "records differ from SKELETON")
    return report


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise ScriptError(f"scripted run deviated: {what}")


def _exchange(world: World, session: int, abort: bool = False) -> tuple:
    """Logged E1, E2, then the seller's abort or E3, E4 -> (sender, receiver, offer)."""
    sender, receiver = make_sessions(world, session)
    offer = sender.start(*session_goods(world.config, session))
    enc_receipt = world.deliver(offer, session, receiver.on_goods_offer)
    key_release = world.deliver(enc_receipt, session, sender.on_encrypted_receipt, abort=abort)
    if abort:
        world.log_milestone("abort-after-E2", session)
        return sender, receiver, offer
    receipt_release = world.deliver(key_release, session, receiver.on_key_release)
    world.deliver(receipt_release, session, sender.on_receipt_release)
    world.log_milestone("exchange-completed", session)
    return sender, receiver, offer


def run_honest(config: RunConfig) -> AttackReport:
    """One complete exchange; both ledgers end up holding their item."""
    world = build_world(config)
    _exchange(world, 1)
    return _report(world, FAIR)


def run_replay_attack(config: RunConfig) -> AttackReport:
    """Two sessions; the first session's recovery tuple is replayed in the
    second. Nothing in the tuple identifies a run, so the arbiter accepts
    it and reopens the first session's values."""
    world = build_world(config)
    arbiter = ArbiterService(world.arbiter, world.registry)

    # Session 1: stop after verifying E2, keeping the recovery material.
    sender1, _, offer1 = _exchange(world, 1, abort=True)
    stale_request = sender1.recovery_request()
    world.log_milestone("recovery-material-stored", 1)

    # Session 2: same counterparties, different goods, same abort.
    _, receiver2, _ = _exchange(world, 2, abort=True)

    # Recovery invoked during session 2 with session 1's tuple.
    receipt_key, goods_key = world.deliver(stale_request, 2, arbiter.on_recovery_request,
                                           SELLER)
    world.log_milestone("stale-R1-accepted", 2)
    world.deliver(receipt_key, 2, sender1.on_recovered_randomizer)
    world.log_milestone("stale-receipt-recovered", 2)

    try:
        world.deliver(goods_key, 2, receiver2.on_recovered_randomizer)
    except Reject:
        world.log_milestone("stale-key-rejected", 2)

    # Side observation, checked outside the buyer's behavior: the delivered
    # randomizer does open session 1's ciphertext if anyone tried.
    open_goods(offer1, goods_key.randomizer, world.keyrings[SELLER].public)
    world.log_milestone("stale-key-opens-prior-session", 2)
    return _report(world, UNFAIR_FOR_B)


def run_eoo_forward(config: RunConfig) -> AttackReport:
    """Honest exchange, then the buyer hands (goods, origin proof) to an
    outsider off the wire. The proof names no receiver, so the outsider's
    copy verifies bit-identically while the seller holds no receipt from
    the outsider."""
    world = build_world(config)
    goods_hash = _exchange(world, 1)[2].cert.goods_hash
    buyer_ledger = world.ledgers[BUYER]
    world.ledgers[OUTSIDER].credit_goods(buyer_ledger.goods[goods_hash],
                                         buyer_ledger.origin_proofs[SELLER, goods_hash])
    world.log_milestone("eoo-forwarded-out-of-band", 1)
    return _report(world, UNFAIR_FOR_A)


RUNNERS = {
    "honest": run_honest,
    "replay": run_replay_attack,
    "eoo-forward": run_eoo_forward,
}


def run_mode(config: RunConfig) -> AttackReport:
    return RUNNERS[config.mode](config)


# ---------------------------------------------------------------------------
# Transcript verification: check the header's fields against each other and
# each record's place against the mode's SKELETON as the rows stream (the
# first divergence is one "record N: expected ..., found ..." problem), run
# each message's step check from protocol against the messages of its session
# that its body type's READS names, decode each evidence row into a ledger and
# re-check its items, and recompute the verdict. The step checks run on every message, in
# place or not. Message problems read "session <sid> <step>: <code>" with the
# handlers' codes plus misrouted (a route other than its body type's ROUTE,
# or an R3 not to R1's counterparty), goods-size-mismatch (E1),
# residue-mismatch (R2), forward-mismatch (R3) and unknown-step. Each check
# takes its parties from that ROUTE. A message is not checked unless every
# message its READS names is logged, that is, present and passed. R2 and R3
# are checked as the arbiter's output, not with the parties' own checks: the
# buyer's rejection of a stale R3 is the recorded attack.

# What a record of the wrong shape raises while it is checked: a missing key,
# a value of the wrong JSON type, or text that is not hex.
_MALFORMED = (KeyError, TypeError, ValueError)

# Record type -> the keys its records have; any other key is a problem. A
# message's fields are checked by its codec, the verdict record by comparing
# it whole with the recomputed one.
_RECORD_KEYS = {
    "header": {"type", "format", *(f.name for f in fields(RunConfig)),
               "parties", "registry", "ca", "arbiter"},
    "message": {"type", "step", "session", "sender", "recipient", "fields"},
    "milestone": {"type", "session", "label"},
    "evidence": {"type", "party", "goods", "receipts", "origin_proofs"},
}


def verify_report(rows: Iterable[dict]) -> list[str]:
    """Return a list of problems; empty means the transcript checks out.
    Rows are taken one at a time, and only what later checks need is kept of
    each: a message's decoded body, an evidence row's ledger without its goods
    payloads."""
    problems: list[str] = []
    rows = iter(rows)
    header = next(rows, None)
    if not isinstance(header, dict) or header.get("type") != "header":
        return ["missing header record"]
    try:
        registry = {pid: transcript.key_from_fields(entry)
                    for pid, entry in header["registry"].items()}
        ca_pub = _principal_key(header["ca"])
        arbiter_pub = _principal_key(header["arbiter"])
        exponent = hex_to_int(header["exponent"])
    except (*_MALFORMED, AttributeError) as exc:  # registry not an object
        return [f"malformed header: {exc}"]
    keys = [*registry.items(), ("ca", ca_pub), ("arbiter", arbiter_pub)]
    if not _check_header(header, exponent, keys, problems):
        return problems
    skeleton = (*SKELETON[header["mode"]], "the end")

    # (session, step) -> (decoded body, derived) of each message that passed
    # its check: derived is E1's sender encrypted randomizer, else None.
    logged: dict[tuple, tuple] = {}
    ledgers: dict[str, EvidenceLedger] = {}
    # Whether every record so far is in its skeleton place; once one is not,
    # no place is compared, and no evidence or verdict checked.
    in_place = True

    # Counted by hand: enumerate would hold each row until the next is read.
    number = 1
    for row in rows:
        number += 1
        if not isinstance(row, dict):
            problems.append(f"record {number} is not a JSON object")
            in_place = False
            continue
        kind = row.get("type")
        if (kind in ("message", "milestone", "evidence")  # kind may be unhashable
                and not row.keys() <= _RECORD_KEYS[kind]):
            problems.extend(f"record {number}: unknown key {key!r}"
                            for key in sorted(row.keys() - _RECORD_KEYS[kind]))
        if kind in ("message", "milestone"):
            session = row.get("session")
            if type(session) is not int or session < 1:  # not isinstance: True is an int
                problems.append(f"record {number}: {kind} session is not a positive integer")
                in_place = False
                continue
        if in_place and _shape(row) != skeleton[number - 2]:
            problems.append(f"record {number}: expected {skeleton[number - 2]}, "
                            f"found {_shape(row)}")
            in_place = False
        if kind == "message":
            try:
                _check_message(row, logged, registry, ca_pub, arbiter_pub,
                               header.get("goods_size"))
            except Reject as rej:
                problems.append(f"session {row['session']} {row['step']}: {rej.reason}")
            except _MALFORMED as exc:
                problems.append(f"malformed {row.get('step')} record: {exc}")
        elif in_place and kind == "evidence":
            ledger, found = _check_evidence(row, registry)
            problems.extend(found)
            if ledger is not None:
                ledgers[row["party"]] = ledger
            # Not held while the next row is read: it holds the goods' hex.
            row = None
        # Without every ledger, a recomputed verdict would only repeat a fault.
        elif in_place and kind == "verdict" and len(ledgers) == len(registry):
            recomputed = evaluate_fairness(ledgers).to_record()
            if recomputed != row:
                problems.append(f"verdict mismatch: recorded {row}, recomputed {recomputed}")
    if in_place and skeleton[number - 1] != "the end":
        problems.append(f"record {number + 1}: expected {skeleton[number - 1]}, found the end")
    return problems


def _check_header(header: dict, exponent: int, keys: list, problems: list[str]) -> bool:
    """The header's own fields against each other; `keys` holds a (name, key)
    pair per public key the header lists. The run configuration passes the
    checks a run's arguments pass; only the seed's value needs a re-run.
    True if the records can be checked: a known mode, with its parties as the registry."""
    for key in sorted(header.keys() - _RECORD_KEYS["header"]):
        problems.append(f"header: unknown key {key!r}")
    if type(header.get("format")) is not int or header["format"] != 1:
        problems.append(f"header: unsupported format {header.get('format')!r}")
    try:
        RunConfig(**{f.name: header.get(f.name) for f in fields(RunConfig)
                     if f.name != "exponent"}, exponent=exponent)
    except (TypeError, ValueError) as exc:
        problems.append(f"header: {exc}")
    if header.get("parties") != sorted(header["registry"]):
        problems.append("header: parties do not match the registry")
    # The ids World.header writes; R1..R3 are routed by their body types' ROUTE,
    # not by the header.
    for name, principal_id in (("ca", CERT_AUTHORITY), ("arbiter", ARBITER)):
        if header[name].get("id") != principal_id:
            problems.append(f"header: {name} id is not {principal_id!r}")
    for name, pub in keys:
        if pub.e != exponent:
            problems.append(f"header: {name} key exponent is not the header's exponent")
        if pub.n.bit_length() != header.get("bits"):
            problems.append(f"header: {name} key modulus is not {header.get('bits')!r} bits")
        if pub.n % 2 == 0 or pub.n <= pub.e:
            problems.append(f"header: {name} key modulus is not odd and above its exponent")
    mode = header.get("mode")
    if mode not in MODES:  # RunConfig's problem; a tuple, since mode may be unhashable
        return False
    if sorted(header["registry"]) != sorted(PARTIES[mode]):
        problems.append(f"header: registry is not the parties of mode {mode!r}")
        return False
    return True


def _principal_key(entry: dict) -> PublicKey:
    """The public key of the header's "ca" or "arbiter" entry, {id, e, n}."""
    return transcript.key_from_fields({k: v for k, v in entry.items() if k != "id"})


def _check_message(row: dict, logged: dict, registry, ca_pub, arbiter_pub,
                   goods_size) -> None:
    step, sid = row["step"], row["session"]
    if step not in transcript.BODIES:
        raise Reject("unknown-step")
    body = transcript.BODIES[step][1](row["fields"])
    sender, recipient = body.ROUTE
    if (row.get("sender"), row.get("recipient")) != body.ROUTE:
        raise Reject("misrouted")
    if any((sid, read) not in logged for read in body.READS):
        return  # a missing one is the skeleton's problem, a failed one its own
    derived = None
    if step == "E1":
        derived = check_offer(body, ca_pub, registry[sender])
        if len(body.ciphertext) != goods_size:
            raise Reject("goods-size-mismatch")
    elif step == "E2":
        offer, sender_enc_randomizer = logged[sid, "E1"]
        check_encrypted_receipt(body, offer.cert.goods_hash, registry[sender],
                                arbiter_pub, sender_enc_randomizer)
    elif step == "E3":
        open_goods(logged[sid, "E1"][0], body.randomizer, registry[sender])
    elif step == "E4":
        offer = logged[sid, "E1"][0]
        open_receipt(logged[sid, "E2"][0], body.randomizer, registry[sender],
                     offer.cert.goods_hash)
    elif step == "R1":
        check_recovery_request(body, sender, arbiter_pub, registry)
    else:
        request = logged[sid, "R1"][0]
        if step == "R2":
            if not rsa_verify(request.recovery_cert.pub, body.randomizer,
                              request.enc_randomizer):
                raise Reject("residue-mismatch")
        else:
            # The one route a body type cannot hold: R1 names whom R3 goes to.
            if request.counterparty != recipient:
                raise Reject("misrouted")
            if body.randomizer != request.sender_randomizer:
                raise Reject("forward-mismatch")
    logged[sid, step] = (body, derived)


def _check_evidence(row: dict, registry) -> tuple:
    """(ledger, problems) of one party's evidence row: the ledger is None if
    the row does not decode, and keeps only the hashes of its goods."""
    party = row["party"]
    try:
        ledger = transcript.ledger_from_record(row)
    except _MALFORMED as exc:
        return None, [f"malformed evidence for {party}: {exc}"]
    problems: list[str] = []

    def flag(what: str) -> None:
        problems.append(f"evidence for {party}: {what}")

    for goods_hash, payload in ledger.goods.items():
        if hash_goods(payload) != goods_hash:
            flag("goods payload does not match its hash")
    # The verdict asks only which goods a party holds.
    ledger.goods = dict.fromkeys(ledger.goods)
    for what, role, items in (("receipt", "signer", ledger.receipts),
                              ("origin proof", "originator", ledger.origin_proofs)):
        for item in items.values():
            signer_pub = registry.get(item.signer)
            if signer_pub is None:
                flag(f"{what} from unknown {role} {item.signer!r}")
            elif not rsa_verify(signer_pub, item.value, item.goods_hash):
                flag(f"{what} does not verify")
    return ledger, problems
