"""State machine behavior: honest transitions, rejects, phase guards, the
abort option, recovery, and the structural one-sidedness of recovery."""

import ast
import typing
from pathlib import Path

import pytest

from conftest import start_session, toy_config
from rsa_cegd.credentials import verify_goods_cert
from rsa_cegd.crypto import rsa_sign
from rsa_cegd.harness import BUYER, SELLER, build_world, session_goods
from rsa_cegd.protocol import (
    ArbiterService,
    EncryptedReceipt,
    GoodsOffer,
    KeyRelease,
    ReceiptRelease,
    ReceiverPhase,
    ReceiverSession,
    RecoveredGoodsKey,
    RecoveredReceiptKey,
    RecoveryRequest,
    Reject,
    SenderPhase,
    SenderSession,
)
from rsa_cegd.vres import (
    derive_enc_randomizer,
    generate_vres,
    make_auth_token,
    verify_vres,
)


def run_exchange(world, number=1):
    sender, receiver, goods, description = start_session(world, number)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    key_release = sender.on_encrypted_receipt(enc_receipt)
    receipt_release = receiver.on_key_release(key_release)
    sender.on_receipt_release(receipt_release)
    return sender, receiver, offer


# --- sender start -------------------------------------------------------------

def test_start_emits_verifying_offer(toy_world):
    sender, _, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    assert verify_goods_cert(offer.cert, offer.ciphertext, toy_world.ca.public)
    assert sender.phase is SenderPhase.SENT_OFFER


def test_start_deterministic_per_seed():
    world_a = build_world(toy_config(seed=5))
    world_b = build_world(toy_config(seed=5))
    offer_a = start_session(world_a)[0].start(*session_goods(world_a.config, 1))
    offer_b = start_session(world_b)[0].start(*session_goods(world_b.config, 1))
    assert offer_a == offer_b


def test_start_varies_with_seed():
    world_a = build_world(toy_config(seed=5))
    world_b = build_world(toy_config(seed=6))
    sender_a = start_session(world_a)[0]
    sender_b = start_session(world_b)[0]
    sender_a.start(*session_goods(world_a.config, 1))
    sender_b.start(*session_goods(world_b.config, 1))
    assert (sender_a.randomizer, sender_a.enc_randomizer) != \
        (sender_b.randomizer, sender_b.enc_randomizer)


# --- receiver on E1 ------------------------------------------------------------

def test_offer_accepted_and_receipt_verifies(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    assert verify_vres(enc_receipt.vres, offer.cert.goods_hash,
                       toy_world.registry[BUYER], enc_receipt.recovery_cert.pub)
    assert receiver.phase is ReceiverPhase.SENT_RECEIPT


def test_offer_with_foreign_origin_proof_rejected(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    seller_keys = toy_world.keyrings[SELLER]
    mangled = GoodsOffer(offer.ciphertext, offer.cert, offer.blinded_key,
                         rsa_sign(seller_keys, offer.cert.goods_hash + 1))
    with pytest.raises(Reject) as err:
        receiver.on_goods_offer(mangled)
    assert err.value.reason == "eoo-mismatch"
    assert receiver.phase is ReceiverPhase.DANGLING


def test_offer_with_origin_proof_plus_modulus_rejected(toy_world):
    # proof + n has the same e-th power mod n as the proof itself.
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    mangled = GoodsOffer(offer.ciphertext, offer.cert, offer.blinded_key,
                         offer.origin_proof + toy_world.registry[SELLER].n)
    with pytest.raises(Reject) as err:
        receiver.on_goods_offer(mangled)
    assert err.value.reason == "eoo-mismatch"
    assert receiver.phase is ReceiverPhase.DANGLING


def test_offer_with_mismatched_ciphertext_rejected(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    mangled = GoodsOffer(offer.ciphertext[:-1], offer.cert, offer.blinded_key,
                         offer.origin_proof)
    with pytest.raises(Reject) as err:
        receiver.on_goods_offer(mangled)
    assert err.value.reason == "hd-mismatch"


# --- sender on E2 ---------------------------------------------------------------

def test_wrong_goods_vres_aborts_sender(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    # Rebuild the triple over a different goods hash, with a token that
    # still verifies, so the failure is attributed to the triple itself.
    buyer_keys = toy_world.keyrings[BUYER]
    cert, recovery_keys = toy_world.buyer_recovery
    triple = generate_vres(offer.cert.goods_hash + 1, buyer_keys, recovery_keys,
                           receiver.randomizer)
    derived = derive_enc_randomizer(offer.blinded_key, offer.cert.enc_key,
                                    toy_world.registry[SELLER])
    token = make_auth_token(buyer_keys, cert, triple.enc_randomizer, derived, SELLER)
    with pytest.raises(Reject) as err:
        sender.on_encrypted_receipt(EncryptedReceipt(triple, token, cert))
    assert err.value.reason == "bad-vres"
    assert sender.phase is SenderPhase.DANGLING


def test_abort_keeps_material_without_emitting(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    assert sender.on_encrypted_receipt(enc_receipt, abort=True) is None
    assert sender.phase is SenderPhase.DANGLING
    request = sender.recovery_request()
    assert request.enc_randomizer == enc_receipt.vres.enc_randomizer
    assert request.sender_randomizer == sender.randomizer


def test_recovery_request_requires_material(toy_world):
    sender, _, goods, description = start_session(toy_world)
    sender.start(goods, description)
    with pytest.raises(ValueError):
        sender.recovery_request()


# --- receiver on E3 --------------------------------------------------------------

def test_honest_key_release_records_goods(toy_world):
    sender, receiver, offer = run_exchange(toy_world)
    goods_hash = offer.cert.goods_hash
    assert goods_hash in toy_world.ledgers[BUYER].goods
    assert (SELLER, goods_hash) in toy_world.ledgers[BUYER].origin_proofs
    assert receiver.phase is ReceiverPhase.DONE


def test_cross_session_randomizer_rejected(toy_world):
    sender1, _, goods1, desc1 = start_session(toy_world, 1)
    sender1.start(goods1, desc1)
    sender2, receiver2, goods2, desc2 = start_session(toy_world, 2)
    offer2 = sender2.start(goods2, desc2)
    receiver2.on_goods_offer(offer2)
    with pytest.raises(Reject) as err:
        receiver2.on_key_release(KeyRelease(sender1.randomizer))
    assert err.value.reason == "bad-key"
    assert not toy_world.ledgers[BUYER].goods
    assert receiver2.phase is ReceiverPhase.DANGLING


def test_key_release_plus_modulus_rejected(toy_world):
    # r + n unwraps to the same key as r, so only the bound r < n rejects it.
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    sender.on_encrypted_receipt(receiver.on_goods_offer(offer))
    with pytest.raises(Reject) as err:
        receiver.on_key_release(KeyRelease(sender.randomizer + toy_world.registry[SELLER].n))
    assert err.value.reason == "bad-key"
    assert not toy_world.ledgers[BUYER].goods
    assert receiver.phase is ReceiverPhase.DANGLING


def test_replayed_key_release_ignored_after_done(toy_world):
    sender, receiver, offer = run_exchange(toy_world)
    assert receiver.on_key_release(KeyRelease(sender.randomizer)) is None
    assert receiver.phase is ReceiverPhase.DONE


# --- sender on E4 ------------------------------------------------------------------

def test_honest_receipt_release_records_receipt(toy_world):
    sender, receiver, offer = run_exchange(toy_world)
    goods_hash = offer.cert.goods_hash
    receipt = toy_world.ledgers[SELLER].receipts[(BUYER, goods_hash)]
    buyer_pub = toy_world.registry[BUYER]
    assert pow(receipt.value, buyer_pub.e, buyer_pub.n) == goods_hash % buyer_pub.n
    assert sender.phase is SenderPhase.DONE


def test_wrong_receipt_randomizer_rejected(toy_world):
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    sender.on_encrypted_receipt(enc_receipt)
    with pytest.raises(Reject) as err:
        sender.on_receipt_release(ReceiptRelease(sender.randomizer))
    assert err.value.reason == "bad-rb"
    assert not toy_world.ledgers[SELLER].receipts


def test_receipt_release_plus_modulus_rejected(toy_world):
    # r + n*n' has the same e-th power mod n*n' as r.
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    sender.on_encrypted_receipt(enc_receipt)
    combined = toy_world.registry[BUYER].n * enc_receipt.recovery_cert.pub.n
    with pytest.raises(Reject) as err:
        sender.on_receipt_release(ReceiptRelease(receiver.randomizer + combined))
    assert err.value.reason == "bad-rb"
    assert not toy_world.ledgers[SELLER].receipts
    assert sender.phase is SenderPhase.DANGLING


# --- arbiter -------------------------------------------------------------------------

def abort_after_e2(world, number):
    sender, receiver, goods, description = start_session(world, number)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    sender.on_encrypted_receipt(enc_receipt, abort=True)
    return sender, receiver, offer


def test_arbiter_answers_honest_request(toy_world):
    sender, receiver, offer = abort_after_e2(toy_world, 1)
    arbiter = ArbiterService(toy_world.arbiter, toy_world.registry)
    receipt_key, goods_key = arbiter.on_recovery_request(
        sender.recovery_request(), SELLER)
    assert receipt_key.randomizer == receiver.randomizer
    assert goods_key.randomizer == sender.randomizer
    # and the recovered answers complete both sides
    sender.on_recovered_randomizer(receipt_key)
    assert (BUYER, offer.cert.goods_hash) in toy_world.ledgers[SELLER].receipts
    receiver.on_recovered_randomizer(goods_key)
    assert offer.cert.goods_hash in toy_world.ledgers[BUYER].goods


def test_arbiter_accepts_stale_tuple_in_later_session(toy_world):
    sender1, receiver1, offer1 = abort_after_e2(toy_world, 1)
    stale = sender1.recovery_request()
    sender2, receiver2, offer2 = abort_after_e2(toy_world, 2)
    arbiter = ArbiterService(toy_world.arbiter, toy_world.registry)
    receipt_key, goods_key = arbiter.on_recovery_request(stale, SELLER)
    # The answers belong to session 1, the run the tuple was minted in.
    assert receipt_key.randomizer == receiver1.randomizer
    assert goods_key.randomizer == sender1.randomizer


def test_arbiter_rejects_token_for_wrong_enc_randomizer(toy_world):
    sender, receiver, offer = abort_after_e2(toy_world, 1)
    request = sender.recovery_request()
    bad = RecoveryRequest(request.recovery_cert, request.enc_randomizer,
                          request.auth_token,
                          request.sender_enc_randomizer + 1,
                          request.sender_randomizer, request.counterparty)
    arbiter = ArbiterService(toy_world.arbiter, toy_world.registry)
    with pytest.raises(Reject) as err:
        arbiter.on_recovery_request(bad, SELLER)
    assert err.value.reason == "bad-token"


def test_arbiter_rejects_unrelated_requester(toy_world):
    sender, receiver, offer = abort_after_e2(toy_world, 1)
    arbiter = ArbiterService(toy_world.arbiter, toy_world.registry)
    with pytest.raises(Reject):
        arbiter.on_recovery_request(sender.recovery_request(), BUYER)


# --- structural: recovery is sender-only ------------------------------------------------

def test_receiver_api_cannot_build_recovery_requests():
    assert hasattr(SenderSession, "recovery_request")
    assert not hasattr(ReceiverSession, "recovery_request")
    for name in dir(ReceiverSession):
        if name.startswith("_"):
            continue
        method = getattr(ReceiverSession, name)
        if not callable(method):
            continue
        hints = typing.get_type_hints(method)
        returned = str(hints.get("return", ""))
        assert "RecoveryRequest" not in returned


def test_receiver_transitions_never_emit_recovery(toy_world):
    # Exhaustive sweep: every handler is fed every message kind in every
    # phase; collect everything emitted and check the closed output set.
    sender, receiver, goods, description = start_session(toy_world)
    offer = sender.start(goods, description)
    enc_receipt = receiver.on_goods_offer(offer)
    key_release = sender.on_encrypted_receipt(enc_receipt)
    messages = [offer, enc_receipt, key_release,
                ReceiptRelease(receiver.randomizer),
                RecoveredReceiptKey(receiver.randomizer),
                RecoveredGoodsKey(sender.randomizer)]
    handlers = [ReceiverSession.on_goods_offer, ReceiverSession.on_key_release,
                ReceiverSession.on_recovered_randomizer]
    emitted = []
    for phase in ReceiverPhase:
        for handler in handlers:
            for message in messages:
                receiver.phase = phase
                try:
                    result = handler(receiver, message)
                except (Reject, AttributeError, TypeError):
                    continue
                if result is not None:
                    emitted.append(result)
    assert emitted, "sweep should produce at least some output"
    assert all(isinstance(m, (EncryptedReceipt, ReceiptRelease)) for m in emitted)
    assert not any(isinstance(m, RecoveryRequest) for m in emitted)


# --- out-of-phase messages ----------------------------------------------------------

@pytest.fixture(scope="module")
def genuine():
    """Session number -> each step's genuine message, the seller's start
    arguments as "goods". Runs are deterministic, so session 1's are the
    messages a fresh session 1 of another toy world is sent."""
    world = build_world(toy_config())
    arbiter = ArbiterService(world.arbiter, world.registry)
    messages = {}
    for number in (1, 2):
        sender, receiver, goods, description = start_session(world, number)
        offer = sender.start(goods, description)
        enc_receipt = receiver.on_goods_offer(offer)
        key_release = sender.on_encrypted_receipt(enc_receipt)
        receipt_key, goods_key = arbiter.on_recovery_request(sender.recovery_request(), SELLER)
        messages[number] = {"goods": (goods, description), "E1": offer, "E2": enc_receipt,
                            "E3": key_release, "E4": receiver.on_key_release(key_release),
                            "R2": receipt_key, "R3": goods_key}
    return messages


def _session_in(genuine, role, state):
    """A fresh session 1 of `role`, brought to `state` by its own handlers;
    the dangling ones reject session 2's message, the aborted one keeps E2."""
    world = build_world(toy_config())
    sender, receiver, _, _ = start_session(world, 1)
    own, other = genuine[1], genuine[2]
    if role == "receiver":
        if state != "init":
            receiver.on_goods_offer(own["E1"])
        if state == "done":
            receiver.on_key_release(own["E3"])
        if state == "dangling":
            with pytest.raises(Reject):
                receiver.on_key_release(other["E3"])
        return receiver
    if state != "init":
        sender.start(*own["goods"])
    if state in ("sent-key", "done"):
        sender.on_encrypted_receipt(own["E2"])
    if state == "done":
        sender.on_receipt_release(own["E4"])
    if state == "dangling-aborted":
        sender.on_encrypted_receipt(own["E2"], abort=True)
    if state == "dangling-rejected":
        with pytest.raises(Reject):
            sender.on_encrypted_receipt(other["E2"])
        assert sender.enc_receipt is None
    return sender


# (role, handler, step it takes, every state whose phase it does not accept)
_OUT_OF_PHASE = [
    ("sender", "start", "goods",
     ["sent-offer", "sent-key", "done", "dangling-aborted", "dangling-rejected"]),
    ("sender", "on_encrypted_receipt", "E2",
     ["init", "sent-key", "done", "dangling-aborted", "dangling-rejected"]),
    ("sender", "on_receipt_release", "E4",
     ["init", "sent-offer", "done", "dangling-aborted", "dangling-rejected"]),
    # It accepts a dangling session only if that session kept a verified E2.
    ("sender", "on_recovered_randomizer", "R2",
     ["init", "sent-offer", "done", "dangling-rejected"]),
    ("receiver", "on_goods_offer", "E1", ["sent-receipt", "done", "dangling"]),
    ("receiver", "on_key_release", "E3", ["init", "done", "dangling"]),
    ("receiver", "on_recovered_randomizer", "R3", ["init", "done", "dangling"]),
]


def _snapshot(session):
    fields = {name: value for name, value in vars(session).items() if name != "rng"}
    ledger = {name: dict(items) for name, items in vars(session.ledger).items()}
    return fields, session.rng.getstate(), ledger


@pytest.mark.parametrize("number", [1, 2], ids=["own", "other-session"])
@pytest.mark.parametrize("role, handler, step, state", [
    (role, handler, step, state) for role, handler, step, states in _OUT_OF_PHASE
    for state in states])
def test_out_of_phase_message_changes_nothing(genuine, role, handler, step, state, number):
    # The protocol's promise: a message that arrives out of phase returns
    # None and leaves the phase, the session's fields and the ledger as they were.
    session = _session_in(genuine, role, state)
    assert state.startswith(session.phase.value)
    before = _snapshot(session)
    message = genuine[number][step]
    result = getattr(session, handler)(*message if step == "goods" else (message,))
    assert result is None
    assert _snapshot(session) == before


# --- the README's reason-code table ---------------------------------------------

_ROOT = Path(__file__).resolve().parent.parent


def _raised_codes():
    """Every literal passed to Reject(...) in src/, and each code
    check_goods_cert returns for check_offer to raise."""
    codes = set()
    for path in (_ROOT / "src" / "rsa_cegd").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Reject" and isinstance(node.args[0], ast.Constant)):
                codes.add(node.args[0].value)
            if isinstance(node, ast.FunctionDef) and node.name == "check_goods_cert":
                codes.update(ret.value.value for ret in ast.walk(node)
                             if isinstance(ret, ast.Return)
                             and isinstance(ret.value, ast.Constant)
                             and ret.value.value is not None)
    return codes


def _documented_codes():
    """The first column of the README's `| code | step | what failed |` table."""
    lines = (_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| code | step | what failed |") + 2  # past the |---| row
    codes = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        codes.add(line.split("|")[1].strip().strip("`"))
    return codes


def test_readme_reason_codes_are_the_raised_codes():
    raised, documented = _raised_codes(), _documented_codes()
    # One code from each source: a step check, check_goods_cert, the verifier.
    assert {"bad-vres", "hd-mismatch", "misrouted"} <= raised
    assert raised - documented == set(), "raised but not in the README's table"
    assert documented - raised == set(), "in the README's table but never raised"
