"""Party state machines and wire messages for the certified-delivery flow.

The seven message body types below are the step table: each carries its
transcript tag (STEP: E1..E4 for the exchange, R1..R3 for recovery), route
(ROUTE: sender, recipient) and the steps of its session whose bodies its
check reads (READS), written nowhere else. A route is unsigned metadata: it
travels beside a body's fields, not among them. The parties are the roles
SELLER, BUYER and ARBITER, so no session or step check takes a party name,
except R1's requester: whoever presents the request.

Protocol asymmetries are preserved exactly because the attack scripts in
the harness depend on them:

  * there is no abort handshake; a stopped session just dangles,
  * only the seller side can construct a recovery request,
  * the arbiter is stateless across sessions and applies no freshness
    test to recovery requests,
  * session ids exist only as routing metadata attached by the harness
    and are never covered by any signature,
  * a buyer handling a recovered randomizer tests it against the current
    session only, never against earlier ones.

Each step's check is one pure function (check_offer, check_encrypted_receipt,
open_goods, open_receipt, check_recovery_request) that raises Reject with a
stable reason code; the handlers and harness.verify_report both call it. The
session handlers' contract is stated once, by _handler: a message that
arrives out of phase returns None and changes nothing, and a handler whose
check rejects leaves its session DANGLING.

A value a check reduces modulo n must lie below n, as RSA decryption
requires of its input (RFC 8017 5.1.2): otherwise v + n would pass as v.
"""

import random
from enum import Enum
from functools import wraps
from typing import NamedTuple

from .credentials import (
    GoodsCertificate,
    RecoverableCert,
    check_goods_cert,
    hash_goods,
    issue_goods_cert,
    recover_private_exponent,
    verify_recoverable_cert,
)
from .crypto import (
    NotInvertible,
    PublicKey,
    RsaKeyPair,
    mod_pow,
    random_prime_below,
    random_unit,
    rsa_sign,
    rsa_verify,
    sym_decrypt,
)
from .vres import (
    RecoveryMismatch,
    Signature,
    VresTriple,
    derive_enc_randomizer,
    generate_vres,
    make_auth_token,
    recover_randomizer,
    recover_receipt,
    unwrap_key,
    verify_auth_token,
    verify_vres,
    wrap_key,
)


class Reject(Exception):
    """Incoming message failed verification; reason is a stable code."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class SenderPhase(Enum):
    INIT = "init"
    SENT_OFFER = "sent-offer"
    SENT_KEY = "sent-key"
    DONE = "done"
    DANGLING = "dangling"


class ReceiverPhase(Enum):
    INIT = "init"
    SENT_RECEIPT = "sent-receipt"
    DONE = "done"
    DANGLING = "dangling"


SELLER = "seller"
BUYER = "buyer"
ARBITER = "arbiter"


# Message bodies. STEP, ROUTE and READS are class attributes, not fields, so
# no codec or signature covers them. The session id is attached by the harness.

class GoodsOffer(NamedTuple):
    STEP, ROUTE, READS = "E1", (SELLER, BUYER), ()
    ciphertext: bytes
    cert: GoodsCertificate
    blinded_key: int
    origin_proof: int


class EncryptedReceipt(NamedTuple):
    STEP, ROUTE, READS = "E2", (BUYER, SELLER), ("E1",)
    vres: VresTriple
    auth_token: int
    recovery_cert: RecoverableCert


class KeyRelease(NamedTuple):
    STEP, ROUTE, READS = "E3", (SELLER, BUYER), ("E1",)
    randomizer: int


class ReceiptRelease(NamedTuple):
    STEP, ROUTE, READS = "E4", (BUYER, SELLER), ("E1", "E2")
    randomizer: int


class RecoveryRequest(NamedTuple):
    STEP, ROUTE, READS = "R1", (SELLER, ARBITER), ()
    recovery_cert: RecoverableCert
    enc_randomizer: int
    auth_token: int
    sender_enc_randomizer: int
    sender_randomizer: int
    # Routing metadata only; tells the arbiter whom to answer. Unsigned.
    counterparty: str


class RecoveredReceiptKey(NamedTuple):
    STEP, ROUTE, READS = "R2", (ARBITER, SELLER), ("R1",)
    randomizer: int


class RecoveredGoodsKey(NamedTuple):
    STEP, ROUTE, READS = "R3", (ARBITER, BUYER), ("R1",)
    randomizer: int


def _check_authorization(cert: RecoverableCert, token: int, signer_pub: PublicKey | None,
                         arbiter_pub: PublicKey, enc_randomizer: int,
                         sender_enc_randomizer: int, sender: str) -> None:
    """The recovery authorization that E2 and R1 both test, so a tuple the
    seller accepted passes the arbiter: the certificate, its exponent against
    the signer's (None: an unknown counterparty), the token naming `sender`."""
    if not verify_recoverable_cert(cert, arbiter_pub):
        raise Reject("bad-recovery-cert")
    if signer_pub is None:
        raise Reject("unknown-counterparty")
    if cert.pub.e != signer_pub.e:
        raise Reject("exponent-mismatch")
    if not verify_auth_token(token, signer_pub, cert, enc_randomizer,
                             sender_enc_randomizer, sender):
        raise Reject("bad-token")


def check_offer(offer: GoodsOffer, ca_pub: PublicKey, sender_pub: PublicKey) -> int:
    """E1. Returns the sender's encrypted randomizer, derived from the key wrap."""
    problem = check_goods_cert(offer.cert, offer.ciphertext, ca_pub)
    if problem is not None:
        raise Reject(problem)
    if not rsa_verify(sender_pub, offer.origin_proof, offer.cert.goods_hash):
        raise Reject("eoo-mismatch")
    if offer.blinded_key >= sender_pub.n:
        raise Reject("bad-enc-key")
    try:
        return derive_enc_randomizer(offer.blinded_key, offer.cert.enc_key, sender_pub)
    except NotInvertible:
        raise Reject("bad-enc-key")


def check_encrypted_receipt(msg: EncryptedReceipt, goods_hash: int,
                            signer_pub: PublicKey, arbiter_pub: PublicKey,
                            sender_enc_randomizer: int) -> None:
    """E2: the recovery authorization (its token naming the seller), the triple."""
    _check_authorization(msg.recovery_cert, msg.auth_token, signer_pub, arbiter_pub,
                         msg.vres.enc_randomizer, sender_enc_randomizer, SELLER)
    if not verify_vres(msg.vres, goods_hash, signer_pub, msg.recovery_cert.pub):
        raise Reject("bad-vres")


def open_goods(offer: GoodsOffer, randomizer: int, sender_pub: PublicKey) -> bytes:
    """E3 and R3: unwrap the key and decrypt the goods; returns the payload."""
    if randomizer >= sender_pub.n:
        raise Reject("bad-key")
    try:
        key = unwrap_key(offer.blinded_key, randomizer, sender_pub.n)
    except NotInvertible:
        raise Reject("bad-key")
    if mod_pow(key, sender_pub.e, sender_pub.n) != offer.cert.enc_key:
        raise Reject("bad-key")
    payload = sym_decrypt(key, offer.ciphertext)
    if hash_goods(payload) != offer.cert.goods_hash:
        raise Reject("bad-key")
    return payload


def open_receipt(msg: EncryptedReceipt, randomizer: int, signer_pub: PublicKey,
                 goods_hash: int) -> Signature:
    """E4 and R2: open the triple with the randomizer; returns the buyer's receipt."""
    combined = signer_pub.n * msg.recovery_cert.pub.n
    if (randomizer >= combined
            or mod_pow(randomizer, signer_pub.e, combined) != msg.vres.enc_randomizer):
        raise Reject("bad-rb")
    try:
        return recover_receipt(msg.vres.blinded_receipt, randomizer, signer_pub,
                               goods_hash, BUYER)
    except (RecoveryMismatch, NotInvertible):
        raise Reject("bad-rb")


def check_recovery_request(msg: RecoveryRequest, requester: str,
                           arbiter_pub: PublicKey,
                           registry: dict[str, PublicKey]) -> None:
    """R1: internal consistency only; nothing ties the tuple to a session."""
    _check_authorization(msg.recovery_cert, msg.auth_token, registry.get(msg.counterparty),
                         arbiter_pub, msg.enc_randomizer, msg.sender_enc_randomizer, requester)
    requester_pub = registry.get(requester)
    if requester_pub is None:
        raise Reject("unknown-requester")
    if (msg.sender_randomizer >= requester_pub.n
            or mod_pow(msg.sender_randomizer, requester_pub.e,
                       requester_pub.n) != msg.sender_enc_randomizer):
        raise Reject("bad-sender-randomizer")


class EvidenceLedger:
    """Per-party evidence holdings. A run credits items only through the two
    methods below, and only once they passed their step's check (open_goods,
    open_receipt; the origin proof at check_offer).

    Goods are keyed by their hash; receipts and origin proofs by the
    signature's (signer, goods hash)."""

    def __init__(self):
        self.goods: dict[int, bytes] = {}
        self.receipts: dict[tuple[str, int], Signature] = {}
        self.origin_proofs: dict[tuple[str, int], Signature] = {}

    def credit_goods(self, payload: bytes, proof: Signature) -> None:
        """Goods together with the origin proof that names their hash."""
        self.goods[proof.goods_hash] = payload
        self.origin_proofs[proof.signer, proof.goods_hash] = proof

    def credit_receipt(self, receipt: Signature) -> None:
        self.receipts[receipt.signer, receipt.goods_hash] = receipt


def _handler(*phases):
    """A session handler that runs only in one of `phases`: in any other it
    returns None and changes nothing. A Reject moves the session to its
    DANGLING phase and propagates."""
    def decorate(method):
        @wraps(method)
        def handler(session, *args, **kwargs):
            if session.phase not in phases:
                return None
            try:
                return method(session, *args, **kwargs)
            except Reject:
                session.phase = type(session.phase).DANGLING
                raise
        return handler
    return decorate


class SenderSession:
    """Seller side of one exchange session."""

    def __init__(self, keys: RsaKeyPair, ca: RsaKeyPair, arbiter_pub: PublicKey,
                 counter_pub: PublicKey, ledger: EvidenceLedger, rng: random.Random):
        self.keys = keys
        self.ca = ca
        self.arbiter_pub = arbiter_pub
        self.counter_pub = counter_pub
        self.ledger = ledger
        self.rng = rng
        self.phase = SenderPhase.INIT
        self.goods_hash: int | None = None
        self.randomizer: int | None = None
        self.enc_randomizer: int | None = None
        # the verified E2, retained as recovery material
        self.enc_receipt: EncryptedReceipt | None = None

    @_handler(SenderPhase.INIT)
    def start(self, goods: bytes, description: bytes) -> GoodsOffer | None:
        key = random_unit(self.rng, self.keys.n)
        randomizer = random_prime_below(self.rng, self.keys.n, coprime_to=(self.keys.n,))
        cert, ciphertext = issue_goods_cert(self.ca, goods, description, key, self.keys.public)
        wrapped = wrap_key(key, randomizer, self.keys)
        self.goods_hash = cert.goods_hash
        self.randomizer = randomizer
        self.enc_randomizer = wrapped.enc_randomizer
        self.phase = SenderPhase.SENT_OFFER
        return GoodsOffer(
            ciphertext=ciphertext,
            cert=cert,
            blinded_key=wrapped.blinded_key,
            origin_proof=rsa_sign(self.keys, cert.goods_hash),
        )

    @_handler(SenderPhase.SENT_OFFER)
    def on_encrypted_receipt(self, msg: EncryptedReceipt,
                             abort: bool = False) -> KeyRelease | None:
        """Verify the E2 material; emit E3, or with abort=True keep the
        verified recovery material and go quiet (the adversarial option —
        nothing on the wire distinguishes it from a lost message)."""
        check_encrypted_receipt(msg, self.goods_hash, self.counter_pub, self.arbiter_pub,
                                self.enc_randomizer)
        self.enc_receipt = msg
        if abort:
            self.phase = SenderPhase.DANGLING
            return None
        self.phase = SenderPhase.SENT_KEY
        return KeyRelease(self.randomizer)

    def _accept_receipt_randomizer(self, randomizer: int) -> None:
        receipt = open_receipt(self.enc_receipt, randomizer, self.counter_pub,
                               self.goods_hash)
        self.ledger.credit_receipt(receipt)
        self.phase = SenderPhase.DONE

    @_handler(SenderPhase.SENT_KEY)
    def on_receipt_release(self, msg: ReceiptRelease) -> None:
        self._accept_receipt_randomizer(msg.randomizer)

    @_handler(SenderPhase.SENT_KEY, SenderPhase.DANGLING)
    def on_recovered_randomizer(self, msg: RecoveredReceiptKey) -> None:
        """Arbiter answered a recovery request; unblind the stored triple."""
        if self.enc_receipt is None:
            return None
        self._accept_receipt_randomizer(msg.randomizer)

    def recovery_request(self) -> RecoveryRequest:
        """Package the retained E2 material for the arbiter. Only sender
        sessions have this; the receiver role cannot trigger recovery."""
        if self.enc_receipt is None:
            raise ValueError("no recovery material retained for this session")
        return RecoveryRequest(
            recovery_cert=self.enc_receipt.recovery_cert,
            enc_randomizer=self.enc_receipt.vres.enc_randomizer,
            auth_token=self.enc_receipt.auth_token,
            sender_enc_randomizer=self.enc_randomizer,
            sender_randomizer=self.randomizer,
            counterparty=BUYER,
        )


class ReceiverSession:
    """Buyer side of one exchange session."""

    def __init__(self, keys: RsaKeyPair, ca_pub: PublicKey, counter_pub: PublicKey,
                 recovery_cert: RecoverableCert, recovery_keys: RsaKeyPair,
                 ledger: EvidenceLedger, rng: random.Random):
        self.keys = keys
        self.ca_pub = ca_pub
        self.counter_pub = counter_pub
        self.recovery_cert = recovery_cert
        self.recovery_keys = recovery_keys
        self.ledger = ledger
        self.rng = rng
        self.phase = ReceiverPhase.INIT
        self.offer: GoodsOffer | None = None
        self.randomizer: int | None = None

    @_handler(ReceiverPhase.INIT)
    def on_goods_offer(self, msg: GoodsOffer) -> EncryptedReceipt | None:
        sender_enc_randomizer = check_offer(msg, self.ca_pub, self.counter_pub)
        bound = min(self.keys.n, self.recovery_keys.n)
        randomizer = random_prime_below(self.rng, bound,
                                        coprime_to=(self.keys.n, self.recovery_keys.n))
        triple = generate_vres(msg.cert.goods_hash, self.keys, self.recovery_keys,
                               randomizer)
        token = make_auth_token(self.keys, self.recovery_cert, triple.enc_randomizer,
                                sender_enc_randomizer, SELLER)
        self.offer = msg
        self.randomizer = randomizer
        self.phase = ReceiverPhase.SENT_RECEIPT
        return EncryptedReceipt(triple, token, self.recovery_cert)

    def _unlock_goods(self, randomizer: int) -> None:
        """Shared E3/R3 handling. Only on full success do goods and origin
        proof enter the ledger."""
        payload = open_goods(self.offer, randomizer, self.counter_pub)
        self.ledger.credit_goods(payload, Signature(
            self.offer.origin_proof, self.offer.cert.goods_hash, SELLER))
        self.phase = ReceiverPhase.DONE

    @_handler(ReceiverPhase.SENT_RECEIPT)
    def on_key_release(self, msg: KeyRelease) -> ReceiptRelease | None:
        self._unlock_goods(msg.randomizer)
        return ReceiptRelease(self.randomizer)

    @_handler(ReceiverPhase.SENT_RECEIPT)
    def on_recovered_randomizer(self, msg: RecoveredGoodsKey) -> None:
        """Arbiter-delivered randomizer. Tested against the current session
        only; this side never replays it against older sessions' stored
        offers, and has no way to ask the arbiter anything itself."""
        self._unlock_goods(msg.randomizer)


class ArbiterService:
    """Recovery arbiter. Deliberately stateless across sessions: every
    request is judged on internal consistency alone, so a tuple retained
    from one run passes identically when presented during another."""

    def __init__(self, keys: RsaKeyPair, registry: dict[str, PublicKey]):
        self.keys = keys
        self.registry = registry

    def on_recovery_request(self, msg: RecoveryRequest, requester: str
                            ) -> tuple[RecoveredReceiptKey, RecoveredGoodsKey]:
        check_recovery_request(msg, requester, self.keys.public, self.registry)
        recovery_exp = recover_private_exponent(self.keys, msg.recovery_cert)
        randomizer = recover_randomizer(msg.enc_randomizer, recovery_exp,
                                        msg.recovery_cert.pub.n)
        # Both answers or neither: the receipt key to the requester, the
        # goods key to the counterparty.
        return RecoveredReceiptKey(randomizer), RecoveredGoodsKey(msg.sender_randomizer)
