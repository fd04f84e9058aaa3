"""Certified e-goods delivery over RSA: protocol, attack scripts, evaluator.

A seller trades encrypted goods for an unforgeable receipt through a
four-step exchange, with a semi-trusted arbiter that can reopen a stalled
trade on the seller's request. The package implements the cryptography
(key wrapping, recoverable encrypted receipts, certificates), the three
party state machines, a deterministic simulation harness with scripted
fairness-breaking scenarios, and a transcript format whose every
signature and congruence can be re-checked offline.
"""

from .credentials import (
    CaIdentity,
    GoodsCertificate,
    InvalidCert,
    InvalidKey,
    RecoverableCert,
    TtpIdentity,
    issue_goods_cert,
    issue_recoverable_cert,
    recover_private_exponent,
    verify_goods_cert,
    verify_recoverable_cert,
)
from .crypto import (
    GenerationFailure,
    NotInvertible,
    PublicKey,
    RsaKeyPair,
    keypair_from_primes,
    rsa_keygen_with_exponent,
)
from .harness import (
    FAIR,
    UNFAIR_FOR_A,
    UNFAIR_FOR_B,
    AttackReport,
    FairnessVerdict,
    RunConfig,
    ScriptError,
    World,
    build_world,
    evaluate_fairness,
    run_eoo_forward,
    run_honest,
    run_mode,
    run_replay_attack,
    verify_report,
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
    InvalidRandomizer,
    OriginProof,
    Receipt,
    RecoveryMismatch,
    VresTriple,
    WrappedKey,
)

__version__ = "0.1.0"
