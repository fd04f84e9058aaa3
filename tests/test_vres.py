"""Toy vectors for the encrypted-receipt algebra, tamper detection,
cross-decryption agreement, and the evidence tokens.

The toy keys: buyer (e=3, n=55, d=27), recovery pair (e=3, n=85, d=43),
seller (e=3, n=33, d=7). The control-value mask is monkeypatched to 4 in
the fixed-vector tests so every expected number is hand-checkable."""

import random
from math import gcd

import pytest

import rsa_cegd.vres as vres_mod
from rsa_cegd.credentials import RecoverableCert
from rsa_cegd.crypto import (
    is_probable_prime,
    keypair_from_primes,
    mod_pow,
    random_prime_below,
    rsa_keygen_with_exponent,
    rsa_sign,
    rsa_verify,
)
from rsa_cegd.vres import (
    InvalidRandomizer,
    RecoveryMismatch,
    VresTriple,
    check_vres,
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

BUYER = keypair_from_primes(5, 11, 3)     # n=55, d=27
RECOVERY = keypair_from_primes(5, 17, 3)  # n=85, d=43
SELLER = keypair_from_primes(3, 11, 3)    # n=33, d=7
GOODS_HASH = 2


@pytest.fixture
def forced_mask(monkeypatch):
    monkeypatch.setattr(vres_mod, "_control_mask", lambda y, n: 4)


# --- key wrapping -----------------------------------------------------------

def test_wrap_key_toy():
    wrapped = wrap_key(5, 7, SELLER)
    assert wrapped.blinded_key == 2      # 35 mod 33
    assert wrapped.enc_randomizer == 13  # 343 mod 33


def test_wrap_key_identity_key():
    # key = 1 violates no precondition of wrap_key itself at this layer
    wrapped = wrap_key(1, 7, SELLER)
    assert wrapped.blinded_key == 7


def test_wrap_key_invariant_toy():
    wrapped = wrap_key(5, 7, SELLER)
    lhs = mod_pow(wrapped.blinded_key, 3, 33)
    assert lhs == 8
    enc_key = mod_pow(5, 3, 33)  # the goods certificate's k^e mod n
    assert (wrapped.enc_randomizer * enc_key) % 33 == 8


def test_wrap_key_rejects_bad_randomizer():
    with pytest.raises(InvalidRandomizer):
        wrap_key(5, 11, SELLER)  # divides the modulus
    with pytest.raises(InvalidRandomizer):
        wrap_key(5, 8, SELLER)  # not prime
    with pytest.raises(InvalidRandomizer):
        wrap_key(5, 1, SELLER)


def test_derive_enc_randomizer_toy():
    assert derive_enc_randomizer(2, 26, SELLER.public) == 13


def test_derive_matches_wrap():
    rng = random.Random(5)
    pair = rsa_keygen_with_exponent(64, 3, seed=15)
    for _ in range(25):
        key = random_prime_below(rng, pair.n, coprime_to=(pair.n,))
        randomizer = random_prime_below(rng, pair.n, coprime_to=(pair.n,))
        wrapped = wrap_key(key, randomizer, pair)
        derived = derive_enc_randomizer(wrapped.blinded_key,
                                        mod_pow(key, pair.e, pair.n), pair.public)
        assert derived == wrapped.enc_randomizer


def test_derive_with_tampered_enc_key_breaks_binding():
    # A doctored encrypted key yields a derived value that fails the
    # randomizer-encryption check an arbiter would apply.
    wrapped = wrap_key(5, 7, SELLER)
    derived = derive_enc_randomizer(wrapped.blinded_key, 25, SELLER.public)
    assert mod_pow(7, SELLER.e, SELLER.n) != derived


def test_unwrap_key_toy():
    assert unwrap_key(2, 7, 33) == 5


def test_unwrap_inverts_wrap():
    rng = random.Random(6)
    pair = rsa_keygen_with_exponent(64, 3, seed=16)
    for _ in range(100):
        key = random_prime_below(rng, pair.n, coprime_to=(pair.n,))
        randomizer = random_prime_below(rng, pair.n, coprime_to=(pair.n,))
        wrapped = wrap_key(key, randomizer, pair)
        assert unwrap_key(wrapped.blinded_key, randomizer, pair.n) == key


def test_unwrap_rejects_noninvertible_randomizer():
    from rsa_cegd.crypto import NotInvertible
    with pytest.raises(NotInvertible):
        unwrap_key(2, 11, 33)


def test_wrap_congruence_characterizes_blinded_product():
    # Exhaustive search at n=33: the invariant holds exactly when the
    # blinded product r'*k' matches r*k mod n, i.e. the congruence binds
    # the blinded key, not the individual factors.
    n, e = 33, 3
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    primes = [r for r in units if is_probable_prime(r)]
    for r in primes:
        for k in units:
            blinded = (r * k) % n
            for r2 in primes:
                for k2 in units:
                    holds = pow(blinded, e, n) == (pow(r2, e, n) * pow(k2, e, n)) % n
                    assert holds == ((r2 * k2) % n == blinded)


# --- the encrypted-receipt triple -------------------------------------------

def test_generate_vres_toy(forced_mask):
    triple = generate_vres(GOODS_HASH, BUYER, RECOVERY, 7)
    assert triple.enc_randomizer == 343  # 7^3 mod 4675
    assert triple.blinded_receipt == 16  # 7 * (2^27 mod 55) mod 55 = 7*18 mod 55
    assert triple.control == 23          # 7 * (4^43 mod 85) mod 85 = 7*64 mod 85


def test_generate_vres_rejects_bad_randomizers():
    with pytest.raises(InvalidRandomizer):
        generate_vres(GOODS_HASH, BUYER, RECOVERY, 5)  # gcd(5, 55) = 5
    with pytest.raises(InvalidRandomizer):
        generate_vres(GOODS_HASH, BUYER, RECOVERY, 9)  # not prime
    with pytest.raises(InvalidRandomizer):
        generate_vres(GOODS_HASH, BUYER, RECOVERY, 61)  # above min(55, 85)


def test_verify_vres_toy(forced_mask):
    triple = VresTriple(enc_randomizer=343, blinded_receipt=16, control=23)
    assert mod_pow(16, 3, 55) == 26 == (13 * 2) % 55
    assert mod_pow(23, 3, 85) == 12 == (3 * 4) % 85
    assert verify_vres(triple, GOODS_HASH, BUYER.public, RECOVERY.public)


def test_verify_vres_detects_tampered_receipt(forced_mask):
    triple = VresTriple(enc_randomizer=343, blinded_receipt=17, control=23)
    assert check_vres(triple, GOODS_HASH, BUYER.public, RECOVERY.public) \
        == "receipt-congruence"


def test_verify_vres_detects_wrong_goods_hash(forced_mask):
    triple = VresTriple(enc_randomizer=343, blinded_receipt=16, control=23)
    assert not verify_vres(triple, 3, BUYER.public, RECOVERY.public)


def test_verify_vres_range_bound(forced_mask):
    triple = VresTriple(enc_randomizer=343 + 55 * 85, blinded_receipt=16, control=23)
    assert check_vres(triple, GOODS_HASH, BUYER.public, RECOVERY.public) \
        == "enc-randomizer-range"


def test_recover_receipt_toy():
    receipt = recover_receipt(16, 7, BUYER.public, GOODS_HASH, "buyer")
    assert receipt.value == 18
    assert mod_pow(18, 3, 55) == 2
    assert rsa_verify(BUYER.public, receipt.value, receipt.goods_hash)


def test_recover_receipt_wrong_randomizer():
    # 13 is prime and invertible mod 55 but belongs to no valid blinding
    with pytest.raises(RecoveryMismatch):
        recover_receipt(16, 13, BUYER.public, GOODS_HASH, "buyer")


def test_recover_receipt_inverts_generate():
    rng = random.Random(8)
    buyer = rsa_keygen_with_exponent(64, 3, seed=31)
    recovery = rsa_keygen_with_exponent(64, 3, seed=32)
    for _ in range(100):
        goods_hash = rng.getrandbits(256)
        bound = min(buyer.n, recovery.n)
        randomizer = random_prime_below(rng, bound,
                                        coprime_to=(buyer.n, recovery.n))
        triple = generate_vres(goods_hash, buyer, recovery, randomizer)
        receipt = recover_receipt(triple.blinded_receipt, randomizer,
                                  buyer.public, goods_hash, "buyer")
        assert receipt.value == mod_pow(goods_hash % buyer.n, buyer.d, buyer.n)


def test_recover_randomizer_toy():
    assert recover_randomizer(343, 43, 85) == 7


def test_recover_randomizer_receiver_path_toy():
    assert mod_pow(343 % 55, 27, 55) == 7


def test_recover_randomizer_unit():
    assert recover_randomizer(1, 43, 85) == 1


def test_cross_decryption_exhaustive_toy():
    # Every valid blinding factor below min(55, 85) is recovered by both
    # the buyer-side and the arbiter-side opening.
    for r in range(2, 55):
        if not is_probable_prime(r) or gcd(r, 55) != 1 or gcd(r, 85) != 1:
            continue
        y = pow(r, 3, 55 * 85)
        assert mod_pow(y % 55, 27, 55) == r
        assert recover_randomizer(y, 43, 85) == r


def test_vres_tampering_randomized():
    rng = random.Random(9)
    buyer = rsa_keygen_with_exponent(96, 3, seed=33)
    recovery = rsa_keygen_with_exponent(96, 3, seed=34)
    for _ in range(25):
        goods_hash = rng.getrandbits(256)
        randomizer = random_prime_below(rng, min(buyer.n, recovery.n),
                                        coprime_to=(buyer.n, recovery.n))
        triple = generate_vres(goods_hash, buyer, recovery, randomizer)
        assert verify_vres(triple, goods_hash, buyer.public, recovery.public)
        combined = buyer.n * recovery.n
        tampered = [
            VresTriple((triple.enc_randomizer + 1) % combined,
                       triple.blinded_receipt, triple.control),
            VresTriple(triple.enc_randomizer,
                       (triple.blinded_receipt + 1) % buyer.n, triple.control),
            VresTriple(triple.enc_randomizer, triple.blinded_receipt,
                       (triple.control + 1) % recovery.n),
        ]
        for bad in tampered:
            assert not verify_vres(bad, goods_hash, buyer.public, recovery.public)
        assert not verify_vres(triple, goods_hash + 1, buyer.public, recovery.public)


def test_signer_holding_both_exponents_passes_any_y():
    # check_vres proves only that its signer can sign y*h under (e, n) and
    # y*m(y) under (e, n'). The buyer holds d' as well as d
    # (ReceiverSession.recovery_keys), so it can complete any y into a passing
    # triple whose two residues encrypt different values: the arbiter's
    # opening of y then re-encrypts to another y and unblinds no receipt.
    # Pinned as it is; nothing here fixes it.
    rng = random.Random(10)
    buyer = rsa_keygen_with_exponent(64, 3, seed=31)
    recovery = rsa_keygen_with_exponent(64, 3, seed=32)
    combined = buyer.n * recovery.n
    goods_hash = rng.getrandbits(256)
    for _ in range(25):
        y = rng.randrange(combined)
        mask = vres_mod._control_mask(y, recovery.n)
        triple = VresTriple(y, rsa_sign(buyer, y * goods_hash), rsa_sign(recovery, y * mask))
        assert check_vres(triple, goods_hash, buyer.public, recovery.public) is None
        opened = recover_randomizer(y, recovery.d, recovery.n)
        assert mod_pow(opened, buyer.e, combined) != y
        with pytest.raises(RecoveryMismatch):
            recover_receipt(triple.blinded_receipt, opened, buyer.public, goods_hash, "buyer")


# --- evidence tokens ---------------------------------------------------------

def toy_recovery_cert():
    return RecoverableCert(RECOVERY.public, masked_exponent=12, signature=34)


def test_auth_token_roundtrip():
    cert = toy_recovery_cert()
    token = make_auth_token(BUYER, cert, 343, 13, "seller")
    assert verify_auth_token(token, BUYER.public, cert, 343, 13, "seller")


def test_auth_token_binds_enc_randomizer():
    cert = toy_recovery_cert()
    token = make_auth_token(BUYER, cert, 343, 13, "seller")
    assert not verify_auth_token(token, BUYER.public, cert, 344, 13, "seller")


def test_auth_token_session_free():
    # Exactly the same inputs later on yield exactly the same token: no
    # session identifier participates, so a stored token replays cleanly.
    cert = toy_recovery_cert()
    first = make_auth_token(BUYER, cert, 343, 13, "seller")
    second = make_auth_token(BUYER, cert, 343, 13, "seller")
    assert first == second
    assert verify_auth_token(first, BUYER.public, cert, 343, 13, "seller")


def test_origin_proof_toy():
    proof = rsa_sign(SELLER, GOODS_HASH)
    assert proof == 29  # 2^7 mod 33
    assert mod_pow(29, 3, 33) == 2
    assert rsa_verify(SELLER.public, proof, GOODS_HASH)


def test_origin_proof_wrong_key():
    proof = rsa_sign(SELLER, GOODS_HASH)
    assert not rsa_verify(BUYER.public, proof, GOODS_HASH)


def test_origin_proof_holder_free():
    # The proof carries no receiver identity: any holder presents the
    # identical value and it verifies just the same.
    proof = rsa_sign(SELLER, GOODS_HASH)
    for _holder in ("buyer", "outsider", "anyone"):
        assert rsa_verify(SELLER.public, proof, GOODS_HASH)
