"""Certificate issue/verify roundtrips, mutations, and exponent recovery."""

import random

import pytest

from rsa_cegd.credentials import (
    GoodsCertificate,
    InvalidCert,
    InvalidKey,
    hash_ciphertext,
    hash_goods,
    issue_goods_cert,
    issue_recoverable_cert,
    recover_private_exponent,
    verify_goods_cert,
    verify_recoverable_cert,
)
from rsa_cegd.crypto import keypair_from_primes, mod_pow, rsa_keygen_with_exponent, sym_encrypt

TOY_CA = keypair_from_primes(5, 23, 3)
TOY_OWNER = keypair_from_primes(3, 11, 3)  # n=33, d=7
GOODS = b"a small electronic good"
DESCRIPTION = b"toy goods"


def toy_cert(key=5):
    cert, _ = issue_goods_cert(TOY_CA, GOODS, DESCRIPTION, key, TOY_OWNER.public)
    return cert


def test_issue_toy_encrypted_key():
    cert = toy_cert(key=5)
    assert cert.enc_key == 26  # 5^3 mod 33
    assert cert.goods_hash == hash_goods(GOODS)
    assert cert.ciphertext_hash == hash_ciphertext(sym_encrypt(5, GOODS))


def test_issue_rejects_bad_key():
    with pytest.raises(InvalidKey):
        toy_cert(key=6)  # gcd(6, 33) = 3
    with pytest.raises(InvalidKey):
        toy_cert(key=1)
    with pytest.raises(InvalidKey):
        toy_cert(key=40)


def test_verify_fresh_cert():
    cert = toy_cert()
    assert verify_goods_cert(cert, sym_encrypt(5, GOODS), TOY_CA.public)


def test_verify_detects_description_flip():
    cert = toy_cert()
    mutated = GoodsCertificate(b"x" + cert.description[1:], cert.ciphertext_hash,
                               cert.goods_hash, cert.enc_key, cert.signature)
    assert not verify_goods_cert(mutated, sym_encrypt(5, GOODS), TOY_CA.public)


def test_verify_detects_truncated_ciphertext():
    cert = toy_cert()
    ciphertext = sym_encrypt(5, GOODS)
    assert not verify_goods_cert(cert, ciphertext[:-1], TOY_CA.public)


def test_verify_detects_wrong_ca():
    cert = toy_cert()
    other_ca = keypair_from_primes(5, 29, 3)
    assert not verify_goods_cert(cert, sym_encrypt(5, GOODS), other_ca.public)


def arbiter(bits=128, seed=1):
    return rsa_keygen_with_exponent(bits, 65537, seed)


def test_recoverable_issue_verify_recover():
    ttp = arbiter()
    cert, pair = issue_recoverable_cert(ttp, 65537, 128, seed=9)
    assert cert.pub.e == 65537
    assert verify_recoverable_cert(cert, ttp.public)
    assert recover_private_exponent(ttp, cert) == pair.d


def test_recoverable_detects_masked_exponent_change():
    ttp = arbiter()
    cert, _ = issue_recoverable_cert(ttp, 65537, 128, seed=9)
    mutated = type(cert)(cert.pub, cert.masked_exponent + 1, cert.signature)
    assert not verify_recoverable_cert(mutated, ttp.public)


def test_recoverable_detects_random_signature():
    ttp = arbiter()
    cert, _ = issue_recoverable_cert(ttp, 65537, 128, seed=9)
    mutated = type(cert)(cert.pub, cert.masked_exponent, 123456789)
    assert not verify_recoverable_cert(mutated, ttp.public)


def test_recover_rejects_foreign_arbiter():
    cert, _ = issue_recoverable_cert(arbiter(seed=1), 65537, 128, seed=9)
    with pytest.raises(InvalidCert):
        recover_private_exponent(arbiter(seed=2), cert)


def test_recovered_exponent_decrypts():
    ttp = arbiter()
    cert, _ = issue_recoverable_cert(ttp, 65537, 128, seed=3)
    d = recover_private_exponent(ttp, cert)
    rng = random.Random(44)
    for _ in range(100):
        m = rng.randrange(0, cert.pub.n)
        assert mod_pow(mod_pow(m, cert.pub.e, cert.pub.n), d, cert.pub.n) == m


def test_mask_unmask_identity_across_seeds():
    ttp = arbiter(seed=21)
    for seed in range(8):
        cert, pair = issue_recoverable_cert(ttp, 3, 32, seed=seed)
        assert cert.pub.e == 3
        assert recover_private_exponent(ttp, cert) == pair.d


def test_subject_exponent_shared():
    ttp = arbiter()
    cert, pair = issue_recoverable_cert(ttp, 3, 64, seed=2)
    assert cert.pub.e == 3 == pair.e


def test_no_invertible_mask_raises_invalid_key(monkeypatch):
    # Each of the 64 keypairs is thrown away when its mask is not a unit.
    calls = []

    def non_unit_mask(ttp_keys, pub):
        calls.append(pub)
        return 0  # gcd(0, n) = n

    monkeypatch.setattr("rsa_cegd.credentials._exponent_mask", non_unit_mask)
    with pytest.raises(InvalidKey):
        issue_recoverable_cert(arbiter(), 3, 32, seed=1)
    assert len(calls) == 64


@pytest.mark.parametrize("exponent", [1, 4])
def test_bad_subject_exponent_raises(exponent):
    # Keygen refuses the exponent, before any mask is derived.
    with pytest.raises(ValueError, match="public exponent must be odd and >= 3"):
        issue_recoverable_cert(arbiter(), exponent, 32, seed=1)
