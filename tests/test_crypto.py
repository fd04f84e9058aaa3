"""Substrate tests: modular arithmetic against naive oracles, the libcrypto
modexp kernel against builtins.pow, keygen, hash-to-integer, and the
keystream cipher."""

import builtins
import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import threading
from functools import partial
from math import gcd, isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import rsa_cegd.crypto as crypto_mod
from rsa_cegd.crypto import (
    HASH_BOUND,
    Drawn,
    GenerationFailure,
    NotInvertible,
    encode_fields,
    hash_int,
    hex_to_int,
    int_to_hex,
    is_probable_prime,
    keypair_from_primes,
    mod_inv,
    mod_pow,
    random_prime_below,
    random_unit,
    rsa_keygen_with_exponent,
    rsa_sign,
    rsa_verify,
    sym_decrypt,
    sym_encrypt,
)
from rsa_cegd.vres import InvalidRandomizer, _check_randomizer, generate_vres, wrap_key

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def naive_mod_pow(base, exponent, modulus):
    # Independent O(exponent) oracle: repeated multiplication only.
    result = 1 % modulus
    for _ in range(exponent):
        result = (result * base) % modulus
    return result


def test_mod_pow_toy_vector():
    assert mod_pow(2, 27, 55) == 18


def test_mod_pow_zero_exponent():
    for base in (0, 1, 7, 123456):
        for modulus in (2, 3, 55, 1 << 64):
            assert mod_pow(base, 0, modulus) == 1


def test_mod_pow_zero_base():
    assert mod_pow(0, 5, 7) == 0


def test_mod_pow_rejects_small_modulus():
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 0)


@pytest.mark.parametrize("call, message", [
    (partial(int_to_hex, -1), "negative values have no canonical form"),
    (partial(mod_pow, -2, 3, 55), "operands must be non-negative"),
    (partial(mod_pow, 2, -3, 55), "operands must be non-negative"),
    (partial(mod_inv, 5, 1), "modulus must be >= 2"),
    (partial(hash_int, "h_a", b"", 1), "modulus must be >= 2"),
    (partial(random_prime_below, random.Random(0), 2), "bound too small"),
    (partial(random_unit, random.Random(0), 3), "modulus too small"),
], ids=["int_to_hex-negative", "mod_pow-negative-base", "mod_pow-negative-exponent",
        "mod_inv-modulus-1", "hash_int-modulus-1", "random_prime_below-2", "random_unit-3"])
def test_input_error_raises(call, message):
    # Without its check, each call would return a value (or, for
    # random_prime_below, raise randrange's own error).
    with pytest.raises(ValueError, match=message):
        call()


@settings(max_examples=40, deadline=None)
@given(base=st.integers(0, 2 ** 16 - 1),
       exponent=st.integers(0, 2 ** 16 - 1),
       modulus=st.integers(2, 2 ** 16 - 1))
def test_mod_pow_matches_naive_oracle(base, exponent, modulus):
    assert mod_pow(base, exponent, modulus) == naive_mod_pow(base, exponent, modulus)


def test_mod_inv_toy_vectors():
    assert mod_inv(7, 55) == 8
    for modulus in (2, 5, 33, 1 << 40):
        assert mod_inv(1, modulus) == 1


def test_mod_inv_not_invertible():
    with pytest.raises(NotInvertible):
        mod_inv(6, 33)


@settings(max_examples=60, deadline=None)
@given(value=st.integers(1, 2 ** 32), modulus=st.integers(2, 2 ** 32))
def test_mod_inv_property(value, modulus):
    from math import gcd
    if gcd(value, modulus) == 1:
        assert (mod_inv(value, modulus) * value) % modulus == 1
    else:
        with pytest.raises(NotInvertible):
            mod_inv(value, modulus)


def test_keypair_from_primes_toy():
    pair = keypair_from_primes(5, 11, 3)
    assert pair.n == 55 and pair.d == 27
    assert (pair.e * pair.d) % ((pair.p - 1) * (pair.q - 1)) == 1


def test_keypair_from_primes_rejects_shared_factor():
    # phi(21) = 12 shares the factor 3 with the exponent
    with pytest.raises(ValueError, match="shares a factor"):
        keypair_from_primes(3, 7, 3)


@pytest.mark.parametrize("p, q, e, message", [
    (9, 11, 3, "must both be prime"),
    (5, 9, 3, "must both be prime"),
    (11, 11, 3, "must differ"),
    (5, 11, 1, "odd and >= 3"),
    (5, 11, 4, "odd and >= 3"),
    (5, 11, 41, "must be < phi"),  # phi(55) = 40
], ids=["composite-p", "composite-q", "p-equals-q", "e-1", "e-4", "e-above-phi"])
def test_keypair_from_primes_rejects_bad_input(p, q, e, message):
    # Each input passes every other check, so only its own check raises.
    with pytest.raises(ValueError, match=message):
        keypair_from_primes(p, q, e)


def test_keypair_from_primes_recovery_toy():
    pair = keypair_from_primes(5, 17, 3)
    assert pair.n == 85 and pair.d == 43


def test_keygen_roundtrip_512():
    pair = rsa_keygen_with_exponent(512, 65537, seed=42)
    assert pair.n.bit_length() == 512
    assert pair.e == 65537
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randrange(0, pair.n)
        assert mod_pow(mod_pow(m, pair.e, pair.n), pair.d, pair.n) == m


def test_keygen_small_exponent_retry_path():
    # e = 3 rejects roughly half of all prime candidates, so the retry
    # loop is exercised while still succeeding.
    pair = rsa_keygen_with_exponent(16, 3, seed=5)
    assert pair.n.bit_length() == 16
    assert (3 * pair.d) % ((pair.p - 1) * (pair.q - 1)) == 1


def test_keygen_retries_until_e_below_phi():
    # At seed 0, three 20-bit candidate pairs have phi <= 800001 before one fits.
    pair = rsa_keygen_with_exponent(20, 800001, seed=0)
    assert pair.e < (pair.p - 1) * (pair.q - 1)


def test_keygen_deterministic():
    assert rsa_keygen_with_exponent(64, 3, seed=7) == rsa_keygen_with_exponent(64, 3, seed=7)
    assert rsa_keygen_with_exponent(64, 3, seed=7) != rsa_keygen_with_exponent(64, 3, seed=8)


def test_keygen_failure_when_exponent_too_large():
    # No 16-bit modulus has phi above 2^20 + 1, so every attempt is rejected.
    with pytest.raises(GenerationFailure):
        rsa_keygen_with_exponent(16, (1 << 20) + 1, seed=0)


def test_keygen_impossible_exponent_fails_before_sampling(monkeypatch):
    # phi(n) < 2^256 for every 256-bit modulus, so e = 2^256 + 1 is ruled out
    # by the width alone and not one prime may be drawn.
    def no_sampling(*args):
        raise AssertionError("a prime candidate was sampled")

    monkeypatch.setattr(crypto_mod, "_sample_prime_bits", no_sampling)
    with pytest.raises(GenerationFailure, match="no 256-bit keypair admits exponent"):
        rsa_keygen_with_exponent(256, (1 << 256) + 1, seed=0)


@pytest.mark.parametrize("sample, message", [
    (lambda rng: random_prime_below(rng, 1000), "no usable prime below 1000 found"),
    (lambda rng: random_unit(rng, 1000), "no unit below 1000 found"),
    (lambda rng: crypto_mod._sample_prime_bits(rng, 16), "no 16-bit prime found"),
], ids=["random_prime_below", "random_unit", "_sample_prime_bits"])
def test_exhausted_sampling_budget_raises(monkeypatch, sample, message):
    # With no attempts left, each rejection sampler gives up with its own message.
    monkeypatch.setattr(crypto_mod, "_SAMPLE_ATTEMPTS", 0)
    with pytest.raises(GenerationFailure, match=f"^{message}$"):
        sample(random.Random(0))


def test_exhausted_keygen_budget_raises(monkeypatch):
    # 32-bit keys with e = 3 exist, so only the spent budget stops this one.
    monkeypatch.setattr(crypto_mod, "_KEYGEN_ATTEMPTS", 0)
    with pytest.raises(GenerationFailure, match="^no 32-bit keypair admits exponent 3$"):
        rsa_keygen_with_exponent(32, 3, seed=0)


def test_keygen_validates_arguments():
    with pytest.raises(ValueError):
        rsa_keygen_with_exponent(8, 3, seed=0)
    with pytest.raises(ValueError):
        rsa_keygen_with_exponent(64, 4, seed=0)


def test_hash_int_deterministic_and_bounded():
    a = hash_int("h_a", b"payload", 97)
    assert a == hash_int("h_a", b"payload", 97)
    for modulus in (2, 3, 97, 1 << 128):
        assert 0 <= hash_int("h_a", b"payload", modulus) < modulus


def test_hash_int_reference_vectors():
    # Empty tag and empty data is the reference empty-input digest.
    assert hash_int("", b"", HASH_BOUND) == int(SHA256_EMPTY, 16)
    # The tag is prepended to the data before hashing.
    expected = int.from_bytes(hashlib.sha256(b"h_a").digest(), "big")
    assert hash_int("h_a", b"", HASH_BOUND) == expected


def test_hash_int_tags_separate_domains():
    assert hash_int("h_a", b"x", HASH_BOUND) != hash_int("hd_a", b"x", HASH_BOUND)


def test_sym_roundtrip_1kib():
    payload = random.Random(3).randbytes(1024)
    key = 123456789
    assert sym_decrypt(key, sym_encrypt(key, payload)) == payload


def test_sym_empty():
    assert sym_encrypt(5, b"") == b""


@settings(max_examples=50, deadline=None)
@given(key=st.integers(2, 2 ** 64), payload=st.binary(max_size=200))
def test_sym_roundtrip_and_length(key, payload):
    ciphertext = sym_encrypt(key, payload)
    assert len(ciphertext) == len(payload)
    assert sym_decrypt(key, ciphertext) == payload


def test_sym_key_matters():
    payload = b"thirty-two bytes of test payload"
    assert sym_encrypt(17, payload) != sym_encrypt(18, payload)


def reference_sym_encrypt(key: int, plaintext: bytes) -> bytes:
    # Verbatim copy of the per-byte keystream loop sym_encrypt replaced.
    out = bytearray()
    for index, pos in enumerate(range(0, len(plaintext), 32)):
        chunk = plaintext[pos:pos + 32]
        stream = hashlib.sha256(encode_fields(key, index)).digest()
        out += bytes(a ^ b for a, b in zip(chunk, stream))
    return bytes(out)


def around(*centres):
    return [n for centre in centres for n in (centre - 1, centre, centre + 1)]


SYM_KEYS = [0, 1, 5, (1 << 128) - 1, random.Random(512).getrandbits(512) | (1 << 511)]
SYM_SIZES = sorted({
    0, 1, 31, 32, 33,
    # The block index grows a hex digit at blocks 16, 256, 4096 and 65536.
    *around(512, 8 << 10, 128 << 10, 2 << 20),
    *around(crypto_mod._SYM_CHUNK, 2 * crypto_mod._SYM_CHUNK),
})


@pytest.mark.parametrize("key", SYM_KEYS, ids=lambda key: f"{key.bit_length()}-bit")
def test_sym_matches_reference(key):
    payload = random.Random(key).randbytes(max(SYM_SIZES))
    # The reference keystream depends only on the position, so its output on
    # a prefix of the payload is the same prefix of its output on all of it.
    expected = reference_sym_encrypt(key, payload)
    for size in SYM_SIZES:
        assert sym_encrypt(key, payload[:size]) == expected[:size], size


@settings(max_examples=200, deadline=None)
@given(key=st.integers(0, 2 ** 512), payload=st.binary(max_size=4096))
def test_sym_matches_reference_property(key, payload):
    assert sym_encrypt(key, payload) == reference_sym_encrypt(key, payload)


def test_hex_roundtrip():
    for value in (0, 1, 15, 16, 255, 1 << 200):
        assert hex_to_int(int_to_hex(value)) == value
    assert int_to_hex(0) == "0"
    assert int_to_hex(255) == "ff"


def test_encode_fields_unambiguous():
    assert encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")
    assert encode_fields(1, 23) != encode_fields(12, 3)
    assert encode_fields("x") != encode_fields(b"x", b"")


@pytest.mark.parametrize("part", [None, 1.5])
def test_encode_fields_rejects_unsupported_part(part):
    # After a part that encodes, so a missing check would reuse its bytes.
    with pytest.raises(TypeError, match="cannot encode field of type"):
        encode_fields(b"x", part)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(40):
        assert is_probable_prime(n) == (n in primes)


def test_primes_below_sieve_limit_squared_need_no_rounds(monkeypatch):
    # 2053 is past the sieve's lookup but has no factor below 2048.
    def no_rounds(*args):
        raise AssertionError("Miller-Rabin ran")

    monkeypatch.setattr(crypto_mod, "_mr_rounds", no_rounds)
    assert is_probable_prime(2053)


def test_is_probable_prime_carmichael():
    assert not is_probable_prime(561)
    assert not is_probable_prime(41041)
    assert is_probable_prime((1 << 61) - 1)  # Mersenne prime


# Reference: the original primality test (trial division by primes < 1000,
# then 40 Miller-Rabin rounds), kept verbatim as the oracle for the
# sieve/gcd version.
_REF_SMALL_PRIMES = [p for p in range(2, 1000)
                     if all(p % q for q in range(2, isqrt(p) + 1))]
_REF_MR_BASES = _REF_SMALL_PRIMES[:40]


def reference_is_probable_prime(candidate: int) -> bool:
    """Trial division by primes < 1000, then 40 Miller-Rabin rounds."""
    if candidate < 2:
        return False
    for p in _REF_SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    if candidate < 1009 * 1009:
        return True
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _REF_MR_BASES:
        x = pow(base, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def assert_same_primality(values):
    for n in values:
        assert is_probable_prime(n) == reference_is_probable_prime(n), n


def test_primality_matches_reference_below_2_18():
    assert_same_primality(range(-3, 1 << 18))


def test_primality_matches_reference_at_boundaries():
    limit = crypto_mod._SIEVE_LIMIT
    # 2053**2 is the smallest composite with no prime factor below the limit.
    for centre in (limit, limit * limit, 2053 * 2053, 1009 * 1009):
        assert_same_primality(range(centre - 2, centre + 3))
    # Squares of primes around the limit: composite, and with no smaller
    # factor, so only the gcd can reject the ones below limit**2.
    assert_same_primality(p * p for p in range(2, limit + 100)
                          if reference_is_probable_prime(p))


def test_primality_matches_reference_on_hard_cases():
    strong_pseudoprimes = [2047, 3215031751, 3825123056546413051,
                           318665857834031151167461, 3317044064679887385961981]
    carmichael = [561, 41041, 825265]
    mersenne_primes = [(1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1]
    assert_same_primality(strong_pseudoprimes + carmichael + mersenne_primes)
    assert not any(map(is_probable_prime, strong_pseudoprimes + carmichael))
    assert all(map(is_probable_prime, mersenne_primes))


def test_primality_matches_reference_on_random_values():
    rng = random.Random(2024)
    assert_same_primality(rng.getrandbits(64) for _ in range(2000))
    assert_same_primality(rng.getrandbits(256) for _ in range(2000))


def test_word_precheck_agrees_with_primorial_gcd():
    # The one-word gcd rejects only values the primorial gcd rejects, so
    # placing it first changes no answer.
    word, primorial = crypto_mod._WORD_PRIMORIAL, crypto_mod._PRIMORIAL
    assert word < 1 << 64 and primorial % word == 0
    rng = random.Random(23)
    odd = [*range(2049, 1 << 20, 2),
           *(rng.getrandbits(bits) | 1 for bits in (256, 512) for _ in range(2000))]
    for value in odd:
        full = gcd(value, primorial) != 1
        assert (gcd(value % word, word) != 1 or full) == full, value


def assert_same_primality_drawn(values):
    for n in values:
        assert is_probable_prime(Drawn(n)) == reference_is_probable_prime(n), n


def test_drawn_primality_matches_reference_on_random_odd_values():
    # The samplers' path runs HAC Table 4.4's rounds instead of 40; on random
    # candidates it must give the 40-round answer.
    rng = random.Random(2025)
    for bits in (256, 512):
        assert_same_primality_drawn(rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                                    for _ in range(2000))


def test_drawn_primality_matches_reference_on_golden_runs(monkeypatch):
    # Every candidate the golden-digest configurations draw, primes and
    # composites, gets the 40-round answer on the samplers' path.
    from test_digests import GOLDEN, GOLDEN_LARGE_GOODS, LARGE_GOODS, transcript_digest

    drawn = []

    def recording(candidate):
        if type(candidate) is Drawn:
            drawn.append(candidate)
        return is_probable_prime(candidate)

    monkeypatch.setattr(crypto_mod, "is_probable_prime", recording)
    for key in GOLDEN:
        assert transcript_digest(*key) == GOLDEN[key]
    for key in GOLDEN_LARGE_GOODS:
        assert transcript_digest(*key, goods_size=LARGE_GOODS) == GOLDEN_LARGE_GOODS[key]
    monkeypatch.undo()
    primes = [n for n in drawn if reference_is_probable_prime(n)]
    assert len(primes) > 100
    assert_same_primality_drawn(drawn)


class _FixedRng:
    """Draws one fixed value, so a sampler's first candidate is known."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, bits):
        return self.value

    def randrange(self, start, stop):
        return self.value


def _bases_used(monkeypatch, test, value):
    """The Miller-Rabin bases `test` tries on `value`, which must be prime,
    counted by a `pow` put into crypto's globals."""
    bases = []

    def counting_pow(base, exponent, modulus):
        if exponent != 2:
            bases.append(base)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(crypto_mod, "pow", counting_pow, raising=False)
    assert test(value) in (True, value)
    monkeypatch.delattr(crypto_mod, "pow")
    assert bases == crypto_mod._MR_BASES[:len(bases)]
    return len(bases)


# A prime just below 2**bits, with the top two bits set, for each bit length.
_TOP_PRIMES = {256: (1 << 256) - 189, 512: (1 << 512) - 569,
               1024: (1 << 1024) - 105, 2048: (1 << 2048) - 1942289}


@pytest.mark.parametrize("bits, rounds", [(256, 12), (512, 6), (1024, 3), (2048, 2)])
def test_drawn_candidates_get_hac_rounds(monkeypatch, bits, rounds):
    prime = _TOP_PRIMES[bits]

    def keygen_sampler(value):
        return crypto_mod._sample_prime_bits(_FixedRng(value), bits)

    def randomizer_sampler(value):
        return random_prime_below(_FixedRng(value), value + 2)

    assert _bases_used(monkeypatch, keygen_sampler, prime) == rounds
    assert _bases_used(monkeypatch, randomizer_sampler, prime) == rounds


@pytest.mark.parametrize("bits", [256, 512])
def test_supplied_values_get_40_rounds(monkeypatch, bits):
    prime = _TOP_PRIMES[bits]
    assert _bases_used(monkeypatch, is_probable_prime, prime) == 40


def test_exact_range_gets_13_rounds(monkeypatch):
    below = (1 << 61) - 1
    above = (1 << 89) - 1  # past psi_13 but under Table 4.4's 100 bits
    assert below < crypto_mod._PSI_13 < above

    def drawn(value):
        return is_probable_prime(Drawn(value))

    assert _bases_used(monkeypatch, is_probable_prime, below) == 13
    assert _bases_used(monkeypatch, drawn, below) == 13
    assert _bases_used(monkeypatch, is_probable_prime, above) == 40
    assert _bases_used(monkeypatch, drawn, above) == 40


def test_memo_does_not_pass_composite_randomizer():
    owner = rsa_keygen_with_exponent(256, 65537, seed=9)
    recovery = rsa_keygen_with_exponent(256, 65537, seed=10)
    rng = random.Random(13)
    root = isqrt(min(owner.n, recovery.n))
    composite = random_prime_below(rng, root) * random_prime_below(rng, root)
    assert 1 < composite < min(owner.n, recovery.n)
    randomizer = random_prime_below(rng, owner.n, coprime_to=(owner.n,))
    with pytest.raises(InvalidRandomizer, match="randomizer must be prime"):
        wrap_key(12345, composite, owner)
    with pytest.raises(InvalidRandomizer, match="randomizer must be prime"):
        generate_vres(67890, owner, recovery, composite)
    assert wrap_key(12345, randomizer, owner).blinded_key == (randomizer * 12345) % owner.n


def test_provenance_is_the_type_not_the_value(monkeypatch):
    # A prime a sampler returns skips only the randomizer check's primality
    # test, not its range and gcd checks; the same value as a plain int, as a caller or a transcript hands
    # it over, gets all 40 bases before and after the draw.
    prime = _TOP_PRIMES[512]
    moduli = (prime + 2, prime + 4)

    def check(value):
        _check_randomizer(value, *moduli)
        return True

    assert _bases_used(monkeypatch, is_probable_prime, prime) == 40
    drawn = random_prime_below(_FixedRng(prime), prime + 2)
    assert drawn == prime
    assert _bases_used(monkeypatch, is_probable_prime, int(drawn)) == 40
    assert _bases_used(monkeypatch, check, int(drawn)) == 40
    assert _bases_used(monkeypatch, check, drawn) == 0
    assert _bases_used(monkeypatch, is_probable_prime, prime) == 40
    with pytest.raises(InvalidRandomizer, match="out of range"):
        _check_randomizer(drawn, prime)
    with pytest.raises(InvalidRandomizer, match="shares a factor"):
        _check_randomizer(drawn, 3 * prime, prime + 2)


def test_random_prime_below():
    rng = random.Random(11)
    for _ in range(20):
        p = random_prime_below(rng, 10000, coprime_to=(55,))
        assert 1 < p < 10000
        assert is_probable_prime(p)
        assert p not in (5, 11)
    # An odd bound is drawn once the low bit is forced on (4 | 1 = 5).
    assert {random_prime_below(random.Random(seed), 5) for seed in range(50)} == {2, 3}


def test_random_unit():
    from math import gcd
    rng = random.Random(12)
    for _ in range(20):
        k = random_unit(rng, 33)
        assert 1 < k < 33 and gcd(k, 33) == 1


# --- textbook RSA signatures ----------------------------------------------------

TOY_SIGNER = keypair_from_primes(3, 11, 3)  # n=33, d=7


def test_rsa_sign_toy_vector():
    assert rsa_sign(TOY_SIGNER, 2) == 29  # 2^7 mod 33
    assert rsa_verify(TOY_SIGNER.public, 29, 2)


def test_rsa_sign_reduces_message():
    assert rsa_sign(TOY_SIGNER, 2 + 33) == 29
    assert rsa_verify(TOY_SIGNER.public, 29, 2 + 33)


def test_rsa_verify_rejects_wrong_key():
    assert not rsa_verify(keypair_from_primes(5, 11, 3).public, 29, 2)


def test_rsa_verify_rejects_signature_not_below_modulus():
    # 29 + 33 has the same cube mod 33 as 29; only the bound s < n tells
    # the two apart.
    assert mod_pow(29 + 33, 3, 33) == 2
    assert not rsa_verify(TOY_SIGNER.public, 29 + 33, 2)


# --- the modexp kernel ----------------------------------------------------------

_THRESHOLD = 1 << 127  # the least exponent crypto.pow sends to libcrypto
_P521 = (1 << 521) - 1

# (base, exponent, modulus, whether crypto.pow sends it to libcrypto).
# The rows run in this order through the process's one kernel, so the BN rows
# meet both a held modulus and a change of it.
_POW_EDGES = {
    "exponent-2^127-1": (3, _THRESHOLD - 1, _P521, False),
    "exponent-2^127": (3, _THRESHOLD, _P521, True),
    "base-0": (0, _THRESHOLD, _P521, True),
    "base-above-modulus": (_P521 + 5, _THRESHOLD + 1, _P521, True),
    "base-far-above-modulus": ((1 << 2000) + 3, _THRESHOLD + 1, _P521, True),
    "same-modulus-new-exponent": (3, _THRESHOLD + 3, _P521, True),
    "same-operands-new-base": (6, _THRESHOLD + 3, _P521, True),
    "even-modulus": (3, _THRESHOLD + 1, 1 << 512, True),
    "even-modulus-not-power": (5, (1 << 300) - 1, (1 << 400) - 2, True),
    "modulus-2": (3, _THRESHOLD, 2, True),
    "modulus-1": (3, _THRESHOLD, 1, True),
    "base-0-modulus-1": (0, _THRESHOLD, 1, True),
    "negative-base": (-3, _THRESHOLD, _P521, False),
    "negative-modulus": (3, _THRESHOLD, -_P521, False),
    "negative-exponent": (3, -_THRESHOLD, _P521, False),
    "e-65537": (3, 65537, _P521, False),
}


@pytest.mark.parametrize("base, exponent, modulus, to_bn", _POW_EDGES.values(),
                         ids=list(_POW_EDGES))
def test_pow_matches_builtin_on_edges(monkeypatch, base, exponent, modulus, to_bn):
    sent = []

    def recording(*args):
        sent.append(args)
        return big_pow(*args)

    crypto_mod.pow(2, _THRESHOLD, 3)  # load libcrypto, or the fallback
    big_pow = crypto_mod._big_pow
    monkeypatch.setattr(crypto_mod, "_big_pow", recording)
    assert crypto_mod.pow(base, exponent, modulus) == builtins.pow(base, exponent, modulus)
    assert sent == ([(base, exponent, modulus)] if to_bn else [])


def test_pow_zero_modulus_raises_like_builtin():
    for exponent in (3, _THRESHOLD):
        with pytest.raises(ValueError):
            crypto_mod.pow(3, exponent, 0)


def test_pow_matches_builtin_on_random_operands():
    rng = random.Random(18)
    for bits in (16, 64, 127, 128, 129, 256, 512, 1024, 2048, 4096):
        for _ in range(6 if bits <= 1024 else 1):
            modulus = rng.getrandbits(bits) | (1 << (bits - 1))
            base = rng.getrandbits(bits + 8)  # at or above the modulus about half the time
            for exponent in (rng.getrandbits(bits), rng.getrandbits(rng.randint(1, bits)),
                             65537):
                assert crypto_mod.pow(base, exponent, modulus) \
                    == builtins.pow(base, exponent, modulus)


_exponents = st.one_of(st.integers(0, 2 ** 1024),
                       st.integers(_THRESHOLD - 2 ** 8, _THRESHOLD + 2 ** 8))


@settings(max_examples=100, deadline=None)
@given(base=st.integers(0, 2 ** 1100), exponent=_exponents,
       modulus=st.integers(1, 2 ** 1024))
def test_pow_matches_builtin_property(base, exponent, modulus):
    assert crypto_mod.pow(base, exponent, modulus) == builtins.pow(base, exponent, modulus)


def _raise_oserror(path):
    raise OSError("cannot open shared object")


@pytest.mark.parametrize("missing", ["_hashlib", "library", "symbol"])
def test_missing_libcrypto_falls_back_to_builtin(monkeypatch, missing):
    import ctypes
    if missing == "_hashlib":
        monkeypatch.setitem(sys.modules, "_hashlib", None)
    elif missing == "library":
        monkeypatch.setattr(ctypes, "CDLL", _raise_oserror)
    else:
        monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace())
    assert crypto_mod._load_bn_mod_exp() is builtins.pow


def test_golden_digests_without_libcrypto(monkeypatch):
    from test_digests import GOLDEN, GOLDEN_LARGE_GOODS, LARGE_GOODS, transcript_digest

    monkeypatch.setitem(sys.modules, "_hashlib", None)
    monkeypatch.setattr(crypto_mod, "_big_pow", None)
    for key in GOLDEN:
        assert transcript_digest(*key) == GOLDEN[key]
    for key in GOLDEN_LARGE_GOODS:
        assert transcript_digest(*key, goods_size=LARGE_GOODS) == GOLDEN_LARGE_GOODS[key]
    assert crypto_mod._big_pow is builtins.pow  # a large exponent came, and fell back


class _FakeLibcrypto:
    """The BN functions `_bn_mod_exp_of` calls, over Python ints, keeping
    the set of live handles. The `fail_at`-th call of `fail` returns NULL
    (BN_MONT_CTX_set and the exponentiations return 0). BN_mod_exp_mont
    answers -1 unless its modulus equals the one its Montgomery context was
    set to, so a stale context gives a wrong answer."""

    def __init__(self, fail=None, fail_at=1):
        self.fail, self.fail_at = fail, fail_at
        self.calls = {}
        self.values = {}
        self.live = set()

    def _failing(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return name == self.fail and self.calls[name] == self.fail_at

    def _new(self, name):
        if self._failing(name):
            return None
        handle = len(self.values) + 1  # never 0, which is NULL
        self.values[handle] = 0
        self.live.add(handle)
        return handle

    def BN_CTX_new(self):
        return self._new("BN_CTX_new")

    def BN_MONT_CTX_new(self):
        return self._new("BN_MONT_CTX_new")

    def BN_new(self):
        return self._new("BN_new")

    def BN_free(self, handle):
        self.live.remove(handle)

    BN_CTX_free = BN_MONT_CTX_free = BN_free

    def BN_clear(self, number):
        self.values[number] = 0

    def BN_bin2bn(self, raw, size, number):
        if self._failing("BN_bin2bn"):
            return None
        assert number in self.live  # the kernel always passes a held BIGNUM
        self.values[number] = int.from_bytes(raw[:size], "big")
        return number

    def BN_MONT_CTX_set(self, mont, modulus, ctx):
        if self._failing("BN_MONT_CTX_set"):
            return 0
        self.values[mont] = self.values[modulus]
        return 1

    def BN_mod_exp_mont(self, result, base, exponent, modulus, ctx, mont):
        if self._failing("BN_mod_exp_mont"):
            return 0
        values = self.values
        values[result] = (builtins.pow(values[base], values[exponent], values[mont])
                          if values[modulus] == values[mont] else -1)
        return 1

    def BN_mod_exp(self, result, base, exponent, modulus, ctx):
        if self._failing("BN_mod_exp"):
            return 0
        values = self.values
        values[result] = builtins.pow(values[base], values[exponent], values[modulus])
        return 1

    def BN_bn2binpad(self, number, out, width):
        out.raw = self.values[number].to_bytes(width, "big")
        return width


def _fake_kernel(fail=None, fail_at=1):
    import ctypes
    lib = _FakeLibcrypto(fail, fail_at)
    return lib, crypto_mod._bn_mod_exp_of(lib, ctypes.create_string_buffer)


_KERNEL_A = (7, _THRESHOLD + 1, (1 << 89) - 1)
_KERNEL_B = (5, _THRESHOLD + 7, (1 << 107) - 1)
_KERNEL_EVEN = (3, _THRESHOLD + 5, 1 << 100)  # BN_mod_exp's, not the context's


def _holds_no_exponent(lib, exponent):
    return all(lib.values[handle] != exponent for handle in lib.live)


def test_bn_mod_exp_allocates_once():
    lib, bn_mod_exp = _fake_kernel()
    assert bn_mod_exp(*_KERNEL_A) == builtins.pow(*_KERNEL_A)
    held = set(lib.live)
    assert len(held) == 6  # BN_CTX, BN_MONT_CTX, base, exponent, modulus, result
    for i in range(50):
        args = (_KERNEL_B, _KERNEL_A)[i % 2]
        assert bn_mod_exp(*args) == builtins.pow(*args)
        assert lib.live == held
    assert lib.calls["BN_MONT_CTX_set"] == 51  # every call changed the modulus


@pytest.mark.parametrize("fail, fail_at", [
    # the first call, with _KERNEL_A: allocation, base, exponent, modulus,
    # context, exponentiation
    ("BN_CTX_new", 1), ("BN_MONT_CTX_new", 1), ("BN_new", 1), ("BN_new", 4),
    ("BN_bin2bn", 1), ("BN_bin2bn", 2), ("BN_bin2bn", 3), ("BN_MONT_CTX_set", 1),
    ("BN_mod_exp_mont", 1),
    # the second, with _KERNEL_B: base, exponent, modulus, context,
    # exponentiation
    ("BN_bin2bn", 4), ("BN_bin2bn", 5), ("BN_bin2bn", 6), ("BN_MONT_CTX_set", 2),
    ("BN_mod_exp_mont", 2),
    # the third, with _KERNEL_EVEN: base, exponent, modulus, exponentiation
    ("BN_bin2bn", 7), ("BN_bin2bn", 8), ("BN_bin2bn", 9), ("BN_mod_exp", 1),
])
@pytest.mark.parametrize("next_call", ["same", "other"])
def test_bn_mod_exp_frees_what_it_allocates(fail, fail_at, next_call):
    # A failure frees a partial allocation, clears the exponent and leaves
    # no half-set state.
    lib, bn_mod_exp = _fake_kernel(fail, fail_at)
    kernels = (_KERNEL_A, _KERNEL_B, _KERNEL_EVEN)
    for args in kernels:
        try:
            assert bn_mod_exp(*args) == builtins.pow(*args)
        except MemoryError:
            failed = args
            break
        finally:
            assert _holds_no_exponent(lib, args[1])
    else:
        raise AssertionError(f"no MemoryError from {fail} #{fail_at}")
    # Neither the failed operands nor the others may meet a half-set state.
    others = tuple(args for args in kernels if args is not failed)
    after = (failed, *others) if next_call == "same" else (*others, failed)
    for args in after + after:
        assert bn_mod_exp(*args) == builtins.pow(*args)
        assert _holds_no_exponent(lib, args[1])
    assert len(lib.live) == 6


def test_bn_mod_exp_sets_the_context_once_per_modulus():
    lib, bn_mod_exp = _fake_kernel()
    calls = [(base, _KERNEL_A[1] + e, _KERNEL_A[2]) for base, e in ((2, 0), (3, 0), (5, 2), (7, 4))]
    for args in calls:
        assert bn_mod_exp(*args) == builtins.pow(*args)
    assert lib.calls["BN_MONT_CTX_set"] == 1
    assert lib.calls["BN_bin2bn"] == 1 + 2 * 4  # the modulus once, base and exponent each call


@pytest.mark.parametrize("bits, odd, kernel", [
    (crypto_mod._MONT_MAX_BITS, True, "BN_mod_exp_mont"),
    (crypto_mod._MONT_MAX_BITS + 1, True, "BN_mod_exp"),
    (crypto_mod._MONT_MAX_BITS, False, "BN_mod_exp"),
    (1, True, "BN_mod_exp_mont"),
])
def test_bn_mod_exp_routes_by_modulus(bits, odd, kernel):
    # An odd modulus up to _MONT_MAX_BITS gets the held context; a wider or
    # an even one goes to BN_mod_exp, which has the one-word-base path.
    lib, bn_mod_exp = _fake_kernel()
    modulus = (1 << (bits - 1)) | odd
    args = (3, _THRESHOLD + 1, modulus)
    assert bn_mod_exp(*args) == builtins.pow(*args)
    assert set(lib.calls) & {"BN_mod_exp", "BN_mod_exp_mont"} == {kernel}


_P127, _P89 = (1 << 127) - 1, (1 << 89) - 1
_WIDE = (1 << 1100) + 15  # odd, wider than _MONT_MAX_BITS
# Call sequences for the held modulus: repeats, two alternating, one modulus
# under new exponents, BN_mod_exp's moduli between calls on a held one, and
# the edge operands.
_HELD_SEQUENCES = {
    "repeat": [(b, _THRESHOLD + 1, _P521) for b in (2, 3, 5, 2)],
    "alternate": [(b, _THRESHOLD + m, m) for b in (2, 3, 5) for m in (_P127, _P89)],
    "new-exponent": [(3, _THRESHOLD + e, _P127) for e in (1, 2, 1, 1 << 200)],
    "wide-or-even-between": [(3, _THRESHOLD, _P127), (3, _THRESHOLD, _WIDE),
                             (5, _THRESHOLD, _P127), (3, _THRESHOLD, 1 << 300),
                             (7, _THRESHOLD, _P127), (1 << 80, _THRESHOLD, _WIDE)],
    "base-0": [(0, _THRESHOLD, _P127), (3, _THRESHOLD, _P127), (0, _THRESHOLD, _P127)],
    "base-at-or-above-modulus": [(_P127, _THRESHOLD, _P127), (_P127 + 2, _THRESHOLD, _P127),
                                 ((1 << 700) + 9, _THRESHOLD, _P127)],
    "modulus-1": [(3, _THRESHOLD, 1), (0, _THRESHOLD, 1), (3, _THRESHOLD, _P127),
                  (3, _THRESHOLD, 1)],
}


@pytest.mark.parametrize("sequence", _HELD_SEQUENCES.values(), ids=list(_HELD_SEQUENCES))
@pytest.mark.parametrize("kernel", ["libcrypto", "fake"])
def test_held_state_matches_builtin(kernel, sequence):
    bn_mod_exp = crypto_mod._load_bn_mod_exp() if kernel == "libcrypto" else _fake_kernel()[1]
    for args in sequence:
        assert bn_mod_exp(*args) == builtins.pow(*args), args


def test_held_state_is_safe_across_two_threads():
    # Each thread holds its own modulus; interleaved calls must not mix the
    # held exponent, modulus or context of one into the other's answers.
    bn_mod_exp = crypto_mod._load_bn_mod_exp()
    moduli = (_P521, _P127 * _P89)
    right, wrong = [], []

    def work(modulus):
        for i in range(1000):
            args = (i + 2, modulus - 2, modulus)
            (right if bn_mod_exp(*args) == builtins.pow(*args) else wrong).append(args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(m,)) for m in moduli]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(right) == 2000  # a thread that raised checked fewer


_LAZY_LOAD_CHILD = """
import contextlib, io, sys
from rsa_cegd import cli, crypto
with contextlib.redirect_stdout(io.StringIO()):
    for mode in ("honest", "replay", "eoo-forward"):
        assert cli.main(["run", "--mode", mode, "--bits", "32", "--exponent", "3",
                         "--seed", "1", "--out", sys.argv[1]]) == 0
        assert cli.main(["verify-transcript", sys.argv[1]]) == 0
print("ctypes" in sys.modules)
crypto.pow(3, 1 << 127, 5)
print("ctypes" in sys.modules)
"""


def test_toy_runs_never_import_ctypes(tmp_path):
    # A toy run's exponents are all far below 2^127, so libcrypto is never
    # loaded and ctypes never imported; the first large exponent imports it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LAZY_LOAD_CHILD,
                           str(tmp_path / "t.jsonl")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    has_ctypes = importlib.util.find_spec("ctypes") is not None
    assert done.stdout.split() == ["False", str(has_ctypes)]
