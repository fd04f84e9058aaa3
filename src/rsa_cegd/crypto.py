"""Integer-level cryptographic substrate for the exchange toolkit.

Everything works on plain Python ints (arbitrary precision, non-negative).
The canonical serialized form of an integer is lowercase big-endian hex with
no leading zeros ("0" for the value zero); raw byte strings serialize as
plain hex. Multi-part hash inputs are length-prefixed per part so that no
two distinct field sequences can collide by concatenation.

All functions here are pure and deterministic given their arguments; key
generation is deterministic given its seed, which is what lets whole
protocol transcripts reproduce bit for bit. The only module state is
`_big_pow`, the exponentiation kernel bound on first use, and no result
depends on it. That kernel holds libcrypto state in its closure: one
BN_CTX, its BIGNUMs and a Montgomery context for the last odd modulus
below 1024 bits it saw, all behind one `threading.Lock`.

Every modular exponentiation goes through this module's `pow`, which hands
large exponents to libcrypto and returns exactly what `builtins.pow`
returns. Odd moduli below 1024 bits go to BN_mod_exp_mont with the held
Montgomery context; wider and even moduli go to BN_mod_exp.
"""

import builtins
import hashlib
import random
import threading
from math import gcd, prod
from typing import NamedTuple

HASH_BITS = 256
HASH_BOUND = 1 << HASH_BITS

_KEYGEN_ATTEMPTS = 50000
_SAMPLE_ATTEMPTS = 100000


class NotInvertible(ValueError):
    """Requested an inverse of a residue that is not a unit."""


class GenerationFailure(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


# Least exponent sent to libcrypto: 128 bits. Below it the fixed cost of
# the calls is not repaid (with e = 65537, BN_mod_exp ran at 0.24-0.29x,
# 0.44-0.56x and 1.04-1.24x the speed of builtins.pow at 128-, 256- and
# 512-bit moduli); a 128-bit exponent already ran 2.1x faster at 128 bits.
_BN_MIN_EXPONENT = 1 << 127
# Widest odd modulus, in bits, that gets the held Montgomery context. A
# Miller-Rabin round through it took 0.65x, 0.86x and 1.00x the time of
# BN_mod_exp at 256, 512 and 768 bits, but 1.07x at 1024 and 1.15x at 2048,
# where BN_mod_exp's path for a one-word base (every Miller-Rabin base) wins.
_MONT_MAX_BITS = 1023
# libcrypto's modular exponentiation as a function of three ints, bound on
# the first call that needs it; builtins.pow when libcrypto cannot be loaded.
_big_pow = None


def pow(base: int, exponent: int, modulus: int) -> int:
    """builtins.pow(base, exponent, modulus), with the same result.

    A non-negative base with an exponent of at least 128 bits and a
    positive modulus goes to libcrypto; everything else (small exponents,
    inverses, negative operands) to builtins.pow.
    """
    global _big_pow
    if base < 0 or exponent < _BN_MIN_EXPONENT or modulus < 1:
        return builtins.pow(base, exponent, modulus)
    if _big_pow is None:
        _big_pow = _load_bn_mod_exp()
    return _big_pow(base, exponent, modulus)


def _load_bn_mod_exp():
    """libcrypto's modular exponentiation wrapped for ints, or builtins.pow
    when ctypes, `_hashlib` or a symbol is missing.

    `_hashlib` links libcrypto, so a handle on its shared object resolves
    the BN symbols through that dependency, and no second libcrypto is
    loaded. ctypes is imported here, not at module import, so runs that
    never need a large exponent never pay for it.
    """
    try:
        import ctypes
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        ptr, size = ctypes.c_void_p, ctypes.c_int
        signatures = {
            "BN_CTX_new": (ptr, []),
            "BN_CTX_free": (None, [ptr]),
            "BN_new": (ptr, []),
            "BN_free": (None, [ptr]),
            "BN_clear": (None, [ptr]),
            "BN_MONT_CTX_new": (ptr, []),
            "BN_MONT_CTX_free": (None, [ptr]),
            "BN_MONT_CTX_set": (size, [ptr, ptr, ptr]),
            "BN_bin2bn": (ptr, [ctypes.c_char_p, size, ptr]),
            "BN_bn2binpad": (size, [ptr, ctypes.c_char_p, size]),
            "BN_mod_exp": (size, [ptr, ptr, ptr, ptr, ptr]),
            "BN_mod_exp_mont": (size, [ptr, ptr, ptr, ptr, ptr, ptr]),
        }
        for name, (restype, argtypes) in signatures.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return builtins.pow
    return _bn_mod_exp_of(lib, ctypes.create_string_buffer)


def _bn_mod_exp_of(lib, make_buffer):
    """base**exponent mod modulus through `lib`'s BN functions, for
    non-negative ints and a positive modulus.

    The first call allocates one BN_CTX, four BIGNUMs (base, exponent,
    modulus, result) and one BN_MONT_CTX; they live in this closure for the
    life of the process, and no later call allocates a handle. An odd
    modulus of at most _MONT_MAX_BITS goes to BN_mod_exp_mont with the
    Montgomery context, which is set again only when the modulus changes, so
    the Miller-Rabin rounds on one candidate and the operations under one
    key share it. Any other modulus goes to BN_mod_exp. The exponent BIGNUM
    is cleared before each call returns, so no private exponent stays in the
    kernel; the base, modulus and result BIGNUMs keep the last call's
    values. A lock serializes the calls: ctypes releases the GIL during each
    foreign call, and the held state is shared.

    A NULL or a failed BN call means libcrypto ran out of memory, and raises
    MemoryError; a failed allocation frees what it had made, and a failure
    while setting the modulus forgets the held one, so the next call starts
    over and never reads a half-set context.
    """
    lock = threading.Lock()
    held = None  # (ctx, mont, base, exponent, modulus, result) handles
    held_modulus = None  # the modulus `mont` is set to

    def checked(result):
        if not result:
            raise MemoryError("libcrypto could not allocate for modular exponentiation")
        return result

    def allocate():
        made = []
        try:
            made.append(checked(lib.BN_CTX_new()))
            made.append(checked(lib.BN_MONT_CTX_new()))
            for _ in range(4):
                made.append(checked(lib.BN_new()))
        except MemoryError:
            frees = [lib.BN_CTX_free, lib.BN_MONT_CTX_free] + [lib.BN_free] * 4
            for free, handle in zip(frees, made):
                free(handle)
            raise
        return made

    def store(value, number):
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        checked(lib.BN_bin2bn(raw, len(raw), number))

    def bn_mod_exp(base, exponent, modulus):
        nonlocal held, held_modulus
        with lock:
            if held is None:
                held = allocate()
            ctx, mont, bn_base, bn_exponent, bn_modulus, result = held
            try:
                store(base, bn_base)
                store(exponent, bn_exponent)
                if modulus & 1 and modulus.bit_length() <= _MONT_MAX_BITS:
                    if held_modulus != modulus:
                        held_modulus = None
                        store(modulus, bn_modulus)
                        checked(lib.BN_MONT_CTX_set(mont, bn_modulus, ctx))
                        held_modulus = modulus
                    checked(lib.BN_mod_exp_mont(result, bn_base, bn_exponent,
                                                bn_modulus, ctx, mont))
                else:
                    held_modulus = None
                    store(modulus, bn_modulus)
                    checked(lib.BN_mod_exp(result, bn_base, bn_exponent, bn_modulus, ctx))
            finally:
                lib.BN_clear(bn_exponent)
            # The result is below the modulus, so it fits the modulus's width.
            width = (modulus.bit_length() + 7) // 8
            out = make_buffer(width)
            lib.BN_bn2binpad(result, out, width)
            return int.from_bytes(out.raw, "big")

    return bn_mod_exp


def int_to_hex(value: int) -> str:
    """Canonical hex form: lowercase, big-endian, no leading zeros."""
    if value < 0:
        raise ValueError("negative values have no canonical form")
    return format(value, "x")


def hex_to_int(text: str) -> int:
    """Inverse of int_to_hex: only the canonical form is accepted."""
    value = int(text, 16)
    if value < 0 or int_to_hex(value) != text:
        raise ValueError("hex is not in canonical form")
    return value


def encode_fields(*parts) -> bytes:
    """Length-prefixed encoding of a field sequence for hashing.

    Ints are rendered in canonical hex, strings as UTF-8; every part is
    prefixed with its 8-byte big-endian length.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, int):
            raw = int_to_hex(part).encode("ascii")
        elif isinstance(part, str):
            raw = part.encode("utf-8")
        elif isinstance(part, bytes):
            raw = part
        else:
            raise TypeError(f"cannot encode field of type {type(part).__name__}")
        out += len(raw).to_bytes(8, "big")
        out += raw
    return bytes(out)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus, for non-negative operands."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if base < 0 or exponent < 0:
        raise ValueError("operands must be non-negative")
    return pow(base, exponent, modulus)


def mod_inv(value: int, modulus: int) -> int:
    """Multiplicative inverse of value mod modulus.

    Raises NotInvertible when gcd(value, modulus) != 1.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:
        raise NotInvertible(f"{value} is not invertible mod {modulus}") from exc


def hash_int(tag: str, data: bytes, modulus: int) -> int:
    """SHA-256 of tag || data as a big-endian integer, reduced mod modulus.

    The tag is a fixed domain-separation label; every hashing site in the
    protocol uses a distinct one so values produced for one purpose cannot
    be replayed as another. Coprimality of the result with the modulus is
    NOT guaranteed.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    # Fed in two parts: tag + data would copy the goods.
    digest = hashlib.sha256(tag.encode("utf-8"))
    digest.update(data)
    return int.from_bytes(digest.digest(), "big") % modulus


# Bytes XORed per pass; a multiple of the 32-byte keystream block. Bounds
# the transient keystream and integers to a few times this size: 16 KiB
# runs as fast as 64 KiB and lowers a run's peak by ~0.25 MiB.
_SYM_CHUNK = 16 * 1024


def sym_encrypt(key: int, plaintext: bytes) -> bytes:
    """Deterministic keystream cipher. Length-preserving; its own inverse.

    Keystream block i (i = 0, 1, ...) is the 32-byte
    sha256(len8(hex key) || hex key || len8(hex i) || hex i), which is
    sha256(encode_fields(key, i)): hex is the canonical form and len8 an
    8-byte big-endian length. The blocks are concatenated, cut to the
    plaintext's length and XORed onto it.
    """
    head = encode_fields(key)
    out = []
    for start in range(0, len(plaintext), _SYM_CHUNK):
        chunk = plaintext[start:start + _SYM_CHUNK]
        size = len(chunk)
        index = start // 32
        stop = index + (size + 31) // 32
        blocks = []
        while index < stop:
            # Blocks whose hex index has one width share the hash input up
            # to the index: hash it once and copy the state per block.
            width = len(b"%x" % index)
            end = min(stop, 16 ** width)
            base = hashlib.sha256(head + width.to_bytes(8, "big"))
            for i in range(index, end):
                block = base.copy()
                block.update(b"%x" % i)
                blocks.append(block.digest())
            index = end
        stream = b"".join(blocks)
        mixed = int.from_bytes(chunk, "big") ^ int.from_bytes(stream[:size], "big")
        out.append(mixed.to_bytes(size, "big"))
    return b"".join(out)


def sym_decrypt(key: int, ciphertext: bytes) -> bytes:
    return sym_encrypt(key, ciphertext)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


_SIEVE_LIMIT = 2048
_SMALL_PRIMES = _sieve(_SIEVE_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = prod(_SMALL_PRIMES)
# The odd primes 3..47: a 59-bit divisor of _PRIMORIAL, so a gcd with it runs
# on one machine word and rejects 72% of odd candidates before the full gcd.
_WORD_PRIMORIAL = prod(_SMALL_PRIMES[1:15])
# Fixed Miller-Rabin bases: the first 40 primes. Deterministic, so primality
# answers never depend on RNG state.
_MR_BASES = _SMALL_PRIMES[:40]
# psi_13, the least strong pseudoprime to the first 13 prime bases: below it
# those 13 bases give the exact answer.
_PSI_13 = 3317044064679887385961981
# HAC Table 4.4 (Damgard, Landrock, Pomerance 1993): (least bit length,
# rounds) that keep the error below 2**-80 for a randomly drawn candidate.
_DRAWN_ROUNDS = ((1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
                 (350, 8), (300, 9), (250, 12), (200, 15), (150, 18), (100, 27))


class Drawn(int):
    """An int a sampler drew from the run's RNG. `random_prime_below` and
    `_sample_prime_bits` wrap each candidate in it before testing it, so it
    gets HAC Table 4.4's rounds, and return one only after it passed.
    Arithmetic on it gives plain ints, which the primality test treats as
    a caller's."""
    __slots__ = ()


def _mr_rounds(candidate: int) -> int:
    if candidate < _PSI_13:
        return 13
    if type(candidate) is Drawn:
        bits = candidate.bit_length()
        for least, rounds in _DRAWN_ROUNDS:
            if bits >= least:
                return rounds
    return 40


def is_probable_prime(candidate: int) -> bool:
    """Primality by small-prime lookup, a primorial gcd, then Miller-Rabin.

    Values below the sieve limit (2048) are looked up in the set of primes
    below it. Larger values sharing a factor with the product of those
    primes are composite (a one-word gcd with the odd primes up to 47 finds
    most of them first); one with no such factor and below 2048**2 is
    prime. Everything else gets Miller-Rabin with the first t of 40 fixed
    prime bases, where t depends on where the candidate came from:

    - below psi_13 = 3,317,044,064,679,887,385,961,981, t = 13 for any
      caller; those bases are exact there, so the answer is the true one;
    - a `Drawn`, a candidate `random_prime_below` or `_sample_prime_bits`
      drew from the run's own RNG, gets the rounds of HAC Table 4.4 for its
      bit length, which keep the error for a random candidate below 2**-80:
      12 at 256 bits, 6 at 512, 3 at 1024, 2 at 2048 (40 below 100 bits);
    - every other value, such as one a caller supplies, gets all 40 bases,
      even one equal to a prime just drawn. Composites can be built to pass
      chosen bases (Arnault 1995), so the random-candidate bound does not
      cover them.
    """
    if candidate < _SIEVE_LIMIT:
        return candidate in _SMALL_PRIME_SET
    if (gcd(candidate % _WORD_PRIMORIAL, _WORD_PRIMORIAL) != 1
            or gcd(candidate, _PRIMORIAL) != 1):
        return False
    if candidate < _SIEVE_LIMIT * _SIEVE_LIMIT:
        return True
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES[:_mr_rounds(candidate)]:
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


def random_prime_below(rng: random.Random, bound: int, coprime_to=()) -> Drawn:
    """Sample a prime in (1, bound), coprime to every given modulus."""
    if bound <= 2:
        raise ValueError("bound too small to contain a prime")
    for _ in range(_SAMPLE_ATTEMPTS):
        candidate = rng.randrange(2, bound)
        if candidate > 2:
            candidate |= 1
        if candidate >= bound:
            continue
        candidate = Drawn(candidate)
        if not is_probable_prime(candidate):
            continue
        if any(gcd(candidate, m) != 1 for m in coprime_to):
            continue
        return candidate
    raise GenerationFailure(f"no usable prime below {bound} found")


def random_unit(rng: random.Random, modulus: int) -> int:
    """Sample k with 1 < k < modulus and gcd(k, modulus) = 1."""
    if modulus <= 3:
        raise ValueError("modulus too small")
    for _ in range(_SAMPLE_ATTEMPTS):
        candidate = rng.randrange(2, modulus)
        if gcd(candidate, modulus) == 1:
            return candidate
    raise GenerationFailure(f"no unit below {modulus} found")


class PublicKey(NamedTuple):
    """RSA public half: (exponent, modulus)."""
    e: int
    n: int


class RsaKeyPair(NamedTuple):
    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> PublicKey:
        return PublicKey(self.e, self.n)


def keypair_from_primes(p: int, q: int, e: int) -> RsaKeyPair:
    """Build a keypair from explicit primes; the private exponent is the
    inverse of e modulo (p-1)(q-1)."""
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ValueError("p and q must both be prime")
    if p == q:
        raise ValueError("p and q must differ")
    if e < 3 or e % 2 == 0:
        raise ValueError("public exponent must be odd and >= 3")
    phi = (p - 1) * (q - 1)
    if e >= phi:
        raise ValueError("public exponent must be < phi(n)")
    if gcd(e, phi) != 1:
        raise ValueError("public exponent shares a factor with phi(n)")
    return RsaKeyPair(n=p * q, e=e, d=pow(e, -1, phi), p=p, q=q)


def _sample_prime_bits(rng: random.Random, nbits: int) -> Drawn:
    # Top two bits forced so a product of two such primes has exactly the
    # requested modulus width.
    for _ in range(_SAMPLE_ATTEMPTS):
        candidate = Drawn(rng.getrandbits(nbits) | (1 << (nbits - 1)) | (1 << (nbits - 2)) | 1)
        if is_probable_prime(candidate):
            return candidate
    raise GenerationFailure(f"no {nbits}-bit prime found")


def rsa_keygen_with_exponent(bits: int, exponent: int, seed: int) -> RsaKeyPair:
    """Generate a keypair with an exact modulus width and a caller-fixed
    public exponent, deterministically from the seed.

    Prime candidates are rejection-sampled until gcd(e, p-1) = gcd(e, q-1)
    = 1 and e < phi(n); with small exponents (e = 3) or small moduli that
    retry path is routinely exercised.
    """
    if bits < 16:
        raise ValueError("modulus width must be >= 16 bits")
    if exponent < 3 or exponent % 2 == 0:
        raise ValueError("public exponent must be odd and >= 3")
    if seed < 0:
        # random.Random drops the sign, so -s would give the keypair of s.
        raise ValueError("seed must be >= 0")
    if exponent >= 1 << bits:
        # phi(n) < n < 2^bits, so no key of this width has e < phi(n).
        raise GenerationFailure(f"no {bits}-bit keypair admits exponent {exponent}")
    rng = random.Random(seed)
    p_bits = bits - bits // 2
    q_bits = bits // 2
    for _ in range(_KEYGEN_ATTEMPTS):
        p = _sample_prime_bits(rng, p_bits)
        if gcd(exponent, p - 1) != 1:
            continue
        q = _sample_prime_bits(rng, q_bits)
        if q == p or gcd(exponent, q - 1) != 1:
            continue
        phi = (p - 1) * (q - 1)
        if exponent >= phi:
            continue
        return RsaKeyPair(n=p * q, e=exponent, d=pow(exponent, -1, phi), p=p, q=q)
    raise GenerationFailure(f"no {bits}-bit keypair admits exponent {exponent}")


def rsa_sign(keys: RsaKeyPair, message: int) -> int:
    """Textbook RSA signature: (message mod n)^d mod n."""
    return mod_pow(message % keys.n, keys.d, keys.n)


def rsa_verify(pub: PublicKey, signature: int, message: int) -> bool:
    """Whether signature^e mod n equals message mod n, for a signature below
    n (RFC 8017 5.2.2, RSAVP1 step 1): without the bound, signature + n
    would verify as well."""
    return signature < pub.n and mod_pow(signature, pub.e, pub.n) == message % pub.n


def derive_seed(master: int, label: str) -> int:
    """Stable per-purpose sub-seed so independent sampling streams never
    shift each other."""
    digest = hashlib.sha256(encode_fields(master, label)).digest()
    return int.from_bytes(digest[:16], "big")
