"""Key wrapping, the encrypted-receipt triple, and the evidence tokens.

The receipt a buyer owes for goods with hash h is the RSA signature
h^d mod n under the buyer key (e, n). Instead of sending it outright, the
buyer picks a random prime blinding factor r and sends the triple

    enc_randomizer   = r^e mod (n * n')          (n' = recovery modulus)
    blinded_receipt  = r * h^d mod n
    control          = r * m(enc_randomizer)^d' mod n'

where (e, n') is the certified recovery key (same public exponent e), d'
its private exponent, and m(.) a hash into the recovery modulus.

Verification congruences. The triple is checkable without learning r or
the receipt: raising the blinded values to the shared public exponent
makes the blinding factor reappear as enc_randomizer's residue,

    blinded_receipt^e  = r^e * h^(d*e)       = enc_randomizer * h   (mod n)
    control^e          = r^e * m(y)^(d'*e)   = enc_randomizer * m(y) (mod n')

so the two checks verify blinded_receipt as an RSA signature on y * h
under (e, n) and control as one on y * m(y) under (e, n'), with
y = enc_randomizer, plus the range bound y < n * n'. Nothing ties the two
to one blinding factor: a signer who holds d' as well as d, as the buyer
does here (ReceiverSession.recovery_keys), completes any y < n * n' into a
passing triple, whose residues mod n and mod n' need not encrypt one value.

Cross-decryption. Because both key pairs share the public exponent, the
residues of y are r^e mod n and r^e mod n' simultaneously, so either
private exponent opens it: the buyer computes (y mod n)^d mod n and the
arbiter (y mod n')^d' mod n'. Both return the blinding factor exactly
whenever r < min(n, n'), which generation enforces.
"""

from math import gcd
from typing import NamedTuple

from .credentials import RecoverableCert
from .crypto import (
    Drawn,
    PublicKey,
    RsaKeyPair,
    encode_fields,
    hash_int,
    int_to_hex,
    is_probable_prime,
    mod_inv,
    mod_pow,
    rsa_sign,
    rsa_verify,
)


class InvalidRandomizer(ValueError):
    """Blinding factor violates its sampling contract."""


class RecoveryMismatch(ValueError):
    """Unblinded value is not the expected signature."""


class WrappedKey(NamedTuple):
    """Seller-side wrapping of the goods key k with a prime randomizer r:
    blinded_key = r*k mod n, enc_randomizer = r^e mod n. With the goods
    certificate's enc_key = k^e mod n, the invariant is
    blinded_key^e == enc_randomizer * enc_key (mod n)."""
    blinded_key: int
    enc_randomizer: int


class VresTriple(NamedTuple):
    enc_randomizer: int
    blinded_receipt: int
    control: int


class Signature(NamedTuple):
    """A party's signature on the goods hash, plus who signed it: the
    buyer's receipt or the seller's origin proof.

    Deliberately identity-free on the wire: nothing inside `value` binds
    the receiver or the protocol run, so the holder can hand it to anyone."""
    value: int
    goods_hash: int
    signer: str


def _control_mask(enc_randomizer: int, recovery_modulus: int) -> int:
    return hash_int("y_b", int_to_hex(enc_randomizer).encode("ascii"),
                    recovery_modulus)


def _check_randomizer(randomizer: int, *moduli: int) -> None:
    # 0, 1 and negative values are not prime: the primality test rejects them.
    if randomizer >= min(moduli):
        raise InvalidRandomizer("randomizer out of range")
    # A Drawn already passed random_prime_below's primality test; any other
    # value, even one equal to a prime just drawn, is tested as a caller's,
    # with all 40 bases.
    if type(randomizer) is not Drawn and not is_probable_prime(randomizer):
        raise InvalidRandomizer("randomizer must be prime")
    for modulus in moduli:
        if gcd(randomizer, modulus) != 1:
            raise InvalidRandomizer("randomizer shares a factor with a modulus")


def wrap_key(key: int, randomizer: int, owner: RsaKeyPair) -> WrappedKey:
    _check_randomizer(randomizer, owner.n)
    return WrappedKey(
        blinded_key=(randomizer * key) % owner.n,
        enc_randomizer=mod_pow(randomizer, owner.e, owner.n),
    )


def derive_enc_randomizer(blinded_key: int, enc_key: int, owner_pub: PublicKey) -> int:
    """Recompute the encrypted randomizer from public wrap components:
    blinded_key^e * enc_key^-1 mod n. Lets the counterparty bind tokens to
    the wrap without being handed the value separately."""
    lifted = mod_pow(blinded_key, owner_pub.e, owner_pub.n)
    return (lifted * mod_inv(enc_key, owner_pub.n)) % owner_pub.n


def unwrap_key(blinded_key: int, randomizer: int, modulus: int) -> int:
    return (blinded_key * mod_inv(randomizer, modulus)) % modulus


def generate_vres(goods_hash: int, signer: RsaKeyPair,
                  recovery: RsaKeyPair, randomizer: int) -> VresTriple:
    """Build the triple; `recovery` is the certified keypair sharing the
    signer's public exponent."""
    _check_randomizer(randomizer, signer.n, recovery.n)
    enc_randomizer = mod_pow(randomizer, signer.e, signer.n * recovery.n)
    blinded_receipt = (randomizer * rsa_sign(signer, goods_hash)) % signer.n
    mask = _control_mask(enc_randomizer, recovery.n)
    control = (randomizer * rsa_sign(recovery, mask)) % recovery.n
    return VresTriple(enc_randomizer, blinded_receipt, control)


def check_vres(triple: VresTriple, goods_hash: int, signer_pub: PublicKey,
               recovery_pub: PublicKey) -> str | None:
    """None when both congruences and the range bound hold, else a reason
    code. Passing does not show that the triple unblinds to the receipt for
    `goods_hash`: a signer who holds d' passes with any y (see above)."""
    y = triple.enc_randomizer
    if y >= signer_pub.n * recovery_pub.n:
        return "enc-randomizer-range"
    if not rsa_verify(signer_pub, triple.blinded_receipt, y * goods_hash):
        return "receipt-congruence"
    if not rsa_verify(recovery_pub, triple.control, y * _control_mask(y, recovery_pub.n)):
        return "control-congruence"
    return None


def verify_vres(triple: VresTriple, goods_hash: int, signer_pub: PublicKey,
                recovery_pub: PublicKey) -> bool:
    return check_vres(triple, goods_hash, signer_pub, recovery_pub) is None


def recover_receipt(blinded_receipt: int, randomizer: int, signer_pub: PublicKey,
                    goods_hash: int, signer: str) -> Signature:
    """Strip the blinding and insist the result really signs `goods_hash`."""
    value = (blinded_receipt * mod_inv(randomizer, signer_pub.n)) % signer_pub.n
    if not rsa_verify(signer_pub, value, goods_hash):
        raise RecoveryMismatch("unblinded value does not sign the goods hash")
    return Signature(value, goods_hash, signer)


def recover_randomizer(enc_randomizer: int, recovery_exponent: int,
                       recovery_modulus: int) -> int:
    """Arbiter-side opening: (y mod n')^d' mod n'. Equals the blinding
    factor for honestly generated triples; callers validate the result via
    the receipt congruence, not here."""
    return mod_pow(enc_randomizer % recovery_modulus, recovery_exponent,
                   recovery_modulus)


def _token_digest(cert: RecoverableCert, enc_randomizer: int,
                  sender_enc_randomizer: int, sender_id: str, modulus: int) -> int:
    data = encode_fields(cert.pub.e, cert.pub.n, cert.masked_exponent,
                         cert.signature, enc_randomizer, sender_enc_randomizer,
                         sender_id)
    return hash_int("token", data, modulus)


def make_auth_token(signer: RsaKeyPair, cert: RecoverableCert, enc_randomizer: int,
                    sender_enc_randomizer: int, sender_id: str) -> int:
    """Recovery authorization: the buyer's signature over (certificate,
    encrypted randomizer, sender's encrypted randomizer, sender identity).
    Note what is absent: no session identifier, no timestamp, nothing tying
    the token to one protocol run."""
    digest = _token_digest(cert, enc_randomizer, sender_enc_randomizer,
                           sender_id, signer.n)
    return rsa_sign(signer, digest)


def verify_auth_token(token: int, signer_pub: PublicKey, cert: RecoverableCert,
                      enc_randomizer: int, sender_enc_randomizer: int,
                      sender_id: str) -> bool:
    digest = _token_digest(cert, enc_randomizer, sender_enc_randomizer,
                           sender_id, signer_pub.n)
    return rsa_verify(signer_pub, token, digest)
