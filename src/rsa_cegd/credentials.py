"""Certificate issuance and verification.

Two certificate kinds exist. A certificate authority binds an e-goods
payload to its description, the hash of the payload, the hash of its
encryption, and the seller's encrypted symmetric key. The arbiter issues
the buyer a recovery certificate: a fresh RSA pair sharing the buyer's
public exponent, whose private exponent is published in masked form so
that only the arbiter can unmask it later. Neither certificate carries an
owner identity, an expiry, or any link to a protocol run, and the issuers
take no name either: the CA and the arbiter are their RSA key pairs.
"""

from dataclasses import dataclass
from math import gcd

from .crypto import (
    HASH_BOUND,
    PublicKey,
    RsaKeyPair,
    encode_fields,
    hash_int,
    mod_inv,
    mod_pow,
    rsa_keygen_with_exponent,
    rsa_sign,
    rsa_verify,
    sym_encrypt,
)


class InvalidKey(ValueError):
    """Symmetric key unusable under the wrapping RSA modulus."""


class InvalidCert(ValueError):
    """Certificate failed verification where a valid one is required."""


@dataclass(frozen=True)
class GoodsCertificate:
    description: bytes
    ciphertext_hash: int
    goods_hash: int
    enc_key: int  # symmetric key encrypted under the owner's public key
    signature: int


@dataclass(frozen=True)
class RecoverableCert:
    pub: PublicKey  # recovery keypair's public half; exponent equals the subject's
    masked_exponent: int
    signature: int


def hash_goods(goods: bytes) -> int:
    return hash_int("h_a", goods, HASH_BOUND)


def hash_ciphertext(ciphertext: bytes) -> int:
    return hash_int("hd_a", ciphertext, HASH_BOUND)


def _cert_digest(description, ciphertext_hash, goods_hash, enc_key, modulus):
    data = encode_fields(description, ciphertext_hash, goods_hash, enc_key)
    return hash_int("cert", data, modulus)


def issue_goods_cert(ca: RsaKeyPair, goods: bytes, description: bytes,
                     key: int, owner_pub: PublicKey) -> tuple[GoodsCertificate, bytes]:
    """Sign the binding between a goods payload, its encryption under
    `key`, and the key itself encrypted to the owner.

    Returns the certificate and the ciphertext it binds,
    `sym_encrypt(key, goods)`, so the seller sends the goods without
    encrypting them a second time.
    """
    if not 1 < key < owner_pub.n:
        raise InvalidKey("symmetric key out of range for the owner modulus")
    if gcd(key, owner_pub.n) != 1:
        raise InvalidKey("symmetric key shares a factor with the owner modulus")
    ciphertext = sym_encrypt(key, goods)
    ct_hash = hash_ciphertext(ciphertext)
    g_hash = hash_goods(goods)
    enc_key = mod_pow(key, owner_pub.e, owner_pub.n)
    digest = _cert_digest(description, ct_hash, g_hash, enc_key, ca.n)
    signature = rsa_sign(ca, digest)
    return GoodsCertificate(description, ct_hash, g_hash, enc_key, signature), ciphertext


def check_goods_cert(cert: GoodsCertificate, ciphertext: bytes,
                     ca_pub: PublicKey) -> str | None:
    """None when the certificate verifies against the presented ciphertext,
    else a stable reason code."""
    digest = _cert_digest(cert.description, cert.ciphertext_hash,
                          cert.goods_hash, cert.enc_key, ca_pub.n)
    if not rsa_verify(ca_pub, cert.signature, digest):
        return "bad-cert-signature"
    if hash_ciphertext(ciphertext) != cert.ciphertext_hash:
        return "hd-mismatch"
    return None


def verify_goods_cert(cert: GoodsCertificate, ciphertext: bytes,
                      ca_pub: PublicKey) -> bool:
    return check_goods_cert(cert, ciphertext, ca_pub) is None


def _recovery_cert_digest(pub: PublicKey, masked_exponent: int, modulus: int) -> int:
    return hash_int("rcert", encode_fields(pub.e, pub.n, masked_exponent), modulus)


def _exponent_mask(ttp_keys: RsaKeyPair, pub: PublicKey) -> int:
    # Mask derived from the arbiter's private key (serialized d || n in
    # canonical hex) and the subject public key; reduced mod the subject
    # modulus, where it multiplies the private exponent.
    data = encode_fields(ttp_keys.d, ttp_keys.n, pub.e, pub.n)
    return hash_int("d_bt-mask", data, pub.n)


def issue_recoverable_cert(ttp: RsaKeyPair, subject_exponent: int,
                           bits: int, seed: int) -> tuple[RecoverableCert, RsaKeyPair]:
    """Mint a recovery keypair sharing the subject's public exponent and
    certify (public key, masked private exponent) under the arbiter key.

    The private exponent is masked multiplicatively: published value is
    mask^-1 * d mod n, and since d < phi(n) < n the arbiter recovers d
    exactly by re-deriving the mask. A keypair whose mask is not a unit
    mod n is thrown away and regenerated (only plausible at toy sizes).
    """
    for attempt in range(64):
        pair = rsa_keygen_with_exponent(bits, subject_exponent, seed + attempt)
        mask = _exponent_mask(ttp, pair.public)
        if gcd(mask, pair.n) != 1:
            continue
        masked = (mod_inv(mask, pair.n) * pair.d) % pair.n
        digest = _recovery_cert_digest(pair.public, masked, ttp.n)
        return RecoverableCert(pair.public, masked, rsa_sign(ttp, digest)), pair
    raise InvalidKey("could not find a keypair with an invertible mask")


def verify_recoverable_cert(cert: RecoverableCert, ttp_pub: PublicKey) -> bool:
    digest = _recovery_cert_digest(cert.pub, cert.masked_exponent, ttp_pub.n)
    return rsa_verify(ttp_pub, cert.signature, digest)


def recover_private_exponent(ttp: RsaKeyPair, cert: RecoverableCert) -> int:
    """Arbiter-side unmasking of the certified private exponent."""
    if not verify_recoverable_cert(cert, ttp.public):
        raise InvalidCert("recovery certificate does not verify under this arbiter")
    mask = _exponent_mask(ttp, cert.pub)
    return (mask * cert.masked_exponent) % cert.pub.n
