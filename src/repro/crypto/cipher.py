"""A toy stream cipher used to encrypt new keys under old keys.

The rekey message carries *encryptions*: the new key of a k-node encrypted
under the key of one of its children.  For the reproduction we need a
cipher that (a) really round-trips, (b) really fails with the wrong key,
and (c) has deterministic output size, so packet-size accounting matches
the paper's 1027-byte ENC packets.  A BLAKE2b-keyed stream XOR with an
appended keyed checksum satisfies all three.

.. warning:: This construction is **not secure** (no nonce, malleable).
   It is a stand-in for the paper's DES-class cipher; only its byte
   counts and round-trip semantics matter to the performance analysis.
"""

from __future__ import annotations

import hashlib

from repro.crypto.keys import KEY_LENGTH, SymmetricKey
from repro.errors import CryptoError

_CHECKSUM_LENGTH = 4


class EncryptedKey:
    """One encryption ``{new_key}_old_key`` as carried in a rekey message.

    ``encryption_id`` is the node ID of the *encrypting* key (the child);
    per the paper's key-identification strategy this uniquely identifies
    the encryption, and the encrypted key's node ID is the child's parent
    ``(id - 1) // d``.
    """

    __slots__ = ("_encryption_id", "_ciphertext")

    def __init__(self, encryption_id, ciphertext):
        if encryption_id < 0:
            raise CryptoError("encryption_id must be >= 0")
        self._encryption_id = int(encryption_id)
        self._ciphertext = bytes(ciphertext)

    @property
    def encryption_id(self):
        """Node ID of the encrypting (child) key."""
        return self._encryption_id

    @property
    def ciphertext(self):
        """The opaque ciphertext bytes."""
        return self._ciphertext

    def __len__(self):
        return len(self._ciphertext)

    def __eq__(self, other):
        if not isinstance(other, EncryptedKey):
            return NotImplemented
        return (
            self._encryption_id == other._encryption_id
            and self._ciphertext == other._ciphertext
        )

    def __hash__(self):
        return hash((self._encryption_id, self._ciphertext))

    def __repr__(self):
        return "EncryptedKey(id=%d, %d bytes)" % (
            self._encryption_id,
            len(self._ciphertext),
        )


class XorStreamCipher:
    """Keyed-stream XOR cipher with an integrity checksum.

    ``encrypt`` output length is ``len(plaintext) + 4``: the 4 trailing
    bytes are a keyed checksum so that decryption under the wrong key is
    *detected* rather than yielding garbage silently — mirroring how a
    user discards encryptions that are not on its key path.
    """

    def __init__(self, meter=None):
        self._meter = meter

    @staticmethod
    def _keystream(key, length):
        material = key.material
        return b"".join(
            hashlib.blake2b(
                counter.to_bytes(8, "big"), key=material, digest_size=32
            ).digest()
            for counter in range(-(-length // 32))
        )[:length]

    @staticmethod
    def _xor(data, stream):
        # One big-int op: identical bytes to a per-byte zip, without a
        # genexpr frame per byte (this runs once per tree edge per
        # rekey, thousands of times an interval, on both sides).
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    @staticmethod
    def _checksum(key, data):
        return hashlib.blake2b(
            data, key=key.material, digest_size=_CHECKSUM_LENGTH
        ).digest()

    def encrypt(self, plaintext, key):
        """Encrypt ``plaintext`` bytes under ``key``."""
        if not isinstance(key, SymmetricKey):
            raise CryptoError("key must be a SymmetricKey")
        plaintext = bytes(plaintext)
        body = self._xor(plaintext, self._keystream(key, len(plaintext)))
        if self._meter is not None:
            self._meter.record_encrypt(len(plaintext))
        return body + self._checksum(key, plaintext)

    def decrypt(self, ciphertext, key):
        """Decrypt; raises :class:`CryptoError` on wrong key / corruption."""
        if not isinstance(key, SymmetricKey):
            raise CryptoError("key must be a SymmetricKey")
        ciphertext = bytes(ciphertext)
        if len(ciphertext) < _CHECKSUM_LENGTH:
            raise CryptoError("ciphertext too short")
        body, checksum = (
            ciphertext[:-_CHECKSUM_LENGTH],
            ciphertext[-_CHECKSUM_LENGTH:],
        )
        plaintext = self._xor(body, self._keystream(key, len(body)))
        if self._checksum(key, plaintext) != checksum:
            raise CryptoError("decryption failed: wrong key or corrupt data")
        if self._meter is not None:
            self._meter.record_decrypt(len(body))
        return plaintext

    def encrypt_key(self, new_key, under_key, encryption_id=None):
        """Encrypt ``new_key`` under ``under_key``, yielding EncryptedKey.

        ``encryption_id`` defaults to the encrypting key's node ID, but
        callers must pass the *current* child node ID explicitly when the
        encrypting key may have moved (a split relocates a u-node while
        its individual key material — and recorded node ID — stays put).
        """
        if not isinstance(new_key, SymmetricKey):
            raise CryptoError("new_key must be a SymmetricKey")
        if encryption_id is None:
            encryption_id = under_key.node_id
        ciphertext = self.encrypt(new_key.material, under_key)
        return EncryptedKey(encryption_id, ciphertext)

    def decrypt_key(self, encrypted, under_key, node_id=0, version=0):
        """Recover the :class:`SymmetricKey` inside ``encrypted``."""
        material = self.decrypt(encrypted.ciphertext, under_key)
        if len(material) != KEY_LENGTH:
            raise CryptoError(
                "key material must be %d bytes, got %d"
                % (KEY_LENGTH, len(material))
            )
        # The checksum has vouched for the material; the identity comes
        # from the caller's own tree walk, so skip SymmetricKey's
        # public-API validation (this runs once per member path edge).
        return SymmetricKey.trusted(material, node_id, version)


#: Wire size of one <encryption, ID> pair in an ENC packet: a 2-byte
#: encryption ID plus a 16-byte key and the 4-byte checksum.  The paper's
#: 1027-byte ENC packet carries 46 encryptions; with a 15-byte header,
#: (1027 - 15) // 22 = 46 — our framing reproduces that capacity exactly.
ENCRYPTION_WIRE_SIZE = 2 + 16 + _CHECKSUM_LENGTH
