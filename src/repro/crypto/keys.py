"""Symmetric keys and deterministic key generation.

Keys in a key tree are versioned: rekeying replaces the *key material* of
a logical node while the node identity persists.  ``SymmetricKey`` couples
16 bytes of material with a ``(node_id, version)`` identity so tests and
the transport layer can talk about "the key of node 7 at version 3".
"""

from __future__ import annotations

import hashlib

from repro.errors import CryptoError
from repro.util.validation import check_non_negative

KEY_LENGTH = 16  # bytes of key material, AES-128-sized


class SymmetricKey:
    """An immutable 16-byte symmetric key with a logical identity.

    Two keys compare equal iff their material is equal; the
    ``(node_id, version)`` identity is carried for bookkeeping and does
    not participate in equality (a re-keyed node is a *different* key).
    """

    __slots__ = ("_material", "_node_id", "_version")

    def __init__(self, material, node_id=0, version=0):
        if not isinstance(material, (bytes, bytearray)):
            raise CryptoError(
                "key material must be bytes, got %s" % type(material).__name__
            )
        if len(material) != KEY_LENGTH:
            raise CryptoError(
                "key material must be %d bytes, got %d"
                % (KEY_LENGTH, len(material))
            )
        check_non_negative("node_id", node_id, integral=True)
        check_non_negative("version", version, integral=True)
        self._material = bytes(material)
        self._node_id = int(node_id)
        self._version = int(version)

    @classmethod
    def trusted(cls, material, node_id, version):
        """Build a key from already-validated parts, skipping checks.

        For internal construction only (the key factory and the cipher),
        where ``material`` is 16 bytes by construction and the identity
        is a non-negative integer.
        """
        key = object.__new__(cls)
        key._material = material
        key._node_id = int(node_id)
        key._version = int(version)
        return key

    @property
    def material(self):
        """The raw 16 bytes of key material."""
        return self._material

    @property
    def node_id(self):
        """The key-tree node ID this key was generated for."""
        return self._node_id

    @property
    def version(self):
        """Monotone version counter of the node's key material."""
        return self._version

    def fingerprint(self):
        """Short hex digest identifying the key material (for logs)."""
        return hashlib.blake2b(self._material, digest_size=6).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, SymmetricKey):
            return NotImplemented
        return self._material == other._material

    def __hash__(self):
        return hash(self._material)

    def __repr__(self):
        return "SymmetricKey(node_id=%d, version=%d, fp=%s)" % (
            self._node_id,
            self._version,
            self.fingerprint(),
        )


class KeyFactory:
    """Deterministic generator of fresh symmetric keys.

    Key material is derived as ``BLAKE2b(seed || node_id || version)``;
    distinct ``(node_id, version)`` pairs therefore always yield distinct
    material, and an entire simulated system is reproducible from the
    factory seed.  A real deployment would use a CSPRNG; determinism is a
    deliberate substitution for testability (see DESIGN.md).
    """

    def __init__(self, seed=0, meter=None):
        check_non_negative("seed", seed, integral=True)
        self._seed = int(seed).to_bytes(8, "big")
        self._meter = meter
        self._generated = 0

    @property
    def generated_count(self):
        """Total number of keys this factory has produced."""
        return self._generated

    def new_key(self, node_id, version):
        """Derive the key for ``node_id`` at ``version``."""
        check_non_negative("node_id", node_id, integral=True)
        check_non_negative("version", version, integral=True)
        digest = hashlib.blake2b(
            self._seed
            + int(node_id).to_bytes(8, "big")
            + int(version).to_bytes(8, "big"),
            digest_size=KEY_LENGTH,
        ).digest()
        self._generated += 1
        if self._meter is not None:
            self._meter.record_keygen()
        return SymmetricKey.trusted(digest, node_id, version)
