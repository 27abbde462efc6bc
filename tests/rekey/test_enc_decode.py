"""The header-first ENC decoder against the eager reference decoder.

:func:`reference_decode` is the ENC decoder as it was before decoding
went header first: it parses every entry into an
:class:`~repro.crypto.cipher.EncryptedKey` and leaves field checks to
the :class:`EncPacket` constructor.  It is the oracle here and nowhere
else.  The production decoder must accept exactly what the oracle
accepts, raise :class:`PacketDecodeError` wherever the oracle raised any
:class:`PacketError`, and return equal packets with equal hashes whose
``encryptions_for`` matches the oracle's filter.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import EncryptedKey
from repro.errors import PacketDecodeError, PacketError
from repro.rekey.message import RekeyMessage
from repro.rekey.packets import (
    ENC_HEADER_SIZE,
    ENCRYPTION_ENTRY_SIZE,
    FEC_PAYLOAD_OFFSET,
    EncPacket,
    PacketType,
    enc_packet_capacity,
)


def reference_decode(data):
    """Eager ENC decode: every entry built, checks in the constructor."""
    if len(data) < ENC_HEADER_SIZE:
        raise PacketDecodeError("ENC packet shorter than its header")
    (
        type_byte,
        block_id,
        seq_in_block,
        flags,
        max_kid,
        frm_id,
        to_id,
        count,
    ) = struct.unpack(">BBBBHHHH", data[:ENC_HEADER_SIZE])
    if PacketType(type_byte >> 6) is not PacketType.ENC:
        raise PacketDecodeError("not an ENC packet")
    needed = ENC_HEADER_SIZE + count * ENCRYPTION_ENTRY_SIZE
    if len(data) < needed:
        raise PacketDecodeError(
            "ENC packet truncated: need %d bytes, have %d"
            % (needed, len(data))
        )
    encryptions = []
    offset = ENC_HEADER_SIZE
    for _ in range(count):
        (encryption_id,) = struct.unpack(">H", data[offset : offset + 2])
        ciphertext = data[offset + 2 : offset + ENCRYPTION_ENTRY_SIZE]
        encryptions.append(EncryptedKey(encryption_id, ciphertext))
        offset += ENCRYPTION_ENTRY_SIZE
    return EncPacket(
        rekey_message_id=type_byte & 0x3F,
        block_id=block_id,
        seq_in_block=seq_in_block,
        max_kid=max_kid,
        frm_id=frm_id,
        to_id=to_id,
        encryptions=tuple(encryptions),
        is_duplicate=bool(flags & 1),
    )


def make_wire(n_encryptions, seed=0, is_duplicate=False):
    return EncPacket(
        rekey_message_id=(seed * 7) % 64,
        block_id=seed % 256,
        seq_in_block=(seed * 3) % 256,
        max_kid=340,
        frm_id=341,
        to_id=360,
        encryptions=tuple(
            EncryptedKey(
                1 + (i * 37 + seed) % 65535, bytes([i, seed % 256]) * 10
            )
            for i in range(n_encryptions)
        ),
        is_duplicate=is_duplicate,
    ).encode()


def assert_matches_oracle(data, wanted=()):
    """Same verdict as the oracle; on acceptance, the same packet."""
    try:
        expected = reference_decode(data)
    except PacketError:
        with pytest.raises(PacketDecodeError):
            EncPacket.decode(data)
        return None
    packet = EncPacket.decode(data)
    assert packet.encryptions_for(wanted) == expected.encryptions_for(wanted)
    assert packet == expected
    assert hash(packet) == hash(expected)
    assert packet.encryptions == expected.encryptions
    assert isinstance(packet.encryptions, tuple)
    assert packet.encode() == expected.encode()
    return packet


class TestAgainstOracle:
    @given(data=st.binary(min_size=0, max_size=300))
    @settings(max_examples=300)
    def test_arbitrary_bytes(self, data):
        assert_matches_oracle(data)

    @given(
        body=st.binary(min_size=ENC_HEADER_SIZE - 1, max_size=300),
        wanted=st.sets(st.integers(0, 65535), max_size=8),
    )
    @settings(max_examples=300)
    def test_arbitrary_enc_typed_bytes(self, body, wanted):
        # Force the ENC type so most examples reach the body checks.
        data = bytes([body[0] & 0x3F]) + body[1:]
        assert_matches_oracle(data, wanted)

    @pytest.mark.parametrize("n_encryptions", [0, 1, 2, 23, 45, 46])
    def test_every_truncation(self, n_encryptions):
        wire = make_wire(n_encryptions, seed=n_encryptions)
        for cut in range(len(wire) + 1):
            assert_matches_oracle(wire[:cut])

    @given(
        n_encryptions=st.integers(0, 46),
        seed=st.integers(0, 1000),
        flips=st.lists(
            st.tuples(st.integers(0, 1026), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        ),
        wanted=st.sets(st.integers(0, 65535), max_size=8),
    )
    @settings(max_examples=300)
    def test_bit_flips(self, n_encryptions, seed, flips, wanted):
        wire = bytearray(make_wire(n_encryptions, seed=seed))
        for position, flip in flips:
            wire[position] ^= flip
        assert_matches_oracle(bytes(wire), wanted)

    @given(
        n_encryptions=st.integers(0, 46),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_encryptions_for_random_subsets(self, n_encryptions, seed, data):
        wire = make_wire(
            n_encryptions, seed=seed, is_duplicate=bool(seed & 1)
        )
        expected = reference_decode(wire)
        carried = [e.encryption_id for e in expected.encryptions]
        wanted = data.draw(
            st.sets(
                st.sampled_from(carried) if carried else st.nothing()
            )
            | st.sets(st.integers(0, 65535), max_size=6)
        )
        packet = assert_matches_oracle(wire, wanted)
        # The subset is built from the bytes before anything else reads
        # the packet, and again once the full tuple exists.
        fresh = EncPacket.decode(wire)
        assert fresh.encryptions_for(wanted) == [
            e for e in expected.encryptions if e.encryption_id in wanted
        ]
        assert packet.encryptions_for(wanted) == fresh.encryptions_for(wanted)

    def test_capacity_is_the_paper_default(self):
        assert enc_packet_capacity() == 46


class TestMalformedFieldsAreDecodeErrors:
    """Field values the constructor refuses are decode errors on bytes."""

    def test_zero_encryption_id(self):
        wire = bytearray(make_wire(3))
        wire[ENC_HEADER_SIZE + ENCRYPTION_ENTRY_SIZE] = 0
        wire[ENC_HEADER_SIZE + ENCRYPTION_ENTRY_SIZE + 1] = 0
        with pytest.raises(PacketDecodeError, match="reserved"):
            EncPacket.decode(bytes(wire))

    def test_inverted_interval(self):
        wire = bytearray(make_wire(3))
        struct.pack_into(">HH", wire, 6, 500, 400)
        with pytest.raises(PacketDecodeError, match="frm_id"):
            EncPacket.decode(bytes(wire))


class TestDecodedPacketBehaviour:
    def test_round_trip_hashes_equal(self):
        packet = reference_decode(make_wire(46, seed=9))
        decoded = EncPacket.decode(packet.encode())
        assert decoded == packet
        assert hash(decoded) == hash(packet)
        assert len({decoded, packet}) == 1

    def test_immutable(self):
        packet = EncPacket.decode(make_wire(2))
        with pytest.raises(AttributeError):
            packet.frm_id = 0

    def test_pickle_round_trip(self):
        import pickle

        packet = EncPacket.decode(make_wire(5, seed=2))
        assert pickle.loads(pickle.dumps(packet)) == packet

    def test_fec_rebuilt_packet_matches_oracle(self):
        wire = make_wire(30, seed=4)
        packet = RekeyMessage.rebuild_enc_packet(
            wire[0] & 0x3F, wire[1], wire[2], wire[FEC_PAYLOAD_OFFSET:]
        )
        assert packet == reference_decode(wire)
