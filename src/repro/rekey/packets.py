"""Wire formats of the four protocol packet types (Appendix A).

Layouts follow the companion text's field lists; sizes are chosen so the
paper's packet-capacity arithmetic holds exactly: a 1027-byte ENC packet
carries 46 ``<encryption, ID>`` pairs of 22 bytes each
(``(1027 - 12) // 22 == 46``), the figure the paper uses for its
duplication-overhead bound.

Deviations from the byte-exact 2001 format, kept deliberately small:

- the 2-bit type and 6-bit rekey-message ID share one byte, as in the
  paper;
- one *flags* byte is added to ENC packets to carry the "duplicate of
  the last block" bit that the paper describes in a footnote;
- USR packets always carry encryption IDs (the paper makes them
  optional), costing 2 bytes per entry;
- NACK packets carry the sender's user ID explicitly (on a real network
  it would come from the UDP source address).

FEC protects ENC-packet bytes from :data:`FEC_PAYLOAD_OFFSET` onward
(the paper's "fields 5 to 8"): the identification prefix
(type / message / block / sequence) stays in the clear on PARITY
packets so receivers can index them without decoding.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import FrozenInstanceError, dataclass

from repro.crypto.cipher import EncryptedKey
from repro.errors import PacketDecodeError, PacketError

#: Total size, in bytes, of an ENC or PARITY packet (paper default).
DEFAULT_ENC_PACKET_SIZE = 1027

#: Wire size of one <encryption ID, ciphertext> pair: 2 + (16 + 4).
ENCRYPTION_ENTRY_SIZE = 22

#: ENC header: type/msg, block, seq, flags, maxKID(2), frm(2), to(2), count(2).
ENC_HEADER_SIZE = 12

#: First byte of an ENC packet covered by FEC (after type/msg/block/seq).
FEC_PAYLOAD_OFFSET = 3

_MAX_U16 = 0xFFFF
_CIPHERTEXT_SIZE = 20


class PacketType(enum.IntEnum):
    """The 2-bit packet type carried in every packet's first byte."""

    ENC = 0
    PARITY = 1
    USR = 2
    NACK = 3


def enc_packet_capacity(packet_size=DEFAULT_ENC_PACKET_SIZE):
    """Number of encryptions one ENC packet of ``packet_size`` holds."""
    capacity = (packet_size - ENC_HEADER_SIZE) // ENCRYPTION_ENTRY_SIZE
    if capacity < 1:
        raise PacketError(
            "packet size %d cannot hold any encryption" % packet_size
        )
    return capacity


def _check_u16(name, value):
    if not 0 <= value <= _MAX_U16:
        raise PacketError("%s=%r does not fit in 16 bits" % (name, value))
    return value


def _check_u8(name, value):
    if not 0 <= value <= 0xFF:
        raise PacketError("%s=%r does not fit in 8 bits" % (name, value))
    return value


def _pack_type_byte(packet_type, rekey_message_id):
    if not 0 <= rekey_message_id <= 0x3F:
        raise PacketError(
            "rekey message ID %r does not fit in 6 bits" % rekey_message_id
        )
    return (int(packet_type) << 6) | rekey_message_id


#: Packet types by the value of the 2-bit type field.
_PACKET_TYPES = tuple(PacketType)


def _unpack_type_byte(byte):
    return _PACKET_TYPES[byte >> 6], byte & 0x3F


_ENC_HEADER = struct.Struct(">BBBBHHHH")


@functools.lru_cache(maxsize=128)
def _entry_ids(count):
    """The layout that reads the IDs of ``count`` entries, skipping
    their ciphertexts."""
    return struct.Struct(">" + "H%dx" % _CIPHERTEXT_SIZE * count)


class EncPacket:
    """An ENC packet: the encryptions for users in [frm_id, to_id].

    A decoded packet is read header first.  :meth:`decode` validates
    the header and every entry's encryption ID straight from the bytes,
    but builds no :class:`EncryptedKey`: a receiver needs only the
    header of every packet but its own (block-ID estimation), and only
    its path's entries of its own.  :attr:`encryptions` builds the
    whole tuple on first read; :meth:`encryptions_for` builds just the
    entries asked for.  Decoded and constructed packets with the same
    fields are equal and hash equal.  Instances are immutable.
    """

    __slots__ = (
        "rekey_message_id",
        "block_id",
        "seq_in_block",
        "max_kid",
        "frm_id",
        "to_id",
        "is_duplicate",
        "_encryptions",
        "_ids",
        "_wire",
    )

    def __init__(
        self,
        rekey_message_id,
        block_id,
        seq_in_block,
        max_kid,
        frm_id,
        to_id,
        encryptions,
        is_duplicate=False,
    ):
        _check_u8("block_id", block_id)
        _check_u8("seq_in_block", seq_in_block)
        _check_u16("max_kid", max_kid)
        _check_u16("frm_id", frm_id)
        _check_u16("to_id", to_id)
        if frm_id > to_id:
            raise PacketError("frm_id %d > to_id %d" % (frm_id, to_id))
        encryptions = tuple(encryptions)
        for encryption in encryptions:
            if not isinstance(encryption, EncryptedKey):
                raise PacketError("encryptions must be EncryptedKey objects")
            _check_u16("encryption ID", encryption.encryption_id)
            if encryption.encryption_id == 0:
                raise PacketError("encryption ID 0 is reserved for padding")
            if len(encryption.ciphertext) != _CIPHERTEXT_SIZE:
                raise PacketError(
                    "ciphertext must be %d bytes, got %d"
                    % (_CIPHERTEXT_SIZE, len(encryption.ciphertext))
                )
        self._set(
            rekey_message_id,
            block_id,
            seq_in_block,
            max_kid,
            frm_id,
            to_id,
            is_duplicate,
            encryptions,
            None,
            None,
        )

    def _set(self, *values):
        # ``values`` come in ``__slots__`` order.
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return (self.__class__, self._fields())

    def _fields(self):
        return (
            self.rekey_message_id,
            self.block_id,
            self.seq_in_block,
            self.max_kid,
            self.frm_id,
            self.to_id,
            self.encryptions,
            self.is_duplicate,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            "EncPacket(rekey_message_id=%r, block_id=%r, seq_in_block=%r, "
            "max_kid=%r, frm_id=%r, to_id=%r, encryptions=%r, "
            "is_duplicate=%r)" % self._fields()
        )

    @property
    def packet_type(self):
        return PacketType.ENC

    @property
    def encryptions(self):
        """Every carried encryption, as a tuple of EncryptedKey."""
        encryptions = self._encryptions
        if encryptions is None:
            encryptions = tuple(map(self._entry, range(len(self._ids))))
            object.__setattr__(self, "_encryptions", encryptions)
        return encryptions

    def _entry(self, index):
        offset = ENC_HEADER_SIZE + index * ENCRYPTION_ENTRY_SIZE + 2
        return EncryptedKey(
            self._ids[index], self._wire[offset : offset + _CIPHERTEXT_SIZE]
        )

    def covers_user(self, user_id):
        """True iff this packet carries the encryptions of ``user_id``."""
        return self.frm_id <= user_id <= self.to_id

    def encryptions_for(self, wanted_ids):
        """The subset of carried encryptions whose IDs are in ``wanted_ids``."""
        wanted = set(wanted_ids)
        if self._encryptions is not None:
            return [e for e in self._encryptions if e.encryption_id in wanted]
        return [
            self._entry(index)
            for index, encryption_id in enumerate(self._ids)
            if encryption_id in wanted
        ]

    def encode(self, packet_size=DEFAULT_ENC_PACKET_SIZE):
        """Serialise to exactly ``packet_size`` bytes (zero padding)."""
        encryptions = self.encryptions
        if len(encryptions) > enc_packet_capacity(packet_size):
            raise PacketError(
                "%d encryptions exceed capacity %d"
                % (len(encryptions), enc_packet_capacity(packet_size))
            )
        header = _ENC_HEADER.pack(
            _pack_type_byte(PacketType.ENC, self.rekey_message_id),
            self.block_id,
            self.seq_in_block,
            1 if self.is_duplicate else 0,
            self.max_kid,
            self.frm_id,
            self.to_id,
            len(encryptions),
        )
        body = b"".join(
            struct.pack(">H", e.encryption_id) + e.ciphertext
            for e in encryptions
        )
        packet = header + body
        if len(packet) > packet_size:
            raise PacketError(
                "encoded packet is %d bytes > packet size %d"
                % (len(packet), packet_size)
            )
        return packet + b"\x00" * (packet_size - len(packet))

    @classmethod
    def decode(cls, data):
        """Parse an ENC packet from its wire bytes.

        Every malformation raises :class:`PacketDecodeError`, including
        field values the constructor would refuse (an inverted
        ``<frmID, toID>`` interval, the reserved encryption ID 0).
        """
        data = bytes(data)
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
        ) = _ENC_HEADER.unpack_from(data)
        if type_byte >> 6 != PacketType.ENC:
            raise PacketDecodeError("not an ENC packet")
        needed = ENC_HEADER_SIZE + count * ENCRYPTION_ENTRY_SIZE
        if len(data) < needed:
            raise PacketDecodeError(
                "ENC packet truncated: need %d bytes, have %d"
                % (needed, len(data))
            )
        if frm_id > to_id:
            raise PacketDecodeError("frm_id %d > to_id %d" % (frm_id, to_id))
        ids = _entry_ids(count).unpack_from(data, ENC_HEADER_SIZE)
        if 0 in ids:
            raise PacketDecodeError("encryption ID 0 is reserved for padding")
        packet = object.__new__(cls)
        packet._set(
            type_byte & 0x3F,
            block_id,
            seq_in_block,
            max_kid,
            frm_id,
            to_id,
            bool(flags & 1),
            None,
            ids,
            data,
        )
        return packet


@dataclass(frozen=True)
class ParityPacket:
    """A PARITY packet: FEC redundancy over one block's ENC payloads.

    ``seq_in_block`` is the codeword index: ``k + parity_row``, so a
    receiver can feed it straight into the RSE decoder.
    """

    rekey_message_id: int
    block_id: int
    seq_in_block: int
    payload: bytes

    def __post_init__(self):
        _check_u8("block_id", self.block_id)
        _check_u8("seq_in_block", self.seq_in_block)

    @property
    def packet_type(self):
        return PacketType.PARITY

    def encode(self):
        """Serialise; total size is 3 header bytes + payload."""
        return (
            struct.pack(
                ">BBB",
                _pack_type_byte(PacketType.PARITY, self.rekey_message_id),
                self.block_id,
                self.seq_in_block,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data):
        if len(data) < 3:
            raise PacketDecodeError("PARITY packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.PARITY:
            raise PacketDecodeError("not a PARITY packet")
        return cls(
            rekey_message_id=message_id,
            block_id=data[1],
            seq_in_block=data[2],
            payload=bytes(data[3:]),
        )


@dataclass(frozen=True)
class UsrPacket:
    """A USR packet: one user's encryptions, unicast.

    Small by construction — at most ``4 + 22 h`` bytes for tree height
    ``h`` — which is why the switch to unicast is cheap (§7.1).
    """

    rekey_message_id: int
    user_id: int
    encryptions: tuple

    def __post_init__(self):
        _check_u16("user_id", self.user_id)
        if len(self.encryptions) > 0xFF:
            raise PacketError("too many encryptions for a USR packet")
        for encryption in self.encryptions:
            if not isinstance(encryption, EncryptedKey):
                raise PacketError("encryptions must be EncryptedKey objects")
            _check_u16("encryption ID", encryption.encryption_id)

    @property
    def packet_type(self):
        return PacketType.USR

    def encode(self):
        header = struct.pack(
            ">BHB",
            _pack_type_byte(PacketType.USR, self.rekey_message_id),
            self.user_id,
            len(self.encryptions),
        )
        body = b"".join(
            struct.pack(">H", e.encryption_id) + e.ciphertext
            for e in self.encryptions
        )
        return header + body

    @classmethod
    def decode(cls, data):
        if len(data) < 4:
            raise PacketDecodeError("USR packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.USR:
            raise PacketDecodeError("not a USR packet")
        (user_id, count) = struct.unpack(">HB", data[1:4])
        encryptions = []
        offset = 4
        for _ in range(count):
            if offset + ENCRYPTION_ENTRY_SIZE > len(data):
                raise PacketDecodeError("USR packet truncated")
            (encryption_id,) = struct.unpack(
                ">H", data[offset : offset + 2]
            )
            encryptions.append(
                EncryptedKey(
                    encryption_id,
                    data[offset + 2 : offset + ENCRYPTION_ENTRY_SIZE],
                )
            )
            offset += ENCRYPTION_ENTRY_SIZE
        return cls(
            rekey_message_id=message_id,
            user_id=user_id,
            encryptions=tuple(encryptions),
        )


@dataclass(frozen=True)
class NackRequest:
    """One entry of a NACK: ``n_parity`` packets wanted for ``block_id``."""

    block_id: int
    n_parity: int

    def __post_init__(self):
        _check_u8("block_id", self.block_id)
        _check_u8("n_parity", self.n_parity)
        if self.n_parity == 0:
            raise PacketError("a NACK entry must request at least 1 packet")


@dataclass(frozen=True)
class NackPacket:
    """A NACK: per-block parity shortfalls reported by one user."""

    rekey_message_id: int
    user_id: int
    requests: tuple

    def __post_init__(self):
        _check_u16("user_id", self.user_id)
        if not self.requests:
            raise PacketError("a NACK must carry at least one request")
        if len(self.requests) > 0xFF:
            raise PacketError("too many requests for one NACK")
        for request in self.requests:
            if not isinstance(request, NackRequest):
                raise PacketError("requests must be NackRequest objects")

    @property
    def packet_type(self):
        return PacketType.NACK

    @property
    def max_requested(self):
        """The largest per-block request (what AdjustRho aggregates)."""
        return max(r.n_parity for r in self.requests)

    def encode(self):
        header = struct.pack(
            ">BHB",
            _pack_type_byte(PacketType.NACK, self.rekey_message_id),
            self.user_id,
            len(self.requests),
        )
        body = b"".join(
            struct.pack(">BB", r.n_parity, r.block_id) for r in self.requests
        )
        return header + body

    @classmethod
    def decode(cls, data):
        if len(data) < 4:
            raise PacketDecodeError("NACK packet shorter than its header")
        packet_type, message_id = _unpack_type_byte(data[0])
        if packet_type is not PacketType.NACK:
            raise PacketDecodeError("not a NACK packet")
        (user_id, count) = struct.unpack(">HB", data[1:4])
        if len(data) < 4 + 2 * count:
            raise PacketDecodeError("NACK packet truncated")
        requests = tuple(
            NackRequest(block_id=data[4 + 2 * i + 1], n_parity=data[4 + 2 * i])
            for i in range(count)
        )
        return cls(
            rekey_message_id=message_id, user_id=user_id, requests=requests
        )


_DECODERS = {
    PacketType.ENC: EncPacket.decode,
    PacketType.PARITY: ParityPacket.decode,
    PacketType.USR: UsrPacket.decode,
    PacketType.NACK: NackPacket.decode,
}


def decode_packet(data):
    """Dispatch on the 2-bit type and decode any protocol packet."""
    if not data:
        raise PacketDecodeError("empty packet")
    return _DECODERS[data[0] >> 6](data)
