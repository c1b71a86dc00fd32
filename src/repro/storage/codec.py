"""Order-preserving key encoding for B+-tree keys.

Composite keys (e.g. ViST's ``(symbol, prefix, LeftPos)``) must compare in
bytewise order exactly as their component tuples compare in Python.  The
encoding here guarantees that:

- integers become 8-byte big-endian unsigned values,
- strings become UTF-8 with ``0x00`` escaped, terminated by ``0x00 0x00``
  (so a string that is a strict prefix of another sorts first),
- tuples are the concatenation of their encoded components, prefixed by a
  one-byte type marker per component so heterogeneous keys stay unambiguous.
"""

from __future__ import annotations

import struct
import zlib

_INT_MARK = b"\x01"
_STR_MARK = b"\x02"
_INT_STRUCT = struct.Struct(">Q")

#: Largest integer representable in a key (matches the 8-byte ranges the
#: paper uses to label virtual-trie nodes).
MAX_KEY_INT = 2 ** 64 - 1


#: Struct mixing a page id into its checksum.
_PAGE_ID_STRUCT = struct.Struct(">Q")


def page_checksum(page_id, payload):
    """crc32 of a page payload, salted with its page id.

    Folding the page id into the checksum is what catches *misdirected*
    writes: a page written whole and intact but at the wrong offset has
    a perfectly self-consistent payload, so a payload-only checksum
    would verify it happily.  Salting with the id the reader expects
    makes the swap fail verification at both landing sites.
    """
    return zlib.crc32(payload, zlib.crc32(
        _PAGE_ID_STRUCT.pack(page_id))) & 0xFFFFFFFF


def encode_int(number):
    """Encode a non-negative integer, preserving numeric order."""
    if not 0 <= number <= MAX_KEY_INT:
        raise ValueError(f"key integer out of range: {number}")
    return _INT_STRUCT.pack(number)


def encode_str(text):
    """Encode a string, preserving lexicographic order, with terminator."""
    raw = text.encode("utf-8").replace(b"\x00", b"\x00\xff")
    return raw + b"\x00\x00"


def encode_key(*parts):
    """Encode a composite key from int and str components."""
    chunks = []
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("bool is not a supported key component")
        if isinstance(part, int):
            chunks.append(_INT_MARK)
            chunks.append(encode_int(part))
        elif isinstance(part, str):
            chunks.append(_STR_MARK)
            chunks.append(encode_str(part))
        else:
            raise TypeError(f"unsupported key component: {type(part).__name__}")
    return b"".join(chunks)


def int_key_prefix(*parts):
    """The bytes every ``encode_key(*parts, n)`` shares, for integer ``n``.

    ``int_key_prefix(*parts) + pack_key_int(n) == encode_key(*parts, n)``:
    a caller that probes many integers under one fixed prefix (the
    Trie-Symbol index: one label, varying LeftPos) encodes the prefix
    once and pays one struct pack per key.
    """
    return encode_key(*parts) + _INT_MARK


#: Unchecked twin of :func:`encode_int` for :func:`int_key_prefix` users
#: (``struct.error`` instead of ``ValueError`` when out of range).
pack_key_int = _INT_STRUCT.pack


def encode_varints(numbers):
    """Encode a list of non-negative integers as LEB128 varints.

    A value in 0..127 is one byte, itself; when every value is, the
    list's ``bytes`` is the encoding.  (``bytes`` alone would also take
    128..255, whose varints are two bytes.)
    """
    if numbers and 0 <= min(numbers) and max(numbers) <= 0x7F:
        return bytes(numbers)
    out = bytearray()
    append = out.append
    for number in numbers:
        if 0 <= number <= 0x7F:
            append(number)
            continue
        if number < 0:
            raise ValueError("varints encode non-negative integers only")
        while number > 0x7F:
            append(number & 0x7F | 0x80)
            number >>= 7
        append(number)
    return bytes(out)


#: Maps a byte to 1 when it carries the varint continuation bit, else 0.
_CONTINUES = bytes(byte >> 7 for byte in range(256))


def decode_varints(data):
    """Decode a LEB128 varint stream back into a list of integers.

    Two fast paths give what the loop gives: a stream of one-byte
    varints is its bytes, and one of one- and two-byte varints -- no two
    adjacent bytes, nor the last, carrying the continuation bit -- pairs
    each continuation byte with the next.  Anything else (longer
    varints, a truncated stream) takes the loop.
    """
    if data.isascii():
        return list(data)
    if data[-1] < 0x80 and b"\x01\x01" not in data.translate(_CONTINUES):
        pairs = iter(data)
        return [byte if byte < 0x80 else byte - 0x80 + (next(pairs) << 7)
                for byte in pairs]
    numbers = []
    shift = 0
    current = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            numbers.append(current)
            current = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint stream")
    return numbers


def split_varints(data, count, start=0):
    """Decode exactly ``count`` varints from ``data`` starting at ``start``.

    Returns ``(values, end)`` where ``end`` is the offset just past the
    last consumed byte -- the remainder of ``data`` is the caller's
    (the WAL uses this to peel a varint header off a page-image
    payload without copying the image).  Raises :class:`ValueError` on
    a truncated stream.
    """
    values = []
    pos = start
    length = len(data)
    for _ in range(count):
        current = 0
        shift = 0
        while True:
            if pos >= length:
                raise ValueError("truncated varint stream")
            byte = data[pos]
            pos += 1
            current |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        values.append(current)
    return values, pos


def decode_key(data):
    """Decode a composite key back into its component tuple."""
    parts = []
    pos = 0
    length = len(data)
    while pos < length:
        marker = data[pos:pos + 1]
        pos += 1
        if marker == _INT_MARK:
            parts.append(_INT_STRUCT.unpack_from(data, pos)[0])
            pos += 8
        elif marker == _STR_MARK:
            # Inside the escaped body every 0x00 is followed by 0xff, so the
            # first 0x00 0x00 pair is necessarily the terminator.
            end = data.find(b"\x00\x00", pos)
            if end < 0:
                raise ValueError("unterminated string component")
            raw = data[pos:end].replace(b"\x00\xff", b"\x00")
            parts.append(raw.decode("utf-8"))
            pos = end + 2
        else:
            raise ValueError(f"bad key marker {marker!r} at {pos - 1}")
    return tuple(parts)
