"""Key codec tests: order preservation is what the B+-trees rely on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codec import (MAX_KEY_INT, decode_key, decode_varints,
                                 encode_int, encode_key, encode_str,
                                 encode_varints, int_key_prefix,
                                 pack_key_int, split_varints)


class TestIntEncoding:
    def test_order_preserved(self):
        values = [0, 1, 2, 255, 256, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        encoded = [encode_int(v) for v in values]
        assert encoded == sorted(encoded)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_int(-1)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_int(2 ** 64)


class TestStrEncoding:
    def test_prefix_sorts_first(self):
        assert encode_str("ab") < encode_str("abc")

    def test_embedded_nul_handled(self):
        assert decode_key(encode_key("a\x00b")) == ("a\x00b",)

    def test_nul_ordering(self):
        # "a" < "a\x00" < "ab" must survive encoding.
        keys = [encode_str("a"), encode_str("a\x00"), encode_str("ab")]
        assert keys == sorted(keys)


class TestCompositeKeys:
    def test_roundtrip(self):
        key = encode_key("tag", 42, "suffix")
        assert decode_key(key) == ("tag", 42, "suffix")

    def test_component_order_dominates(self):
        assert encode_key("a", 99) < encode_key("b", 0)

    def test_int_within_same_prefix(self):
        assert encode_key("a", 1) < encode_key("a", 2)

    @pytest.mark.parametrize("label", [
        "a", "", "\x00", "nul\x00inside", "ends-in-nul\x00",
        "na\u00efve-\u00dcn\u00ef-\u6f22", "\x1fJim Gray", "\x1f\x00\x1f",
    ])
    def test_int_key_prefix_is_the_general_encoder_minus_the_int(self,
                                                                 label):
        # The Trie-Symbol probe builds both of its bounds this way; it
        # is the one place a key is not made by encode_key itself.
        prefix = int_key_prefix(label)
        for number in (0, 1, 255, 256, 2 ** 63, MAX_KEY_INT):
            key = prefix + pack_key_int(number)
            assert key == encode_key(label, number)
            assert int.from_bytes(key[len(prefix):], "big") == number
        assert int_key_prefix("tag", 7) + pack_key_int(9) == \
            encode_key("tag", 7, 9)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode_key(1.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            encode_key(True)


class TestVarints:
    def test_roundtrip_simple(self):
        values = [0, 1, 127, 128, 300, 2 ** 20]
        assert decode_varints(encode_varints(values)) == values

    def test_empty(self):
        assert decode_varints(encode_varints([])) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varints([-1])

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError):
            decode_varints(b"\x80")

    @pytest.mark.parametrize("values", [
        [0], [127], [128], [255], [256], [16383], [16384], [2 ** 32],
        [2 ** 64 - 1], [0, 127, 5], [127, 128, 0], [200, 1, 255, 3],
        [2 ** 64 - 1, 0, 300, 127], []])
    def test_bytes_equal_the_per_number_loop(self, values):
        """The all-one-byte fast path writes what LEB128 does: 128..255
        are two bytes each, never the one ``bytes(values)`` gives."""
        expected = bytearray()
        for number in values:
            while True:
                byte, number = number & 0x7F, number >> 7
                expected.append(byte | 0x80 if number else byte)
                if not number:
                    break
        assert encode_varints(values) == bytes(expected)
        assert decode_varints(encode_varints(values)) == values

    @pytest.mark.parametrize("values", [[5, -1], [-1, 127], [300, -2]])
    def test_negative_rejected_beside_others(self, values):
        with pytest.raises(ValueError):
            encode_varints(values)


class TestBoundaryRoundtrips:
    """Edges the WAL payload codec leans on (see storage/wal.py)."""

    def test_zero_length_payload_after_varints(self):
        # A REC_PAGE payload is varint(page_id) + image; an empty
        # remainder must decode cleanly, not raise.
        data = encode_varints([42])
        (values, end) = split_varints(data, 1)
        assert values == [42]
        assert data[end:] == b""

    def test_split_reads_exactly_count(self):
        data = encode_varints([1, 300, 0]) + b"payload"
        values, end = split_varints(data, 3)
        assert values == [1, 300, 0]
        assert data[end:] == b"payload"

    def test_split_with_start_offset(self):
        data = b"\xff\xff" + encode_varints([7])
        values, end = split_varints(data, 1, start=2)
        assert values == [7]
        assert end == len(data)

    def test_split_truncated_raises(self):
        with pytest.raises(ValueError):
            split_varints(b"\x80", 1)

    def test_split_count_beyond_stream_raises(self):
        with pytest.raises(ValueError):
            split_varints(encode_varints([5]), 2)

    def test_max_width_varints(self):
        # 2**64 - 1 needs ten 7-bit groups: the widest varint the page
        # ids and commit sequence numbers can ever produce.
        top = 2 ** 64 - 1
        encoded = encode_varints([top, 0, top])
        assert len(encoded) == 10 + 1 + 10
        values, end = split_varints(encoded, 3)
        assert values == [top, 0, top]
        assert end == len(encoded)

    def test_single_byte_boundary(self):
        assert len(encode_varints([127])) == 1
        assert len(encode_varints([128])) == 2

    def test_non_ascii_tags_roundtrip(self):
        for tag in ("bücher", "記事", "café-menu"):
            assert decode_key(encode_key(tag, 3)) == (tag, 3)

    def test_non_ascii_order_is_bytewise(self):
        tags = sorted(["a", "z", "é", "記"],
                      key=lambda t: t.encode("utf-8"))
        encoded = [encode_str(t) for t in tags]
        assert encoded == sorted(encoded)

    def test_empty_string_component(self):
        assert decode_key(encode_key("", 0)) == ("", 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.text(max_size=8),
    st.integers(min_value=0, max_value=2 ** 64 - 1)), min_size=2, max_size=6))
def test_composite_key_order_matches_tuple_order(pairs):
    encoded = [(encode_key(text, number), (text, number))
               for text, number in pairs]
    by_bytes = sorted(encoded, key=lambda item: item[0])
    by_tuple = sorted(encoded, key=lambda item: item[1])
    assert [item[1] for item in by_bytes] == [item[1] for item in by_tuple]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=50))
def test_varint_roundtrip_property(values):
    assert decode_varints(encode_varints(values)) == values


def reference_decode_varints(data):
    """The plain LEB128 loop ``decode_varints``'s fast paths must match."""
    numbers = []
    shift = current = 0
    for byte in data:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            numbers.append(current)
            shift = current = 0
    if shift:
        raise ValueError("truncated varint stream")
    return numbers


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=40),
    st.lists(st.integers(0, 2 ** 14 - 1), max_size=40).map(encode_varints),
    st.lists(st.integers(0, 2 ** 40), max_size=20).map(encode_varints),
    st.lists(st.integers(0, 2 ** 14 - 1), min_size=1, max_size=20).map(
        lambda values: encode_varints(values)[:-1])))
def test_varint_decode_equals_the_reference_loop(data):
    """Any bytes -- one- and two-byte streams, longer varints, streams
    cut inside a varint -- decode as the loop decodes them, or raise
    ``ValueError`` as it does."""
    try:
        expected = reference_decode_varints(data)
    except ValueError:
        with pytest.raises(ValueError):
            decode_varints(data)
    else:
        assert decode_varints(data) == expected
