"""B+-tree tests: operations, splits, scans, bulk load, invariants."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.bptree import _U16, NO_PAGE, BPlusTree, _Node, _parse_node
from repro.storage.buffer_pool import BufferPool
from repro.storage.codec import encode_int
from repro.storage.errors import (KeyNotFoundError, PageCorruptionError,
                                  PageOverflowError)
from repro.storage.pager import Pager


def make_tree(page_size=256, capacity=64):
    pool = BufferPool(Pager.in_memory(page_size=page_size),
                      capacity=capacity)
    return BPlusTree.create(pool), pool


class TestBasicOperations:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.get(encode_int(1)) is None

    def test_insert_and_search(self):
        tree, _ = make_tree()
        tree.insert(encode_int(5), b"five")
        assert tree.search(encode_int(5)) == b"five"

    def test_search_missing_raises(self):
        tree, _ = make_tree()
        tree.insert(encode_int(1), b"x")
        with pytest.raises(KeyNotFoundError):
            tree.search(encode_int(2))

    def test_contains(self):
        tree, _ = make_tree()
        tree.insert(encode_int(3), b"")
        assert tree.contains(encode_int(3))
        assert not tree.contains(encode_int(4))

    def test_non_bytes_rejected(self):
        tree, _ = make_tree()
        with pytest.raises(TypeError):
            tree.insert(7, b"x")
        with pytest.raises(TypeError):
            tree.insert(encode_int(7), 9)

    def test_len_tracks_inserts(self):
        tree, _ = make_tree()
        for i in range(10):
            tree.insert(encode_int(i), b"v")
        assert len(tree) == 10


class TestSplitsAndGrowth:
    def test_many_inserts_force_splits(self):
        tree, _ = make_tree(page_size=256)
        for i in range(500):
            tree.insert(encode_int(i), b"v%d" % i)
        assert tree.height > 1
        assert len(tree) == 500
        tree.check_invariants()

    def test_reverse_insert_order(self):
        tree, _ = make_tree(page_size=256)
        for i in reversed(range(300)):
            tree.insert(encode_int(i), b"x")
        assert [k for k, _ in tree.items()] == [encode_int(i)
                                                for i in range(300)]
        tree.check_invariants()

    def test_random_insert_order(self):
        tree, _ = make_tree(page_size=256)
        keys = list(range(400))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(encode_int(key), str(key).encode())
        for key in keys:
            assert tree.search(encode_int(key)) == str(key).encode()
        tree.check_invariants()


    @pytest.mark.parametrize("key, value", [
        (b"Z" * 300, b""),          # the key alone outgrows a page
        (b"Z", b"v" * 300),         # the value does
        (b"Z" * 246, b""),          # fits a leaf, not as a separator
    ], ids=["key", "value", "separator"])
    def test_oversize_entry_rejected_before_any_node_changes(self, key,
                                                             value):
        # An overflow noticed only at serialisation would leave a
        # half-applied split in the decoded cache (phantom key, real
        # keys missing) until the page happened to be evicted.
        tree, pool = make_tree(page_size=256)
        for i in range(40):
            tree.insert(b"k%03d" % i, b"v")
        before = list(tree.items())
        with pytest.raises(PageOverflowError):
            tree.insert(key, value)
        assert list(tree.items()) == before
        assert len(tree) == len(before) == 40
        pool.flush_and_clear()
        assert list(tree.items()) == before
        tree.check_invariants()

    def test_uneven_entries_split_at_a_byte_balanced_point(self):
        # Halving c, d, e by count puts d and e (257 bytes) on one
        # 256-byte page, so the leaf must split as [c d | e].
        tree, _ = make_tree(page_size=256)
        entries = [(b"a", 10), (b"b", 10), (b"c", 110), (b"d", 120),
                   (b"e", 120)]
        for key, size in entries:
            tree.insert(key, b"v" * size)
        assert [key for key, _ in tree.items()] == [b"a", b"b", b"c",
                                                    b"d", b"e"]
        assert len(tree) == 5
        tree.check_invariants()

    def test_entry_no_two_way_split_fits_changes_nothing(self):
        # [a, b, c] with b alone filling a page: neither [a | b c] nor
        # [a b | c] fits, so the insert is refused -- before any page
        # is allocated or any memoised node edited.
        pager = Pager.in_memory(page_size=256)
        pool = BufferPool(pager, capacity=64)
        tree = BPlusTree.create(pool)
        tree.insert(b"a", b"v" * 119)
        tree.insert(b"c", b"v" * 119)
        before, pages = list(tree.items()), pager.num_pages
        with pytest.raises(PageOverflowError):
            tree.insert(b"b", b"v" * 244)
        assert list(tree.items()) == before
        assert (len(tree), pager.num_pages) == (2, pages)
        pool.flush_and_clear()
        assert list(tree.items()) == before
        tree.check_invariants()


class TestDuplicates:
    def test_duplicate_keys_all_returned(self):
        tree, _ = make_tree()
        for i in range(5):
            tree.insert(encode_int(7), b"v%d" % i)
        values = [v for _, v in tree.range_scan(encode_int(7), encode_int(7),
                                                inclusive_hi=True)]
        assert sorted(values) == [b"v0", b"v1", b"v2", b"v3", b"v4"]

    def test_duplicates_across_splits(self):
        tree, _ = make_tree(page_size=256)
        for i in range(200):
            tree.insert(encode_int(50), b"d%03d" % i)
        count = tree.count_range(encode_int(50), encode_int(50),
                                 inclusive_hi=True)
        assert count == 200
        tree.check_invariants()


class TestRangeScans:
    def test_half_open_range(self):
        tree, _ = make_tree()
        for i in range(20):
            tree.insert(encode_int(i), b"")
        keys = [k for k, _ in tree.range_scan(encode_int(5), encode_int(10))]
        assert keys == [encode_int(i) for i in range(5, 10)]

    def test_inclusive_range(self):
        tree, _ = make_tree()
        for i in range(20):
            tree.insert(encode_int(i), b"")
        keys = [k for k, _ in tree.range_scan(encode_int(5), encode_int(10),
                                              inclusive_hi=True)]
        assert keys == [encode_int(i) for i in range(5, 11)]

    def test_open_ended_scan(self):
        tree, _ = make_tree()
        for i in (3, 1, 2):
            tree.insert(encode_int(i), b"")
        assert [k for k, _ in tree.range_scan(encode_int(2), None)] == [
            encode_int(2), encode_int(3)]

    def test_scan_empty_range(self):
        tree, _ = make_tree()
        tree.insert(encode_int(1), b"")
        assert list(tree.range_scan(encode_int(5), encode_int(9))) == []

    def test_scan_crosses_leaves(self):
        tree, _ = make_tree(page_size=256)
        for i in range(300):
            tree.insert(encode_int(i), b"")
        keys = [k for k, _ in tree.range_scan(encode_int(10),
                                              encode_int(290))]
        assert len(keys) == 280


    def test_leaf_slices_are_the_scan_and_stay_lazy(self):
        tree, pool = make_tree(page_size=256)
        for i in range(300):
            tree.insert(encode_int(i), b"%d" % i)
        lo, hi = encode_int(10), encode_int(290)
        slices = list(tree.leaf_slices(lo, hi))
        assert len(slices) > 1
        assert all(start < stop for _, start, stop in slices)
        flat = [pair for node, start, stop in slices
                for pair in zip(node.keys[start:stop],
                                node.values[start:stop])]
        assert flat == list(tree.range_scan(lo, hi))
        assert [v for n, a, b in tree.leaf_slices(lo, lo, inclusive_hi=True)
                for v in n.values[a:b]] == [b"10"]
        # Abandoning the walk after its first slice touches no page
        # beyond the descent: a leaf's successor loads on demand only.
        before = pool.stats.read("logical_reads")
        next(tree.leaf_slices(lo, hi))
        assert pool.stats.read("logical_reads") - before == tree.height


class TestSeek:
    @staticmethod
    def duplicates_tree():
        """A tree whose runs of equal keys straddle leaf boundaries."""
        tree, pool = make_tree(page_size=256)
        for i in range(400):
            tree.insert(encode_int(i // 7), b"%d" % i)
        return tree, pool

    def test_seek_lands_on_the_first_entry_at_or_above(self):
        tree, _ = self.duplicates_tree()
        for lo in (encode_int(0), encode_int(13), encode_int(56),
                   encode_int(57), None):
            leaf, index = tree.seek(lo)
            flat = [key for key, _ in tree.range_scan(lo)]
            rest = [key for node, start, stop in tree.leaf_slices(lo)
                    for key in node.keys[start:stop]]
            assert flat == rest
            if index < len(leaf.keys):
                assert leaf.keys[index] == flat[0]

    def test_a_finger_answers_only_strictly_inside_its_keys(self):
        """From any leaf as finger, ``seek`` answers as the descent does
        -- also for a bound equal to a finger's first key, whose run may
        begin in the leaf before -- and it reads no page when the bound
        lies strictly inside the finger's keys."""
        tree, pool = self.duplicates_tree()
        leaves = [node for node, _, _ in tree.leaf_slices()]
        assert len(leaves) > 4
        for lo in [encode_int(i) for i in range(0, 60)]:
            want = tree.seek(lo)
            for near in leaves:
                before = pool.stats.read("logical_reads")
                leaf, index = tree.seek(lo, near)
                assert (leaf.page_id, index) == (want[0].page_id, want[1])
                if near.keys[0] < lo <= near.keys[-1]:
                    assert leaf is near
                    assert pool.stats.read("logical_reads") == before + 1

    def test_a_scan_from_a_finger_is_the_scan(self):
        tree, _ = self.duplicates_tree()
        leaves = [node for node, _, _ in tree.leaf_slices()]
        lo, hi = encode_int(20), encode_int(40)
        want = list(tree.range_scan(lo, hi, inclusive_hi=True))
        for near in leaves:
            assert [pair for node, start, stop
                    in tree.leaf_slices(lo, hi, True, near)
                    for pair in zip(node.keys[start:stop],
                                    node.values[start:stop])] == want

    def test_a_finger_the_pool_evicted_is_read_again(self):
        """A finger is requested from the pool, never trusted in its
        place: once its page has left the pool, a seek from it reads
        that page -- and only that page -- again."""
        tree, pool = self.duplicates_tree()
        near = next(node for node, _, _ in tree.leaf_slices()
                    if node.keys[0] < node.keys[-1])
        lo = near.keys[-1]
        want = tree.seek(lo)
        pool.flush_and_clear()
        before = [pool.stats.read(field)
                  for field in ("logical_reads", "physical_reads")]
        leaf, index = tree.seek(lo, near)
        assert (leaf.page_id, index) == (want[0].page_id, want[1])
        assert [pool.stats.read(field) - start for field, start in zip(
            ("logical_reads", "physical_reads"), before)] == [1, 1]


@pytest.fixture(scope="module")
def landing_leaf_tree():
    """A bulk-loaded tree at least three levels tall at 128-byte pages,
    runs of equal keys straddling its leaves, in a pool that holds all
    of it."""
    pool = BufferPool(Pager.in_memory(page_size=128), capacity=4096)
    tree = BPlusTree.bulk_load(pool, ((encode_int(i // 3), b"%d" % (i % 10))
                                      for i in range(600)))
    assert tree.height >= 3
    return tree, pool


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 40),
                          st.booleans()), min_size=1, max_size=25))
def test_probes_resumed_from_landing_leaves_read_what_descents_read(
        landing_leaf_tree, probes):
    """Monotone probes (each ``step`` past the last one's lower bound,
    often inside its range), each seeking from the leaf the previous one
    landed on (the first slice of ``leaf_slices``), yield the slices
    fresh descents yield and -- cold, in a pool that holds the tree --
    make the same physical reads: every descent a finger skips is above
    a leaf an earlier probe descended to.  A finger taken from the last
    slice instead fails this."""
    tree, pool = landing_leaf_tree

    def run(resume):
        pool.flush_and_clear()
        before = pool.stats.read("physical_reads")
        finger = None
        seen = []
        lo = 0
        for step, span, inclusive in probes:
            lo += step
            slices = list(tree.leaf_slices(encode_int(lo),
                                           encode_int(lo + span), inclusive,
                                           finger if resume else None))
            finger = slices[0][0]
            seen.append([(leaf.page_id, start, stop)
                         for leaf, start, stop in slices])
        return seen, pool.stats.read("physical_reads") - before

    assert run(resume=True) == run(resume=False)


class TestDelete:
    def test_delete_existing(self):
        tree, _ = make_tree()
        tree.insert(encode_int(1), b"x")
        tree.delete(encode_int(1))
        assert not tree.contains(encode_int(1))
        assert len(tree) == 0

    def test_delete_missing_raises(self):
        tree, _ = make_tree()
        with pytest.raises(KeyNotFoundError):
            tree.delete(encode_int(9))

    def test_delete_specific_value(self):
        tree, _ = make_tree()
        tree.insert(encode_int(1), b"a")
        tree.insert(encode_int(1), b"b")
        tree.delete(encode_int(1), value=b"b")
        values = [v for _, v in tree.range_scan(encode_int(1), encode_int(1),
                                                inclusive_hi=True)]
        assert values == [b"a"]

    def test_delete_across_leaves(self):
        tree, _ = make_tree(page_size=256)
        for i in range(300):
            tree.insert(encode_int(i), b"")
        for i in range(0, 300, 2):
            tree.delete(encode_int(i))
        assert len(tree) == 150
        remaining = [k for k, _ in tree.items()]
        assert remaining == [encode_int(i) for i in range(1, 300, 2)]


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        pairs = [(encode_int(i), b"v%d" % i) for i in range(500)]
        tree = BPlusTree.bulk_load(pool, pairs)
        assert len(tree) == 500
        assert [k for k, _ in tree.items()] == [p[0] for p in pairs]
        tree.check_invariants()

    def test_bulk_load_empty(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        tree = BPlusTree.bulk_load(pool, [])
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_bulk_load_rejects_unsorted(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(pool, [(encode_int(2), b""),
                                       (encode_int(1), b"")])

    def test_bulk_load_then_insert(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        pairs = [(encode_int(i * 2), b"") for i in range(200)]
        tree = BPlusTree.bulk_load(pool, pairs)
        for i in range(50):
            tree.insert(encode_int(i * 2 + 1), b"odd")
        assert len(tree) == 250
        tree.check_invariants()

    def test_bulk_load_with_duplicates(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        pairs = [(encode_int(1), b"a")] * 100 + [(encode_int(2), b"b")] * 50
        tree = BPlusTree.bulk_load(pool, pairs)
        assert tree.count_range(encode_int(1), encode_int(1),
                                inclusive_hi=True) == 100
        tree.check_invariants()


class TestMultipleTreesOnePool:
    def test_two_trees_coexist(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        tree_a = BPlusTree.create(pool)
        tree_b = BPlusTree.create(pool)
        for i in range(100):
            tree_a.insert(encode_int(i), b"a")
            tree_b.insert(encode_int(i), b"b")
        assert all(v == b"a" for _, v in tree_a.items())
        assert all(v == b"b" for _, v in tree_b.items())

    def test_attach_by_meta_page(self):
        pool = BufferPool(Pager.in_memory(page_size=256))
        tree = BPlusTree.create(pool)
        tree.insert(encode_int(1), b"x")
        again = BPlusTree.attach(pool, tree.meta_page_id)
        assert again.search(encode_int(1)) == b"x"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=60)),
                max_size=150))
def test_bptree_matches_model_under_mixed_workload(operations):
    """Property test: tree behaves like a sorted multimap."""
    tree, _ = make_tree(page_size=256)
    model = []
    for is_insert, key in operations:
        if is_insert:
            tree.insert(encode_int(key), str(key).encode())
            model.append(key)
        else:
            if key in model:
                tree.delete(encode_int(key))
                model.remove(key)
            else:
                with pytest.raises(KeyNotFoundError):
                    tree.delete(encode_int(key))
    assert [k for k, _ in tree.items()] == [encode_int(k)
                                            for k in sorted(model)]
    tree.check_invariants()


# -------------------------------------------------------- the page codec

#: Page size of the codec tests: small enough that entries of every
#: size, and full pages, are cheap to draw.
CODEC_PAGE = 128

#: Bytes a page spends on its header.
HEADER = 7


@st.composite
def page_nodes(draw):
    """``(is_leaf, keys, payload, link)`` for a node that fits one
    ``CODEC_PAGE`` page: 0 entries up to a full page, keys and values
    of 0 bytes up to the largest that fits."""
    is_leaf = draw(st.booleans())
    overhead = 4 if is_leaf else 6
    room = CODEC_PAGE - HEADER
    keys, payload = [], []
    while room >= overhead and draw(st.booleans()):
        key = draw(st.binary(max_size=room - overhead))
        room -= overhead + len(key)
        if is_leaf:
            item = draw(st.binary(max_size=room))
            room -= len(item)
        else:
            item = draw(st.integers(0, NO_PAGE))
        keys.append(key)
        payload.append(item)
    link = draw(st.integers(0, NO_PAGE))
    return is_leaf, keys, payload, link


def full_page(is_leaf):
    """Zero-length entries to the last byte of the page."""
    count = (CODEC_PAGE - HEADER) // (4 if is_leaf else 6)
    return is_leaf, [b""] * count, [b"" if is_leaf else 7] * count, 3


@settings(max_examples=150, deadline=None)
@given(page_nodes())
@example((True, [], [], NO_PAGE))
@example((False, [], [], 0))
@example(full_page(True))
@example(full_page(False))
@example((True, [b"k" * (CODEC_PAGE - HEADER - 4)], [b""], NO_PAGE))
@example((True, [b""], [b"v" * (CODEC_PAGE - HEADER - 4)], NO_PAGE))
@example((False, [b"k" * (CODEC_PAGE - HEADER - 6)], [NO_PAGE], 5))
def test_the_page_codec_round_trips(node_spec):
    is_leaf, keys, payload, link = node_spec
    pool = BufferPool(Pager.in_memory(page_size=CODEC_PAGE), capacity=8)
    tree = BPlusTree.create(pool)
    node = _Node(pool.new_page()[0], is_leaf)
    node.keys = keys
    if is_leaf:
        node.values, node.next_leaf = payload, link
    else:
        node.children = [link] + payload
    tree._save(node)
    parsed = _parse_node(node.page_id, pool.get(node.page_id))
    assert (parsed.is_leaf, parsed.keys, parsed.values, parsed.children,
            parsed.next_leaf) == (is_leaf, node.keys, node.values,
                                  node.children, node.next_leaf)


def malformed_leaf(page_size, count=None, klen=None):
    """A one-entry leaf page whose count or key length is overwritten."""
    pool = BufferPool(Pager.in_memory(page_size=page_size), capacity=4)
    tree = BPlusTree.create(pool)
    tree.insert(b"key", b"value")
    leaf = tree.seek(None)[0].page_id
    image = bytearray(pool.get(leaf))
    if count is not None:
        image[1:3] = _U16.pack(count)
    if klen is not None:
        image[HEADER:HEADER + 2] = _U16.pack(klen)
    pool.put(leaf, image)
    return tree, leaf


@pytest.mark.parametrize("damage", [{"count": 65535}, {"klen": 2047}],
                         ids=["count", "klen"])
def test_a_page_whose_entries_run_past_its_end_is_corrupt(damage):
    tree, leaf = malformed_leaf(1024, **damage)
    with pytest.raises(PageCorruptionError) as excinfo:
        tree.get(b"key")
    assert excinfo.value.page_id == leaf
