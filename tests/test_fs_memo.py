"""The file-system model's memo tables: sound, unshared-by-mutation, bounded.

``repro.fs.memo`` caches three derivations — metadata text → decoded JSON,
file content → SHA-1, path string → normalised path (plus the serialized
superblock) — and a cache that cannot be caught lying proves nothing, so:

* **(i) cold vs warm** — the full seq-1 space of all four file systems under
  ``prefix`` and ``torn``, every memo emptied before every mount, against the
  session's warm run: the same ``canonical_dict()`` per workload and the same
  ``_serialize_meta()`` + ``logical_state()`` of every mounted file system.
* **(ii) aliasing** — decoded payloads are handed out shared; the check
  pipeline (the ``write`` check mutates and tears down the recovered tree),
  further operations and a ``sync`` on one mount must leave them untouched.
* **(iii) content edge cases** — the key is the text, not the block number
  and not the padding.
* **(iv) eviction** — every test here runs a second time with each memo
  capped at one entry (for (i) that is the variant compared); charged and
  measured bytes stay inside the budgets, whose sum stays inside 1 MiB.
* **(v) seeded-unsound variants** — keying the decode memo on the block
  number, or the data hash on ``(ino, size)``, makes (i) fail.
"""

import contextlib
import copy
import hashlib
import json
from sys import getsizeof

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashmonkey import CrashMonkey, CrashStateGenerator
from repro.fs import get_fs_class, inode as fs_inode, layout, memo
from repro.fs.base import AbstractFileSystem
from repro.storage import BLOCK_SIZE, BlockDevice, CowDevice
from repro.storage.block import compose_torn_block
from repro.workload import parse_workload

import differential
from conftest import SMALL_DEVICE_BLOCKS
from differential import ALL_FS


def measured_bytes(value) -> int:
    """``getsizeof`` over everything reachable from ``value`` (the test's own
    measure of what a memo keeps alive, independent of what it charges)."""
    total, stack, seen = 0, [value], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


def assert_memos_within_budget():
    assert sum(table.budget for table in memo.MEMOS) <= memo.TOTAL_BUDGET == 1 << 20
    for table in memo.MEMOS:
        assert table.resident == sum(table._costs.values()) <= table.budget, table.name
        assert len(table) <= memo.MAX_ENTRIES, table.name
        measured = measured_bytes([table._entries, table._costs])  # keys shared, counted once
        assert measured <= table.budget, (table.name, measured, table.resident)


def one_entry(patch):
    memo.clear_all()
    patch.setattr(memo, "MAX_ENTRIES", 1)


@pytest.fixture(autouse=True, params=["default-capacity", "one-entry"])
def capacity(request):
    """(iv): the whole file, a second time with every memo capped at one entry."""
    memo.clear_all()
    with (differential.patched(one_entry) if request.param == "one-entry"
          else contextlib.nullcontext()):
        yield request.param
        assert_memos_within_budget()
    memo.clear_all()


# ------------------------------------------------------------------ (i) cold vs warm


def cold(patch):
    """Every memo emptied before every mount."""
    real_mount = AbstractFileSystem.mount

    def forgetful_mount(fs, *args, **kwargs):
        memo.clear_all()
        real_mount(fs, *args, **kwargs)

    patch.setattr(AbstractFileSystem, "mount", forgetful_mount)


def recovered(patch):
    """Observer: what every mount recovered, and how full each memo ended."""
    seen = {"mounts": []}
    real_mount = AbstractFileSystem.mount

    def observed_mount(fs, *args, **kwargs):
        real_mount(fs, *args, **kwargs)
        seen["mounts"].append((copy.deepcopy(fs._serialize_meta()), fs.logical_state()))

    patch.setattr(AbstractFileSystem, "mount", observed_mount)
    yield seen
    assert_memos_within_budget()
    seen["entries"] = [len(table) for table in memo.MEMOS]


def assert_memos_change_nothing(fs_name: str, plan: str, variant=None):
    warm = differential.reference(fs_name, crash_plan=plan, observe=recovered)
    other = differential.run(fs_name, variant, crash_plan=plan, observe=recovered)
    assert len(warm.results) == 465 and len(warm.seen["mounts"]) > 100
    differential.assert_same(other, warm)
    assert other.seen["mounts"] == warm.seen["mounts"]
    return warm


@pytest.mark.parametrize("plan", ["prefix", "torn"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_warm_memos_change_nothing_on_full_seq1(fs_name, plan, capacity):
    """Cold at the default capacity; warm at the one entry ``capacity`` installed."""
    warm = assert_memos_change_nothing(fs_name, plan,
                                       cold if capacity == "default-capacity" else None)
    if fs_name == "logfs" or (plan == "torn" and fs_name != "verifs"):
        assert any(result.bug_reports for result in warm.results), \
            "the comparison must cover failing states"
    assert all(entries > 1 for entries in warm.seen["entries"]), \
        "every memo must have been used"


# ------------------------------------------------------------------ (ii) aliasing

ALIASING_WORKLOAD = """
mkdir A
creat A/foo
write A/foo 0 8192
setxattr A/foo user.k v1
link A/foo A/bar
symlink A/foo A/sym
sync
creat B
write B 0 4096
fsync B
rename A/foo A/baz
fsync A
"""


def mount_observation(fs_class, device, bugs):
    fs = fs_class(device.snapshot(), bugs)
    fs.mount()
    return copy.deepcopy(fs._serialize_meta()), fs.logical_state()


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_a_used_mount_leaves_the_shared_payloads_untouched(fs_name):
    harness = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS)
    profile = harness.profile(parse_workload(ALIASING_WORKLOAD, name="aliasing"))
    generator = CrashStateGenerator(profile, planner=harness.planner)
    for checkpoint_id in profile.checkpoints():
        state = generator.generate(checkpoint_id)
        assert state.fs is not None
        image = state.device.snapshot()  # mounted (dirty superblock written), nothing else
        decoded_before = copy.deepcopy(layout._DECODED._entries)

        # Use the first mount the way a campaign does, and then some.
        harness.checker.check(profile, state)
        fs = state.fs
        if not fs.exists("A"):
            fs.mkdir("A")
        fs.creat("A/new")
        fs.write("A/new", 0, b"n" * 5000)
        fs.setxattr("A/new", "user.n", b"x")
        fs.rename("A/new", "A/newer")
        fs.sync()

        for key, value in layout._DECODED._entries.items():
            if key in decoded_before:
                assert value == decoded_before[key], "a cached payload was mutated"
        warm = mount_observation(get_fs_class(fs_name), image, profile.bugs)
        memo.clear_all()
        assert mount_observation(get_fs_class(fs_name), image, profile.bugs) == warm


# ------------------------------------------------------------------ (iii) content edge cases


def reference_decode(raw):
    """What ``decode_block`` replaced, verbatim."""
    raw = bytes(raw).rstrip(b"\x00")
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def test_blocks_that_differ_only_in_their_zero_tail_decode_equal():
    text = json.dumps({"magic": "B3-LOG", "index": 0, "payload": "x" * 100}).encode()
    spellings = [text, text + bytes(1), text + bytes(BLOCK_SIZE - len(text))]
    decoded = [layout.decode_block(raw) for raw in spellings]
    assert all(value == json.loads(text) for value in decoded)
    assert len(layout._DECODED) == 1, "one text, one entry"
    assert layout.decode_block(bytes(BLOCK_SIZE)) is None
    assert layout.decode_block(b"") is None
    assert len(layout._DECODED) == 1, "an empty block is not an entry"


def test_one_block_number_holds_what_was_last_written_there():
    device = CowDevice(BlockDevice(16))
    old = json.dumps({"generation": 1, "index": 0, "magic": "B3-LOG", "payload": "o" * 3000})
    new = json.dumps({"generation": 2, "index": 0, "magic": "B3-LOG", "payload": "n" * 40})
    garbage = b"\xff\xfe not json" + bytes(100) + b"tail"
    # A tear after one sector leaves the whole (short) new envelope, its zero
    # padding up to the sector boundary, then the old payload's tail: parses
    # under neither text.  A tear of the old text over zeros parses as neither
    # too; a tear that keeps all of the new text over an empty block parses.
    torn_over_old = compose_torn_block(new.encode(), old.encode(), 1)
    torn_over_empty = compose_torn_block(new.encode(), b"", 1)
    for _ in range(2):  # second round: every text is already in the memo
        for written, expected in [
            (old.encode(), json.loads(old)),
            (torn_over_old, None),
            (torn_over_empty, json.loads(new)),
            (garbage, None),
            (new.encode(), json.loads(new)),
            (old.encode(), json.loads(old)),
        ]:
            device.write_block(5, written)
            assert layout._read_json_block(device, 5) == expected
            assert reference_decode(device.read_block(5)) == expected


JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
).map(lambda value: json.dumps(value).encode())


@settings(max_examples=200, deadline=None)
@given(st.lists(JSON_TEXT | st.binary(max_size=12) | st.integers(0, 600).map(bytes),
                min_size=0, max_size=4))
def test_decode_block_is_the_strip_and_parse_it_replaced(pieces):
    raw = b"".join(pieces)[:BLOCK_SIZE]
    for spelling in (raw, raw + bytes(BLOCK_SIZE - len(raw))):
        assert layout.decode_block(spelling) == reference_decode(spelling)


def test_content_sha1_is_sha1_of_the_content():
    contents = [b"", b"a", b"a" * 4096, b"a" * 4095 + b"b", bytes(4096), bytes(8192)]
    for _ in range(2):
        for content in contents:
            assert fs_inode.content_sha1(content) == hashlib.sha1(content).hexdigest()
    huge = b"h" * (fs_inode._CONTENT_SHA1.budget + 1)
    assert fs_inode.content_sha1(huge) == hashlib.sha1(huge).hexdigest()
    assert huge not in fs_inode._CONTENT_SHA1._entries, "larger than the budget: not kept"


@given(st.text(alphabet="ab/. ", max_size=12))
def test_normalize_is_the_split_and_join_it_replaced(path):
    expected = "/".join(part for part in path.strip().strip("/").split("/")
                        if part not in ("", "."))
    assert AbstractFileSystem._normalize(path) == expected
    assert AbstractFileSystem._normalize(path) == expected


def test_a_superblock_is_encoded_as_its_json_whatever_was_encoded_before():
    first = layout.Superblock(fs_type="logfs", generation=3, checkpoint_blocks=2)
    second = layout.Superblock(fs_type="logfs", generation=3, checkpoint_blocks=2,
                               clean_unmount=False)
    for _ in range(2):
        for superblock in (first, second):
            assert json.loads(superblock.encoded()) == superblock.to_json()
    first.generation = 4  # a mutated superblock is a different value, not a stale hit
    assert json.loads(first.encoded())["generation"] == 4


# ------------------------------------------------------------------ (iv) eviction


def test_a_memo_evicts_oldest_first_and_never_exceeds_its_budget(capacity):
    table = memo.BoundedMemo("test", budget=4 * (100 + memo.ENTRY_OVERHEAD))
    try:
        for key in range(50):
            table.put(key, str(key), 100)
            assert table.resident <= table.budget
            assert table.get(key) == str(key)
        kept = 1 if capacity == "one-entry" else 4
        assert list(table._entries) == list(range(50 - kept, 50))
        table.put("huge", "x", table.budget)  # with its overhead: over budget
        assert table.get("huge") is None and len(table) == kept
        table.clear()
        assert len(table) == 0 and table.resident == 0
    finally:
        memo.MEMOS.remove(table)


# ------------------------------------------------------------------ (v) seeded-unsound variants


def read_by_block_number(patch):
    table = {}
    real_read = layout._read_json_block

    def read(device, block):
        if block not in table:
            table[block] = real_read(device, block)
        return table[block]

    patch.setattr(layout, "_read_json_block", read)


def hash_by_ino_and_size(patch):
    table = {}

    def data_hash(inode):
        key = (inode.ino, len(inode.data))
        if key not in table:
            table[key] = hashlib.sha1(bytes(inode.data)).hexdigest()
        return table[key]

    patch.setattr(fs_inode.Inode, "data_hash", data_hash)


def test_keying_the_decode_memo_on_the_block_number_is_caught():
    differential.rejects(read_by_block_number, assert_memos_change_nothing, "logfs", "prefix")


def test_keying_the_data_hash_on_ino_and_size_is_caught():
    differential.rejects(hash_by_ino_and_size, assert_memos_change_nothing, "logfs", "prefix")


def test_the_path_memo_is_keyed_on_the_string_it_normalises():
    # The same directory under two spellings, and two directories under one
    # prefix: resolution must follow the tree, not an earlier answer.
    device = BlockDevice(SMALL_DEVICE_BLOCKS)
    fs_class = get_fs_class("logfs")
    fs_class.mkfs(device)
    fs = fs_class(device)
    fs.mount()
    fs.mkdir("A")
    fs.creat("/A/./foo")
    assert fs.exists("A/foo") and fs.exists("/A//foo/") and not fs.exists("A/bar")
    fs.rename("A/foo", "A/bar")
    assert not fs.exists("/A/./foo") and fs.exists("A/bar")
