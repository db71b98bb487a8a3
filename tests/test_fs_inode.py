"""Inode and FileState structures."""

import pytest

from repro.fs.inode import FileState, FileType, Inode, NamespaceOp, ROOT_INO


class TestInode:
    def test_new_file_defaults(self):
        inode = Inode(7, FileType.FILE)
        assert inode.is_file and not inode.is_dir and not inode.is_symlink
        assert inode.size == 0 and inode.nlink == 1
        assert inode.data == bytearray()

    def test_meta_round_trip_preserves_fields(self):
        inode = Inode(5, FileType.FILE)
        inode.size = 123
        inode.nlink = 2
        inode.allocated_blocks = 3
        inode.block_map = {0: 1600, 1: 1601}
        inode.xattrs = {"user.k": b"v"}
        restored = Inode.from_meta(inode.to_meta())
        assert restored.ino == 5
        assert restored.size == 123
        assert restored.nlink == 2
        assert restored.allocated_blocks == 3
        assert restored.block_map == {0: 1600, 1: 1601}
        assert restored.xattrs == {"user.k": b"v"}

    def test_meta_round_trip_for_directory(self):
        inode = Inode(2, FileType.DIR)
        inode.children = {"foo": 3, "bar": 4}
        inode.size = 2
        restored = Inode.from_meta(inode.to_meta())
        assert restored.is_dir
        assert restored.children == {"foo": 3, "bar": 4}

    def test_meta_round_trip_for_symlink(self):
        inode = Inode(9, FileType.SYMLINK)
        inode.symlink_target = "some/where"
        restored = Inode.from_meta(inode.to_meta())
        assert restored.is_symlink
        assert restored.symlink_target == "some/where"

    def test_clone_is_deep_for_data_and_children(self):
        inode = Inode(3, FileType.FILE)
        inode.data = bytearray(b"abc")
        clone = inode.clone()
        clone.data[0:1] = b"X"
        assert inode.data == bytearray(b"abc")

    def test_data_hash_changes_with_content(self):
        inode = Inode(3, FileType.FILE)
        empty = inode.data_hash()
        inode.data = bytearray(b"abc")
        assert inode.data_hash() != empty

    def test_binary_xattrs_survive_round_trip(self):
        inode = Inode(4, FileType.FILE)
        inode.xattrs = {"user.bin": bytes(range(256))}
        restored = Inode.from_meta(inode.to_meta())
        assert restored.xattrs["user.bin"] == bytes(range(256))


class TestFileState:
    def test_from_inode_for_file(self):
        inode = Inode(6, FileType.FILE)
        inode.data = bytearray(b"hello")
        inode.size = 5
        state = FileState.from_inode("A/foo", inode)
        assert state.path == "A/foo"
        assert state.ftype == "file"
        assert state.size == 5
        assert state.ino == 6
        assert state.data_hash == inode.data_hash()

    def test_from_inode_for_dir_sorts_children(self):
        inode = Inode(2, FileType.DIR)
        inode.children = {"zeta": 9, "alpha": 8}
        state = FileState.from_inode("A", inode)
        assert state.children == ("alpha", "zeta")

    def test_describe_mentions_type(self):
        file_state = FileState(path="f", ftype="file", size=1)
        dir_state = FileState(path="d", ftype="dir")
        link_state = FileState(path="l", ftype="symlink", symlink_target="t")
        assert "file" in file_state.describe()
        assert "dir" in dir_state.describe()
        assert "symlink" in link_state.describe()

    def test_equality_is_value_based(self):
        a = FileState(path="x", ftype="file", size=4, data_hash="h")
        b = FileState(path="x", ftype="file", size=4, data_hash="h")
        assert a == b

    def test_from_inode_builds_what_the_constructor_builds(self):
        """``from_inode`` fills the instance without ``__init__``: the result
        must be indistinguishable — ``==``, ``hash``, ``repr``, pickle, frozen."""
        import dataclasses
        import pickle

        inode = Inode(7, FileType.FILE)
        inode.data = bytearray(b"hello")
        inode.size = 5
        inode.nlink = 2
        inode.allocated_blocks = 1
        inode.xattrs = {"user.b": b"2", "user.a": b"1"}
        built = FileState.from_inode("A/foo", inode)
        spelt = FileState(path="A/foo", ftype="file", size=5, nlink=2, allocated_blocks=1,
                          data_hash="aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d",
                          xattrs=(("user.a", "1"), ("user.b", "2")), ino=7)
        assert built == spelt and hash(built) == hash(spelt)
        assert hash(built) == hash(dataclasses.astuple(spelt))
        assert repr(built) == repr(spelt) == (
            "FileState(path='A/foo', ftype='file', size=5, nlink=2, allocated_blocks=1, "
            "data_hash='aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d', children=(), "
            "xattrs=(('user.a', '1'), ('user.b', '2')), symlink_target=None, ino=7)")
        assert vars(built) == vars(spelt) and list(vars(built)) == list(vars(spelt))
        assert pickle.loads(pickle.dumps(built)) == spelt
        assert built.describe() == "file A/foo size=5 nlink=2 blocks=1 sha1=aaf4c61ddcc5"
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.size = 6

        directory = Inode(2, FileType.DIR)
        directory.children = {"zeta": 9, "alpha": 8}
        directory.size = 2
        assert FileState.from_inode("A", directory) == FileState(
            path="A", ftype="dir", size=2, children=("alpha", "zeta"), ino=2)
        link = Inode(3, FileType.SYMLINK)
        link.symlink_target = "A/foo"
        link.size = 5
        assert FileState.from_inode("l", link) == FileState(
            path="l", ftype="symlink", size=5, symlink_target="A/foo", ino=3)


def test_namespace_op_defaults():
    op = NamespaceOp(kind="add", path="foo", ino=3)
    assert op.cause == ""
    assert op.counterpart is None


def test_root_ino_constant():
    assert ROOT_INO == 1
