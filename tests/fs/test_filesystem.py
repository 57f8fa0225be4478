"""The multi-file outsourced file system with grouped control keys."""

import pytest

from repro.core.errors import ReproError, UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem, directory_group
from repro.protocol import messages as msg
from repro.server.server import MUTATING_REQUESTS


@pytest.fixture
def fs():
    return OutsourcedFileSystem(rng=DeterministicRandom("fs-test"))


def test_directory_group():
    assert directory_group("hr/roster.db") == "hr"
    assert directory_group("/hr/sub/file") == "hr"
    assert directory_group("flat-file") == ""


def test_create_read_write(fs):
    handle = fs.create_file("docs/a.txt", [b"one", b"two", b"three"])
    assert handle.record_count == 3
    assert handle.size_bytes == 11
    assert handle.read_record(1) == b"two"
    handle.write_record(1, b"TWO!")
    assert handle.read_record(1) == b"TWO!"
    assert handle.read_all() == [b"one", b"TWO!", b"three"]


def test_duplicate_name_rejected(fs):
    fs.create_file("x", [b"a"])
    with pytest.raises(ReproError):
        fs.create_file("x", [b"b"])


def test_open_missing(fs):
    with pytest.raises(UnknownItemError):
        fs.open("ghost")


def test_insert_and_delete_records(fs):
    handle = fs.create_file("d/f", [b"a", b"c"])
    handle.insert_record(1, b"b")
    assert handle.read_all() == [b"a", b"b", b"c"]
    handle.append_record(b"d")
    assert handle.read_all() == [b"a", b"b", b"c", b"d"]
    handle.delete_record(0)
    assert handle.read_all() == [b"b", b"c", b"d"]
    assert handle.record_count == 3


def test_byte_offset_interface(fs):
    handle = fs.create_file("d/f", [b"hello ", b"cruel ", b"world"])
    assert handle.read_at(0, 17) == b"hello cruel world"
    assert handle.read_at(6, 5) == b"cruel"
    located = handle.locate(12)
    assert located.item_id == handle._record.index.item_id_at(2)
    handle.delete_at(7)  # deletes the record containing byte 7 ("cruel ")
    assert handle.read_all() == [b"hello ", b"world"]


def test_read_at_end_of_file(fs):
    handle = fs.create_file("d/f", [b"abc"])
    assert handle.read_at(1, 100) == b"bc"


def test_groups_get_separate_control_keys(fs):
    fs.create_file("hr/a", [b"x"])
    fs.create_file("hr/b", [b"y"])
    fs.create_file("mail/c", [b"z"])
    assert fs.control_key_count() == 2
    assert fs.client_key_bytes() == 32


def test_client_storage_constant_in_file_count(fs):
    for i in range(12):
        fs.create_file(f"bulk/f{i}", [b"data"])
    assert fs.client_key_bytes() == 16  # one group, one control key


def test_delete_file_whole(fs):
    fs.create_file("d/doomed", [b"secret-1", b"secret-2"])
    fs.create_file("d/kept", [b"other"])
    fs.delete_file("d/doomed")
    assert fs.list_files() == ["d/kept"]
    with pytest.raises(UnknownItemError):
        fs.open("d/doomed")
    assert fs.open("d/kept").read_record(0) == b"other"
    with pytest.raises(UnknownItemError):
        fs.delete_file("d/doomed")


def test_delete_record_survives_master_key_rotation(fs):
    handle = fs.create_file("d/f", [b"r%d" % i for i in range(10)])
    for _ in range(4):
        handle.delete_record(0)
    assert handle.read_all() == [b"r%d" % i for i in range(4, 10)]
    handle.write_record(0, b"r4-new")
    assert handle.read_record(0) == b"r4-new"


def test_empty_file_and_grow(fs):
    handle = fs.create_file("d/empty")
    assert handle.record_count == 0
    handle.append_record(b"first")
    assert handle.read_all() == [b"first"]


def _exchange(fs, monkeypatch, action):
    """Round trips and mutating commits (by type) one fs call costs."""
    seen = []
    handle = fs.server.handle

    def spy(request):
        seen.append(type(request))
        return handle(request)
    monkeypatch.setattr(fs.server, "handle", spy)
    before = fs.client.channel.counters.round_trips
    action()
    monkeypatch.undo()
    commits = [kind for kind in seen if issubclass(kind, MUTATING_REQUESTS)]
    return fs.client.channel.counters.round_trips - before, commits


def test_record_deletes_cost_four_round_trips_and_two_commits(fs,
                                                              monkeypatch):
    """Section V's deletion: meta challenge, data challenge and commit,
    one meta ReplaceCommit -- and the standalone replacement costs two."""
    for i in range(4):
        fs.create_file(f"g/f{i}", [b"r%d" % j for j in range(8)])
    handle = fs.open("g/f2")

    assert _exchange(fs, monkeypatch, lambda: handle.delete_record(3)) == \
        (4, [msg.DeleteCommit, msg.ReplaceCommit])
    assert _exchange(fs, monkeypatch,
                     lambda: handle.delete_many([0, 2, 5])) == \
        (4, [msg.BatchDeleteCommit, msg.ReplaceCommit])
    assert handle.read_all() == [b"r1", b"r4", b"r5", b"r7"]

    manager = fs.group_manager_of("g/f2")
    key = manager.master_key(handle.file_id)
    assert _exchange(fs, monkeypatch,
                     lambda: manager.replace_master_key(handle.file_id,
                                                        key)) == \
        (2, [msg.ReplaceCommit])
    assert handle.read_all() == [b"r1", b"r4", b"r5", b"r7"]


def test_delete_records_each_replacement_once_in_the_meta_tree(fs):
    """Every record deletion bumps the meta tree's version by exactly
    one, and the file's master-key record moves to a fresh meta item."""
    handle = fs.create_file("g/f", [b"r%d" % i for i in range(6)])
    fs.create_file("g/other", [b"o"])
    manager = fs.group_manager_of("g/f")
    meta_state = fs.server.file_state(manager.meta_file_id)
    version, item = meta_state.version, manager.meta_item_of(handle.file_id)
    handle.delete_record(1)
    handle.delete_many([0, 3])
    assert fs.server.file_state(manager.meta_file_id).version == version + 2
    assert manager.meta_item_of(handle.file_id) != item
    assert not meta_state.tree.has_item(item)
    assert fs.server.file_state(manager.meta_file_id).tree.leaf_count == 2
    assert fs.open("g/other").read_all() == [b"o"]
