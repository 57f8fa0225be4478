"""Property test: opening a storage-engine file fails closed.

``state.db`` is untrusted input to the server that opens it.  Whatever
bytes it holds -- random, random behind the SQLite magic, random behind
the 100-byte header of a real engine file so the database parser itself
is exercised, or an empty engine whose schema page was overwritten in
places -- opening it and attaching it to a server either raises
``StorageError`` or yields a valid, empty engine.  It never raises a
raw ``sqlite3`` error and never hangs.  Neither do the reads of a
populated engine with bytes flipped in its data pages, which open may
not touch: SQLite's corruption errors, and a wrong-typed column or a
changed key inside a row SQLite accepts, leave them as
``StorageError``.
"""

import functools
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.crypto.rng import DeterministicRandom
from repro.server.engine import KIND_LEAF, KIND_LINK, SQLiteTreeStore
from repro.server.server import CloudServer
from tests.conftest import scaled_examples

#: The first 16 bytes of every SQLite 3 database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


@functools.lru_cache(maxsize=None)
def empty_engine() -> bytes:
    """A freshly created engine file, attached once (width recorded)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.db")
        engine = SQLiteTreeStore(path)
        CloudServer(engine=engine)
        engine.close()
        with open(path, "rb") as handle:
            return handle.read()


def overwrite_schema_page(rnd) -> bytes:
    """The empty engine with a few bytes of its first page (the schema
    page) overwritten at uniformly drawn offsets."""
    data = bytearray(empty_engine())
    page_size = int.from_bytes(data[16:18], "big")
    for _ in range(rnd.randint(1, 5)):
        data[rnd.randrange(100, page_size)] = rnd.randrange(256)
    return bytes(data)


@functools.lru_cache(maxsize=None)
def populated_engine() -> tuple[bytes, int, tuple[int, ...]]:
    """An engine file holding one checkpointed file, with its ids."""
    from repro.core.scheme import LocalScheme
    scheme = LocalScheme(rng=DeterministicRandom("damaged-pages"))
    fid, ids = scheme.new_file([b"record-%03d" % i * 4 for i in range(200)])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.db")
        scheme.server.attach_engine(SQLiteTreeStore(path))
        scheme.server.compact_storage()
        scheme.server.engine.close()
        with open(path, "rb") as handle:
            return handle.read(), fid, tuple(ids)


def flip_data_pages(rnd) -> bytes:
    """The populated engine with a few bytes past its schema page
    flipped at uniformly drawn offsets."""
    data = bytearray(populated_engine()[0])
    page_size = int.from_bytes(data[16:18], "big")
    for _ in range(rnd.randint(1, 5)):
        data[rnd.randrange(page_size, len(data))] ^= rnd.randrange(1, 256)
    return bytes(data)


CONTENTS = st.one_of(
    st.binary(max_size=4096),
    st.binary(min_size=84, max_size=4096).map(
        lambda tail: SQLITE_MAGIC + tail),
    st.binary(max_size=8192).map(lambda tail: empty_engine()[:100] + tail),
    st.randoms(use_true_random=False).map(overwrite_schema_page),
)


@settings(max_examples=scaled_examples(150), deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(contents=CONTENTS)
def test_arbitrary_engine_file_opens_empty_or_fails_closed(contents):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.db")
        with open(path, "wb") as handle:
            handle.write(contents)
        try:
            engine = SQLiteTreeStore(path)
        except StorageError:
            return
        try:
            assert engine.file_ids() == []
            assert engine.replay_entries() == []
            server = CloudServer(engine=engine)
            assert server.file_ids() == []
        finally:
            engine.close()


@settings(max_examples=scaled_examples(150), deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(contents=st.randoms(use_true_random=False).map(flip_data_pages))
def test_damaged_data_pages_fail_closed_on_read(contents):
    _pristine, fid, ids = populated_engine()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.db")
        with open(path, "wb") as handle:
            handle.write(contents)
        try:
            engine = SQLiteTreeStore(path)
        except StorageError:
            return
        try:
            engine.file_ids()
            engine.replay_entries()
            for kind in (KIND_LINK, KIND_LEAF):
                engine.scan_nodes(fid, kind, 0, 2 ** 63 - 1)
            engine.get_ciphertexts(fid, list(ids))
        except StorageError:
            pass
        except Exception as exc:
            # Raw sqlite3 errors, and the TypeError or KeyError of a
            # changed key or column type that SQLite cannot see.
            raise AssertionError(f"damage escaped as {exc!r}") from exc
        finally:
            engine.close()
