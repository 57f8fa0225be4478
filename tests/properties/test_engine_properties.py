"""Property test: opening a storage-engine file fails closed.

``state.db`` is untrusted input to the server that opens it.  Whatever
bytes it holds -- random, random behind the SQLite magic, random behind
the 100-byte header of a real engine file so the database parser itself
is exercised, or an empty engine whose schema page was overwritten in
places -- opening it and attaching it to a server either raises
``StorageError`` or yields a valid, empty engine.  It never raises a
raw ``sqlite3`` error and never hangs.
"""

import functools
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.server.engine import make_engine
from repro.server.server import CloudServer
from tests.conftest import scaled_examples

#: The first 16 bytes of every SQLite 3 database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


@functools.lru_cache(maxsize=None)
def empty_engine() -> bytes:
    """A freshly created engine file, attached once (width recorded)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.db")
        engine = make_engine("sqlite", path)
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
            engine = make_engine("sqlite", path)
        except StorageError:
            return
        try:
            assert engine.file_ids() == []
            assert engine.replay_entries() == []
            server = CloudServer(engine=engine)
            assert server.file_ids() == []
        finally:
            engine.close()
