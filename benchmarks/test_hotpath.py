"""Hot-path benchmark: the server view cache against no cache.

Compares the baseline configuration (server view cache off) against the
shipped defaults on the two headline operations:

* whole-file fetch at n = 1024 -- a warm fetch reuses the server's
  assembled and encoded reply instead of rebuilding it;
* repeated single-item access (recorded, no floor).

Both configurations run the same AES-CTR kernel.  Acceptance: the
fetch is at least FETCH_FLOOR times faster with the cache, and the two
configurations must be *bit-identical* -- same stored ciphertexts, same
plaintexts, same hash counts -- or the speedup is meaningless.
"""

import time

import pytest

from benchmarks.conftest import save_json, save_result
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer

N_ITEMS = 1024
ITEM_SIZE = 64
ACCESS_ITEMS = 64
ROUNDS = 3
FETCH_FLOOR = 1.2


def make_items(n=N_ITEMS, size=ITEM_SIZE):
    rng = DeterministicRandom("hotpath-items")
    return [rng.bytes(size) for _ in range(n)]


def build(optimised, items, seed="hotpath"):
    """A (server, client, key) triple in one of the two configurations."""
    server = CloudServer()
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom(seed))
    if not optimised:
        server.view_cache_enabled = False
    key = client.outsource(1, items)
    return server, client, key


def best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def hotpath():
    items = make_items()
    rows = {}
    plaintexts = {}
    for label in ("baseline", "optimised"):
        optimised = label == "optimised"
        _server, client, key = build(optimised, items)
        ids = client.item_ids_of(len(items))

        hashes0 = client.engine.hash_calls
        fetch_seconds = best_of(lambda: client.fetch_file(1, key))
        fetch_hashes = (client.engine.hash_calls - hashes0) // ROUNDS

        hashes0 = client.engine.hash_calls

        def access_sweep():
            for item_id in ids[:ACCESS_ITEMS]:
                client.access(1, key, item_id)

        access_seconds = best_of(access_sweep)
        access_hashes = (client.engine.hash_calls - hashes0) // ROUNDS

        plaintexts[label] = client.fetch_file(1, key)
        rows[label] = {
            "fetch_seconds": fetch_seconds,
            "fetch_hash_calls": fetch_hashes,
            "access_seconds": access_seconds,
            "access_hash_calls": access_hashes,
        }

    fetch_speedup = (rows["baseline"]["fetch_seconds"]
                     / max(rows["optimised"]["fetch_seconds"], 1e-9))
    access_speedup = (rows["baseline"]["access_seconds"]
                      / max(rows["optimised"]["access_seconds"], 1e-9))
    identical = plaintexts["baseline"] == plaintexts["optimised"]

    text = "\n".join([
        f"Hot-path overhaul at n = {N_ITEMS} x {ITEM_SIZE} B items "
        f"(best of {ROUNDS})",
        "",
        f"{'config':<10} {'fetch ms':>9} {'hashes':>7} "
        f"{'access ms':>10} {'hashes':>7}",
        *(f"{label:<10} {row['fetch_seconds'] * 1e3:>9.1f} "
          f"{row['fetch_hash_calls']:>7} "
          f"{row['access_seconds'] * 1e3:>10.1f} "
          f"{row['access_hash_calls']:>7}"
          for label, row in rows.items()),
        "",
        f"whole-file fetch speedup: {fetch_speedup:.2f}x "
        f"(acceptance >= {FETCH_FLOOR}x)",
        f"repeated access speedup ({ACCESS_ITEMS} items): "
        f"{access_speedup:.1f}x (recorded, no floor)",
        f"plaintexts bit-identical: {identical}",
    ])
    save_result("hotpath", text)
    print("\n" + text)
    save_json("hotpath", {
        "op": "hotpath",
        "n": N_ITEMS,
        "item_bytes": ITEM_SIZE,
        "rows": rows,
        "fetch_speedup": fetch_speedup,
        "access_speedup": access_speedup,
        "bit_identical": identical,
    })
    return rows, fetch_speedup, access_speedup, identical


def test_fetch_meets_acceptance(hotpath):
    """Acceptance: the view cache speeds a whole-file fetch at n = 1024
    by at least FETCH_FLOOR."""
    _rows, fetch_speedup, _access, _identical = hotpath
    assert fetch_speedup >= FETCH_FLOOR, hotpath


def test_configurations_are_bit_identical(hotpath):
    """Speedups only count if both stacks agree bit-for-bit."""
    _rows, _fetch, _access, identical = hotpath
    assert identical
    # Same randomness + same items => the stored ciphertexts must also
    # be byte-identical with the view cache on and off.
    items = make_items(64, 128)
    base_server, base_client, _ = build(False, items, seed="identity")
    opt_server, opt_client, _ = build(True, items, seed="identity")
    ids = base_client.item_ids_of(len(items))
    for item_id in ids:
        assert (base_server._state(1).ciphertexts.get(item_id)
                == opt_server._state(1).ciphertexts.get(item_id))


def test_hash_counts_are_config_independent(hotpath):
    """Both stacks do the full 3n-2 chain sweep per fetch and the same
    hashing per access: the speedup is the server's cache, never skipped
    derivation.  Counts, not clocks."""
    rows, _fetch, _access, _identical = hotpath
    assert rows["optimised"]["fetch_hash_calls"] == \
        rows["baseline"]["fetch_hash_calls"] >= 3 * N_ITEMS - 2
    assert rows["optimised"]["access_hash_calls"] == \
        rows["baseline"]["access_hash_calls"] > 0


def test_quick_hotpath_smoke():
    """CI smoke: small scale; the optimised stack must beat baseline."""
    items = make_items(128, 64)
    _s, base_client, base_key = build(False, items, seed="quick")
    _s, opt_client, opt_key = build(True, items, seed="quick")
    base = best_of(lambda: base_client.fetch_file(1, base_key), rounds=2)
    opt = best_of(lambda: opt_client.fetch_file(1, opt_key), rounds=2)
    assert opt_client.fetch_file(1, opt_key) == \
        base_client.fetch_file(1, base_key)
    assert opt < base, (base, opt)
