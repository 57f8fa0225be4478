"""Shared experiment plumbing: file factories and per-op measurement.

The central piece is :func:`build_seeded_file`, which stands up an
arbitrarily large outsourced file in O(1) time and memory: the modulation
tree is a :class:`~repro.core.modstore.LazySeededStore` (modulators
derived from a seed, writes in an overlay) and the ciphertexts come from
a callback that reproduces, on demand, exactly what the client would have
uploaded (keys derived from the *pristine* seed store under the original
master key, so ciphertexts stay valid across deletions by Theorem 1).
Per-operation bytes and client hash counts are identical to a dense
materialised setup -- asserted by ``tests/analysis/test_harness.py`` --
because they depend only on tree depth.  DESIGN.md records this as the
benchmark-scale substitution for the paper's EC2-resident 10^7-item files.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.baselines.keymod import KeyModulationScheme
from repro.core.ciphertext import ItemCodec
from repro.core.modstore import LazySeededStore
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.core.tree import ModulationTree
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer
from repro.server.storage import CallbackCiphertextStore
from repro.sim.metrics import MetricsCollector


@dataclass
class SeededFile:
    """Handles to a benchmark-scale outsourced file."""

    server: CloudServer
    scheme: KeyModulationScheme
    file_id: int
    n_items: int
    first_item_id: int
    item_size: int

    def item_id(self, index: int) -> int:
        if not 0 <= index < self.n_items:
            raise IndexError("item index out of range")
        return self.first_item_id + index


def _derive_nonce(seed: bytes, item_id: int) -> bytes:
    hasher = hashlib.sha1()
    hasher.update(seed)
    hasher.update(b"nonce")
    hasher.update(struct.pack(">Q", item_id))
    return hasher.digest()[:8]


def _derive_payload(seed: bytes, item_id: int, size: int) -> bytes:
    """Deterministic item contents (vectorised keystream expansion)."""
    if size == 0:
        return b""
    hasher = hashlib.sha1()
    hasher.update(seed)
    hasher.update(b"payload")
    hasher.update(struct.pack(">Q", item_id))
    digest = hasher.digest()
    from repro.crypto.bulk import keystream
    return keystream(digest[:16], digest[16:] + b"\x00" * 4,
                     (size + 15) // 16)[:size]


def build_seeded_file(n_items: int, item_size: int, *, seed: str = "bench",
                      params: Params | None = None, file_id: int = 1,
                      first_item_id: int = 1,
                      metrics: MetricsCollector | None = None) -> SeededFile:
    """Stand up an ``n_items`` x ``item_size`` file in O(1) time/memory."""
    params = params if params is not None else Params()
    seed_bytes = seed.encode("utf-8")
    width = params.modulator_size

    # Server side: lazily-seeded tree and callback ciphertexts.  The
    # duplicate-modulator registry is off (a 2^-80 event at this width),
    # which DESIGN.md lists among the benchmark-scale substitutions.
    store = LazySeededStore(width, seed_bytes)
    tree = ModulationTree.adopt_arithmetic(store, n_items, first_item_id)

    pristine = LazySeededStore(width, seed_bytes)
    engine = ChainEngine(params.chain_hash)
    codec = ItemCodec(params)
    master_key = DeterministicRandom(seed_bytes + b"master").bytes(
        params.master_key_size)

    def derive_ciphertext(item_id: int) -> bytes:
        index = item_id - first_item_id
        slot = n_items + index
        modulators = [pristine.get_link(s)
                      for s in ModulationTree.path_slots(slot)[1:]]
        modulators.append(pristine.get_leaf(slot))
        chain_output = engine.evaluate(master_key, modulators)
        payload = _derive_payload(seed_bytes, item_id, item_size)
        return codec.encrypt(chain_output, payload, item_id,
                             _derive_nonce(seed_bytes, item_id))

    ciphertexts = CallbackCiphertextStore(derive_ciphertext)
    server = CloudServer(params)
    server.adopt_file(file_id, tree, ciphertexts, build_registry=False)

    channel = LoopbackChannel(server)
    scheme = KeyModulationScheme(channel, params,
                                 rng=DeterministicRandom(seed_bytes + b"ops"),
                                 metrics=metrics, file_id=file_id)
    scheme.adopt_master_key(master_key)
    # Item ids must continue past the pre-seeded range for insertions.
    scheme.client.keystore._next_item_id = first_item_id + n_items

    return SeededFile(server=server, scheme=scheme, file_id=file_id,
                      n_items=n_items, first_item_id=first_item_id,
                      item_size=item_size)


def build_dense_file(n_items: int, item_size: int, *, seed: str = "dense",
                     params: Params | None = None, file_id: int = 1,
                     metrics: MetricsCollector | None = None,
                     ) -> tuple[SeededFile, list[int]]:
    """Fully materialised file via the real outsourcing protocol.

    Returns the handles plus the item ids.  Used for small scales and for
    the dense-vs-lazy equivalence checks.
    """
    params = params if params is not None else Params()
    rng = DeterministicRandom(seed)
    items = []
    block = rng.bytes(n_items * item_size)
    for i in range(n_items):
        items.append(block[i * item_size:(i + 1) * item_size])

    server = CloudServer(params)
    channel = LoopbackChannel(server)
    scheme = KeyModulationScheme(channel, params,
                                 rng=DeterministicRandom(seed + "-ops"),
                                 metrics=metrics, file_id=file_id)
    item_ids = scheme.outsource(items)
    handle = SeededFile(server=server, scheme=scheme, file_id=file_id,
                        n_items=n_items,
                        first_item_id=item_ids[0] if item_ids else 1,
                        item_size=item_size)
    return handle, item_ids


def measure_ops(handle: SeededFile, op: str, samples: int,
                rng: DeterministicRandom) -> MetricsCollector:
    """Run ``samples`` operations of one kind; return their records only."""
    collector = MetricsCollector()
    scheme = handle.scheme
    previous = scheme.metrics
    scheme.metrics = collector
    scheme.client.metrics = collector
    try:
        live = list(range(handle.n_items))
        payload = _derive_payload(b"op-payload", 0, handle.item_size)
        for _ in range(samples):
            if op == "access":
                index = live[rng.below(len(live))]
                scheme.access(handle.item_id(index))
            elif op == "insert":
                scheme.insert(payload)
            elif op == "delete":
                position = rng.below(len(live))
                index = live.pop(position)
                scheme.delete(handle.item_id(index))
            else:
                raise ValueError(f"unknown op {op!r}")
    finally:
        scheme.metrics = previous
        scheme.client.metrics = previous
    return collector
