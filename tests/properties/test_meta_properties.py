"""Stateful property test for the meta key manager (Section V).

Random register / fetch / replace / remove sequences against an oracle of
master keys, with three standing invariants: every registered file's
master key is retrievable bit-exact through the meta tree, the client
never holds more than the single control key, and no replaced or removed
master-key record is recoverable by an adversary holding every meta-tree
state the server ever had plus every control key issued since that
record's deletion (the seized ``C'`` and all later ones).
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.client.client import AssuredDeletionClient
from repro.core.ciphertext import ItemCodec
from repro.core.errors import IntegrityError
from repro.core.meta import MetaKeyManager
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.core.tree import ModulationTree
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer
from repro.sim.threat import snapshot_file
from tests.conftest import scaled_examples

keys16 = st.binary(min_size=16, max_size=16)


def _leaf_outputs(engine, keys, snapshot):
    """``F(C, M)`` for every key and every leaf of one meta-tree state."""
    for slot in range(snapshot.n_leaves, 2 * snapshot.n_leaves):
        modulators = [snapshot.links[s]
                      for s in ModulationTree.path_slots(slot)[1:]]
        modulators.append(snapshot.leaves[slot])
        for key in keys:
            yield engine.evaluate(key, modulators)


def _decrypts(codec, output, ciphertext) -> bool:
    try:
        codec.decrypt(output, ciphertext)
    except IntegrityError:
        return False
    return True


class MetaKeyMachine(RuleBasedStateMachine):

    @initialize(seed=st.integers(0, 2 ** 32))
    def setup(self, seed):
        self.server = CloudServer()
        self.client = AssuredDeletionClient(
            LoopbackChannel(self.server),
            rng=DeterministicRandom(f"meta-{seed}"), store_keys=False)
        self.manager = MetaKeyManager(self.client, meta_file_id=0,
                                      control_key_name="ctrl")
        self.manager.initialize()
        self.oracle: dict[int, bytes] = {}
        self.next_file = 100
        #: Every meta-tree state, and every control key, in issue order.
        self.snapshots = [snapshot_file(self.server, 0)]
        self.controls = [self.client.keystore.get("ctrl")]
        #: (meta item, its ciphertext, index of the first control key
        #: issued after its deletion).
        self.dead: list[tuple[int, bytes, int]] = []

    def _shred(self, file_id):
        """Note the file's record before its assured deletion."""
        item = self.manager.meta_item_of(file_id)
        ciphertext = self.server.file_state(0).ciphertexts.get(item)
        self.dead.append((item, ciphertext, len(self.controls)))

    def _observe(self):
        self.snapshots.append(snapshot_file(self.server, 0))
        self.controls.append(self.client.keystore.get("ctrl"))

    @rule(key=keys16)
    def register(self, key):
        file_id = self.next_file
        self.next_file += 1
        self.manager.register(file_id, key)
        self.oracle[file_id] = key
        self._observe()

    @rule(data=st.data())
    @precondition(lambda self: self.oracle)
    def fetch(self, data):
        file_id = data.draw(st.sampled_from(sorted(self.oracle)))
        assert self.manager.master_key(file_id) == self.oracle[file_id]

    @rule(data=st.data(), new_key=keys16)
    @precondition(lambda self: self.oracle)
    def replace(self, data, new_key):
        file_id = data.draw(st.sampled_from(sorted(self.oracle)))
        self._shred(file_id)
        self.manager.replace_master_key(file_id, new_key)
        self.oracle[file_id] = new_key
        self._observe()

    @rule(data=st.data())
    @precondition(lambda self: self.oracle)
    def remove(self, data):
        file_id = data.draw(st.sampled_from(sorted(self.oracle)))
        self._shred(file_id)
        self.manager.remove(file_id)
        del self.oracle[file_id]
        self._observe()

    @invariant()
    def all_keys_retrievable_and_client_holds_one_key(self):
        if not hasattr(self, "manager"):
            return
        assert self.manager.managed_file_ids() == sorted(self.oracle)
        for file_id, key in self.oracle.items():
            assert self.manager.master_key(file_id) == key
        assert self.client.keystore.key_bytes_stored() == 16

    @invariant()
    def deleted_records_stay_unrecoverable(self):
        """Try each dead record's ciphertext under every later control
        key against every leaf path of every meta-tree state -- a wider
        search than the per-item recovery of the threat simulator, since
        a replaced record's leaf lives on under a new item id."""
        if not hasattr(self, "manager"):
            return
        params = Params()
        engine, codec = ChainEngine(params.chain_hash), ItemCodec(params)
        for item, ciphertext, first_key in self.dead:
            keys = self.controls[first_key:]
            for snapshot in self.snapshots:
                assert not any(_decrypts(codec, output, ciphertext)
                               for output in _leaf_outputs(engine, keys,
                                                           snapshot)), \
                    f"deleted meta item {item} was recovered"
        # Soundness control: the same search opens every live record.
        live = self.server.file_state(0).ciphertexts
        for file_id in self.oracle:
            ciphertext = live.get(self.manager.meta_item_of(file_id))
            assert any(_decrypts(codec, output, ciphertext)
                       for output in _leaf_outputs(
                           engine, self.controls[-1:], self.snapshots[-1]))


MetaKeyMachine.TestCase.settings = settings(
    max_examples=scaled_examples(10), stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestMetaKeyManager = MetaKeyMachine.TestCase
