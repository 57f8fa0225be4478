"""Theorem 2, case ii: every cheating server strategy is rejected by the
client *before* it emits any deltas (or is provably harmless)."""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import (DuplicateModulatorError, IntegrityError,
                               ProtocolError, StaleStateError,
                               UnknownItemError)
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (DROP_RESPONSE, NONE, ChannelError,
                                   FaultInjectingChannel)
from repro.server.adversary import (CloneCutServer, DeltaSkippingServer,
                                    DuplicateInjectionServer, ReplayServer,
                                    WrongCiphertextServer, WrongLeafServer)
from repro.sim.threat import Adversary, snapshot_file


def make_client(server, seed):
    return AssuredDeletionClient(LoopbackChannel(server),
                                 rng=DeterministicRandom(seed))


def outsourced(server, seed, n=6):
    client = make_client(server, seed)
    key = client.outsource(1, [b"item-%d" % i for i in range(n)])
    return client, key, client.item_ids_of(n)


def test_wrong_leaf_substitution_rejected():
    """Server answers delete(k) with MT(k'): caught by the id binding."""
    server = WrongLeafServer()
    client, key, ids = outsourced(server, "adv-wrongleaf")
    with pytest.raises(IntegrityError):
        client.delete(1, key, ids[3])
    # No deltas were emitted: every item still decrypts.
    for i, item in enumerate(ids):
        assert client.access(1, key, item) == b"item-%d" % i


def test_wrong_ciphertext_rejected():
    """Correct MT(k), another item's ciphertext: decrypt-verify fails."""
    server = WrongCiphertextServer()
    client, key, ids = outsourced(server, "adv-wrongct")
    with pytest.raises(IntegrityError):
        client.delete(1, key, ids[0])


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_figure7_clone_cut_attack_rejected(depth):
    """Cloning path modulators into the cut necessarily duplicates a
    modulator inside MT(k); the distinctness rule fires.  When the cloned
    link also sits on the balancing path, the cross-view consistency
    check fires first -- either way the client refuses before emitting
    any delta."""
    server = CloneCutServer()
    server.clone_depth = depth
    client, key, ids = outsourced(server, f"adv-clone-{depth}", n=8)
    with pytest.raises((DuplicateModulatorError, IntegrityError)):
        client.delete(1, key, ids[2])
    # Nothing was committed: the tree version did not move.
    assert server.file_state(1).version == 0


def test_crude_duplicate_injection_rejected():
    server = DuplicateInjectionServer()
    client, key, ids = outsourced(server, "adv-dup")
    with pytest.raises(DuplicateModulatorError):
        client.delete(1, key, ids[1])


def test_delta_skipping_cannot_resurrect_the_deleted_item():
    """A server that ACKs but never applies the deltas sabotages the
    *surviving* data (out of scope: it could as well erase it), but the
    deleted item stays dead because the old master key is shredded."""
    server = DeltaSkippingServer()
    client, key, ids = outsourced(server, "adv-skip")

    adversary = Adversary()
    adversary.observe(snapshot_file(server, 1))

    new_key = client.delete(1, key, ids[2])
    adversary.observe(snapshot_file(server, 1))
    adversary.seize_keystore({"master": new_key})

    assert adversary.try_recover(ids[2]) is None

    # Availability damage is visible and detected, not silent:
    with pytest.raises(IntegrityError):
        client.access(1, new_key, ids[0])


def test_cross_item_replay_rejected_on_access():
    """Serving item j's ciphertext for item i fails the id binding."""
    server = ReplayServer()
    client, key, ids = outsourced(server, "adv-replay")
    state = server.file_state(1)
    # Cross-wire two ciphertexts.
    ct0 = state.ciphertexts.get(ids[0])
    state.ciphertexts.put(ids[0], state.ciphertexts.get(ids[1]))
    with pytest.raises(IntegrityError):
        client.access(1, key, ids[0])
    state.ciphertexts.put(ids[0], ct0)


def test_same_item_stale_replay_is_out_of_scope_but_detected_versions():
    """Replaying an item's own older ciphertext decrypts fine (same key,
    same id): freshness is integrity work the paper delegates to the
    provable-data-possession line ([1]-[4]).  This test documents the
    boundary explicitly."""
    server = ReplayServer()
    client, key, ids = outsourced(server, "adv-stale")
    client.modify(1, key, ids[0], b"item-0-v2")
    # The replay server now serves the original ciphertext again.
    value = client.access(1, key, ids[0])
    assert value == b"item-0"  # stale but cryptographically valid


def test_missing_balance_view_rejected():
    """A server withholding the balancing view for a multi-leaf tree is
    refused instead of leaving the tree unbalanced."""
    from repro.server.server import CloudServer
    from repro.protocol import messages as msg
    from dataclasses import replace

    class NoBalanceServer(CloudServer):
        def _on_delete_request(self, request):
            reply = super()._on_delete_request(request)
            if isinstance(reply, msg.DeleteChallenge):
                return replace(reply, balance=None)
            return reply

    server = NoBalanceServer()
    client, key, ids = outsourced(server, "adv-nobalance")
    with pytest.raises(ProtocolError):
        client.delete(1, key, ids[0])


def test_inconsistent_duplicate_location_values_rejected():
    """The same physical modulator reported with two different values
    across the MT and balance views is an inconsistency, not a duplicate:
    the client flags it as tampering."""
    from repro.server.server import CloudServer
    from repro.protocol import messages as msg
    from dataclasses import replace

    class InconsistentServer(CloudServer):
        def _on_delete_request(self, request):
            reply = super()._on_delete_request(request)
            if (isinstance(reply, msg.DeleteChallenge)
                    and reply.balance is not None):
                balance = reply.balance
                flipped = bytes([balance.s_leaf_mod[0] ^ 1]) + \
                    balance.s_leaf_mod[1:]
                # Only harmful when s is also a cut node of MT(k); choose
                # the deletion target accordingly in the test below.
                forged = replace(balance, s_leaf_mod=flipped)
                return replace(reply, balance=forged)
            return reply

    server = InconsistentServer()
    client, key, ids = outsourced(server, "adv-inconsistent", n=2)
    # n=2: deleting leaf slot 2 makes s (slot 2's sibling = 3)... choose
    # the first item so that s appears in both views.
    with pytest.raises((IntegrityError, DuplicateModulatorError)):
        client.delete(1, key, ids[1])


# ----------------------------------------------------------------------
# The replace exchange (Section V's master-key replacement)
# ----------------------------------------------------------------------

def _replace(client, key, item_id, record=b"new-record"):
    return client.replace(client.open_replace(1, key, item_id), key, record)


def _clone_cut_server(depth):
    server = CloneCutServer()
    server.clone_depth = depth
    return server


@pytest.mark.parametrize("make_server", [
    lambda: _clone_cut_server(0), lambda: _clone_cut_server(1),
    lambda: _clone_cut_server(2), DuplicateInjectionServer],
    ids=["clone-0", "clone-1", "clone-2", "duplicate"])
def test_replace_rejects_conflicting_mt_values(make_server):
    """A replacement's challenge gets the same MT(k) refusal rules as a
    deletion: a cut modulator cloned from the path (Fig. 7) or any other
    duplicate inside MT(k) is refused before a delta is computed."""
    server = make_server()
    client, key, ids = outsourced(server, "adv-replace-dup", n=8)
    with pytest.raises(DuplicateModulatorError):
        client.open_replace(1, key, ids[2])
    assert server.file_state(1).version == 0
    assert client.access(1, key, ids[2]) == b"item-2"


@pytest.mark.parametrize("server_cls", [WrongCiphertextServer,
                                        WrongLeafServer])
def test_replace_rejects_another_items_ciphertext(server_cls):
    """Another item's ciphertext (or its whole MT) fails the id binding,
    so the client never replaces -- or shreds the key of -- the wrong
    record."""
    server = server_cls()
    client, key, ids = outsourced(server, "adv-replace-ct")
    with pytest.raises(IntegrityError):
        client.open_replace(1, key, ids[3])
    assert server.file_state(1).version == 0
    for i, item in enumerate(ids):
        assert client.access(1, key, item) == b"item-%d" % i


def test_replace_refuses_a_challenge_that_stays_stale():
    """A server replaying an old challenge (an out-of-date tree version)
    gets one ReplaceCommit per fresh fetch, each refused as stale; the
    client gives up without rotating its key, and nothing was applied."""
    from dataclasses import replace

    from repro.protocol import messages as msg
    from repro.server.server import CloudServer

    class StaleChallengeServer(CloudServer):
        def _on_delete_request(self, request):
            reply = super()._on_delete_request(request)
            if isinstance(reply, msg.DeleteChallenge):
                return replace(reply, tree_version=reply.tree_version + 7)
            return reply

    server = StaleChallengeServer()
    client, key, ids = outsourced(server, "adv-replace-stale")
    with pytest.raises(StaleStateError):
        _replace(client, key, ids[1])
    assert server.file_state(1).version == 0
    assert client.pending_deletes() == []
    assert client.access(1, key, ids[1]) == b"item-1"


def test_replace_refetches_after_an_honest_interleaving():
    """An honest version bump between challenge and commit (another
    mutation of the same tree) is answered by a fresh challenge and a
    retry, not by a failure."""
    from repro.server.server import CloudServer

    server = CloudServer()
    client, key, ids = outsourced(server, "adv-replace-race")
    ticket = client.open_replace(1, key, ids[1])
    client.insert(1, key, b"interleaved")
    new_key, new_id = client.replace(ticket, key, b"item-1-v2")
    assert client.metrics.records[-1].retries == 1
    assert client.access(1, new_key, new_id) == b"item-1-v2"
    assert client.access(1, new_key, ids[0]) == b"item-0"


def test_delta_skipping_cannot_resurrect_a_replaced_record():
    """A server that Acks a ReplaceCommit without applying the deltas
    still cannot serve the old record: its key needed the shredded K."""
    from repro.protocol import messages as msg

    class ReplaceSkippingServer(DeltaSkippingServer):
        def _on_replace_commit(self, request):
            state = self.file_state(request.file_id)
            state.ciphertexts.put(request.new_item_id, request.ciphertext)
            state.version += 1
            return msg.Ack(tree_version=state.version)

    server = ReplaceSkippingServer()
    client, key, ids = outsourced(server, "adv-replace-skip")
    adversary = Adversary()
    adversary.observe(snapshot_file(server, 1))
    new_key, _new_id = _replace(client, key, ids[2])
    adversary.observe(snapshot_file(server, 1))
    adversary.seize_keystore({"master": new_key})
    assert adversary.try_recover(ids[2]) is None


# ----------------------------------------------------------------------
# A journalled resend refused as stale: the tree settles it
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["never-applied", "victims-stripped",
                                  "empty-reply"])
@pytest.mark.parametrize("op", ["delete", "delete_many", "replace"])
def test_stale_resend_keeps_the_old_key_unless_the_new_one_opens_the_tree(
        op, mode):
    """The Ack of a deletion is lost and the server answers the resend
    with E_STALE_STATE while the tree does not open under the journalled
    new key: the commit never applied, the server removed the victims
    without the deltas, or it withholds every survivor by serving an
    empty file.  The client must not take any of these for an applied
    commit: the resume raises, the journal entry stays, and the old key
    stays on the device (the deletion time T has not come)."""
    from dataclasses import replace

    from repro.protocol import messages as msg
    from repro.server.server import CloudServer

    strip = mode == "victims-stripped"

    class StaleResendServer(CloudServer):
        """Refuses every deletion and replacement commit as stale; with
        ``strip``, after applying it with its deltas zeroed."""

        def _refuse(self, apply, request):
            if strip:
                zero = bytes(self.params.modulator_size)
                apply(replace(request,
                              deltas=tuple(zero for _ in request.deltas)))
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")

        def _on_delete_commit(self, request):
            return self._refuse(super()._on_delete_commit, request)

        def _on_batch_delete_commit(self, request):
            return self._refuse(super()._on_batch_delete_commit, request)

        def _on_replace_commit(self, request):
            return self._refuse(super()._on_replace_commit, request)

        def _on_fetch_file(self, request):
            if mode == "empty-reply":
                return msg.FetchFileReply(
                    tree_version=self.file_state(request.file_id).version)
            return super()._on_fetch_file(request)

    server = StaleResendServer()
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel,
                                   rng=DeterministicRandom("adv-stale-resend"))
    key = client.outsource(1, [b"item-%d" % i for i in range(6)])
    ids = client.item_ids_of(6)
    victims = (ids[1], ids[4]) if op == "delete_many" else (ids[1],)
    channel._schedule = iter([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        if op == "delete":
            client.delete(1, key, victims[0])
        elif op == "delete_many":
            client.delete_many(1, key, victims)
        else:
            _replace(client, key, victims[0])
    assert (server.file_state(1).tree.leaf_count
            == 6 - (len(victims) if strip and op != "replace" else 0))

    with pytest.raises(StaleStateError):
        if op == "delete":
            client.resume_delete(1, victims[0])
        elif op == "delete_many":
            client.resume_delete_many(1, victims)
        else:
            client.resume_replace(1, victims[0])
    if op == "delete_many":
        assert client.pending_batch_deletes() == [(1, victims)]
    else:
        assert client.pending_deletes() == [(1, victims[0])]
    assert client.keystore.seize() == {"master:1": key}
    if not strip:
        for i, item in enumerate(ids):
            assert client.access(1, key, item) == b"item-%d" % i


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_fs_stale_resend_of_an_applied_delete_keeps_the_new_key(batch):
    """At the fs layer a resend refused as stale runs the deletion again
    from a fresh challenge.  The server here applied the data commit,
    then forgets its reply, answers the resend E_STALE_STATE and
    withholds the tree (an empty fetch).  The fresh challenge cannot be
    answered (the victims are gone), so resume raises before anything is
    overwritten: the journal keeps ``K'`` and the meta tree keeps ``K``.
    Once the tree is served again, the same resume settles under
    ``K'``."""
    from repro.fs.filesystem import OutsourcedFileSystem
    from repro.protocol import messages as msg
    from repro.server.server import CloudServer

    class WithholdingServer(CloudServer):
        """Forgets every reply for ``data_file`` and serves it empty."""

        data_file = None

        def _lookup_applied(self, request):
            if getattr(request, "file_id", None) == self.data_file:
                return None
            return super()._lookup_applied(request)

        def _on_fetch_file(self, request):
            if request.file_id == self.data_file:
                return msg.FetchFileReply(
                    tree_version=self.file_state(request.file_id).version)
            return super()._on_fetch_file(request)

    server = WithholdingServer()
    channel = FaultInjectingChannel(server, [])
    fs = OutsourcedFileSystem(channel,
                              rng=DeterministicRandom("adv-fs-stale"))
    handle = fs.create_file("g/f", [b"r%d" % i for i in range(5)])
    server.data_file = handle.file_id
    manager = fs.group_manager_of(handle.name)
    key = manager.master_key(handle.file_id)
    positions = [1, 2] if batch else [2]
    victims = tuple(handle._record.index.item_id_at(p) for p in positions)

    def resume():
        if batch:
            handle.resume_delete_many(positions)
        else:
            handle.resume_delete(positions[0])

    # meta challenge, data challenge, data commit (applied, Ack lost)
    channel._schedule = iter([NONE, NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        if batch:
            handle.delete_many(positions)
        else:
            handle.delete_record(positions[0])
    versions = (server.file_state(handle.file_id).version,
                server.file_state(manager.meta_file_id).version)

    with pytest.raises(UnknownItemError):
        resume()
    if batch:
        assert fs.client.pending_batch_deletes() == [(handle.file_id,
                                                      victims)]
    else:
        assert fs.client.pending_deletes() == [(handle.file_id,
                                                victims[0])]
    assert manager.master_key(handle.file_id) == key
    assert (server.file_state(handle.file_id).version,
            server.file_state(manager.meta_file_id).version) == versions
    assert handle.record_count == 5

    server.data_file = None
    resume()
    assert fs.client.pending_deletes() == []
    assert fs.client.pending_batch_deletes() == []
    assert manager.master_key(handle.file_id) != key
    assert handle.read_all() == (
        [b"r0", b"r3", b"r4"] if batch else [b"r0", b"r1", b"r3", b"r4"])
