"""The client side of the two-party assured-deletion protocol.

:class:`AssuredDeletionClient` implements every operation of Sections
IV-C/D/E against a server reached through a metering channel:

* ``outsource`` -- build the modulation tree, encrypt every item, upload.
* ``access`` / ``modify`` -- path fetch, key derivation, decrypt-verify.
* ``insert`` -- leaf split with leaf-modulator reassignment.
* ``delete`` -- the full assured-deletion exchange: verify ``MT(k)``,
  decrypt-verify the target, pick a fresh master key, send the deltas and
  balancing modulators, and *shred the old key only after the server
  acknowledges* (time ``T`` of the threat model is the shred).
* ``fetch_file`` -- whole-file download with shared-prefix key derivation.

Master keys are passed in and returned explicitly so the two-level scheme
of Section V (master keys themselves outsourced under a control key) can
drive this client for both levels.  When ``store_keys=True`` the client
also tracks keys in its local :class:`~repro.client.keystore.KeyStore`
for standalone (one-level) use.

Every public operation appends one :class:`~repro.sim.metrics.OpRecord`
to the collector: exact protocol bytes both ways (item payload split
out), client wall time excluding server time, and chain-hash counts.
"""

from __future__ import annotations

import functools
import time
from typing import Optional, Sequence

from repro.client.keystore import KeyStore
from repro.core import ops
from repro.core.ciphertext import ItemCodec
from repro.core.errors import (DuplicateModulatorError, IntegrityError,
                               ProtocolError, ReproError, StaleStateError,
                               UnknownItemError)
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.core.tree import ModulationTree
from repro.crypto.rng import RandomSource, SystemRandom
from repro.obs import runtime as obs
from repro.obs.trace import span
from repro.protocol import messages as msg
from repro.protocol.channel import Channel
from repro.sim.metrics import MetricsCollector, OpRecord


def _traced(op: str):
    """Wrap a client operation in a root span named ``client.<op>``.

    The span's context becomes the parent of every ``rpc.request`` span
    (and, through the wire trailer, of the server's spans), so one
    ``trace_id`` follows the whole operation.  Disabled observability
    short-circuits to the bare call.
    """
    def decorate(fn):
        name = "client." + op

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not obs.enabled:
                return fn(self, *args, **kwargs)
            with span(name):
                return fn(self, *args, **kwargs)
        return wrapper
    return decorate


class AssuredDeletionClient:
    """Protocol client holding (or relaying) the master keys."""

    #: How often duplicate-modulator rejections are retried before failing.
    max_retries = 8

    def __init__(self, channel: Channel, params: Params | None = None,
                 rng: RandomSource | None = None,
                 metrics: MetricsCollector | None = None,
                 keystore: KeyStore | None = None,
                 store_keys: bool = True) -> None:
        self.params = params if params is not None else Params()
        self.engine = ChainEngine(self.params.chain_hash)
        self.codec = ItemCodec(self.params)
        self.channel = channel
        self.rng = rng if rng is not None else SystemRandom()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.keystore = keystore if keystore is not None else KeyStore()
        self.store_keys = store_keys
        # In-flight deletions: commit sent (or about to be) but not yet
        # acknowledged.  Until the Ack arrives the OLD master key must not
        # be shredded (deletion time T has not happened) and the NEW key
        # must not be lost (the server may already have applied the
        # deltas).  See :meth:`resume_delete`.
        self._pending_deletes: dict[tuple[int, int], tuple[msg.DeleteCommit,
                                                           bytes]] = {}
        # Same journal for batched deletions, keyed by the item-id tuple.
        self._pending_batch_deletes: dict[
            tuple[int, tuple[int, ...]],
            tuple[msg.BatchDeleteCommit, bytes]] = {}

    # ------------------------------------------------------------------
    # Measurement plumbing
    # ------------------------------------------------------------------

    def _begin(self) -> tuple:
        return (self.channel.counters.snapshot(), self.engine.hash_calls,
                time.perf_counter())

    def _finish(self, op: str, begin: tuple, retries: int = 0) -> OpRecord:
        counters0, hashes0, t0 = begin
        wall = time.perf_counter() - t0
        delta = self.channel.counters.delta(counters0)
        record = OpRecord(
            op=op,
            bytes_sent=delta.bytes_sent,
            bytes_received=delta.bytes_received,
            payload_sent=delta.payload_sent,
            payload_received=delta.payload_received,
            client_seconds=max(0.0, wall - delta.server_seconds),
            hash_calls=self.engine.hash_calls - hashes0,
            round_trips=delta.round_trips,
            retries=retries,
        )
        self.metrics.add(record)
        return record

    @staticmethod
    def _expect(response: msg.Message, expected_type: type) -> msg.Message:
        if isinstance(response, msg.ErrorReply):
            if response.code == msg.E_DUPLICATE_MODULATOR:
                raise DuplicateModulatorError(response.detail)
            if response.code == msg.E_STALE_STATE:
                raise StaleStateError(response.detail)
            if response.code in (msg.E_UNKNOWN_ITEM, msg.E_UNKNOWN_FILE):
                raise UnknownItemError(response.detail)
            raise ProtocolError(f"server error {response.code}: "
                                f"{response.detail}")
        if not isinstance(response, expected_type):
            raise ProtocolError(f"expected {expected_type.__name__}, got "
                                f"{type(response).__name__}")
        return response

    def _key_name(self, file_id: int) -> str:
        return f"master:{file_id}"

    def _request_id(self) -> int:
        """Fresh non-zero idempotency id for one mutating request.

        The server answers a retransmission of the same id from its
        replay cache, so transport-level retries (and journalled resends
        after a lost Ack) are applied exactly once.
        """
        while True:
            request_id = int.from_bytes(self.rng.bytes(8), "big")
            if request_id:
                return request_id

    # ------------------------------------------------------------------
    # Outsourcing
    # ------------------------------------------------------------------

    @_traced("outsource")
    def outsource(self, file_id: int, items: Sequence[bytes]) -> bytes:
        """Encrypt and upload ``items`` as a new file; return the master key.

        Item ids are drawn from the global counter in insertion order; use
        :meth:`item_ids_of` afterwards (or track the returned ids through
        the fs layer) to address individual items.
        """
        begin = self._begin()
        retries = 0
        while True:
            master_key = self.rng.bytes(self.params.master_key_size)
            item_ids = [self.keystore.next_item_id() for _ in items]
            tree = ModulationTree.build_random(item_ids,
                                               self.params.modulator_size,
                                               self.rng)
            n = len(items)
            links, leaves = [], []
            for kind, _slot, value in tree.iter_modulators():
                (links if kind == "link" else leaves).append(value)

            outputs = self._derive_outputs(master_key, n, links, leaves)
            ciphertexts = tuple(self.codec.encrypt_many(
                [outputs[n + i] for i in range(n)], list(items),
                item_ids, [self.rng.bytes(8) for _ in items]))
            request = msg.OutsourceRequest(
                file_id=file_id, item_ids=tuple(item_ids),
                links=tuple(links), leaves=tuple(leaves),
                ciphertexts=ciphertexts, request_id=self._request_id())
            try:
                self._expect(self.channel.request(request), msg.Ack)
            except DuplicateModulatorError:
                retries += 1
                if retries > self.max_retries:
                    raise
                continue
            break

        self._last_item_ids = list(item_ids)
        if self.store_keys:
            self.keystore.put(self._key_name(file_id), master_key)
        self._finish("outsource", begin, retries)
        return master_key

    def item_ids_of(self, items_count: int) -> list[int]:
        """Item ids assigned by the most recent :meth:`outsource` call."""
        ids = getattr(self, "_last_item_ids", None)
        if ids is None or len(ids) != items_count:
            raise ReproError("no matching outsource call recorded")
        return list(ids)

    def _derive_outputs(self, master_key: bytes, n: int,
                        links: Sequence[bytes],
                        leaves: Sequence[bytes]) -> dict[int, bytes]:
        """Slot-indexed chain outputs for a whole slot-ordered tree dump."""
        total = 2 * n - 1 if n else 0
        link_by_slot: list[Optional[bytes]] = [None] * (total + 1)
        leaf_by_slot: list[Optional[bytes]] = [None] * (total + 1)
        for i, value in enumerate(links):
            link_by_slot[2 + i] = value
        for i, value in enumerate(leaves):
            leaf_by_slot[n + i] = value
        return ops.derive_all_keys(self.engine, master_key, n,
                                   link_by_slot, leaf_by_slot)

    # ------------------------------------------------------------------
    # Access and modification
    # ------------------------------------------------------------------

    def _fetch_verified(self, file_id: int, master_key: bytes,
                        item_id: int) -> tuple[bytes, bytes, int]:
        """Shared access path: returns (message, chain_output, version)."""
        reply = self._expect(
            self.channel.request(msg.AccessRequest(file_id=file_id,
                                                   item_id=item_id)),
            msg.AccessReply)
        ops.verify_path_structure(reply.path)
        ops.verify_distinct_modulators(reply.path.modulator_list())
        chain_output = ops.chain_output_for_path(self.engine, master_key,
                                                 reply.path)
        message, recovered_id = self.codec.decrypt(chain_output,
                                                   reply.ciphertext)
        if recovered_id != item_id:
            raise IntegrityError(
                f"server returned item {recovered_id} instead of {item_id}")
        return message, chain_output, reply.tree_version

    @_traced("access")
    def access(self, file_id: int, master_key: bytes, item_id: int) -> bytes:
        """Fetch, decrypt, and verify one item."""
        begin = self._begin()
        message, _output, _version = self._fetch_verified(file_id, master_key,
                                                          item_id)
        self._finish("access", begin)
        return message

    @_traced("modify")
    def modify(self, file_id: int, master_key: bytes, item_id: int,
               new_message: bytes) -> None:
        """Replace one item's plaintext, re-encrypting under the same key."""
        begin = self._begin()
        retries = 0
        while True:
            _old, chain_output, version = self._fetch_verified(
                file_id, master_key, item_id)
            ciphertext = self.codec.encrypt(chain_output, new_message,
                                            item_id, self.rng.bytes(8))
            try:
                self._expect(
                    self.channel.request(msg.ModifyCommit(
                        file_id=file_id, item_id=item_id,
                        ciphertext=ciphertext, tree_version=version,
                        request_id=self._request_id())),
                    msg.Ack)
            except StaleStateError:
                retries += 1
                if retries > self.max_retries:
                    raise
                continue
            break
        self._finish("modify", begin, retries)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    @_traced("insert")
    def insert(self, file_id: int, master_key: bytes, message: bytes) -> int:
        """Insert a new item; returns its id."""
        begin = self._begin()
        retries = 0
        while True:
            challenge = self._expect(
                self.channel.request(msg.InsertRequest(file_id=file_id)),
                msg.InsertChallenge)
            commit = ops.compute_insertion(self.engine, master_key,
                                           challenge.path, self.rng)
            item_id = self.keystore.next_item_id()
            ciphertext = self.codec.encrypt(commit.chain_output, message,
                                            item_id, self.rng.bytes(8))
            try:
                self._expect(
                    self.channel.request(msg.InsertCommit(
                        file_id=file_id, item_id=item_id,
                        t_new_link=commit.t_new_link,
                        t_new_leaf=commit.t_new_leaf,
                        e_link=commit.e_link, e_leaf=commit.e_leaf,
                        ciphertext=ciphertext,
                        tree_version=challenge.tree_version,
                        request_id=self._request_id())),
                    msg.Ack)
            except (DuplicateModulatorError, StaleStateError):
                retries += 1
                if retries > self.max_retries:
                    raise
                continue
            break
        self._finish("insert", begin, retries)
        return item_id

    # ------------------------------------------------------------------
    # Deletion (the paper's core operation)
    # ------------------------------------------------------------------

    @_traced("delete")
    def delete(self, file_id: int, master_key: bytes, item_id: int) -> bytes:
        """Assuredly delete one item; returns the *new* master key.

        The old master key is shredded from the keystore only after the
        server acknowledges -- that shred is the deletion time ``T`` after
        which the threat model allows the device to be seized.
        """
        begin = self._begin()
        challenge = self._expect(
            self.channel.request(msg.DeleteRequest(file_id=file_id,
                                                   item_id=item_id)),
            msg.DeleteChallenge)
        mt = challenge.mt

        # Client refusal rules (Theorem 2, case ii).  The MT view and the
        # balancing view may legitimately reference the same physical
        # modulator (t or s can sit on the cut of MT(k)), so distinctness
        # is checked over *locations*: the same (kind, slot) must carry one
        # consistent value, and all distinct locations must carry distinct
        # values.
        ops.verify_mt_structure(mt)
        locations: dict[tuple[str, int], bytes] = {}

        def _note(kind: str, slot: int, value: bytes) -> None:
            previous = locations.setdefault((kind, slot), value)
            if previous != value:
                raise IntegrityError(
                    f"server sent conflicting values for the {kind} "
                    f"modulator of slot {slot}")

        for slot, link in zip(mt.path_slots[1:], mt.path_links):
            _note("link", slot, link)
        _note("leaf", mt.path_slots[-1], mt.leaf_mod)
        for entry in mt.cut:
            _note("link", entry.slot, entry.link_mod)
            if entry.leaf_mod is not None:
                _note("leaf", entry.slot, entry.leaf_mod)
        if challenge.balance is not None:
            balance = challenge.balance
            ops.verify_path_structure(balance.t_path)
            if balance.s_slot != (balance.t_path.leaf_slot ^ 1):
                raise ops.StructureError("balance sibling slot mismatch")
            for slot, link in zip(balance.t_path.path_slots[1:],
                                  balance.t_path.path_links):
                _note("link", slot, link)
            _note("leaf", balance.t_path.leaf_slot, balance.t_path.leaf_mod)
            _note("link", balance.s_slot, balance.s_link_mod)
            _note("leaf", balance.s_slot, balance.s_leaf_mod)
        elif len(mt.path_slots) > 1:
            raise ProtocolError("server omitted the balancing view for a "
                                "multi-leaf tree")
        ops.verify_distinct_modulators(list(locations.values()))

        path_view = ops.PathView(mt.path_slots, mt.path_links, mt.leaf_mod)
        old_output = ops.chain_output_for_path(self.engine, master_key,
                                               path_view)
        _message, recovered_id = self.codec.decrypt(old_output,
                                                    challenge.ciphertext)
        if recovered_id != item_id:
            raise IntegrityError(
                f"server offered item {recovered_id} for deletion of "
                f"{item_id}; rejecting MT(k)")

        retries = 0
        while True:
            new_key = self.rng.bytes(self.params.master_key_size)
            # Re-pick if the deleted key would survive the key change
            # (Theorem 2's "the client can simply pick a different K'").
            new_output = self.engine.evaluate(new_key,
                                              path_view.modulator_list())
            if new_output == old_output:
                retries += 1
                continue
            cut_slots, deltas = ops.compute_deltas(self.engine, master_key,
                                                   new_key, mt)
            x_s_prime, dest_link, dest_leaf = ops.compute_balance_values(
                self.engine, new_key, mt, challenge.balance, cut_slots,
                deltas, self.rng)
            commit = msg.DeleteCommit(
                file_id=file_id, item_id=item_id,
                cut_slots=cut_slots, deltas=deltas,
                x_s_prime=x_s_prime, dest_link=dest_link,
                dest_leaf=dest_leaf,
                tree_version=challenge.tree_version,
                request_id=self._request_id())
            # Journal before sending: if the Ack is lost, the server may
            # already hold the delta-adjusted tree under new_key.
            self._pending_deletes[(file_id, item_id)] = (commit, new_key)
            try:
                self._expect(self.channel.request(commit), msg.Ack)
            except DuplicateModulatorError:
                self._pending_deletes.pop((file_id, item_id), None)
                retries += 1
                if retries > self.max_retries:
                    raise
                continue
            break

        self._pending_deletes.pop((file_id, item_id), None)
        if self.store_keys:
            self.keystore.shred(self._key_name(file_id))
            self.keystore.put(self._key_name(file_id), new_key)
        self._finish("delete", begin, retries)
        return new_key

    def pending_deletes(self) -> list[tuple[int, int]]:
        """(file_id, item_id) pairs whose deletion commit is unconfirmed."""
        return sorted(self._pending_deletes)

    @_traced("resume_delete")
    def resume_delete(self, file_id: int, item_id: int) -> bytes:
        """Finalise a deletion whose Ack was lost in transit.

        Resends the journalled commit byte-for-byte: the server's replay
        cache answers with the original Ack if the commit had been
        applied, or applies it now if it never arrived -- exactly-once
        either way.  On success the old master key is shredded (this is
        deletion time ``T``) and the new key returned.
        """
        entry = self._pending_deletes.get((file_id, item_id))
        if entry is None:
            raise UnknownItemError(
                f"no pending deletion for file {file_id} item {item_id}")
        commit, new_key = entry
        begin = self._begin()
        self._expect(self.channel.request(commit), msg.Ack)
        self._pending_deletes.pop((file_id, item_id), None)
        if self.store_keys:
            self.keystore.shred(self._key_name(file_id))
            self.keystore.put(self._key_name(file_id), new_key)
        self._finish("resume_delete", begin)
        return new_key

    # ------------------------------------------------------------------
    # Batched deletion
    # ------------------------------------------------------------------

    @_traced("delete_many")
    def delete_many(self, file_id: int, master_key: bytes,
                    item_ids: Sequence[int]) -> bytes:
        """Assuredly delete a *set* of items in one exchange.

        One key rotation and one round-trip pair replace ``k`` sequential
        deletions: the union cut of all target paths is compensated by a
        single fresh master key, chain evaluations go out level by level
        through ``step_many``, and the ``k`` rebalancing moves are simulated
        locally from the balance band in the view.  Semantics are
        identical to deleting the items one by one (in the given order);
        returns the new master key.
        """
        item_ids = tuple(item_ids)
        if not item_ids:
            return master_key
        if len(set(item_ids)) != len(item_ids):
            raise ReproError("batch item ids must be distinct")
        begin = self._begin()
        reply = self._expect(
            self.channel.request(msg.BatchDeleteRequest(file_id=file_id,
                                                        item_ids=item_ids)),
            msg.BatchDeleteReply)
        view = ops.BatchView(n_leaves=reply.n_leaves,
                             target_slots=reply.target_slots,
                             links=reply.links, leaf_mods=reply.leaf_mods)
        # Client refusal rules (Theorem 2): the derived slot lists pin the
        # view's shape, so only value-level checks remain.
        ops.verify_batch_view(view)
        if len(view.target_slots) != len(item_ids):
            raise ProtocolError("one target slot per item required")
        if len(reply.ciphertexts) != len(item_ids):
            raise ProtocolError("one ciphertext per item required")

        new_key = self.rng.bytes(self.params.master_key_size)
        values_old, values_new = ops.chain_values_for_view(
            self.engine, [master_key, new_key], view)
        old_outputs = ops.batch_chain_outputs(self.engine, values_old, view)
        decrypted = self.codec.decrypt_many(old_outputs,
                                            list(reply.ciphertexts))
        for item_id, (_message, recovered_id) in zip(item_ids, decrypted):
            if recovered_id != item_id:
                raise IntegrityError(
                    f"server offered item {recovered_id} for deletion of "
                    f"{item_id}; rejecting MT(S)")

        retries = 0
        while True:
            # Re-pick if any deleted key would survive the key change
            # (Theorem 2's "the client can simply pick a different K'").
            new_outputs = ops.batch_chain_outputs(self.engine, values_new,
                                                  view)
            if any(new == old for new, old in zip(new_outputs, old_outputs)):
                retries += 1
                if retries > self.max_retries:
                    raise ReproError("could not find a collision-free key")
                new_key = self.rng.bytes(self.params.master_key_size)
                values_new = ops.chain_values_for_view(self.engine,
                                                       [new_key], view)[0]
                continue
            cut_slots, deltas = ops.compute_deltas_multi(view, values_old,
                                                         values_new)
            moves = ops.compute_batch_moves(self.engine, view, cut_slots,
                                            deltas, values_old, values_new,
                                            self.rng)
            commit = msg.BatchDeleteCommit(
                file_id=file_id, item_ids=item_ids, deltas=deltas,
                moves=moves, tree_version=reply.tree_version,
                request_id=self._request_id())
            # Journal before sending: if the Ack is lost, the server may
            # already hold the delta-adjusted tree under new_key.
            self._pending_batch_deletes[(file_id, item_ids)] = (commit,
                                                                new_key)
            try:
                self._expect(self.channel.request(commit), msg.Ack)
            except DuplicateModulatorError:
                self._pending_batch_deletes.pop((file_id, item_ids), None)
                retries += 1
                if retries > self.max_retries:
                    raise
                new_key = self.rng.bytes(self.params.master_key_size)
                values_new = ops.chain_values_for_view(self.engine,
                                                       [new_key], view)[0]
                continue
            break

        self._pending_batch_deletes.pop((file_id, item_ids), None)
        if self.store_keys:
            self.keystore.shred(self._key_name(file_id))
            self.keystore.put(self._key_name(file_id), new_key)
        self._finish("delete_many", begin, retries)
        return new_key

    def pending_batch_deletes(self) -> list[tuple[int, tuple[int, ...]]]:
        """(file_id, item_ids) pairs whose batch commit is unconfirmed."""
        return sorted(self._pending_batch_deletes)

    @_traced("resume_delete_many")
    def resume_delete_many(self, file_id: int,
                           item_ids: Sequence[int]) -> bytes:
        """Finalise a batched deletion whose Ack was lost in transit.

        Same exactly-once resolution as :meth:`resume_delete`: the
        journalled commit is resent byte-for-byte and the server's replay
        cache answers retransmissions with the original Ack.
        """
        key = (file_id, tuple(item_ids))
        entry = self._pending_batch_deletes.get(key)
        if entry is None:
            raise UnknownItemError(
                f"no pending batch deletion for file {file_id} items "
                f"{list(item_ids)}")
        commit, new_key = entry
        begin = self._begin()
        self._expect(self.channel.request(commit), msg.Ack)
        self._pending_batch_deletes.pop(key, None)
        if self.store_keys:
            self.keystore.shred(self._key_name(file_id))
            self.keystore.put(self._key_name(file_id), new_key)
        self._finish("resume_delete_many", begin)
        return new_key

    # ------------------------------------------------------------------
    # Whole-file operations
    # ------------------------------------------------------------------

    @_traced("fetch_file")
    def fetch_file(self, file_id: int, master_key: bytes) -> dict[int, bytes]:
        """Download and decrypt the whole file; item id -> plaintext."""
        begin = self._begin()
        reply = self._expect(
            self.channel.request(msg.FetchFileRequest(file_id=file_id)),
            msg.FetchFileReply)
        n = reply.n_leaves
        if len(reply.item_ids) != n or len(reply.ciphertexts) != n:
            raise ProtocolError("whole-file reply is inconsistent")
        outputs = self._derive_outputs(master_key, n, reply.links,
                                       reply.leaves)
        leaf_outputs = [outputs[n + i] for i in range(n)]
        decrypted = self.codec.decrypt_many(leaf_outputs,
                                            list(reply.ciphertexts))
        result: dict[int, bytes] = {}
        for item_id, (message, recovered_id) in zip(reply.item_ids,
                                                    decrypted):
            if recovered_id != item_id:
                raise IntegrityError(
                    f"item id mismatch in whole-file fetch: "
                    f"{recovered_id} != {item_id}")
            result[item_id] = message
        self._finish("fetch_file", begin)
        return result

    @_traced("delete_file_state")
    def delete_file_state(self, file_id: int) -> None:
        """Ask the server to drop a file's state (space reclamation only)."""
        begin = self._begin()
        self._expect(
            self.channel.request(msg.DeleteFileRequest(
                file_id=file_id, request_id=self._request_id())),
            msg.Ack)
        self._finish("delete_file_state", begin)
