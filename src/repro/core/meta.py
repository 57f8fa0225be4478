"""Two-level key management: the meta modulation tree (Section V).

Master keys of all files become the data items of a *meta file*, itself
protected by a modulation tree under a single higher-level **control
key**.  The client then stores only control keys, no matter how many
files it owns:

* accessing a file first accesses its master key in the meta tree, then
  the file's own tree;
* deleting a master key from the meta tree makes the *whole file*
  unrecoverable (assured whole-file deletion);
* deleting a data item rotates the file's master key, which must then be
  *assuredly replaced* in the meta tree.

The paper calls the replacement "modifying the master key of the file in
the meta modulation tree".  A plain in-place modify re-encrypts under the
*same* meta data key -- but the threat model's server keeps every old
ciphertext, so the old master key ``K`` (and with it the deleted item)
would stay recoverable once the meta data key leaks with the device.
The replacement here is therefore an assured *replace*: the meta
``DeleteChallenge`` for the file's record (whose ciphertext the client
must decrypt-verify anyway, so it doubles as the fetch of ``K``), then
one ``ReplaceCommit`` carrying the cut deltas for a fresh control key
``C'`` and the new record under ``F(C', M_k)`` in the same leaf.  The
old record needs ``C``, shredded at the Ack, exactly as after a
deletion; no balancing move and no insertion split are needed.
``docs/PROTOCOL.md`` gives the argument, the two-level ablation
benchmark measures the cost, and ``tests/security`` regression-tests the
in-place-modify attack.
"""

from __future__ import annotations

import struct

from repro.client.client import AssuredDeletionClient, ReplaceTicket
from repro.core.errors import IntegrityError, UnknownItemError
from repro.protocol import messages as msg


def encode_master_key_record(file_id: int, master_key: bytes) -> bytes:
    """Meta-item payload: the owning file id plus its master key."""
    return struct.pack(">QH", file_id, len(master_key)) + master_key


def decode_master_key_record(payload: bytes) -> tuple[int, bytes]:
    """Inverse of :func:`encode_master_key_record` (validating)."""
    if len(payload) < 10:
        raise IntegrityError("meta item too short to hold a master key")
    file_id, key_length = struct.unpack(">QH", payload[:10])
    key = payload[10:]
    if len(key) != key_length:
        raise IntegrityError("meta item key length mismatch")
    return file_id, key


class MetaKeyManager:
    """Manages one meta file holding the master keys of a file group."""

    def __init__(self, client: AssuredDeletionClient, meta_file_id: int,
                 control_key_name: str) -> None:
        self._client = client
        self._meta_file_id = meta_file_id
        self._control_key_name = control_key_name
        self._meta_item_of_file: dict[int, int] = {}
        # The mapping file -> meta item id is bookkeeping, not key
        # material: it reveals nothing an attacker with the server does
        # not already have.  It lives client-side for simplicity.

    @property
    def control_key_name(self) -> str:
        return self._control_key_name

    @property
    def meta_file_id(self) -> int:
        return self._meta_file_id

    def initialize(self) -> None:
        """Create the empty meta file and store the fresh control key."""
        control_key = self._client.outsource(self._meta_file_id, [])
        self._client.keystore.put(self._control_key_name, control_key)

    def _control_key(self) -> bytes:
        return self._client.keystore.get(self._control_key_name)

    def _set_control_key(self, new_key: bytes) -> None:
        self._client.keystore.shred(self._control_key_name)
        self._client.keystore.put(self._control_key_name, new_key)

    def managed_file_ids(self) -> list[int]:
        return sorted(self._meta_item_of_file)

    def meta_item_of(self, file_id: int) -> int:
        """The meta-tree item currently holding ``file_id``'s master key."""
        meta_item = self._meta_item_of_file.get(file_id)
        if meta_item is None:
            raise UnknownItemError(f"file {file_id} is not registered")
        return meta_item

    def register(self, file_id: int, master_key: bytes) -> None:
        """Outsource a new file's master key into the meta tree."""
        if file_id in self._meta_item_of_file:
            raise IntegrityError(f"file {file_id} already registered")
        payload = encode_master_key_record(file_id, master_key)
        meta_item = self._client.insert(self._meta_file_id,
                                        self._control_key(), payload)
        self._meta_item_of_file[file_id] = meta_item

    def _pending(self, file_id: int):
        """The file's journalled, unacknowledged meta-tree commit."""
        return self._client.pending_commit(self._meta_file_id,
                                           self.meta_item_of(file_id))

    def manages(self, file_id: int) -> bool:
        return file_id in self._meta_item_of_file

    def master_key(self, file_id: int) -> bytes:
        """Retrieve a file's master key through the meta tree."""
        payload = self._client.access(self._meta_file_id, self._control_key(),
                                      self.meta_item_of(file_id))
        return self._checked_key(file_id, payload)

    @staticmethod
    def _checked_key(file_id: int, payload: bytes) -> bytes:
        stored_file_id, key = decode_master_key_record(payload)
        if stored_file_id != file_id:
            raise IntegrityError("meta tree returned a key for the wrong file")
        return key

    def open_replace(self, file_id: int) -> tuple[ReplaceTicket, bytes]:
        """Open the replacement of a file's master key (one round trip).

        Returns the verified ticket and the file's current master key,
        decrypted from the challenge -- the caller needs no separate
        :meth:`master_key` access.
        """
        ticket = self._client.open_replace(self._meta_file_id,
                                           self._control_key(),
                                           self.meta_item_of(file_id))
        return ticket, self._checked_key(file_id, ticket.message)

    def replace_master_key(self, file_id: int, new_master_key: bytes,
                           ticket: ReplaceTicket | None = None) -> None:
        """Assuredly replace a file's master key after an item deletion.

        One ``ReplaceCommit`` against the ticket from :meth:`open_replace`;
        without a ticket the replacement opens its own first (two round
        trips).  The old meta item (and with it the old master key)
        becomes unrecoverable, and the control key rotates -- both only
        at the Ack; after a lost Ack, :meth:`resume_replace` finishes the
        job.
        """
        if ticket is None:
            ticket, _old_key = self.open_replace(file_id)
        payload = encode_master_key_record(file_id, new_master_key)
        new_control, new_item = self._client.replace(
            ticket, self._control_key(), payload)
        self._set_control_key(new_control)
        self._meta_item_of_file[file_id] = new_item

    def resume_replace(self, file_id: int) -> None:
        """Finish a replacement whose ``ReplaceCommit`` lost its Ack."""
        new_control, new_item = self._client.resume_replace(
            self._meta_file_id, self.meta_item_of(file_id))
        self._set_control_key(new_control)
        self._meta_item_of_file[file_id] = new_item

    def remove(self, file_id: int) -> None:
        """Assured whole-file deletion: shred the file's master key.

        After this the file's every item is unrecoverable regardless of
        what the server retains; dropping the server-side ciphertexts is
        mere space reclamation.  The file stays registered until the
        deletion is acknowledged, so a call that failed in transit can
        simply be repeated: a journalled commit is resumed, not re-sent
        as a new deletion.
        """
        if isinstance(self._pending(file_id), msg.ReplaceCommit):
            self.resume_replace(file_id)
        meta_item = self.meta_item_of(file_id)
        if isinstance(self._pending(file_id), msg.DeleteCommit):
            new_control = self._client.resume_delete(self._meta_file_id,
                                                     meta_item)
        else:
            new_control = self._client.delete(self._meta_file_id,
                                              self._control_key(), meta_item)
        self._set_control_key(new_control)
        del self._meta_item_of_file[file_id]
