"""Typed protocol messages with exact binary encodings.

Operations map to messages as follows (client -> server -> client):

* outsource:  ``OutsourceRequest`` -> ``Ack``
* access:     ``AccessRequest`` -> ``AccessReply``
* modify:     ``AccessRequest`` -> ``AccessReply`` then
              ``ModifyCommit`` -> ``Ack``
* delete:     ``DeleteRequest`` -> ``DeleteChallenge`` then
              ``DeleteCommit`` -> ``Ack``
* insert:     ``InsertRequest`` -> ``InsertChallenge`` then
              ``InsertCommit`` -> ``Ack``
* whole file: ``FetchFileRequest`` -> ``FetchFileReply``
* drop file:  ``DeleteFileRequest`` -> ``Ack``
* batch delete: ``BatchDeleteRequest`` -> ``BatchDeleteReply`` then
              ``BatchDeleteCommit`` -> ``Ack``
* replace:    ``DeleteRequest`` -> ``DeleteChallenge`` then
              ``ReplaceCommit`` -> ``Ack`` (the meta tree's master-key
              replacement, Section V)

Any failure is an ``ErrorReply``.  ``payload_bytes()`` reports how many of
a message's encoded bytes are item content (ciphertexts); the accounting
layer subtracts them where the paper's overhead definition requires
("the overhead does not include the data item itself").

Every *mutating* message carries a client-chosen ``request_id`` (a
non-zero random u64).  The server remembers the reply to each id in a
bounded cache, so a retransmission it holds -- a transport retry, or a
journalled client resend after a lost Ack -- is answered from that cache
instead of being applied twice; a resend it no longer holds is refused
as stale and settled by the client from the tree.  ``request_id = 0``
opts out (the message is then only protected by the tree-version check).

Any message may additionally carry an optional **trace-context trailer**
after its body (see ``docs/OBSERVABILITY.md``): a one-byte magic
``0x54`` ('T'), a 16-byte trace id, an 8-byte span id, and a one-byte
flags field, W3C Trace Context sized.  The trailer is pure telemetry:
:func:`encode_message` appends it only when a trace context is passed
(observability enabled), :func:`decode_message` detaches it before the
body's trailing-bytes check, and the canonical (trace-free) encoding is
what WAL records and replay digests are computed over, so tracing never
changes protocol semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Type

from repro.core.errors import ProtocolError
from repro.core.ops import BalanceMove
from repro.core.tree import BalanceView, CutEntry, MTView, PathView
from repro.protocol.wire import Reader, WireContext, Writer

# Error codes carried by ErrorReply.
E_UNKNOWN_FILE = 1
E_UNKNOWN_ITEM = 2
#: Reserved: once the server's duplicate-modulator refusal, which no
#: longer exists.  Kept so that no other error takes the number; a client
#: treats it like any other unknown code.
E_DUPLICATE_MODULATOR = 3
E_STALE_STATE = 4
E_BAD_REQUEST = 5

#: First byte of the optional trace-context trailer ('T').
TRACE_MAGIC = 0x54
#: Trailer length: magic + 16-byte trace id + 8-byte span id + flags.
TRACE_TRAILER_LEN = 1 + 16 + 8 + 1


def _write_path(w: Writer, view: PathView) -> None:
    w.u64_list(view.path_slots)
    w.modulator_list(view.path_links)
    w.modulator(view.leaf_mod)


def _read_path(r: Reader) -> PathView:
    slots = tuple(r.u64_list())
    links = tuple(r.modulator_list())
    leaf = r.modulator()
    return PathView(path_slots=slots, path_links=links, leaf_mod=leaf)


def _write_mt(w: Writer, view: MTView) -> None:
    w.u64_list(view.path_slots)
    w.modulator_list(view.path_links)
    w.modulator(view.leaf_mod)
    w.u32(len(view.cut))
    for entry in view.cut:
        w.u64(entry.slot)
        w.modulator(entry.link_mod)
        w.u8(1 if entry.is_leaf else 0)
        if entry.is_leaf:
            w.modulator(entry.leaf_mod)


def _read_mt(r: Reader) -> MTView:
    slots = tuple(r.u64_list())
    links = tuple(r.modulator_list())
    leaf = r.modulator()
    cut = []
    for _ in range(r.u32()):
        slot = r.u64()
        link_mod = r.modulator()
        is_leaf = bool(r.u8())
        leaf_mod = r.modulator() if is_leaf else None
        cut.append(CutEntry(slot=slot, link_mod=link_mod, is_leaf=is_leaf,
                            leaf_mod=leaf_mod))
    return MTView(path_slots=slots, path_links=links, leaf_mod=leaf,
                  cut=tuple(cut))


def _write_balance(w: Writer, view: Optional[BalanceView]) -> None:
    w.u8(1 if view is not None else 0)
    if view is not None:
        _write_path(w, view.t_path)
        w.u64(view.s_slot)
        w.modulator(view.s_link_mod)
        w.modulator(view.s_leaf_mod)


def _read_balance(r: Reader) -> Optional[BalanceView]:
    if not r.u8():
        return None
    t_path = _read_path(r)
    s_slot = r.u64()
    s_link = r.modulator()
    s_leaf = r.modulator()
    return BalanceView(t_path=t_path, s_slot=s_slot, s_link_mod=s_link,
                       s_leaf_mod=s_leaf)


class Message:
    """Base class: every message has a type tag and a body codec."""

    TYPE: ClassVar[int] = 0

    def encode_body(self, w: Writer) -> None:
        raise NotImplementedError

    @classmethod
    def decode_body(cls, r: Reader) -> "Message":
        raise NotImplementedError

    def payload_bytes(self) -> int:
        """Encoded bytes attributable to item content (default: none)."""
        return 0


_REGISTRY: dict[int, Type[Message]] = {}


def register(cls: Type[Message]) -> Type[Message]:
    if cls.TYPE in _REGISTRY:
        raise ValueError(f"duplicate message type {cls.TYPE}")
    _REGISTRY[cls.TYPE] = cls
    return cls


def encode_message(ctx: WireContext, message: Message,
                   trace: "TraceContext | None" = None) -> bytes:
    """Encode ``message``; with ``trace``, append the telemetry trailer.

    The trace-free encoding is canonical: WAL records and replay digests
    use it, so the same logical message always hashes identically no
    matter which (or whether a) trace context carried it.
    """
    w = Writer(ctx)
    w.u8(message.TYPE)
    message.encode_body(w)
    if trace is not None:
        w.u8(TRACE_MAGIC).raw(trace.trace_id).raw(trace.span_id)
        w.u8(trace.flags)
    return w.getvalue()


def decode_message(ctx: WireContext, data: bytes) -> Message:
    r = Reader(ctx, data)
    type_tag = r.u8()
    cls = _REGISTRY.get(type_tag)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_tag}")
    message = cls.decode_body(r)
    if r.remaining() == TRACE_TRAILER_LEN and r.peek_u8() == TRACE_MAGIC:
        from repro.obs.trace import TraceContext
        r.u8()
        attach_trace(message, TraceContext(trace_id=r.raw(16),
                                           span_id=r.raw(8),
                                           flags=r.u8()))
    r.expect_end()
    return message


def attach_trace(message: Message, trace: "TraceContext") -> None:
    """Pin a decoded trace context to a (frozen) message instance."""
    object.__setattr__(message, "_trace_context", trace)


def get_trace(message: Message) -> "TraceContext | None":
    """The trace context a message arrived with, if any."""
    return getattr(message, "_trace_context", None)


@register
@dataclass(frozen=True)
class Ack(Message):
    """Generic success acknowledgement, echoing the new tree version."""

    TYPE: ClassVar[int] = 1
    tree_version: int = 0
    item_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.tree_version).u64(self.item_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "Ack":
        return cls(tree_version=r.u64(), item_id=r.u64())


@register
@dataclass(frozen=True)
class ErrorReply(Message):
    """Failure reply with a machine-readable code.

    ``request_id`` echoes the failing request's idempotency id (0 when
    the request carried none or could not be decoded), so a pipelined
    client -- or the obs layer -- can correlate a server-side failure
    with the request that caused it.
    """

    TYPE: ClassVar[int] = 2
    code: int = 0
    detail: str = ""
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u16(self.code).text(self.detail).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "ErrorReply":
        return cls(code=r.u16(), detail=r.text(), request_id=r.u64())


@register
@dataclass(frozen=True)
class OutsourceRequest(Message):
    """Initial upload: the whole modulation tree plus all ciphertexts.

    ``item_ids[i]`` and ``ciphertexts[i]`` belong to leaf slot ``n + i``;
    ``links`` holds the link modulators for slots ``2 .. 2n-1`` and
    ``leaves`` the leaf modulators for slots ``n .. 2n-1``, both in slot
    order.
    """

    TYPE: ClassVar[int] = 3
    file_id: int = 0
    item_ids: tuple[int, ...] = ()
    links: tuple[bytes, ...] = ()
    leaves: tuple[bytes, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)
        w.u64_list(self.item_ids)
        w.modulator_list(self.links)
        w.modulator_list(self.leaves)
        w.blob_list(self.ciphertexts)
        w.u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "OutsourceRequest":
        file_id = r.u64()
        item_ids = tuple(r.u64_list())
        links = tuple(r.modulator_list())
        leaves = tuple(r.modulator_list())
        ciphertexts = tuple(r.blob_list())
        return cls(file_id=file_id, item_ids=item_ids, links=links,
                   leaves=leaves, ciphertexts=ciphertexts,
                   request_id=r.u64())

    def payload_bytes(self) -> int:
        return 4 * len(self.ciphertexts) + sum(map(len, self.ciphertexts))


@register
@dataclass(frozen=True)
class AccessRequest(Message):
    """Fetch one item (also the first half of a modification)."""

    TYPE: ClassVar[int] = 4
    file_id: int = 0
    item_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "AccessRequest":
        return cls(file_id=r.u64(), item_id=r.u64())


@register
@dataclass(frozen=True)
class AccessReply(Message):
    """Path modulators plus the ciphertext (Section IV-E access)."""

    TYPE: ClassVar[int] = 5
    path: PathView = None  # type: ignore[assignment]
    ciphertext: bytes = b""
    tree_version: int = 0

    def encode_body(self, w: Writer) -> None:
        _write_path(w, self.path)
        w.blob(self.ciphertext)
        w.u64(self.tree_version)

    @classmethod
    def decode_body(cls, r: Reader) -> "AccessReply":
        path = _read_path(r)
        ciphertext = r.blob()
        version = r.u64()
        return cls(path=path, ciphertext=ciphertext, tree_version=version)

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class ModifyCommit(Message):
    """Second half of a modification: re-encrypted item under the same key."""

    TYPE: ClassVar[int] = 6
    file_id: int = 0
    item_id: int = 0
    ciphertext: bytes = b""
    tree_version: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id).blob(self.ciphertext)
        w.u64(self.tree_version).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "ModifyCommit":
        return cls(file_id=r.u64(), item_id=r.u64(), ciphertext=r.blob(),
                   tree_version=r.u64(), request_id=r.u64())

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class DeleteRequest(Message):
    """Start a deletion: ask for ``MT(k)`` and the balancing view."""

    TYPE: ClassVar[int] = 7
    file_id: int = 0
    item_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "DeleteRequest":
        return cls(file_id=r.u64(), item_id=r.u64())


@register
@dataclass(frozen=True)
class DeleteChallenge(Message):
    """Server's deletion data: ``MT(k)``, the ciphertext, balancing view."""

    TYPE: ClassVar[int] = 8
    mt: MTView = None  # type: ignore[assignment]
    ciphertext: bytes = b""
    balance: Optional[BalanceView] = None
    tree_version: int = 0

    def encode_body(self, w: Writer) -> None:
        _write_mt(w, self.mt)
        w.blob(self.ciphertext)
        _write_balance(w, self.balance)
        w.u64(self.tree_version)

    @classmethod
    def decode_body(cls, r: Reader) -> "DeleteChallenge":
        mt = _read_mt(r)
        ciphertext = r.blob()
        balance = _read_balance(r)
        version = r.u64()
        return cls(mt=mt, ciphertext=ciphertext, balance=balance,
                   tree_version=version)

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class DeleteCommit(Message):
    """Client's deltas and balancing modulators completing a deletion."""

    TYPE: ClassVar[int] = 9
    file_id: int = 0
    item_id: int = 0
    cut_slots: tuple[int, ...] = ()
    deltas: tuple[bytes, ...] = ()
    x_s_prime: Optional[bytes] = None
    dest_link: Optional[bytes] = None
    dest_leaf: Optional[bytes] = None
    tree_version: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)
        w.u64_list(self.cut_slots)
        w.modulator_list(self.deltas)
        w.opt_modulator(self.x_s_prime)
        w.opt_modulator(self.dest_link)
        w.opt_modulator(self.dest_leaf)
        w.u64(self.tree_version).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "DeleteCommit":
        return cls(file_id=r.u64(), item_id=r.u64(),
                   cut_slots=tuple(r.u64_list()),
                   deltas=tuple(r.modulator_list()),
                   x_s_prime=r.opt_modulator(),
                   dest_link=r.opt_modulator(),
                   dest_leaf=r.opt_modulator(),
                   tree_version=r.u64(), request_id=r.u64())


@register
@dataclass(frozen=True)
class InsertRequest(Message):
    """Start an insertion: ask for the path to the split leaf."""

    TYPE: ClassVar[int] = 10
    file_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "InsertRequest":
        return cls(file_id=r.u64())


@register
@dataclass(frozen=True)
class InsertChallenge(Message):
    """Path ``P(t')`` to the leaf the insertion will split (Fig. 4)."""

    TYPE: ClassVar[int] = 11
    path: Optional[PathView] = None
    tree_version: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u8(1 if self.path is not None else 0)
        if self.path is not None:
            _write_path(w, self.path)
        w.u64(self.tree_version)

    @classmethod
    def decode_body(cls, r: Reader) -> "InsertChallenge":
        path = _read_path(r) if r.u8() else None
        return cls(path=path, tree_version=r.u64())


@register
@dataclass(frozen=True)
class InsertCommit(Message):
    """Client's modulators and ciphertext completing an insertion."""

    TYPE: ClassVar[int] = 12
    file_id: int = 0
    item_id: int = 0
    t_new_link: Optional[bytes] = None
    t_new_leaf: Optional[bytes] = None
    e_link: Optional[bytes] = None
    e_leaf: bytes = b""
    ciphertext: bytes = b""
    tree_version: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id)
        w.opt_modulator(self.t_new_link)
        w.opt_modulator(self.t_new_leaf)
        w.opt_modulator(self.e_link)
        w.modulator(self.e_leaf)
        w.blob(self.ciphertext)
        w.u64(self.tree_version).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "InsertCommit":
        return cls(file_id=r.u64(), item_id=r.u64(),
                   t_new_link=r.opt_modulator(),
                   t_new_leaf=r.opt_modulator(),
                   e_link=r.opt_modulator(),
                   e_leaf=r.modulator(),
                   ciphertext=r.blob(),
                   tree_version=r.u64(), request_id=r.u64())

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


@register
@dataclass(frozen=True)
class FetchFileRequest(Message):
    """Fetch the whole file: every ciphertext plus the whole tree."""

    TYPE: ClassVar[int] = 13
    file_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "FetchFileRequest":
        return cls(file_id=r.u64())


@register
@dataclass(frozen=True)
class FetchFileReply(Message):
    """The whole tree (all modulators) and all ciphertexts.

    ``item_ids[i]`` / ``ciphertexts[i]`` belong to leaf slot ``n + i``
    (item-less leaves are impossible: every leaf encodes one item).
    ``links``/``leaves`` are slot-ordered as in :class:`OutsourceRequest`.
    """

    TYPE: ClassVar[int] = 14
    n_leaves: int = 0
    item_ids: tuple[int, ...] = ()
    links: tuple[bytes, ...] = ()
    leaves: tuple[bytes, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()
    tree_version: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.n_leaves)
        w.u64_list(self.item_ids)
        w.modulator_list(self.links)
        w.modulator_list(self.leaves)
        w.blob_list(self.ciphertexts)
        w.u64(self.tree_version)

    @classmethod
    def decode_body(cls, r: Reader) -> "FetchFileReply":
        n_leaves = r.u64()
        item_ids = tuple(r.u64_list())
        links = tuple(r.modulator_list())
        leaves = tuple(r.modulator_list())
        ciphertexts = tuple(r.blob_list())
        return cls(n_leaves=n_leaves, item_ids=item_ids, links=links,
                   leaves=leaves, ciphertexts=ciphertexts,
                   tree_version=r.u64())

    def payload_bytes(self) -> int:
        return 4 * len(self.ciphertexts) + sum(map(len, self.ciphertexts))


@register
@dataclass(frozen=True)
class DeleteFileRequest(Message):
    """Drop an entire file's server-side state.

    On its own this is only best-effort space reclamation; *assured*
    whole-file deletion comes from shredding the file's master key in the
    meta modulation tree (Section V).
    """

    TYPE: ClassVar[int] = 15
    file_id: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "DeleteFileRequest":
        return cls(file_id=r.u64(), request_id=r.u64())


@register
@dataclass(frozen=True)
class BatchDeleteRequest(Message):
    """Start a batched deletion: ask for the union view ``MT(S)``."""

    TYPE: ClassVar[int] = 16
    file_id: int = 0
    item_ids: tuple[int, ...] = ()

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)
        w.u64_list(self.item_ids)

    @classmethod
    def decode_body(cls, r: Reader) -> "BatchDeleteRequest":
        return cls(file_id=r.u64(), item_ids=tuple(r.u64_list()))


@register
@dataclass(frozen=True)
class BatchDeleteReply(Message):
    """The batch view ``MT(S)`` plus the targets' ciphertexts.

    ``target_slots[i]`` is the leaf slot of the ``i``-th requested item and
    ``ciphertexts[i]`` its ciphertext.  ``links`` and ``leaf_mods`` carry no
    slot numbers: both sides derive the slot lists deterministically from
    ``(n_leaves, target_slots)`` via
    :meth:`~repro.core.tree.ModulationTree.batch_link_slots` /
    :meth:`~repro.core.tree.ModulationTree.batch_leaf_mod_slots` and the
    modulators are in that ascending-slot order, so the server cannot
    misrepresent the view's shape and the message stays lean.
    """

    TYPE: ClassVar[int] = 17
    n_leaves: int = 0
    target_slots: tuple[int, ...] = ()
    links: tuple[bytes, ...] = ()
    leaf_mods: tuple[bytes, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()
    tree_version: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.n_leaves)
        w.u64_list(self.target_slots)
        w.modulator_list(self.links)
        w.modulator_list(self.leaf_mods)
        w.blob_list(self.ciphertexts)
        w.u64(self.tree_version)

    @classmethod
    def decode_body(cls, r: Reader) -> "BatchDeleteReply":
        return cls(n_leaves=r.u64(),
                   target_slots=tuple(r.u64_list()),
                   links=tuple(r.modulator_list()),
                   leaf_mods=tuple(r.modulator_list()),
                   ciphertexts=tuple(r.blob_list()),
                   tree_version=r.u64())

    def payload_bytes(self) -> int:
        return 4 * len(self.ciphertexts) + sum(map(len, self.ciphertexts))


@register
@dataclass(frozen=True)
class BatchDeleteCommit(Message):
    """Deltas plus one rebalancing move per deleted item.

    ``deltas`` carries no cut slots: it is in canonical ascending order of
    :meth:`~repro.core.tree.ModulationTree.union_cut_slots`, which the
    server re-derives from the item set itself.  ``moves[i]`` rebalances the
    tree after deleting ``item_ids[i]`` (same order), with the
    ``delete_leaf`` convention for absent fields.
    """

    TYPE: ClassVar[int] = 18
    file_id: int = 0
    item_ids: tuple[int, ...] = ()
    deltas: tuple[bytes, ...] = ()
    moves: tuple[BalanceMove, ...] = ()
    tree_version: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id)
        w.u64_list(self.item_ids)
        w.modulator_list(self.deltas)
        w.u32(len(self.moves))
        for move in self.moves:
            w.opt_modulator(move.x_s_prime)
            w.opt_modulator(move.dest_link)
            w.opt_modulator(move.dest_leaf)
        w.u64(self.tree_version).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "BatchDeleteCommit":
        file_id = r.u64()
        item_ids = tuple(r.u64_list())
        deltas = tuple(r.modulator_list())
        moves = tuple(BalanceMove(x_s_prime=r.opt_modulator(),
                                  dest_link=r.opt_modulator(),
                                  dest_leaf=r.opt_modulator())
                      for _ in range(r.u32()))
        return cls(file_id=file_id, item_ids=item_ids, deltas=deltas,
                   moves=moves, tree_version=r.u64(), request_id=r.u64())


@register
@dataclass(frozen=True)
class ReplaceCommit(Message):
    """Deltas plus a fresh record completing an assured replacement.

    The challenge is an ordinary ``DeleteChallenge``.  The server applies
    the cut deltas exactly as for a deletion but keeps the leaf in place
    (no balancing): it re-points the slot from ``item_id`` to the fresh
    ``new_item_id`` and stores ``ciphertext``, the new record encrypted
    under ``F(K', M_k)``, in place of the old item's ciphertext.
    """

    TYPE: ClassVar[int] = 19
    file_id: int = 0
    item_id: int = 0
    new_item_id: int = 0
    cut_slots: tuple[int, ...] = ()
    deltas: tuple[bytes, ...] = ()
    ciphertext: bytes = b""
    tree_version: int = 0
    request_id: int = 0

    def encode_body(self, w: Writer) -> None:
        w.u64(self.file_id).u64(self.item_id).u64(self.new_item_id)
        w.u64_list(self.cut_slots)
        w.modulator_list(self.deltas)
        w.blob(self.ciphertext)
        w.u64(self.tree_version).u64(self.request_id)

    @classmethod
    def decode_body(cls, r: Reader) -> "ReplaceCommit":
        return cls(file_id=r.u64(), item_id=r.u64(), new_item_id=r.u64(),
                   cut_slots=tuple(r.u64_list()),
                   deltas=tuple(r.modulator_list()),
                   ciphertext=r.blob(),
                   tree_version=r.u64(), request_id=r.u64())

    def payload_bytes(self) -> int:
        return 4 + len(self.ciphertext)


#: Requests that read server state and change none of it: the only ones
#: that may share a flight (:meth:`repro.protocol.channel.Channel.
#: request_many`).
READ_ONLY_REQUESTS = (AccessRequest, DeleteRequest, InsertRequest,
                      BatchDeleteRequest, FetchFileRequest)
