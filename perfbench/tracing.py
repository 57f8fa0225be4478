"""Timing shims installed from outside the program, and the span record.

A traced run wraps the public functions of each layer in a shim that
records one span per call: name, start, end, self time, parent span and
the benchmark's op id.  Self time is the span's duration minus the time
its child spans cover.  Spans are kept in memory and written as JSON when
the run ends.  Nothing here changes what the wrapped functions do.

Layers and the functions timed (see ``README.md`` for what each moves):

==========  ===============================================================
fs          ``MetaKeyManager.master_key`` / ``replace_master_key``
client      ``AssuredDeletionClient`` access, modify, insert, delete,
            delete_many, fetch_file, outsource
chain       ``ChainEngine`` evaluate / prefix_values / step_many and the
            ``core.ops`` delta, balance and derive functions
codec       ``ItemCodec`` encrypt / decrypt / encrypt_many / decrypt_many
wire        ``encode_message`` / ``decode_message``
transport   ``Channel.request`` (its self time is the wait on the link)
server      ``CloudServer.handle_bytes``
wal         ``CommitLog.append``
engine      ``TreeStore`` get_node / get_ciphertext / get_slot / flush
node_cache  ``NodeCache.get``
audit       ``AuditLog.append``
==========  ===============================================================
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

CLIENT_OPS = ("access", "modify", "insert", "delete", "delete_many",
              "fetch_file", "outsource")

CHAIN_ENGINE_METHODS = ("evaluate", "prefix_values", "step_many")

CHAIN_OPS_FUNCTIONS = ("chain_output_for_path", "compute_deltas",
                       "compute_balance_values", "chain_values_for_view",
                       "batch_chain_outputs", "compute_deltas_multi",
                       "compute_batch_moves", "compute_insertion",
                       "derive_all_keys")

ENGINE_METHODS = ("get_node", "get_ciphertext", "get_slot", "flush")

# Span record fields.
NAME, START, END, SELF, PARENT, OP, ATTR = range(7)


class Recorder:
    """In-memory span store shared by every shim of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Op id stamped on new spans; -1 outside measured ops.
        self.op_id = -1
        #: Shims pass straight through while this is False.
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attr=None):
        """A shim around ``fn`` recording one span per call.

        ``attr(args, result)`` may add one JSON-able value to the span,
        such as a byte count or a message type.
        """
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, 0.0,
                    -1 if parent is None else parent[1], recorder.op_id, None]
            with recorder._lock:
                recorder.spans.append(span)
                index = len(recorder.spans) - 1
            frame = [0.0, index]   # [child seconds, span index]
            stack.append(frame)
            span[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = time.monotonic()
                stack.pop()
                duration = end - span[START]
                span[SELF] = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
            if attr is not None:
                span[ATTR] = attr(args, result)
            return result
        return shim

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle,
                      separators=(",", ":"))


def patch_method(recorder: Recorder, cls, method: str, name: str,
                 attr=None) -> None:
    original = cls.__dict__.get(method)
    if original is None:
        return
    setattr(cls, method, recorder.wrap(name, original, attr))


def patch_function(recorder: Recorder, module, fname: str, name: str,
                   attr=None) -> None:
    """Wrap a module-level function and every ``repro`` module's
    from-import of it, so callers that bound the name directly are
    traced too."""
    original = getattr(module, fname, None)
    if original is None:
        return
    shim = recorder.wrap(name, original, attr)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                getattr(mod, fname, None) is original:
            setattr(mod, fname, shim)


def _nbytes(value) -> int:
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def install_client(recorder: Recorder) -> None:
    """Shim every client-side layer (and, for loopback, the server's)."""
    from repro.client.client import AssuredDeletionClient
    from repro.core import ops
    from repro.core.ciphertext import ItemCodec
    from repro.core.meta import MetaKeyManager
    from repro.core.modulated_chain import ChainEngine
    from repro.protocol.channel import Channel

    patch_method(recorder, MetaKeyManager, "master_key", "fs.master_key")
    patch_method(recorder, MetaKeyManager, "replace_master_key",
                 "fs.replace_master_key")
    for op in CLIENT_OPS:
        patch_method(recorder, AssuredDeletionClient, op, "client." + op)
    for method in CHAIN_ENGINE_METHODS:
        patch_method(recorder, ChainEngine, method, "chain." + method)
    for fname in CHAIN_OPS_FUNCTIONS:
        patch_function(recorder, ops, fname, "chain." + fname)
    # Bytes through the codec: the messages in, or the ciphertexts in.
    patch_method(recorder, ItemCodec, "encrypt", "codec.encrypt",
                 lambda a, r: _nbytes(a[2]))
    patch_method(recorder, ItemCodec, "encrypt_many", "codec.encrypt_many",
                 lambda a, r: _nbytes(a[2]))
    patch_method(recorder, ItemCodec, "decrypt", "codec.decrypt",
                 lambda a, r: _nbytes(a[2]))
    patch_method(recorder, ItemCodec, "decrypt_many", "codec.decrypt_many",
                 lambda a, r: _nbytes(a[2]))
    patch_method(recorder, Channel, "request", "transport.request")
    install_common(recorder)


def install_common(recorder: Recorder) -> None:
    """Shim the layers both sides of the wire run: codec of messages,
    server handler, WAL, engine, node cache and audit."""
    from repro.obs.audit import AuditLog
    from repro.protocol import messages
    from repro.server import engine
    from repro.server.paging import NodeCache
    from repro.server.server import CloudServer
    from repro.server.wal import CommitLog

    types = {cls.TYPE: cls.__name__ for cls in _subclasses(messages.Message)}
    patch_function(recorder, messages, "encode_message", "wire.encode",
                   lambda a, r: len(r))
    patch_function(recorder, messages, "decode_message", "wire.decode",
                   lambda a, r: len(a[1]))
    patch_method(recorder, CloudServer, "handle_bytes", "server.handle",
                 lambda a, r: types.get(a[1][0], "?") if a[1] else "?")
    patch_method(recorder, CommitLog, "append", "wal.append",
                 lambda a, r: len(a[1]))
    for cls in _subclasses(engine.TreeStore):
        for method in ENGINE_METHODS:
            patch_method(recorder, cls, method, "engine." + method)
    patch_method(recorder, NodeCache, "get", "node_cache.get",
                 lambda a, r: r is not None)
    patch_method(recorder, AuditLog, "append", "audit.append")


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def view_cache_counts() -> tuple[float, float]:
    """(hits, misses) of the server view cache from the program's own
    ``repro_server_view_cache_total`` counter; (0, 0) if it is absent."""
    from repro.obs.metrics import REGISTRY
    counter = REGISTRY.get("repro_server_view_cache_total")
    if counter is None:
        return 0.0, 0.0
    return counter.value(outcome="hit"), counter.value(outcome="miss")
