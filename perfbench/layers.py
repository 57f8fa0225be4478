"""Per-layer metrics of a traced run, computed from its spans.

Client-side spans carry the id of the measured op they ran in (traced
decks only).  Spans recorded in the durable server child carry no op id;
each is given the op whose wall interval contains its start, which is
exact for a closed loop with one client.  Every time is calibrated at
the span's midpoint.

Which end-to-end metric each layer should move, and on which workload,
is listed in ``README.md``.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics

from tracing import CLIENT_OPS, END, NAME, OP, PARENT, SELF, START, ATTR
from workloads import FS_OPS

SERVER_MESSAGES = ("OutsourceRequest", "AccessRequest", "ModifyCommit",
                   "DeleteRequest", "DeleteCommit", "BatchDeleteRequest",
                   "BatchDeleteCommit", "InsertRequest", "InsertCommit",
                   "FetchFileRequest")


def _per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    m = [("fs.meta_ms_per_delete", "ms", "lower"),
         ("fs.meta_round_trips_per_delete", "count", "lower")]
    m += [(f"client.{op}.self_ms", "ms", "lower") for op in CLIENT_OPS]
    m += [(f"client.{op}.round_trips", "count", "lower") for op in CLIENT_OPS]
    m += [("client.retries", "count", "lower")]
    m += [(f"chain.hash_calls_per_{op}", "count", "lower") for op in FS_OPS]
    m += [(f"chain.ms_per_{op}", "ms", "lower") for op in FS_OPS]
    m += [("chain.us_per_hash", "us", "lower")]
    m += [(f"codec.ms_per_{op}", "ms", "lower") for op in FS_OPS]
    m += [("codec.us_per_kib", "us", "lower"),
          ("wire.encode_ms_per_op", "ms", "lower"),
          ("wire.decode_ms_per_op", "ms", "lower"),
          ("wire.bytes_per_round_trip", "B", "lower"),
          ("transport.wait_ms_per_round_trip", "ms", "lower")]
    m += [(f"server.{t}.self_ms", "ms", "lower") for t in SERVER_MESSAGES]
    m += [("server.view_cache_hit_ratio", "ratio", "higher"),
          ("wal.appends_per_op", "count", "lower"),
          ("wal.ms_per_append", "ms", "lower"),
          ("wal.bytes_per_op", "B", "lower"),
          ("engine.reads_per_op", "count", "lower"),
          ("engine.ms_per_op", "ms", "lower"),
          ("node_cache.hit_ratio", "ratio", "higher"),
          ("engine.flush_ms", "ms", "lower"),
          ("audit.appends_per_op", "count", "lower"),
          ("audit.ms_per_append", "ms", "lower"),
          ("setup.outsource_s", "s", "lower"),
          ("setup.compact_s", "s", "lower"),
          ("setup.cold_start_s", "s", "lower"),
          ("setup.restart_s", "s", "lower"),
          ("trace.overhead_ratio", "ratio", "higher")]
    return m


PER_LAYER = _per_layer_names()

ENGINE_READS = ("engine.get_node", "engine.get_ciphertext", "engine.get_slot")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def load_child(path: str) -> tuple[list, list]:
    """Spans and view-cache counts a server child wrote, if it did."""
    if not os.path.exists(path):
        return [], [0.0, 0.0]
    with open(path) as handle:
        data = json.load(handle)
    return data["spans"], data.get("view_cache", [0.0, 0.0])


def attribute_by_time(spans: list, samples) -> None:
    """Give each child span the op whose interval holds its start."""
    starts = [s.start for s in samples]
    for span in spans:
        i = bisect.bisect_right(starts, span[START]) - 1
        inside = i >= 0 and span[START] <= samples[i].end
        span[OP] = i if inside else -1


def compute(run, client_spans: list, child_spans: list, setup_child: list,
            view_cache: tuple[float, float], clock, setup: dict,
            overhead_ratio: float, retries: int) -> dict:
    samples = run.samples
    cache: dict[int, float] = {}

    def factor(span) -> float:
        bucket = int((span[START] + span[END]) * 5)   # 0.1 s buckets
        value = cache.get(bucket)
        if value is None:
            value = cache[bucket] = clock.factor(bucket / 10, bucket / 10)
        return value

    def self_s(span) -> float:
        return span[SELF] * factor(span)

    def dur_s(span) -> float:
        return (span[END] - span[START]) * factor(span)

    traced = [i for i, s in enumerate(samples) if s.traced]
    traced_set = set(traced)
    n_traced = len(traced)
    n_all = len(samples)
    traced_of = {op: sum(1 for i in traced if samples[i].op == op)
                 for op in FS_OPS}
    all_of = {op: [s for s in samples if s.op == op] for op in FS_OPS}
    measured = [sp for sp in client_spans if sp[OP] in traced_set]
    child_in_ops = [sp for sp in child_spans if sp[OP] >= 0]
    out: dict[str, float] = {}

    # fs: the meta-tree master-key work of each single-record delete.
    meta_ms = meta_rts = 0.0
    for sp in measured:
        if samples[sp[OP]].op != "delete":
            continue
        if sp[NAME].startswith("fs."):
            meta_ms += dur_s(sp) * 1e3
        elif sp[NAME] == "transport.request" and \
                _has_ancestor(client_spans, sp, "fs."):
            meta_rts += 1
    out["fs.meta_ms_per_delete"] = _div(meta_ms, traced_of["delete"])
    out["fs.meta_round_trips_per_delete"] = _div(meta_rts,
                                                 traced_of["delete"])

    # client: self time per call, and the round trips each call made.
    calls = {op: [] for op in CLIENT_OPS}
    rts = {op: 0 for op in CLIENT_OPS}
    client_index = {}
    for index, sp in enumerate(client_spans):
        name = sp[NAME]
        if not name.startswith("client."):
            continue
        op = name[len("client."):]
        if op == "outsource" or sp[OP] in traced_set:
            calls[op].append(self_s(sp))
            client_index[index] = op
    for sp in client_spans:
        if sp[NAME] != "transport.request":
            continue
        owner = _nearest(client_spans, sp, "client.")
        if owner in client_index:
            rts[client_index[owner]] += 1
    for op in CLIENT_OPS:
        out[f"client.{op}.self_ms"] = _div(sum(calls[op]) * 1e3,
                                           len(calls[op]))
        out[f"client.{op}.round_trips"] = _div(rts[op], len(calls[op]))
    out["client.retries"] = _div(retries, n_all)

    # chain and codec: self time per fs op; hash calls per fs op.
    chain_s = dict.fromkeys(FS_OPS, 0.0)
    codec_s = dict.fromkeys(FS_OPS, 0.0)
    codec_bytes = 0
    for sp in measured:
        op = samples[sp[OP]].op
        if sp[NAME].startswith("chain."):
            chain_s[op] += self_s(sp)
        elif sp[NAME].startswith("codec."):
            codec_s[op] += self_s(sp)
            codec_bytes += sp[ATTR] or 0
    hashes_traced = sum(samples[i].hash_calls for i in traced)
    for op in FS_OPS:
        out[f"chain.hash_calls_per_{op}"] = _div(
            sum(s.hash_calls for s in all_of[op]), len(all_of[op]))
        out[f"chain.ms_per_{op}"] = _div(chain_s[op] * 1e3, traced_of[op])
    out["chain.us_per_hash"] = _div(sum(chain_s.values()) * 1e6,
                                    hashes_traced)
    for op in FS_OPS:
        out[f"codec.ms_per_{op}"] = _div(codec_s[op] * 1e3, traced_of[op])
    out["codec.us_per_kib"] = _div(sum(codec_s.values()) * 1e6,
                                   codec_bytes / 1024)

    # wire and transport, both sides of the link.
    child_traced = [sp for sp in child_in_ops if sp[OP] in traced_set]
    both = measured + child_traced
    out["wire.encode_ms_per_op"] = _div(sum(
        self_s(sp) for sp in both if sp[NAME] == "wire.encode") * 1e3,
        n_traced)
    out["wire.decode_ms_per_op"] = _div(sum(
        self_s(sp) for sp in both if sp[NAME] == "wire.decode") * 1e3,
        n_traced)
    out["wire.bytes_per_round_trip"] = _div(
        sum(s.wire_bytes for s in samples), sum(s.round_trips for s in samples))
    transport = [sp for sp in measured if sp[NAME] == "transport.request"]
    remote_handle = sum(dur_s(sp) for sp in child_traced
                        if sp[NAME] == "server.handle")
    out["transport.wait_ms_per_round_trip"] = max(0.0, _div(
        (sum(self_s(sp) for sp in transport) - remote_handle) * 1e3,
        len(transport)))

    # server: handler self time per message type, set-up included.
    handled = {t: [] for t in SERVER_MESSAGES}
    for sp in client_spans:
        if sp[NAME] == "server.handle" and sp[ATTR] in handled and (
                sp[OP] in traced_set or sp[ATTR] == "OutsourceRequest"):
            handled[sp[ATTR]].append(self_s(sp))
    for sp in setup_child + child_spans:
        if sp[NAME] == "server.handle" and sp[ATTR] in handled:
            handled[sp[ATTR]].append(self_s(sp))
    for t in SERVER_MESSAGES:
        out[f"server.{t}.self_ms"] = _div(sum(handled[t]) * 1e3,
                                          len(handled[t]))
    hits, misses = view_cache
    out["server.view_cache_hit_ratio"] = _div(hits, hits + misses)

    # wal, engine, node cache, audit: server-side, per measured op.
    server_side = child_in_ops + \
        [sp for sp in measured if sp[NAME].split(".")[0] in
         ("wal", "engine", "node_cache", "audit")]
    per_op = n_all if child_spans else n_traced
    wal = [sp for sp in server_side if sp[NAME] == "wal.append"]
    out["wal.appends_per_op"] = _div(len(wal), per_op)
    out["wal.ms_per_append"] = _div(sum(dur_s(sp) for sp in wal) * 1e3,
                                    len(wal))
    out["wal.bytes_per_op"] = _div(sum(sp[ATTR] or 0 for sp in wal), per_op)
    reads = [sp for sp in server_side if sp[NAME] in ENGINE_READS]
    out["engine.reads_per_op"] = _div(len(reads), per_op)
    out["engine.ms_per_op"] = _div(sum(dur_s(sp) for sp in reads) * 1e3,
                                   per_op)
    gets = [sp for sp in server_side if sp[NAME] == "node_cache.get"]
    out["node_cache.hit_ratio"] = _div(sum(1 for sp in gets if sp[ATTR]),
                                       len(gets))
    out["engine.flush_ms"] = sum(dur_s(sp) for sp in setup_child
                                 if sp[NAME] == "engine.flush") * 1e3
    audit = [sp for sp in server_side if sp[NAME] == "audit.append"]
    out["audit.appends_per_op"] = _div(len(audit), per_op)
    out["audit.ms_per_append"] = _div(sum(dur_s(sp) for sp in audit) * 1e3,
                                      len(audit))

    out["setup.outsource_s"] = setup["outsource_s"]
    out["setup.compact_s"] = setup["compact_s"]
    out["setup.cold_start_s"] = setup["cold_start_s"]
    out["setup.restart_s"] = setup["restart_s"]
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def _nearest(spans: list, span, prefix: str) -> int:
    """Index of the nearest ancestor whose name starts with ``prefix``."""
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return parent
        parent = spans[parent][PARENT]
    return -1


def _has_ancestor(spans: list, span, prefix: str) -> bool:
    return _nearest(spans, span, prefix) >= 0


def op_counts(run, client_spans: list, child_spans: list) -> list:
    """Per measured op, the counts that must repeat exactly for a seed:
    wire bytes, round trips, hash calls, WAL and audit appends, and for
    traced ops the round trips of each client call."""
    wal = [0] * len(run.samples)
    audit = [0] * len(run.samples)
    for sp in child_spans:
        if sp[OP] >= 0:
            if sp[NAME] == "wal.append":
                wal[sp[OP]] += 1
            elif sp[NAME] == "audit.append":
                audit[sp[OP]] += 1
    calls: dict[int, list] = {}
    index_of = {}
    for index, sp in enumerate(client_spans):
        if sp[NAME].startswith("client.") and sp[OP] >= 0:
            index_of[index] = [sp[NAME], 0]
            calls.setdefault(sp[OP], []).append(index_of[index])
    for sp in client_spans:
        if sp[NAME] == "transport.request" and sp[OP] >= 0:
            owner = _nearest(client_spans, sp, "client.")
            if owner in index_of:
                index_of[owner][1] += 1
    return [[s.op, s.wire_bytes, s.round_trips, s.hash_calls, wal[i],
             audit[i], calls.get(i, [])] for i, s in enumerate(run.samples)]


def coverage(run, client_spans: list) -> dict:
    """Per fs op, the median share of a traced op's latency that the
    self times of its client-process spans add up to.  Self times
    telescope, so this is the share spent inside any timed layer."""
    covered: dict[int, float] = {}
    for sp in client_spans:
        if sp[OP] >= 0:
            covered[sp[OP]] = covered.get(sp[OP], 0.0) + sp[SELF]
    shares: dict[str, list[float]] = {}
    for i, s in enumerate(run.samples):
        if s.traced:
            shares.setdefault(s.op, []).append(
                covered.get(i, 0.0) / (s.end - s.start))
    return {op: statistics.median(v) for op, v in shares.items()}
