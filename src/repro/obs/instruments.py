"""Every metric the system exports, declared in one place.

Instrumented modules import the objects below; the names, labels, and
semantics are documented for operators in ``docs/OBSERVABILITY.md`` --
keep the two in sync.

Naming follows Prometheus conventions: ``_total`` counters, ``_seconds``
histograms with base-unit values, gauges bare.
"""

from __future__ import annotations

from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY

#: Buckets for fsync and flush (disk) latencies: 10 us .. 2.5 s.
DISK_BUCKETS = (0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
                0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                0.5, 1.0, 2.5)

# ---------------------------------------------------------------------
# Channel / RPC (client side)
# ---------------------------------------------------------------------

RPC_SECONDS = REGISTRY.histogram(
    "repro_rpc_seconds",
    "Round-trip latency of one protocol exchange, by message type",
    ("type",), LATENCY_BUCKETS)
RPC_BYTES = REGISTRY.counter(
    "repro_rpc_bytes_total",
    "Protocol bytes moved by the channel (excludes transport framing)",
    ("direction",))
RPC_RETRANSMITS = REGISTRY.counter(
    "repro_rpc_retransmits_total",
    "Requests retransmitted after a timeout or connection failure")
RPC_FAILURES = REGISTRY.counter(
    "repro_rpc_failures_total",
    "Requests that exhausted every transport attempt")

# ---------------------------------------------------------------------
# TCP host (server side)
# ---------------------------------------------------------------------

TCP_CONNECTIONS = REGISTRY.counter(
    "repro_tcp_connections_total",
    "Client connections accepted by the TCP host")
TCP_INFLIGHT = REGISTRY.gauge(
    "repro_tcp_inflight_connections",
    "Currently open client connections")

# ---------------------------------------------------------------------
# Server handlers
# ---------------------------------------------------------------------

SERVER_REQUESTS = REGISTRY.counter(
    "repro_server_requests_total",
    "Requests dispatched to a handler, by message type",
    ("type",))
SERVER_ERRORS = REGISTRY.counter(
    "repro_server_errors_total",
    "ErrorReply responses, by message type and error code",
    ("type", "code"))
SERVER_HANDLE_SECONDS = REGISTRY.histogram(
    "repro_server_handle_seconds",
    "Server-side handling latency, by message type",
    ("type",), LATENCY_BUCKETS)
REPLAY_LOOKUPS = REGISTRY.counter(
    "repro_replay_cache_lookups_total",
    "Request-id idempotency-cache lookups",
    ("cache",))
REPLAY_HITS = REGISTRY.counter(
    "repro_replay_cache_hits_total",
    "Retransmissions answered from the replay cache instead of re-applied",
    ("cache",))
TREE_VERSION = REGISTRY.gauge(
    "repro_tree_version",
    "Current modulation-tree version per file",
    ("file_id",))

# ---------------------------------------------------------------------
# Sharded serving tier (consistent-hash routed server instances)
# ---------------------------------------------------------------------

SHARD_REQUESTS = REGISTRY.counter(
    "repro_shard_requests_total",
    "Requests handled per shard of the sharded serving tier",
    ("shard",))
SHARD_FILES = REGISTRY.gauge(
    "repro_shard_files",
    "Files resident on each shard (consistent-hash placement)",
    ("shard",))

# ---------------------------------------------------------------------
# Concurrency control (registry / per-file reader-writer locks)
# ---------------------------------------------------------------------

LOCK_WAIT_SECONDS = REGISTRY.histogram(
    "repro_server_lock_wait_seconds",
    "Time spent waiting to acquire a server lock, by scope and mode",
    ("scope", "mode"), LATENCY_BUCKETS)
INFLIGHT_REQUESTS = REGISTRY.gauge(
    "repro_server_inflight_requests",
    "Requests on a file being dispatched (awaiting or holding its locks)",
    ("file_id",))

# ---------------------------------------------------------------------
# Durability: WAL, recovery
# ---------------------------------------------------------------------

WAL_APPENDS = REGISTRY.counter(
    "repro_wal_appends_total",
    "Mutating requests made durable in the write-ahead commit log")
WAL_APPEND_BYTES = REGISTRY.counter(
    "repro_wal_append_bytes_total",
    "Payload bytes appended to the write-ahead commit log")
WAL_FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "write+fsync latency of one durable WAL batch",
    (), DISK_BUCKETS)
#: Powers of two up to the WAL's MAX_BATCH (128) and beyond.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
WAL_GROUP_COMMIT_BATCH = REGISTRY.histogram(
    "repro_wal_group_commit_batch",
    "Frames coalesced into one WAL write+fsync (every batch, lone "
    "appends included)",
    (), BATCH_BUCKETS)
WAL_REPLAYED = REGISTRY.counter(
    "repro_wal_replayed_records_total",
    "WAL records re-executed during crash recovery")
WAL_TRUNCATED = REGISTRY.counter(
    "repro_wal_truncated_records_total",
    "Torn/corrupt tail records discarded when opening the WAL")
RECOVERIES = REGISTRY.counter(
    "repro_recoveries_total",
    "Server recoveries from storage engine + WAL replay")
COLD_START_SECONDS = REGISTRY.gauge(
    "repro_server_cold_start_seconds",
    "Wall time of the last recovery (state load + WAL replay)")
RECOVERY_CHECKPOINT_SECONDS = REGISTRY.gauge(
    "repro_recovery_checkpoint_seconds",
    "Engine open portion of the last recovery")
RECOVERY_REPLAY_SECONDS = REGISTRY.gauge(
    "repro_recovery_replay_seconds",
    "WAL replay portion of the last recovery")

# ---------------------------------------------------------------------
# Storage engine (out-of-core tree paging + WAL compaction)
# ---------------------------------------------------------------------

NODE_CACHE = REGISTRY.counter(
    "repro_node_cache_total",
    "Paged tree-node cache lookups, by outcome (hit or miss)",
    ("outcome",))
RESIDENT_NODES = REGISTRY.gauge(
    "repro_resident_nodes",
    "Tree nodes currently held in the paging LRU cache")
STORAGE_FLUSHES = REGISTRY.counter(
    "repro_storage_flushes_total",
    "Incremental dirty-state flushes to the storage engine")
STORAGE_FLUSH_SECONDS = REGISTRY.histogram(
    "repro_storage_flush_seconds",
    "Wall time of one dirty-state flush to the storage engine",
    (), DISK_BUCKETS)
STORAGE_DIRTY_FLUSHED = REGISTRY.counter(
    "repro_storage_dirty_flushed_total",
    "Dirty records (nodes, items, ciphertexts) flushed to the engine")
WAL_COMPACTIONS = REGISTRY.counter(
    "repro_wal_compactions_total",
    "WAL compactions (snapshot marker written, history truncated)")

# ---------------------------------------------------------------------
# Client operations (bridged from sim.metrics OpRecords)
# ---------------------------------------------------------------------

OPS_TOTAL = REGISTRY.counter(
    "repro_ops_total",
    "Completed client operations, by operation",
    ("op",))
OP_SECONDS = REGISTRY.histogram(
    "repro_op_seconds",
    "Client-side latency per operation (excludes server time)",
    ("op",), LATENCY_BUCKETS)
OP_BYTES = REGISTRY.counter(
    "repro_op_bytes_total",
    "Protocol bytes attributed to client operations",
    ("op", "direction"))
OP_ROUND_TRIPS = REGISTRY.counter(
    "repro_op_round_trips_total",
    "Protocol round trips attributed to client operations",
    ("op",))
OP_RETRIES = REGISTRY.counter(
    "repro_op_retries_total",
    "Application-level retries (stale state / master-key re-pick)",
    ("op",))

# ---------------------------------------------------------------------
# Audit trail (tamper-evident deletion evidence)
# ---------------------------------------------------------------------

AUDIT_RECORDS = REGISTRY.counter(
    "repro_audit_records_total",
    "Outcome frames appended to the commit log's audit chain")
AUDIT_APPEND_SECONDS = REGISTRY.histogram(
    "repro_audit_append_seconds",
    "Latency of one outcome-frame append (chain hash + unsynced write)",
    (), DISK_BUCKETS)

# ---------------------------------------------------------------------
# Span export
# ---------------------------------------------------------------------

SPANS_EXPORTED = REGISTRY.counter(
    "repro_spans_exported_total",
    "Spans written to the JSON-lines span-export file, by reason",
    ("reason",))
SPANS_DROPPED = REGISTRY.counter(
    "repro_spans_dropped_total",
    "Finished spans not exported (sampled out or exporter failed)",
    ("reason",))

# ---------------------------------------------------------------------
# Runtime depth gauges (host pool, group commit, replay)
# ---------------------------------------------------------------------

HOST_BUSY_THREADS = REGISTRY.gauge(
    "repro_host_busy_threads",
    "TCP host pool threads reading, handling or replying (not leading "
    "or waiting to lead)")
HOST_PICKUP_SECONDS = REGISTRY.gauge(
    "repro_host_pickup_seconds",
    "Upper bound on how long the last ready socket waited for a free "
    "TCP host pool thread (0 when a leader was already waiting in poll)")
WAL_GROUP_QUEUE = REGISTRY.gauge(
    "repro_wal_group_commit_queue_depth",
    "WAL appends waiting for the leader")
REPLAY_CACHE_SIZE = REGISTRY.gauge(
    "repro_replay_cache_size",
    "Entries in the request-id idempotency reply cache")
