"""The benchmark's workloads: definitions, set-up, the measured closed loop
and the correctness checks.

Every workload is one client issuing one operation at a time through the
public ``OutsourcedFileSystem`` API with shipped defaults (the client
chain cache stays off).  Inputs -- record bytes, the op sequence, item
choice and the client's key material -- all derive from the ``--seed``
argument, so the same seed gives the same inputs.
"""

from __future__ import annotations

import os
import pickle
import queue
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

FS_OPS = ("read", "write", "insert", "delete", "delete_many", "read_all")
MUTATIONS = ("delete", "delete_many", "insert")

#: Ops whose p90 is reported need at least this many samples per run.
P90_MIN_SAMPLES = 100
#: Every other op needs at least this many.
MIN_SAMPLES = 20
#: A run stops measuring at this multiple of ``--seconds`` even if an op
#: is still short of samples.
HARD_CAP = 3.0

#: Deleted records read back after the run, to check each raises
#: ``UnknownItemError`` (a seeded sample of all deleted records).
DELETED_CHECKS = 128


@dataclass(frozen=True)
class Workload:
    name: str
    durable: bool
    files: int
    groups: int
    records: int          # per file, at set-up
    record_size: int      # bytes of every record written
    #: Ops per deck.  The measured phase runs whole decks, each shuffled
    #: by the seed, so every run has the same op mix exactly.
    deck: tuple[tuple[str, int], ...]
    #: Share of each op's count per deck that targets the hot set: a hot
    #: file, then one of its first ``hot_items`` records.
    hot_share: float = 0.0
    hot_files: int = 0
    hot_items: int = 0
    #: Deletes and inserts go to the files outside the hot set only.
    cold_mutations: bool = False
    batch: int = 8        # records per delete_many
    setups: int = 3       # set-ups per run; setup_s is their median


WORKLOADS = {
    "delete-heavy": Workload(
        name="delete-heavy", durable=False, files=8, groups=2,
        records=4096, record_size=64,
        deck=(("delete", 40), ("delete_many", 10), ("read", 25),
              ("write", 10), ("insert", 15), ("read_all", 1)),
        # Set-up is short here, so the first one's one-time costs would
        # often be the median of three.
        setups=5),
    "read-mostly": Workload(
        name="read-mostly", durable=False, files=8, groups=2,
        records=1024, record_size=4096,
        deck=(("read", 80), ("read_all", 5), ("write", 5), ("delete", 12),
              ("delete_many", 2), ("insert", 6)),
        hot_share=0.8, hot_files=2, hot_items=32, cold_mutations=True),
    "durable-sqlite": Workload(
        name="durable-sqlite", durable=True, files=8, groups=2,
        records=8192, record_size=64,
        deck=(("read", 45), ("write", 20), ("insert", 10), ("delete", 20),
              ("delete_many", 5), ("read_all", 1)),
        hot_share=0.8, hot_files=2, hot_items=256),
}


def file_name(index: int, groups: int) -> str:
    return f"g{index % groups}/f{index}"


def make_records(spec: Workload, seed: int, index: int) -> list[bytes]:
    rng = random.Random(f"{spec.name}:{seed}:records:{index}")
    blob = rng.randbytes(spec.records * spec.record_size)
    size = spec.record_size
    return [blob[i * size:(i + 1) * size] for i in range(spec.records)]


def key_source(spec: Workload, seed: int):
    from repro.crypto.rng import DeterministicRandom
    return DeterministicRandom(f"perfbench:{spec.name}:{seed}")


class CheckFailed(Exception):
    """A read returned other bytes than the shadow model holds."""


# ----------------------------------------------------------------------
# Stacks: what runs the server, and how set-up steps reach it
# ----------------------------------------------------------------------


class LoopbackStack:
    """In-process ``OutsourcedFileSystem()`` with its in-memory server."""

    def __init__(self, spec: Workload, seed: int, clock, state_dir: str,
                 trace_dir: str | None) -> None:
        self.spec, self.seed, self.clock = spec, seed, clock
        self.fs = None

    def start(self) -> None:
        from repro.fs.filesystem import OutsourcedFileSystem
        self.fs = OutsourcedFileSystem(rng=key_source(self.spec, self.seed))

    def server_hwm_kib(self) -> int:
        return 0

    def stop(self) -> None:
        pass

    def footprint_bytes(self) -> int:
        """The server state as the CLI vault stores it (a pickle)."""
        return len(pickle.dumps(self.fs.server))

    def close(self) -> None:
        self.fs = None


class DurableStack:
    """``repro-vault serve --durable --backend sqlite --async --audit`` in a
    child process, reached through ``OutsourcedFileSystem.connect``."""

    def __init__(self, spec: Workload, seed: int, clock, state_dir: str,
                 trace_dir: str | None) -> None:
        self.spec, self.seed, self.clock = spec, seed, clock
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        self.vault_dir = os.path.join(state_dir, "vault")
        self.state_dir = state_dir
        self.trace_dir = trace_dir
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(self.root, "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue = queue.Queue()
        self.reader: threading.Thread | None = None
        self.lifetimes = 0
        self.port = 0
        self.fs = None
        self.cold_start_line = ""

    def _cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli",
                "--server-dir", self.vault_dir, *args]

    def _run_cli(self, *args: str) -> str:
        done = subprocess.run(self._cli(*args), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"repro-vault {' '.join(args)} failed: "
                               f"{done.stderr.strip()}")
        return done.stdout

    def _spawn(self) -> None:
        self.lifetimes += 1
        serve = ["--server-dir", self.vault_dir, "serve",
                 "--port", str(self.port), "--durable", "--backend",
                 "sqlite", "--async", "--audit"]
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            trace = os.path.join(self.trace_dir,
                                 f"server-{self.lifetimes}.json")
            argv = [sys.executable,
                    os.path.join(self.root, "perfbench", "serve_child.py"),
                    trace, *serve]
        log = open(os.path.join(self.state_dir,
                                f"serve-{self.lifetimes}.log"), "w")
        try:
            self.proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                         stdout=subprocess.PIPE, stderr=log,
                                         text=True)
        finally:
            log.close()
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read_lines,
                                       args=(self.proc.stdout, self.lines),
                                       daemon=True)
        self.reader.start()
        self._await_serving()

    @staticmethod
    def _read_lines(stream, lines: queue.Queue) -> None:
        for line in stream:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    def _await_serving(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.clock.sample()
            try:
                line = self.lines.get(timeout=0.02)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError("server exited before serving")
            if line.startswith("cold start"):
                self.cold_start_line = line
            if line.startswith("serving vault on"):
                return
        raise RuntimeError("server did not start in time")

    def start(self) -> None:
        from repro.fs.filesystem import OutsourcedFileSystem
        os.makedirs(self.state_dir, exist_ok=True)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self._run_cli("init")
        self._spawn()
        self.fs = OutsourcedFileSystem.connect(
            ("127.0.0.1", self.port), rng=key_source(self.spec, self.seed))

    def server_hwm_kib(self) -> int:
        if self.proc is None:
            return 0
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self, timeout: float = 120.0) -> None:
        """SIGINT the server (it compacts into SQLite) and wait for it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + timeout
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not stop in time")
                self.clock.sample()
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            self.reader.join(timeout=10)
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")

    def restart(self) -> float:
        """Restart the stopped server; returns its printed cold start (s)."""
        self.cold_start_line = ""
        self._spawn()
        # "cold start 0.002s (state load ...)"
        return float(self.cold_start_line.split()[2].rstrip("s"))

    def footprint_bytes(self) -> int:
        total = 0
        for name in ("state.db", "state.db-journal", "server.wal",
                     "audit.log", "audit.log.head"):
            path = os.path.join(self.vault_dir, name)
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def audit_records(self) -> int:
        """Records in the audit chain; raises if ``audit verify`` fails."""
        import json
        return json.loads(self._run_cli("audit", "verify"))["records"]

    def close(self) -> None:
        if self.fs is not None:
            self.fs.client.channel.close()
            self.fs = None
        try:
            self.stop(timeout=30)
        finally:
            if self.proc is not None:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class OpSample:
    op: str
    start: float
    end: float
    traced: bool
    wire_bytes: int
    round_trips: int
    hash_calls: int
    ok: bool


class Run:
    """Set-up, measured phase and checks of one workload run."""

    def __init__(self, spec: Workload, seed: int, clock, state_dir: str,
                 recorder=None) -> None:
        self.spec, self.seed, self.clock = spec, seed, clock
        self.state_dir = state_dir
        self.recorder = recorder
        self.inputs = [make_records(spec, seed, i) for i in range(spec.files)]
        self.stack = None
        self.shadow: list[list[bytes]] = []
        self.handles = []
        self.deleted: list[tuple[int, int]] = []   # (file index, item id)
        self.samples: list[OpSample] = []
        self.errors: list[str] = []
        self.rng = random.Random(f"{spec.name}:{seed}:ops")
        self.setup_steps: list[dict] = []

    # -- set-up ----------------------------------------------------------

    def _step(self, name: str, fn):
        self.clock.sample()
        start = time.monotonic()
        result = fn()
        end = time.monotonic()
        self.clock.sample()
        self.setup_steps.append({"step": name, "start": start, "end": end})
        return result

    def setup(self, index: int) -> dict:
        """One full set-up; returns its calibrated step totals."""
        spec = self.spec
        self.stack_dir = os.path.join(self.state_dir, f"setup-{index}")
        trace_dir = self.state_dir if self.recorder is not None else None
        stack_cls = DurableStack if spec.durable else LoopbackStack
        self.stack = stack_cls(spec, self.seed, self.clock, self.stack_dir,
                               trace_dir)
        self.setup_steps = []
        self._step("server_start", self.stack.start)
        fs = self.stack.fs
        for i, records in enumerate(self.inputs):
            self._step("outsource", lambda: fs.create_file(
                file_name(i, spec.groups), records))
        cold_start = 0.0
        if spec.durable:
            self._step("compact", self.stack.stop)
            cold_start = self._step("restart", self.stack.restart)
            # The first request after a restart re-dials the connection.
            self._step("reconnect", lambda: fs.open(
                file_name(0, spec.groups)).read_record(0))
        self.shadow = [list(records) for records in self.inputs]
        self.handles = [fs.open(file_name(i, spec.groups))
                        for i in range(spec.files)]
        steps = {"setup_s": 0.0, "outsource_s": 0.0, "compact_s": 0.0,
                 "cold_start_s": 0.0, "restart_s": 0.0}
        for step in self.setup_steps:
            seconds = self.clock.calibrate(step["start"], step["end"])
            step["calibrated_s"] = seconds
            steps["setup_s"] += seconds
            if step["step"] == "outsource":
                steps["outsource_s"] += seconds
            elif step["step"] == "compact":
                steps["compact_s"] += seconds
            elif step["step"] == "restart":
                steps["restart_s"] = seconds
                steps["cold_start_s"] = cold_start * self.clock.factor(
                    step["start"], step["end"])
        steps["steps"] = self.setup_steps
        return steps

    def discard(self) -> None:
        """Tear down a set-up that will not be measured."""
        self.stack.close()
        shutil.rmtree(self.stack_dir, ignore_errors=True)
        self.stack = None

    # -- the measured phase ---------------------------------------------

    def _pick(self, op: str, hot: bool) -> tuple[int, list[int]]:
        """The file and positions an op targets: a hot op picks a hot file
        and hot records, any other op picks uniformly (mutations only
        among the cold files when ``cold_mutations`` is set)."""
        spec = self.spec
        if hot:
            f = self.rng.randrange(spec.hot_files)
        elif spec.cold_mutations and op in MUTATIONS:
            f = self.rng.randrange(spec.hot_files, spec.files)
        else:
            f = self.rng.randrange(spec.files)
        n = len(self.shadow[f])
        span = range(min(spec.hot_items, n) if hot else n)
        if op == "delete_many":
            return f, self.rng.sample(span, spec.batch)
        return f, [self.rng.choice(span)]

    def _prepare(self, op: str, hot: bool):
        """Choose the op's target and inputs; returns (call, commit)."""
        f, positions = self._pick(op, hot)
        pos = positions[0]
        handle, shadow, size = self.handles[f], self.shadow[f], \
            self.spec.record_size
        if op == "read":
            expected = shadow[pos]

            def check(data):
                if data != expected:
                    raise CheckFailed(f"read {f}:{pos} returned other bytes")
            return (lambda: handle.read_record(pos)), check
        if op == "read_all":
            expected = list(shadow)

            def check(data):
                if data != expected:
                    raise CheckFailed(f"read_all {f} returned other bytes")
            return handle.read_all, check
        if op == "write":
            data = self.rng.randbytes(size)

            def commit(_):
                shadow[pos] = data
            return (lambda: handle.write_record(pos, data)), commit
        if op == "insert":
            data = self.rng.randbytes(size)

            def commit(_):
                shadow.insert(pos, data)
            return (lambda: handle.insert_record(pos, data)), commit
        ids = []
        for pos in positions:
            located = handle.locate(pos * size)
            if located.position != pos:
                raise CheckFailed("records are not all the same size")
            ids.append(located.item_id)

        def commit(_):
            for pos in sorted(positions, reverse=True):
                del shadow[pos]
            self.deleted.extend((f, item_id) for item_id in ids)
        if op == "delete":
            return (lambda: handle.delete_record(positions[0])), commit
        return (lambda: handle.delete_many(positions)), commit

    def _one(self, op: str, hot: bool, traced: bool) -> None:
        self.clock.tick()
        call, after = self._prepare(op, hot)
        client = self.stack.fs.client
        counters, engine = client.channel.counters, client.engine
        bytes0 = counters.bytes_sent + counters.bytes_received
        rts0, hashes0 = counters.round_trips, engine.hash_calls
        if traced:
            self.recorder.op_id = len(self.samples)
        ok = True
        start = time.monotonic()
        try:
            result = call()
        except Exception as exc:  # counted against error_rate
            end = time.monotonic()
            ok = False
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
        else:
            end = time.monotonic()
        if self.recorder is not None:
            self.recorder.op_id = -1
        if ok:
            try:
                after(result)
            except CheckFailed as exc:
                ok = False
                self.errors.append(str(exc))
        self.samples.append(OpSample(
            op, start, end, traced,
            counters.bytes_sent + counters.bytes_received - bytes0,
            counters.round_trips - rts0, engine.hash_calls - hashes0, ok))

    def deck(self) -> list[tuple[str, bool]]:
        """One deck of ``(op, hot)`` in seeded order.  Exactly
        ``hot_share`` of each op's count aims at the hot set, so every
        run has the same hot/cold mix too."""
        spec = self.spec
        ops = []
        for op, count in spec.deck:
            hot = 0 if spec.cold_mutations and op in MUTATIONS else \
                round(count * spec.hot_share)
            ops += [(op, i < hot) for i in range(count)]
        self.rng.shuffle(ops)
        return ops

    def measure(self, seconds: float, toggle_trace=None) -> None:
        """Closed loop over whole decks until ``seconds`` have passed and
        every op has its minimum samples.

        With ``toggle_trace(on)`` given, decks alternate untraced and
        traced, so the tracing overhead is measured under the same host
        conditions as the traced numbers.
        """
        needed = {op: MIN_SAMPLES for op in FS_OPS}
        needed["read"] = needed["delete"] = P90_MIN_SAMPLES
        counts = dict.fromkeys(FS_OPS, 0)
        self.clock.sample()
        start = time.monotonic()
        decks = 0
        while True:
            traced = toggle_trace is not None and decks % 2 == 1
            if toggle_trace is not None:
                toggle_trace(traced)
            for op, hot in self.deck():
                self._one(op, hot, traced)
                counts[op] += 1
            decks += 1
            elapsed = time.monotonic() - start
            if toggle_trace is not None and decks % 2:
                continue   # end on a traced deck
            if elapsed >= seconds and all(counts[op] >= n
                                          for op, n in needed.items()):
                break
            if elapsed >= HARD_CAP * seconds:
                break
        if toggle_trace is not None:
            toggle_trace(False)
        self.clock.sample()

    # -- checks after the measured phase ----------------------------------

    def check(self) -> tuple[int, int]:
        """Theorem-1 and deletion checks; returns (attempted, failed).

        Every file is fetched whole and must equal the shadow model: a
        deletion that changed any surviving record's key would fail here.
        A seeded sample of deleted records must each raise
        ``UnknownItemError`` when read.
        """
        from repro.core.errors import UnknownItemError
        fs = self.stack.fs
        attempted = failed = 0
        for f, handle in enumerate(self.handles):
            attempted += 1
            try:
                if handle.read_all() != self.shadow[f]:
                    raise CheckFailed(f"file {f} differs from the shadow")
            except Exception as exc:
                failed += 1
                self.errors.append(f"final read_all {f}: {exc}")
        rng = random.Random(f"{self.spec.name}:{self.seed}:deleted")
        sample = rng.sample(self.deleted, min(DELETED_CHECKS,
                                              len(self.deleted)))
        for f, item_id in sample:
            attempted += 1
            handle = self.handles[f]
            key = fs.group_manager_of(handle.name).master_key(handle.file_id)
            try:
                fs.client.access(handle.file_id, key, item_id)
            except UnknownItemError:
                continue
            except Exception as exc:
                self.errors.append(f"deleted read {f}:{item_id}: {exc}")
            else:
                self.errors.append(f"deleted item {f}:{item_id} readable")
            failed += 1
        return attempted, failed

    def expected_audit_records(self) -> int:
        """One audit record per mutating request the client sent."""
        mutating = {"outsource", "modify", "insert", "delete", "delete_many"}
        return sum(1 + r.retries for r in self.stack.fs.metrics.records
                   if r.op in mutating)

    def peak_rss_mb(self) -> float:
        client_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (client_kib + self.stack.server_hwm_kib()) / 1024.0

    def live_bytes(self) -> int:
        return sum(len(r) for records in self.shadow for r in records)
