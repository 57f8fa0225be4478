"""Cross-cutting integration tests: the full stack over real sockets,
multiple clients, and custom deployment policies."""


from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TcpChannel
from repro.server.server import CloudServer
from repro.sim.threat import Adversary, snapshot_file


def test_filesystem_over_tcp():
    """The complete Section V deployment across a real socket: meta
    trees, control keys, fine-grained and whole-file deletion."""
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            fs = OutsourcedFileSystem(channel=channel,
                                      rng=DeterministicRandom("fs-tcp"))
            handle = fs.create_file("docs/networked",
                                    [b"rec-%d" % i for i in range(6)])
            assert handle.read_record(3) == b"rec-3"
            handle.delete_record(3)
            assert handle.read_all() == [b"rec-0", b"rec-1", b"rec-2",
                                         b"rec-4", b"rec-5"]
            fs.create_file("docs/second", [b"x"])
            fs.delete_file("docs/networked")
            assert fs.list_files() == ["docs/second"]


def test_two_clients_one_server_stale_detection():
    """Two clients sharing a file race on modification; the version
    check detects the interleaving and the retry converges."""
    from repro.client.keystore import KeyStore
    server = CloudServer()
    alice = AssuredDeletionClient(_loopback(server),
                                  rng=DeterministicRandom("alice"))
    # Item ids are the globally-unique r values; independent clients of a
    # shared file must carve disjoint counter ranges (a shared deployment
    # normally routes through one proxy / one keystore).
    bob = AssuredDeletionClient(_loopback(server),
                                rng=DeterministicRandom("bob"),
                                keystore=KeyStore(first_item_id=1_000_000))
    key = alice.outsource(1, [b"shared-1", b"shared-2"])
    ids = alice.item_ids_of(2)

    # Bob (given the key out of band) inserts between Alice's access and
    # commit by hooking the server's modify handler once.
    original = server.handle

    def interfere(request):
        from repro.protocol import messages as msg
        if isinstance(request, msg.ModifyCommit) and not interfere.done:
            interfere.done = True
            bob.insert(1, key, b"bob-was-here")
        return original(request)

    interfere.done = False
    server.handle = interfere
    alice.modify(1, key, ids[0], b"alice-edit")
    server.handle = original

    assert alice.metrics.for_op("modify")[-1].retries == 1
    data = bob.fetch_file(1, key)
    assert data[ids[0]] == b"alice-edit"
    assert b"bob-was-here" in data.values()


def _loopback(server):
    from repro.protocol.channel import LoopbackChannel
    return LoopbackChannel(server)


def test_custom_group_policy():
    """Section V: 'divide the master keys ... based on the directory
    structure OR FILE TYPES' -- grouping is a pluggable policy."""
    def by_extension(name: str) -> str:
        return name.rsplit(".", 1)[-1] if "." in name else "misc"

    fs = OutsourcedFileSystem(rng=DeterministicRandom("groups"),
                              group_of=by_extension)
    fs.create_file("a.log", [b"1"])
    fs.create_file("b.log", [b"2"])
    fs.create_file("c.db", [b"3"])
    assert fs.control_key_count() == 2  # 'log' and 'db'
    assert fs.client_key_bytes() == 32


def test_deletion_assured_across_transports():
    """Threat-model verdict is transport-independent: delete over TCP,
    attack with everything, stay dead."""
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("tcp-sec"))
            key = client.outsource(1, [b"secret-a", b"secret-b"])
            ids = client.item_ids_of(2)
            adversary = Adversary()
            adversary.observe(snapshot_file(server, 1))
            client.delete(1, key, ids[0])
            adversary.observe(snapshot_file(server, 1))
            adversary.seize_keystore(client.keystore.seize())
            assert adversary.try_recover(ids[0]) is None
            assert adversary.try_recover(ids[1]) == b"secret-b"


def test_run_all_report_smoke(monkeypatch):
    """The one-shot report generator produces every section (tiny grids)."""
    from repro.analysis import config as cfg
    monkeypatch.setattr(cfg, "complexity_grid", lambda: [16, 64, 256])
    monkeypatch.setattr(cfg, "table2_item_count", lambda: 500)
    monkeypatch.setattr(cfg, "table2_master_key_measured_count", lambda: 100)
    monkeypatch.setattr(cfg, "figure_grid", lambda: [10, 100, 1000])
    monkeypatch.setattr(cfg, "table3_grid", lambda: [200])
    # The driver modules imported these at module load; patch there too.
    import repro.analysis.complexity as complexity
    import repro.analysis.figures as figures
    import repro.analysis.run_all as run_all
    import repro.analysis.table2 as table2
    import repro.analysis.table3 as table3
    monkeypatch.setattr(complexity, "complexity_grid", lambda: [16, 64, 256])
    monkeypatch.setattr(figures, "figure_grid", lambda: [10, 100, 1000])
    monkeypatch.setattr(run_all, "figure_grid", lambda: [10, 100, 1000])
    monkeypatch.setattr(run_all, "table2_item_count", lambda: 500)
    monkeypatch.setattr(table2, "table2_item_count", lambda: 500)
    monkeypatch.setattr(table2, "table2_master_key_measured_count",
                        lambda: 100)
    monkeypatch.setattr(table3, "table3_grid", lambda: [200])

    report = run_all.generate_report()
    for marker in ("Table I", "Table II", "Figure 5", "Figure 6",
                   "Table III", "Ablation 1", "Ablation 2", "Ablation 3"):
        assert marker in report
