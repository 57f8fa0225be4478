"""The repro-vault command-line interface."""

import os
import subprocess
import sys

import pytest


def vault(tmp_path, *args, stdin=""):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli",
         "--server-dir", str(tmp_path / "server")] + list(args),
        input=stdin, capture_output=True, text=True, timeout=120)
    return result


def test_full_workflow(tmp_path):
    assert vault(tmp_path, "init").returncode == 0

    put = vault(tmp_path, "put", "hr/roster",
                stdin="alice,eng\nbob,sales\ncarol,hr\n")
    assert put.returncode == 0
    assert "3 records" in put.stdout

    ls = vault(tmp_path, "ls")
    assert "hr/roster" in ls.stdout

    cat = vault(tmp_path, "cat", "hr/roster")
    assert cat.stdout.splitlines() == ["alice,eng", "bob,sales", "carol,hr"]

    get = vault(tmp_path, "get", "hr/roster", "1")
    assert get.stdout.strip() == "bob,sales"

    assert vault(tmp_path, "set", "hr/roster", "1", "bob,marketing").returncode == 0
    assert vault(tmp_path, "get", "hr/roster", "1").stdout.strip() == \
        "bob,marketing"

    assert vault(tmp_path, "add", "hr/roster", "dave,legal").returncode == 0

    rm = vault(tmp_path, "rm", "hr/roster", "0")
    assert rm.returncode == 0
    assert "assuredly deleted" in rm.stdout
    cat = vault(tmp_path, "cat", "hr/roster")
    assert cat.stdout.splitlines() == ["bob,marketing", "carol,hr",
                                       "dave,legal"]

    stats = vault(tmp_path, "stats")
    assert '"files": 1' in stats.stdout
    assert '"control_keys": 1' in stats.stdout

    drop = vault(tmp_path, "drop", "hr/roster")
    assert drop.returncode == 0
    assert vault(tmp_path, "ls").stdout.strip() == ""


def test_errors_are_clean(tmp_path):
    missing = vault(tmp_path, "ls")
    assert missing.returncode == 1
    assert "init" in missing.stderr

    vault(tmp_path, "init")
    bad = vault(tmp_path, "cat", "ghost")
    assert bad.returncode == 1


def test_put_replaces_assuredly(tmp_path):
    vault(tmp_path, "init")
    vault(tmp_path, "put", "f", stdin="v1\n")
    vault(tmp_path, "put", "f", stdin="v2\n")
    assert vault(tmp_path, "cat", "f").stdout.strip() == "v2"


def test_stress_subcommand(tmp_path):
    import json

    run = vault(tmp_path, "stress", "--seed", "cli-test", "--workers", "2",
                "--ops", "6")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["seed"] == "cli-test"
    assert report["invariants"] == [
        "version-accounting", "surviving-data-decrypts",
        "cross-shard-placement", "theorem2-deleted-unrecoverable",
        "wal-replay-reproduces-state", "audit-chain-matches-history"]

    again = vault(tmp_path, "stress", "--seed", "cli-test", "--workers", "2",
                  "--ops", "6")
    assert json.loads(again.stdout)["ops"] == report["ops"]


def test_serve_rejects_bad_max_conns(tmp_path):
    vault(tmp_path, "init")
    bad = vault(tmp_path, "serve", "--max-conns", "0")
    assert bad.returncode != 0


def test_unreadable_vault_fails_closed(tmp_path):
    """A truncated state file or one pickled against modules this version
    no longer has is a clean ``error:`` line, not a traceback."""
    assert vault(tmp_path, "init").returncode == 0
    state = tmp_path / "server" / "vault.state"
    data = state.read_bytes()
    state.write_bytes(data[:len(data) // 2])
    truncated = vault(tmp_path, "ls")
    assert truncated.returncode == 1
    assert "unreadable or was written by an older version" in truncated.stderr
    assert "Traceback" not in truncated.stderr

    # A vault from before the hashlib switch names repro.crypto.sha1.Sha1
    # (a pickle GLOBAL opcode: "c" module "\n" name "\n").
    state.write_bytes(b"\x80\x02crepro.crypto.sha1\nSha1\n.")
    missing = vault(tmp_path, "ls")
    assert missing.returncode == 1
    assert "older version" in missing.stderr
    assert "repro.crypto.sha1" in missing.stderr
    assert "Traceback" not in missing.stderr


def test_serve_and_compact_parse_with_one_engine_and_one_host(tmp_path):
    """``serve --async`` still parses (and selects nothing), ``--backend``
    offers memory/sqlite only, and ``compact`` needs no ``--backend``."""
    import json

    from repro.cli import Vault, build_parser, main
    from repro.server.engine import engine_path, make_engine

    parser = build_parser()
    args = parser.parse_args(["serve", "--durable", "--backend", "sqlite",
                              "--async", "--audit"])
    assert (args.durable, args.backend, args.audit) == (True, "sqlite", True)
    for argv in (["serve", "--backend", "log"],
                 ["stress", "--backend", "log"],
                 ["compact", "--backend", "sqlite"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)

    server_dir = str(tmp_path / "server")
    assert main(["--server-dir", server_dir, "init"]) == 0
    vault_ = Vault(server_dir, str(tmp_path / "keys"))
    vault_.load()
    vault_.fs.create_file("f", [b"a", b"b"])
    engine = make_engine("sqlite", engine_path(server_dir, "sqlite"))
    vault_.fs.server.attach_engine(engine)
    vault_.fs.server.compact_storage()
    engine.close()
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--server-dir", server_dir,
         "compact"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["replayed_records"] == 0


def test_vault_save_crash_keeps_previous_vault(tmp_path, monkeypatch):
    """A crash mid-save (partial pickle bytes, then death) must leave the
    previous vault loadable: it holds the client's only copy of its keys."""
    import pickle

    from repro.cli import Vault

    server_dir = str(tmp_path / "server")
    saved = Vault(server_dir, str(tmp_path / "keys"))
    saved.create()
    saved.fs.create_file("kept", [b"a", b"b"])
    saved.save()

    def torn_dump(obj, handle, *args, **kwargs):
        handle.write(pickle.dumps(obj)[:64])
        raise RuntimeError("crash mid-save")

    saved.fs.create_file("lost", [b"c"])
    monkeypatch.setattr(pickle, "dump", torn_dump)
    with pytest.raises(RuntimeError):
        saved.save()
    monkeypatch.undo()

    reloaded = Vault(server_dir, str(tmp_path / "keys"))
    reloaded.load()
    assert reloaded.fs.exists("kept")
    assert not reloaded.fs.exists("lost")
    assert reloaded.fs.open("kept").read_all() == [b"a", b"b"]
    assert os.listdir(server_dir) == ["vault.state"]


def test_audit_needs_durable_and_verifies_after_offline_compact(tmp_path):
    """``serve --audit`` without ``--durable`` is refused (the audit chain
    is the WAL), and the offline ``compact`` of an audited vault seals
    its history into the archive instead of dropping it."""
    import json

    from repro.cli import Vault, main
    from repro.obs.audit import AuditLog
    from repro.server.engine import engine_path, make_engine
    from repro.server.wal import CommitLog

    assert vault(tmp_path, "init").returncode == 0
    refused = vault(tmp_path, "serve", "--audit")
    assert refused.returncode == 1
    assert "--audit requires --durable" in refused.stderr

    server_dir = str(tmp_path / "server")
    vault_ = Vault(server_dir, str(tmp_path / "keys"))
    vault_.load()
    server = vault_.fs.server
    engine = make_engine("sqlite", engine_path(server_dir, "sqlite"))
    server.attach_engine(engine)
    server.compact_storage()
    wal = CommitLog(os.path.join(server_dir, "server.wal"),
                    archive=os.path.join(server_dir, "audit.log"))
    server.attach_wal(wal)
    server.attach_audit(AuditLog(wal))
    vault_.fs.create_file("f", [b"a", b"b", b"c"])
    vault_.fs.open("f").delete_record(1)
    wal.close()
    engine.close()
    before = json.loads(vault(tmp_path, "audit", "verify").stdout)

    assert main(["--server-dir", server_dir, "compact"]) == 0
    after = vault(tmp_path, "audit", "verify")
    assert after.returncode == 0, after.stderr
    report = json.loads(after.stdout)
    assert report["records"] == before["records"] > 0
    assert report["deletions"] == before["deletions"] >= 1
    assert os.path.getsize(os.path.join(server_dir, "audit.log")) > 6


def test_init_refuses_a_server_dir_with_durable_state(tmp_path):
    """A second ``init`` over a directory a durable serve has used is
    refused by name: the next ``serve --durable`` would otherwise recover
    the earlier server's state under the new vault."""
    import signal

    assert vault(tmp_path, "init").returncode == 0
    assert vault(tmp_path, "put", "f", stdin="a\nb\n").returncode == 0
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--server-dir",
         str(tmp_path / "server"), "serve", "--durable", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for line in serve.stdout:
            if line.startswith("serving vault"):
                break
        else:
            pytest.fail(serve.stderr.read())
    finally:
        serve.send_signal(signal.SIGINT)
        serve.communicate(timeout=60)
    assert (tmp_path / "server" / "server.wal").exists()

    again = vault(tmp_path, "init")
    assert again.returncode == 1
    assert "state.db" in again.stderr and "server.wal" in again.stderr
    assert "Traceback" not in again.stderr
    # The refused init left the old vault in place.
    assert vault(tmp_path, "cat", "f").stdout.splitlines() == ["a", "b"]


def test_init_refuses_to_replace_an_existing_vault(tmp_path):
    """The vault holds the client's only copy of its keys: a second
    ``init`` must not replace it, even before any durable serve."""
    assert vault(tmp_path, "init").returncode == 0
    assert vault(tmp_path, "put", "f", stdin="a\nb\n").returncode == 0
    again = vault(tmp_path, "init")
    assert again.returncode == 1
    assert "vault.state" in again.stderr
    assert "fresh --server-dir" in again.stderr
    assert "Traceback" not in again.stderr
    assert vault(tmp_path, "ls").stdout.startswith("f\t2 records")


def test_durable_serve_refuses_a_leftover_image_and_memory_backend(tmp_path):
    """``serve --durable`` runs on the SQLite engine only: a server
    directory still holding an earlier version's ``server.img`` is
    refused by name (bootstrapping the engine from the vault would drop
    every commit in the image), and so is ``--backend memory``."""
    assert vault(tmp_path, "init").returncode == 0
    memory = vault(tmp_path, "serve", "--durable", "--backend", "memory")
    assert memory.returncode == 1
    assert "--backend memory cannot be durable" in memory.stderr

    image = tmp_path / "server" / "server.img"
    image.write_bytes(b"RPRV")
    refused = vault(tmp_path, "serve", "--durable", "--port", "0")
    assert refused.returncode == 1
    assert str(image) in refused.stderr
    assert "Traceback" not in refused.stderr
    assert not (tmp_path / "server" / "state.db").exists()
