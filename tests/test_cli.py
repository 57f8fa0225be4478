"""The repro-vault command-line interface."""

import subprocess
import sys



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
