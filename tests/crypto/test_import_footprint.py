"""What the program's entry points and its codec load into a process.

The server process imports :mod:`repro.crypto` (for its RNG and HMAC
wrappers) but never encrypts, so libcrypto's cipher calls are bound
through :mod:`ctypes` on the first AES-CTR call and numpy is never
needed on a serving path.  Loading either at import time costs every
server process several megabytes of resident memory; ``cryptography``
is no longer used at all.
"""

import os
import subprocess
import sys

import repro


def _probe(code: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_entry_points_import_neither_cryptography_nor_numpy():
    probe = ("import sys, repro.cli, repro.server\n"
             "print(sorted(m for m in ('cryptography', 'numpy', 'ctypes')"
             " if m in sys.modules))")
    assert _probe(probe) == "[]"


def test_codec_batches_import_neither_cryptography_nor_numpy():
    """300 x 64 B items through ``encrypt_many``/``decrypt_many`` and one
    ``encrypt`` run on libcrypto alone."""
    probe = (
        "import os, sys\n"
        "from repro.core.ciphertext import ItemCodec\n"
        "from repro.core.params import Params\n"
        "codec = ItemCodec(Params())\n"
        "n = 300\n"
        "outputs = [os.urandom(20) for _ in range(n)]\n"
        "messages = [os.urandom(64) for _ in range(n)]\n"
        "nonces = [os.urandom(8) for _ in range(n)]\n"
        "sealed = codec.encrypt_many(outputs, messages, list(range(n)), nonces)\n"
        "opened = codec.decrypt_many(outputs, sealed)\n"
        "assert opened == [(m, i) for i, m in enumerate(messages)]\n"
        "codec.encrypt(outputs[0], messages[0], 0, nonces[0])\n"
        "print(sorted(m for m in ('cryptography', 'numpy')"
        " if m in sys.modules))")
    assert _probe(probe) == "[]"
