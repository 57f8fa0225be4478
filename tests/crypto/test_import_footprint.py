"""Importing the program's entry points loads no native crypto or numpy.

The server process imports :mod:`repro.crypto` (for its RNG and HMAC
wrappers) but never encrypts, so ``cryptography`` is imported on the
first AES-CTR call and numpy on the first bulk sweep.  Loading either at
import time costs every server process several megabytes of resident
memory.
"""

import os
import subprocess
import sys

import repro


def test_entry_points_import_neither_cryptography_nor_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, repro.cli, repro.server\n"
             "print(sorted(m for m in ('cryptography', 'numpy')"
             " if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
