"""Exception hierarchy for the assured-deletion library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ProtocolError(ReproError):
    """A message was malformed or violated the protocol state machine."""


class AuditError(ReproError):
    """The audit chain failed verification (tampering or corruption)."""


class StorageError(ReproError):
    """Durable state on disk cannot be served by this server.

    Raised when a storage-engine file is not a database of the expected
    schema, was written with a different modulator width, or when a
    server directory holds a format this version no longer reads.
    """


class IntegrityError(ReproError):
    """Decrypt-verification failed: ciphertext, key, or hash did not match.

    Raised by the client when a ciphertext supplied by the server does not
    decrypt to ``m || r`` with a matching ``H(m || r)`` -- the check that
    defeats the wrong-leaf attack of Theorem 2, case ii.
    """


class DuplicateModulatorError(ReproError):
    """Two modulators in a received subtree share the same value.

    The client refuses to operate on such a subtree (Theorem 2, case ii:
    the path-cloning attack of Figure 7 necessarily produces duplicate
    sibling-link modulators).  The server raises it, too, when a client
    operation would introduce a duplicate into the tree, in which case the
    client retries with fresh randomness.
    """


class StructureError(ReproError):
    """A received subtree is not shaped like a valid path/cut of the tree."""


class UnknownItemError(ReproError):
    """The requested item id (or file id) does not exist on the server."""


class KeyShreddedError(ReproError):
    """An operation needed key material that has been securely deleted."""


class StaleStateError(ReproError):
    """Client and server disagree about tree version (lost update detected)."""


class SimulatedCrash(ReproError):
    """The server process 'died' at an armed crash point (fault injection).

    Raised by :meth:`repro.server.server.CloudServer` when a test armed a
    crash point; everything the process would lose in a real ``kill -9``
    (un-checkpointed in-memory state) must be considered lost by the test
    harness, which restarts the server from its storage engine + WAL.
    """
