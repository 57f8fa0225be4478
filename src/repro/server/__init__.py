"""Server side: the honest cloud server, storage, and adversarial variants."""

from repro.server.server import CloudServer, ServerFile
from repro.server.storage import (CallbackCiphertextStore, CiphertextStore,
                                  InMemoryCiphertextStore)

__all__ = [
    "CallbackCiphertextStore",
    "CiphertextStore",
    "CloudServer",
    "InMemoryCiphertextStore",
    "ServerFile",
]
