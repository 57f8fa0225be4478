"""Every protocol message roundtrips through the wire codec."""

import pytest

from repro.baselines import messages as bmsg
from repro.core.errors import ProtocolError
from repro.core.ops import BalanceMove
from repro.core.tree import BalanceView, CutEntry, MTView, PathView
from repro.protocol import messages as msg
from repro.protocol.wire import WireContext

CTX = WireContext(modulator_width=20)


def m(byte: int) -> bytes:
    return bytes([byte]) * 20


PATH = PathView(path_slots=(1, 2, 5), path_links=(m(1), m(2)), leaf_mod=m(3))
MT = MTView(path_slots=(1, 2, 5), path_links=(m(1), m(2)), leaf_mod=m(3),
            cut=(CutEntry(slot=3, link_mod=m(4), is_leaf=False),
                 CutEntry(slot=4, link_mod=m(5), is_leaf=True, leaf_mod=m(6))))
BALANCE = BalanceView(t_path=PATH, s_slot=4, s_link_mod=m(7), s_leaf_mod=m(8))

MESSAGES = [
    msg.Ack(tree_version=9, item_id=3),
    msg.ErrorReply(code=msg.E_STALE_STATE, detail="try again"),
    msg.OutsourceRequest(file_id=1, item_ids=(10, 11), links=(m(1), m(2)),
                         leaves=(m(3), m(4)), ciphertexts=(b"ct-a", b"ct-b"),
                         request_id=0xDEADBEEFCAFEF00D),
    msg.AccessRequest(file_id=1, item_id=10),
    msg.AccessReply(path=PATH, ciphertext=b"ct", tree_version=4),
    msg.ModifyCommit(file_id=1, item_id=10, ciphertext=b"ct2", tree_version=4,
                     request_id=1),
    msg.DeleteRequest(file_id=1, item_id=10),
    msg.DeleteChallenge(mt=MT, ciphertext=b"ct", balance=BALANCE,
                        tree_version=4),
    msg.DeleteChallenge(mt=MT, ciphertext=b"ct", balance=None, tree_version=4),
    msg.DeleteCommit(file_id=1, item_id=10, cut_slots=(3, 4),
                     deltas=(m(9), m(10)), x_s_prime=m(11), dest_link=None,
                     dest_leaf=m(12), tree_version=4,
                     request_id=(1 << 64) - 1),
    msg.InsertRequest(file_id=1),
    msg.InsertChallenge(path=PATH, tree_version=4),
    msg.InsertChallenge(path=None, tree_version=0),
    msg.InsertCommit(file_id=1, item_id=20, t_new_link=m(1), t_new_leaf=m(2),
                     e_link=m(3), e_leaf=m(4), ciphertext=b"ct",
                     tree_version=4, request_id=7),
    msg.InsertCommit(file_id=1, item_id=20, t_new_link=None, t_new_leaf=None,
                     e_link=None, e_leaf=m(4), ciphertext=b"ct",
                     tree_version=0),
    msg.FetchFileRequest(file_id=1),
    msg.FetchFileReply(n_leaves=2, item_ids=(10, 11), links=(m(1), m(2)),
                       leaves=(m(3), m(4)), ciphertexts=(b"a", b"b"),
                       tree_version=4),
    msg.DeleteFileRequest(file_id=1),
    msg.DeleteFileRequest(file_id=1, request_id=42),
    msg.BatchDeleteRequest(file_id=1, item_ids=(10, 12, 11)),
    msg.BatchDeleteReply(n_leaves=4, target_slots=(5, 7, 6),
                         links=(m(1), m(2), m(3), m(4), m(5), m(6)),
                         leaf_mods=(m(7), m(8), m(9), m(10)),
                         ciphertexts=(b"a", b"bb", b"ccc"), tree_version=4),
    msg.BatchDeleteCommit(file_id=1, item_ids=(10, 12, 11),
                          deltas=(m(1), m(2)),
                          moves=(BalanceMove(m(3), m(4), m(5)),
                                 BalanceMove(m(6), None, m(7)),
                                 BalanceMove(None, None, None)),
                          tree_version=4, request_id=0x0102030405060708),
    bmsg.BlobUploadAll(file_id=1, item_ids=(1, 2), ciphertexts=(b"x", b"y")),
    bmsg.BlobGet(file_id=1, item_id=2),
    bmsg.BlobReply(ciphertext=b"data"),
    bmsg.BlobGetAll(file_id=1),
    bmsg.BlobAllReply(item_ids=(1,), ciphertexts=(b"x",)),
    bmsg.BlobPut(file_id=1, item_id=2, ciphertext=b"z"),
    bmsg.BlobDelete(file_id=1, item_id=2),
    msg.ReplaceCommit(file_id=1, item_id=10, new_item_id=11,
                      cut_slots=(3, 4), deltas=(m(9), m(10)),
                      ciphertext=b"new-record", tree_version=4,
                      request_id=7),
]


@pytest.mark.parametrize("message", MESSAGES,
                         ids=[type(m_).__name__ + f"-{i}"
                              for i, m_ in enumerate(MESSAGES)])
def test_roundtrip(message):
    encoded = msg.encode_message(CTX, message)
    decoded = msg.decode_message(CTX, encoded)
    assert decoded == message


def test_unknown_type_rejected():
    with pytest.raises(ProtocolError):
        msg.decode_message(CTX, b"\xfa")


def test_trailing_garbage_rejected():
    encoded = msg.encode_message(CTX, msg.Ack())
    with pytest.raises(ProtocolError):
        msg.decode_message(CTX, encoded + b"\x00")


def test_payload_bytes_accounting():
    reply = msg.AccessReply(path=PATH, ciphertext=b"\x00" * 100,
                            tree_version=0)
    assert reply.payload_bytes() == 104  # blob framing + content
    assert msg.AccessRequest().payload_bytes() == 0
    upload = msg.OutsourceRequest(ciphertexts=(b"ab", b"cdef"))
    assert upload.payload_bytes() == (4 + 2) + (4 + 4)
    batch = msg.BatchDeleteReply(ciphertexts=(b"ab", b"cdef"))
    assert batch.payload_bytes() == (4 + 2) + (4 + 4)
    assert msg.BatchDeleteCommit().payload_bytes() == 0


def test_payload_is_smaller_than_message():
    reply = msg.AccessReply(path=PATH, ciphertext=b"\x00" * 100,
                            tree_version=0)
    assert reply.payload_bytes() < len(msg.encode_message(CTX, reply))


def test_type_tags_unique():
    from repro.protocol.messages import _REGISTRY
    assert len(_REGISTRY) >= 20
