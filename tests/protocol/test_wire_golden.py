"""Golden wire bytes: one fixed encoding per registered message type.

The encoder may change how it builds a message, never which bytes it
builds: WAL records, replay digests and the paper's byte counts all hang
off the exact encoding.  Each case below is hashed with SHA-256 and
compared with the digest recorded from the earlier ``Writer``, which
packed every field into a doubling buffer with ``struct.pack_into``.  The cases cover optional
modulators absent and present, empty, one-item and long lists, blobs of
mixed lengths and of one shared length, and zero-length blobs.
"""

import hashlib

import pytest

from repro.baselines import messages as bmsg
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
#: Blobs of every length 0..63, so list encodes cross buffer growth.
BLOBS = tuple(bytes(range(length)) for length in range(64))
MODS = tuple(m(i) for i in range(64))
#: 300 blobs of one length, about 150 KB encoded.
EQUAL = tuple(bytes([i % 256]) * 500 for i in range(300))

GOLDEN = [
    ("Ack", msg.Ack(tree_version=9, item_id=3),
     "c4d584a70a6aaea5598398137482f7e8e1d7f43d4ca4005cf8857c526f67325b"),
    ("ErrorReply", msg.ErrorReply(code=msg.E_STALE_STATE, detail="tré",
                                  request_id=5),
     "07ed4c6c42f51ce110150214fb60512cec9d3f247a42e4c2cc22847e0c007266"),
    ("ErrorReply-empty", msg.ErrorReply(),
     "47ee209e470e310f5754aec8acf25f58675d375201910c7cca0e68c71192fa44"),
    ("OutsourceRequest", msg.OutsourceRequest(
        file_id=1, item_ids=tuple(range(10, 74)), links=MODS[2:],
        leaves=MODS, ciphertexts=BLOBS, request_id=0xDEADBEEFCAFEF00D),
     "eb9baa5807bc3127cd33598e07391dde2edb6c9e4f0f8ee525082e89c84996b3"),
    ("OutsourceRequest-empty", msg.OutsourceRequest(),
     "7324b5c72b51bb5d4c180f1109cfd347b60473882145841c39f3e584576296f9"),
    ("AccessRequest", msg.AccessRequest(file_id=1, item_id=10),
     "658220e610fdba07e0bfc2c8b889b04921535bfc3d30963381d686286a7864ad"),
    ("AccessReply", msg.AccessReply(path=PATH, ciphertext=b"ct",
                                    tree_version=4),
     "b2f825a863daa598857303f35064aa629849fcd97b3b8e1f6109012cd320cd72"),
    ("AccessReply-empty-blob", msg.AccessReply(path=PATH, ciphertext=b"",
                                               tree_version=4),
     "1ab5729222c76ed8443f409192c490e5058609ecc48b3ed1b2ca8b563046272d"),
    ("ModifyCommit", msg.ModifyCommit(file_id=1, item_id=10, ciphertext=b"",
                                      tree_version=4, request_id=1),
     "b1131f16155a7370754c93c648ea638650c37b8bf5881cd1858307ab526f6e89"),
    ("DeleteRequest", msg.DeleteRequest(file_id=1, item_id=10),
     "904ea95887dfe1968d87fcfe10cd7e9ff6210766c2b7b3faa8355b3f45b105dd"),
    ("DeleteChallenge", msg.DeleteChallenge(mt=MT, ciphertext=b"ct",
                                            balance=BALANCE,
                                            tree_version=4),
     "30840ece1c36d412535cbce2352e8372cc66e81180285513f43664486c5dfa81"),
    ("DeleteChallenge-no-balance", msg.DeleteChallenge(
        mt=MT, ciphertext=b"", balance=None, tree_version=4),
     "f023063c0730aa06081de768c4c5cc6dbf14d444bdeae80745d4bab47d5a6b64"),
    ("DeleteCommit", msg.DeleteCommit(
        file_id=1, item_id=10, cut_slots=(3, 4), deltas=(m(9), m(10)),
        x_s_prime=m(11), dest_link=None, dest_leaf=m(12), tree_version=4,
        request_id=(1 << 64) - 1),
     "dc985867fffd4b0df255664b212a672e69efaae6138b165aeb4ab40d2267efd7"),
    ("DeleteCommit-empty", msg.DeleteCommit(),
     "1288e3c552777325d18963aa32abf5bb908762f2e9994ed7215dec96b806c570"),
    ("InsertRequest", msg.InsertRequest(file_id=1),
     "4ea26d018784d9d07ea2ec5952a189ca0c0031ebbd464093ddeea695d3634b02"),
    ("InsertChallenge", msg.InsertChallenge(path=PATH, tree_version=4),
     "f94d64fe2fa6a775febeae3388176a2e9eb4fec3e15d63b0c64357b12239c078"),
    ("InsertChallenge-no-path", msg.InsertChallenge(path=None,
                                                    tree_version=0),
     "8e340ebea9ddfb7af3b1e4896741a3d024ec1040e7698313cf33ef52a6c657a6"),
    ("InsertCommit", msg.InsertCommit(
        file_id=1, item_id=20, t_new_link=m(1), t_new_leaf=m(2), e_link=m(3),
        e_leaf=m(4), ciphertext=b"ct", tree_version=4, request_id=7),
     "90dfc0d41482c65c993caa51be9f99ff27128e1333e0ff5b53343495e77a5599"),
    ("InsertCommit-absent", msg.InsertCommit(
        file_id=1, item_id=20, t_new_link=None, t_new_leaf=None, e_link=None,
        e_leaf=m(4), ciphertext=b"", tree_version=0),
     "10030132dd0482c10f99b871c29c74ceb73fcb7dbdbf1a429a8bbcf4d0be8103"),
    ("FetchFileRequest", msg.FetchFileRequest(file_id=1),
     "116b31839fbf2526573cac5098d18c53908cd0b53bc4947b390ece1ceb291e7b"),
    ("FetchFileReply", msg.FetchFileReply(
        n_leaves=64, item_ids=tuple(range(10, 74)), links=MODS[2:],
        leaves=MODS, ciphertexts=BLOBS, tree_version=4),
     "b25fead7ac7a7b838311faa5418ec772c1899f9411e6947f79a7aa22581b0dea"),
    ("FetchFileReply-equal-lengths", msg.FetchFileReply(
        n_leaves=300, item_ids=tuple(range(300)), links=MODS[2:],
        leaves=MODS, ciphertexts=EQUAL, tree_version=5),
     "f944c1c64bd331309ab3a8aa4f38ffbb6de2bddc12e2572028e01334278dad9f"),
    ("FetchFileReply-empty", msg.FetchFileReply(),
     "34a9833600f4f6f6d095516559fe97a319fdcda23ef07c48c02e0c025f3548d4"),
    ("DeleteFileRequest", msg.DeleteFileRequest(file_id=1,
                                                request_id=42),
     "59c94a47b5003fe69a264b893dc25a248158529fcd1befe93931591694efa018"),
    ("BatchDeleteRequest", msg.BatchDeleteRequest(file_id=1,
                                                  item_ids=(10, 12, 11)),
     "b3cb96f8eef6e8bdcfc31600a5dbab90f559ba5a23babd2a5aa6bc4a050ed853"),
    ("BatchDeleteRequest-empty", msg.BatchDeleteRequest(file_id=1),
     "e63e20c395f32532505a8cb5c78ddf625664392e55d505c4afe7febd19de33a9"),
    ("BatchDeleteReply", msg.BatchDeleteReply(
        n_leaves=4, target_slots=(5, 7, 6), links=MODS[1:7],
        leaf_mods=MODS[7:11], ciphertexts=(b"a", b"", b"ccc"),
        tree_version=4),
     "f76da32d5b95e409ab9eb8004f5a5f5a89402f65c39fb306c38a17c4ef6cca1e"),
    ("BatchDeleteReply-empty", msg.BatchDeleteReply(),
     "eb72193cb69b962cf3bb4ab0e5dec494faddab35459d6243a9892d5007d3970c"),
    ("BatchDeleteCommit", msg.BatchDeleteCommit(
        file_id=1, item_ids=(10, 12, 11), deltas=(m(1), m(2)),
        moves=(BalanceMove(m(3), m(4), m(5)), BalanceMove(m(6), None, m(7)),
               BalanceMove(None, None, None)),
        tree_version=4, request_id=0x0102030405060708),
     "84f147179e67e88a68998ed89c97caa89931e9be2f86728cc685e01915acf4ce"),
    ("BatchDeleteCommit-empty", msg.BatchDeleteCommit(),
     "06f9971135d2ff6b64c9273e7084cf07f5f9a6e01851e12c25dbf6e358916aed"),
    ("ReplaceCommit", msg.ReplaceCommit(
        file_id=1, item_id=10, new_item_id=11, cut_slots=(3, 4),
        deltas=(m(9), m(10)), ciphertext=b"new-record", tree_version=4,
        request_id=7),
     "35184ed64bae828adac2df72aa2909375a0c63abce8e426be5ff61de2a2d37c5"),
    ("BlobUploadAll", bmsg.BlobUploadAll(file_id=1, item_ids=(1, 2, 3),
                                         ciphertexts=(b"x", b"", b"yz")),
     "7d85d54c677df7d57477b45301245d7e5e939049cf282070dd59969957e07d09"),
    ("BlobUploadAll-zero-lengths", bmsg.BlobUploadAll(
        file_id=1, item_ids=(1, 2, 3), ciphertexts=(b"", b"", b"")),
     "9e2f7cccf0bd7a3106eaeda7505dfa6b466c6d0c3db08272fd3dbef1ec4410c2"),
    ("BlobUploadAll-empty", bmsg.BlobUploadAll(file_id=1),
     "71f2d7881e45d2a90d7053fa1fcc5f79e4dafaee8e50f780a9b4ada6397fc99b"),
    ("BlobGet", bmsg.BlobGet(file_id=1, item_id=2),
     "e7a1f6ecea7f36bdd9ef7cd9637b5148f76cbd0260bdbf75a9d2d44c2eb664a9"),
    ("BlobReply", bmsg.BlobReply(ciphertext=b"data"),
     "c1da76e077deb9a0c6335657b4d503750d37a1e1c5f573fa7c02adaff06247bf"),
    ("BlobReply-empty-blob", bmsg.BlobReply(ciphertext=b""),
     "49b53a82dec31dbcb3b3f4276f2996e695546482e961558b6f6d7e5d9273ffef"),
    ("BlobGetAll", bmsg.BlobGetAll(file_id=1),
     "02ebe850b1e52da04ca6af41975502d83b35bb95e7dc9152e8c1f02ef138089a"),
    ("BlobAllReply", bmsg.BlobAllReply(item_ids=tuple(range(64)),
                                       ciphertexts=BLOBS),
     "d816a1ac86afdb6754f0dfe819f892fa20f3a334257a7b2ad3af47bc1d34f25b"),
    ("BlobAllReply-one", bmsg.BlobAllReply(item_ids=(7,),
                                           ciphertexts=(b"only",)),
     "d1710838f072f5bbb5bdf2140b1ca56c41c994f6b4d3f685cadedc8014a92e87"),
    ("BlobAllReply-empty", bmsg.BlobAllReply(),
     "23a9e5d5dc3be300bfab2b9b65b715545504208a6535b40fb482cff6a972ce20"),
    ("BlobPut", bmsg.BlobPut(file_id=1, item_id=2, ciphertext=b"z"),
     "425246dfc32c04832fbabdbf7646fa4a7349d6f734668df0816f30fdb0bf61e8"),
    ("BlobDelete", bmsg.BlobDelete(file_id=1, item_id=2),
     "e31c38873816fba6eb3fdce50805f52b6aeab88734df47b22c22df7a295840da"),
]


@pytest.mark.parametrize("message,digest",
                         [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_encoding_matches_recorded_digest(message, digest):
    encoded = msg.encode_message(CTX, message)
    assert hashlib.sha256(encoded).hexdigest() == digest
    assert msg.decode_message(CTX, encoded) == message


def test_every_registered_type_has_a_golden_case():
    from repro.protocol.messages import _REGISTRY
    covered = {type(message) for _name, message, _digest in GOLDEN}
    assert covered == set(_REGISTRY.values())
