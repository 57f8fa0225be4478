"""AES-CTR, the item codec's cipher.

The item codec (:mod:`repro.core.ciphertext`) uses AES-CTR so ciphertext
length equals plaintext length plus the nonce.  CTR has one kernel:
libcrypto's EVP interface (OpenSSL >= 3.0), called through :mod:`ctypes`
with one cipher context re-keyed per item, loaded on the first call.
:func:`aes_ctr`, :func:`aes_ctr_many` and :func:`aes_ctr_joined` share
its one loop, which writes every item into one output buffer.  Per item
the loop makes two EVP calls, a re-key and an update, whose arguments
ctypes passes without converting (see :func:`_evp`).
:func:`aes_ctr_scalar` runs the same transform on the in-repo
:class:`~repro.crypto.aes.AES` as the kernel's reference.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

from repro.crypto.aes import AES


_COUNTER_LIMIT = 1 << 64
_KEY_SIZES = (16, 24, 32)


@functools.cache
def _evp() -> SimpleNamespace:
    """libcrypto's EVP cipher calls, bound on the first AES-CTR call.

    Loading is deferred so that processes which never encrypt (the
    server) load neither libcrypto nor :mod:`ctypes`.  The library is
    opened by its soname, which the interpreter's ``_hashlib`` has
    usually mapped already.  OpenSSL 3.0 or later is required (the
    kernel fetches its ciphers with ``EVP_CIPHER_fetch``); anything else
    raises :class:`RuntimeError` -- there is no other AES-CTR path.

    The per-item calls ``init`` and ``update`` declare no ``argtypes``,
    so ctypes runs no ``from_param`` converter on their arguments, which
    was most of their cost.  Without converters a Python int is passed
    as a C ``int``, so every pointer argument to them must be a ctypes
    object, ``bytes`` or ``None``; only the input length is an int.
    """
    import ctypes
    from ctypes import c_char_p, c_int, c_ulong, c_void_p

    try:
        lib = ctypes.CDLL("libcrypto.so.3")
    except OSError as exc:
        raise RuntimeError(f"AES-CTR needs OpenSSL >= 3.0: {exc}") from None

    def bind(name, restype, *argtypes):
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, list(argtypes)
        return function

    version = bind("OpenSSL_version_num", c_ulong)()
    if version < 0x30000000:
        raise RuntimeError(f"AES-CTR needs OpenSSL >= 3.0, found "
                           f"0x{version:08x}")
    fetch = bind("EVP_CIPHER_fetch", c_void_p, c_void_p, c_char_p, c_char_p)
    ciphers = {}
    for size in _KEY_SIZES:
        ciphers[size] = c_void_p(
            fetch(None, f"AES-{8 * size}-CTR".encode(), None))
        if not ciphers[size]:
            raise RuntimeError(f"OpenSSL has no AES-{8 * size}-CTR")
    return SimpleNamespace(
        ciphers=ciphers,
        ctx_new=bind("EVP_CIPHER_CTX_new", c_void_p),
        ctx_free=bind("EVP_CIPHER_CTX_free", None, c_void_p),
        # EVP_EncryptInit_ex2(ctx, cipher, key, iv, params)
        init=bind("EVP_EncryptInit_ex2", c_int),
        # EVP_EncryptUpdate(ctx, out, &outl, in, inl)
        update=bind("EVP_EncryptUpdate", c_int),
        get_error=bind("ERR_get_error", c_ulong),
        clear_error=bind("ERR_clear_error", None),
        buffer=ctypes.create_string_buffer, byref=ctypes.byref,
        c_int=c_int, c_void_p=c_void_p)


def _evp_failed(evp: SimpleNamespace, call: str) -> None:
    code = evp.get_error()
    evp.clear_error()
    raise RuntimeError(f"OpenSSL {call} failed (error 0x{code:x})")


def _ctr(keys, nonces, datas, sizes, initial_counter: int):
    """The one AES-CTR loop: every item through one re-keyed EVP context.

    :func:`aes_ctr_joined` has checked every argument.  The context is
    made for this call and freed (its key schedule cleansed) before
    returning, so no state is shared between threads.  Items are written
    at increasing offsets into one ctypes output buffer, which is
    returned; a failed call raises and returns nothing.

    The context, the ciphers and ``outl`` are ctypes objects held for
    the whole call, and each item's output position is a ``byref`` into
    the output buffer, so the two EVP calls convert no argument.
    """
    total = sum(sizes)
    if not total:
        return b""
    evp = _evp()
    init, update, ciphers, byref = evp.init, evp.update, evp.ciphers, evp.byref
    out = evp.buffer(total)
    written = evp.c_int()
    outl = byref(written)
    counter = initial_counter.to_bytes(8, "big")
    ctx = evp.c_void_p(evp.ctx_new())
    if not ctx:
        raise MemoryError("OpenSSL EVP_CIPHER_CTX_new failed")
    try:
        current, offset = None, 0
        for key, nonce, data, size in zip(keys, nonces, datas, sizes):
            if not size:
                continue
            cipher = ciphers[len(key)]
            # A NULL cipher re-keys the context without re-initialising it.
            if not init(ctx, None if cipher is current else cipher, key,
                        nonce + counter, None):
                _evp_failed(evp, "EVP_EncryptInit_ex2")
            current = cipher
            # The length is passed as a C int, which truncates a larger
            # value: the ``written`` check refuses a payload of 2**31
            # bytes or more.
            if (not update(ctx, byref(out, offset), outl, data, size)
                    or written.value != size):
                _evp_failed(evp, "EVP_EncryptUpdate")
            offset += size
    finally:
        evp.ctx_free(ctx)
    return out


def _check_counter_range(initial_counter: int, blocks: int) -> None:
    if initial_counter < 0:
        raise ValueError("initial counter must be non-negative")
    if initial_counter + blocks > _COUNTER_LIMIT:
        raise ValueError("CTR counter would pass 2**64")


def aes_ctr(key: bytes, nonce: bytes, data: bytes, *,
            initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric).

    The counter block is ``nonce (8 bytes) || counter (8 bytes, big endian)``
    and the transform runs in OpenSSL (>= 3.0) through ``EVP``.  The
    counter field is 64 bits wide: a payload whose counters would pass
    ``2**64`` raises :class:`ValueError` rather than carry into the nonce.
    """
    return aes_ctr_joined([key], [nonce], [data],
                          initial_counter=initial_counter)[:]


def aes_ctr_many(keys, nonces, datas, *, initial_counter: int = 0) -> list[bytes]:
    """AES-CTR over many independent ``(key, nonce, data)`` bytes triples.

    Bit-identical to calling :func:`aes_ctr` per triple: one
    :func:`aes_ctr_joined` call, cut into one output per triple.
    """
    joined = aes_ctr_joined(keys, nonces, datas,
                            initial_counter=initial_counter)
    results, end = [], 0
    for data in datas:
        start, end = end, end + len(data)
        results.append(joined[start:end])
    return results


def aes_ctr_joined(keys, nonces, datas, *, initial_counter: int = 0):
    """The outputs of :func:`aes_ctr_many`, joined in batch order.

    The result is the kernel's own output buffer (a ctypes ``c_char``
    array, or ``b""`` when every item is empty): a slice of it is
    ``bytes``, so a caller that parses each output -- the item codec --
    cuts its fields straight out of it without a copy of the whole.

    Every argument is checked before any item is transformed: equal
    lengths, 16/24/32-byte keys, 8-byte nonces and the 64-bit counter
    range.  The batch runs through one libcrypto cipher context and
    each item costs one re-key and one update of it.
    """
    if not (len(keys) == len(nonces) == len(datas)):
        raise ValueError("batch arguments must have equal lengths")
    for key, nonce in zip(keys, nonces):
        if len(key) not in _KEY_SIZES:
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
    sizes = [len(data) for data in datas]
    _check_counter_range(initial_counter, (max(sizes, default=0) + 15) // 16)
    return _ctr(keys, nonces, datas, sizes, initial_counter)


def aes_ctr_scalar(key: bytes, nonce: bytes, data: bytes, *,
                   initial_counter: int = 0) -> bytes:
    """Pure-Python AES-CTR, the reference for the OpenSSL kernel."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    output = bytearray()
    counter = initial_counter
    for i in range(0, len(data), 16):
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = data[i:i + 16]
        output.extend(x ^ y for x, y in zip(chunk, keystream))
        counter += 1
    return bytes(output)
