"""ctypes loader for the compiled encoder fold (_cfold.c).

The reference ships mypyc-compiled wheels for its 8 hot modules
(/root/reference/pyproject.toml:25-43, docs/overview.md:57); this repo's
equivalent is one ~400-line C translation of the sequential per-row fold,
built on first use by :func:`pyjelly_ray._cbuild.build` and loaded via
ctypes.  Everything stays optional: no compiler, a failed build, or a
failed load ⇒ ``LIB is None`` and callers use the pure-Python fold — which
remains the single source of semantics, pinned byte-identical by
tests/test_encode_fast.py.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .._cbuild import build

_SRC = os.path.join(os.path.dirname(__file__), "_cfold.c")

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _load():
    path = build(_SRC, "cfold")
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    lib.jelly_encode_fold.restype = ctypes.c_int64
    lib.jelly_encode_fold.argtypes = [
        ctypes.c_int64, ctypes.c_int, ctypes.c_int,  # n, mode, use_prefixes
        _U8, _U8, _U8, _U8, _U8,                     # s_ch p_ch o_ch g_ch s_is_iri
        _I64, _I64,                                  # o_kind g_kind
        _I64, _I64, _I64, _I64,                      # sg pg og gg
        _I64, _I64,                                  # pref_of name_of
        _U8, _I64,                                   # val_buf val_off
        _U8, _I64, ctypes.c_int64,                   # pref_buf pref_off n_pref
        _U8, _I64, ctypes.c_int64,                   # name_buf name_off n_name
        _I64, _I64, _I64,                            # lex_idx lang_idx dt_idx
        _U8, _I64,                                   # lex_buf lex_off
        _U8, _I64,                                   # lang_buf lang_off
        _U8, _I64, ctypes.c_int64,                   # dt_buf dt_off n_dt
        _U8,                                         # dt_skip
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # lookup caps
        ctypes.c_int64,                              # empty_pref_id
        _U8, ctypes.c_int64,                         # options_row, len
        ctypes.c_int64,                              # frame_size
        ctypes.POINTER(ctypes.POINTER(ctypes.c_uint8)),
        ctypes.POINTER(ctypes.c_int64),
    ]
    lib.jelly_free.restype = None
    lib.jelly_free.argtypes = [ctypes.POINTER(ctypes.c_uint8)]
    return lib


LIB = _load()


def _i64(a: np.ndarray):
    a = np.ascontiguousarray(a, dtype=np.int64)
    return a, a.ctypes.data_as(_I64)


def _u8(a: np.ndarray):
    a = np.ascontiguousarray(a, dtype=np.uint8)
    return a, a.ctypes.data_as(_U8)


def _blob(buf: bytes):
    ptr = ctypes.cast(ctypes.create_string_buffer(buf, max(len(buf), 1)), _U8)
    return ptr


def concat_offsets(parts: list[bytes]) -> tuple[bytes, np.ndarray]:
    """[bytes] → (concatenated buffer, int64 offsets[len+1])."""
    off = np.zeros(len(parts) + 1, np.int64)
    if parts:
        np.cumsum([len(p) for p in parts], out=off[1:])
    return b"".join(parts), off


def encode_fold(*, n, mode, use_prefixes, s_ch, p_ch, o_ch, g_ch, s_is_iri,
                o_kind, g_kind, sg, pg, og, gg, pref_of, name_of,
                val_parts, pref_parts, name_parts, lex_idx, lang_idx, dt_idx,
                lex_parts, lang_parts, dt_parts, dt_skip,
                max_prefixes, max_names, max_datatypes, empty_pref_id,
                options_row, frame_size) -> bytes | None:
    """Run the compiled fold; ``None`` ⇒ caller falls back to Python.

    Byte args (``*_parts``) are per-unique payloads, each a list of bytes
    or a ``(uint8 bytes, int64 offsets)`` pair; index arrays are numpy.  A ``-2`` return (conformance error, e.g. datatype lookup
    disabled) also falls back so the Python fold raises the proper
    exception.
    """
    if LIB is None:
        return None
    keep = []  # keep ctypes buffers alive through the call

    def I(a):
        arr, p = _i64(np.asarray(a))
        keep.append(arr)
        return p

    def U(a):
        arr, p = _u8(np.asarray(a))
        keep.append(arr)
        return p

    def B(parts):
        if isinstance(parts, tuple):  # (uint8 bytes, int64 offsets), laid out
            data, off = parts
            arr, ptr = _u8(data if len(data) else np.zeros(1, np.uint8))
            keep.append(arr)
        else:
            buf, off = concat_offsets(parts)
            ptr = _blob(buf)
            keep.append(ptr)
        arr, offp = _i64(off)
        keep.append(arr)
        return ptr, offp

    def count(parts):
        return len(parts[1]) - 1 if isinstance(parts, tuple) else len(parts)

    val_buf, val_off = B(val_parts)
    pref_buf, pref_off = B(pref_parts)
    name_buf, name_off = B(name_parts)
    lex_buf, lex_off = B(lex_parts)
    lang_buf, lang_off = B(lang_parts)
    dt_buf, dt_off = B(dt_parts)
    opt_ptr = _blob(options_row)
    keep.append(opt_ptr)

    out_p = ctypes.POINTER(ctypes.c_uint8)()
    out_len = ctypes.c_int64()
    rc = LIB.jelly_encode_fold(
        n, mode, 1 if use_prefixes else 0,
        U(s_ch), U(p_ch), U(o_ch), U(g_ch), U(s_is_iri),
        I(o_kind), I(g_kind), I(sg), I(pg), I(og), I(gg),
        I(pref_of), I(name_of),
        val_buf, val_off,
        pref_buf, pref_off, count(pref_parts),
        name_buf, name_off, count(name_parts),
        I(lex_idx), I(lang_idx), I(dt_idx),
        lex_buf, lex_off, lang_buf, lang_off,
        dt_buf, dt_off, len(dt_parts),
        U(dt_skip),
        max_prefixes, max_names, max_datatypes, empty_pref_id,
        opt_ptr, len(options_row), frame_size,
        ctypes.byref(out_p), ctypes.byref(out_len),
    )
    if rc != 0:
        return None
    try:
        return ctypes.string_at(out_p, out_len.value)
    finally:
        LIB.jelly_free(out_p)
