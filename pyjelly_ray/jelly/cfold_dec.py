"""ctypes loader for the compiled decoder fold (_cfold_dec.c).

Counterpart of :mod:`cfold` for the parse direction: the C side parses
rows, runs the DecoderLookup delta rules and repeated-term suppression,
and hands back Arrow-shaped (offsets, utf8 data, byte-mask) buffers per
string column; here they are copied ONCE out of the C heap into Arrow
buffers (``pa.StringArray.from_buffers``) and re-validated
(``validate(full=True)`` checks UTF-8 and offsets, restoring the
byte-level strictness the Python fold gets from ``bytes.decode``).  Any C error code or validation failure
returns ``None`` and the caller re-runs the Python fold, which raises the
proper conformance errors — the Python implementation stays the single
source of semantics (pinned by tests/test_decode_fast.py).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
import pyarrow as pa

from .._cbuild import build

_SRC = os.path.join(os.path.dirname(__file__), "_cfold_dec.c")


class _OutCol(ctypes.Structure):
    _fields_ = [
        ("data", ctypes.POINTER(ctypes.c_uint8)),
        ("data_len", ctypes.c_int64),
        ("off", ctypes.POINTER(ctypes.c_int32)),
        ("mask", ctypes.POINTER(ctypes.c_uint8)),
        ("nulls", ctypes.c_int64),
    ]


class _DecOut(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("s_val", _OutCol),
        ("p_val", _OutCol),
        ("o_val", _OutCol),
        ("o_lex", _OutCol),
        ("o_lang", _OutCol),
        ("o_dt", _OutCol),
        ("g_val", _OutCol),
        ("s_kind", ctypes.POINTER(ctypes.c_uint8)),
        ("o_kind", ctypes.POINTER(ctypes.c_uint8)),
        ("g_kind", ctypes.POINTER(ctypes.c_uint8)),
    ]


def _load():
    path = build(_SRC, "cfold_dec")
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    lib.jelly_decode_fold.restype = ctypes.c_int64
    lib.jelly_decode_fold.argtypes = [
        ctypes.POINTER(ctypes.c_uint8),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64,
        ctypes.c_int,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.POINTER(ctypes.POINTER(_DecOut)),
    ]
    lib.jelly_decode_free.restype = None
    lib.jelly_decode_free.argtypes = [ctypes.POINTER(_DecOut)]
    return lib


LIB = _load()


def _string_col(c: _OutCol, n: int) -> pa.Array:
    offs = pa.py_buffer(ctypes.string_at(c.off, 4 * (n + 1)))
    data = pa.py_buffer(
        ctypes.string_at(c.data, c.data_len) if c.data_len else b""
    )
    validity = None
    if c.nulls:
        mask = np.frombuffer(ctypes.string_at(c.mask, n), np.uint8)
        validity = pa.py_buffer(np.packbits(mask, bitorder="little").tobytes())
    arr = pa.Array.from_buffers(pa.string(), n, [validity, offs, data],
                                null_count=int(c.nulls))
    arr.validate(full=True)  # UTF-8 + offsets strictness
    return arr


def _kind_col(p, n: int) -> pa.Array:
    return pa.array(np.frombuffer(ctypes.string_at(p, n), np.uint8), pa.uint8())


def decode_fold(data: bytes, spans, physical: int, *, max_names: int,
                max_prefixes: int, max_datatypes: int,
                emit_g: bool) -> pa.Table | None:
    """Run the compiled decode; ``None`` ⇒ caller uses the Python fold."""
    if LIB is None:
        return None
    flat = np.empty(2 * len(spans), np.int64)
    for i, (s, e) in enumerate(spans):
        flat[2 * i] = s
        flat[2 * i + 1] = e
    buf = ctypes.cast(
        ctypes.create_string_buffer(data, max(len(data), 1)),
        ctypes.POINTER(ctypes.c_uint8),
    )
    out_p = ctypes.POINTER(_DecOut)()
    rc = LIB.jelly_decode_fold(
        buf,
        flat.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        len(spans),
        physical,
        max_names,
        max_prefixes,
        max_datatypes,
        ctypes.byref(out_p),
    )
    if rc != 0:
        return None
    try:
        o = out_p.contents
        n = int(o.n)
        from ..terms import KIND_IRI

        cols = {
            "s_kind": _kind_col(o.s_kind, n),
            "s_value": _string_col(o.s_val, n),
            "p_kind": pa.array(np.full(n, KIND_IRI, np.uint8), pa.uint8()),
            "p_value": _string_col(o.p_val, n),
            "o_kind": _kind_col(o.o_kind, n),
            "o_value": _string_col(o.o_val, n),
            "o_lex": _string_col(o.o_lex, n),
            "o_lang": _string_col(o.o_lang, n),
            "o_dt": _string_col(o.o_dt, n),
        }
        if emit_g:
            cols["g_kind"] = _kind_col(o.g_kind, n)
            cols["g_value"] = _string_col(o.g_val, n)
        return pa.table(cols)
    except Exception:
        return None  # validation failure etc. → Python fold decides
    finally:
        LIB.jelly_decode_free(out_p)
