"""ctypes loader + wrappers for the compiled media hot loops (_cmedia.c).

Same pattern as ``pyjelly_ray.jelly.cfold``: one C file compiled on first
use by :func:`pyjelly_ray._cbuild.build` (whose env knobs cover this fold
too) and loaded via ctypes.  Everything is optional: no gcc, a failed
build or load ⇒ ``LIB is None`` and every wrapper returns ``None`` so the
caller uses the pure-Python codec — which stays the single source of
semantics, pinned byte-identical by tests/test_cmedia.py.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .._cbuild import build

_SRC = os.path.join(os.path.dirname(__file__), "_cmedia.c")

_U8 = ctypes.POINTER(ctypes.c_uint8)
_I16 = ctypes.POINTER(ctypes.c_int16)
_I32 = ctypes.POINTER(ctypes.c_int32)
_I64 = ctypes.POINTER(ctypes.c_int64)
_U32 = ctypes.POINTER(ctypes.c_uint32)


def _load():
    path = build(_SRC, "cmedia")
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name, argtypes in (
        ("media_crc8", [_U8, ctypes.c_int64]),
        ("media_crc16", [_U8, ctypes.c_int64]),
        ("media_lzw_gif", [_U8, ctypes.c_int64, ctypes.c_int64, _U8, ctypes.c_int64]),
        ("media_lzw_tiff", [_U8, ctypes.c_int64, _U8, ctypes.c_int64]),
        ("media_png_unfilter", [_U8, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _U8]),
        ("media_flac_subframe", [_U8, ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_int64, ctypes.c_int64, _I64]),
        ("media_vp8l_image", [_U8, ctypes.c_int64, ctypes.c_int64,
                              ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                              _I16, _I64, _I64, _I32,
                              ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                              _I32, _U32]),
        ("media_vp8l_predict", [_U32, ctypes.c_int64, ctypes.c_int64,
                                _U8, ctypes.c_int64, ctypes.c_int64]),
        ("media_jpeg_scan", [_U8, ctypes.c_int64, ctypes.c_int64,
                             _U8, _U8, _U8,
                             ctypes.c_int64, ctypes.c_int64,
                             _I32, _I32, _I32, _I32,
                             _I64, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_int64]),
    ):
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int64
        fn.argtypes = argtypes
    return lib


LIB = _load()


def _u8view(b) -> tuple[np.ndarray, "ctypes._Pointer"]:
    """Zero-copy uint8 view over a bytes-like; keep the array alive for the
    duration of the C call (the C side only reads)."""
    a = np.frombuffer(b, np.uint8) if len(b) else np.zeros(1, np.uint8)
    return a, a.ctypes.data_as(_U8)


def crc8(data) -> int | None:
    if LIB is None:
        return None
    keep, p = _u8view(data)
    return int(LIB.media_crc8(p, len(data)))


def crc16(data) -> int | None:
    if LIB is None:
        return None
    keep, p = _u8view(data)
    return int(LIB.media_crc16(p, len(data)))


def lzw_decode_gif(data: bytes, min_code_size: int, expect: int) -> np.ndarray | None:
    """GIF LZW → uint8[expect]; None ⇒ use the Python path (no lib or the
    C fold hit a condition where Python raises — re-run Python for the
    exact exception)."""
    if LIB is None:
        return None
    out = np.empty(expect, np.uint8)
    keep, p = _u8view(data)
    rc = LIB.media_lzw_gif(p, len(data), min_code_size, out.ctypes.data_as(_U8), expect)
    return out if rc == 0 else None


def lzw_decode_tiff(data: bytes, expect: int) -> bytes | None:
    if LIB is None:
        return None
    out = np.empty(expect + 4096, np.uint8)  # slack: last chain may overshoot
    keep, p = _u8view(data)
    rc = LIB.media_lzw_tiff(p, len(data), out.ctypes.data_as(_U8), expect)
    return out[:expect].tobytes() if rc == 0 else None


def png_unfilter(rows: np.ndarray, nbytes: int, fdist: int) -> np.ndarray | None:
    if LIB is None:
        return None
    rows = np.ascontiguousarray(rows, np.uint8)
    n = rows.shape[0]
    out = np.empty((n, nbytes), np.uint8)
    rc = LIB.media_png_unfilter(
        rows.ctypes.data_as(_U8), n, nbytes, fdist, out.ctypes.data_as(_U8)
    )
    return out if rc == 0 else None


def flac_subframe(data: bytes, bitpos: int, block_size: int, bps: int):
    """Decode one FLAC subframe at absolute bit position ``bitpos``.
    Returns (samples int64[block_size], new_bitpos) or None (⇒ Python)."""
    if LIB is None:
        return None
    out = np.empty(block_size, np.int64)
    keep, p = _u8view(data)
    rc = LIB.media_flac_subframe(
        p, len(data), bitpos, block_size, bps,
        out.ctypes.data_as(_I64),
    )
    if rc < 0:
        return None
    return out, int(rc)


_NULL_I32 = ctypes.cast(None, _I32)
#: ctypes array types are expensive to create per call — cache per comp count
_CMETA_T = {n: ctypes.c_int64 * n for n in (7, 14, 21, 28)}


def jpeg_scan(d: bytes, pos: int, htabs_raw: dict, mode: int, comps: list,
              mcus_x: int, mcus_y: int, restart_interval: int,
              ss: int, se: int, ah: int, al: int) -> int | None:
    """Run one entropy scan in C, filling each comp's ``coef`` int32 array
    in place.  ``comps`` is a list of the per-scan component dicts (with
    keys bw/v/h/dc_t/ac_t/bw_ni/bh_ni/coef); ``htabs_raw`` maps
    (tc, th) → (bits, values).  Returns the reader's final byte position,
    or None ⇒ caller re-runs the pure-Python scan (which raises the exact
    pure-path exception on corrupt input).
    """
    if LIB is None or len(comps) > 4:
        return None
    pack = getattr(htabs_raw, "pack", None)
    if pack is None:
        hbits = np.zeros((8, 16), np.uint8)
        hvals = np.zeros((8, 256), np.uint8)
        hpresent = np.zeros(8, np.uint8)
        for (tc, th), (bits, values) in htabs_raw.items():
            if th > 3:
                return None
            t = tc * 4 + th
            hpresent[t] = 1
            hbits[t, : len(bits)] = bits
            hvals[t, : len(values)] = values
        # keep arrays + their ctypes pointers together so repeated scans
        # (progressive: up to ~10 per image) skip both build and cast
        pack = (hbits, hvals, hpresent,
                hbits.ctypes.data_as(_U8), hvals.ctypes.data_as(_U8),
                hpresent.ctypes.data_as(_U8))
        try:
            htabs_raw.pack = pack  # cache across scans; owner resets on DHT
        except AttributeError:
            pass
    _hb, _hv, _hp, pb, pv, pp = pack

    meta = []
    coef_ptrs = [_NULL_I32] * 4
    keep = []
    for i, c in enumerate(comps):
        dc_t, ac_t = c.get("dc_t"), c.get("ac_t")
        meta += [c["bw"], c["v"], c["h"],
                 dc_t if dc_t is not None else -1,
                 4 + ac_t if ac_t is not None else -1,
                 c.get("bw_ni", 0), c.get("bh_ni", 0)]
        coef = c["coef"]
        if coef.dtype != np.int32 or not coef.flags.c_contiguous:
            return None
        keep.append(coef)
        coef_ptrs[i] = coef.ctypes.data_as(_I32)
    cmeta = _CMETA_T[len(meta)](*meta)

    keep_d, d_ptr = _u8view(d)
    rc = LIB.media_jpeg_scan(
        d_ptr, len(d), pos,
        pb, pv, pp,
        mode, len(comps),
        coef_ptrs[0], coef_ptrs[1], coef_ptrs[2], coef_ptrs[3],
        ctypes.cast(cmeta, _I64),
        mcus_x, mcus_y, restart_interval, ss, se, ah, al,
    )
    return int(rc) if rc >= 0 else None


_NULL_I32_ARR = ctypes.cast(None, _I32)


def vp8l_image(d: bytes, bitpos: int, xsize: int, n_px: int,
               group_lengths: list, meta, meta_bits: int, mw: int,
               cache_bits: int, dist_map: np.ndarray):
    """Decode one VP8L entropy-coded image's pixel stream in C.

    ``group_lengths``: n_groups*5 per-symbol code-length arrays (the
    huffman headers are parsed by Python; this runs from the first pixel
    symbol).  Returns (uint32 pixels, new_bitpos) or None ⇒ pure path.
    """
    if LIB is None:
        return None
    n_codes = len(group_lengths)
    lens = [np.ascontiguousarray(x, np.int16) for x in group_lengths]
    off = np.zeros(n_codes + 1, np.int64)
    np.cumsum([len(x) for x in lens], out=off[1:])
    flat = np.concatenate(lens) if lens else np.zeros(1, np.int16)
    alpha = np.array([len(x) for x in lens], np.int64)
    out = np.zeros(n_px, np.uint32)
    keep, p = _u8view(d)
    if meta is not None:
        meta32 = np.ascontiguousarray(meta, np.int32)
        meta_ptr = meta32.ctypes.data_as(_I32)
    else:
        meta32 = None
        meta_ptr = _NULL_I32_ARR
    dist_map = np.ascontiguousarray(dist_map, np.int32)
    rc = LIB.media_vp8l_image(
        p, len(d), bitpos, xsize, n_px, n_codes // 5,
        flat.ctypes.data_as(_I16), off.ctypes.data_as(_I64),
        alpha.ctypes.data_as(_I64), meta_ptr,
        meta_bits, mw, cache_bits,
        dist_map.ctypes.data_as(_I32), out.ctypes.data_as(_U32),
    )
    if rc < 0:
        return None
    return out, int(rc)


def vp8l_predict(pixels: np.ndarray, w: int, h: int, modes: np.ndarray,
                 tw: int, size_bits: int):
    """In-place-on-a-copy inverse predictor; None ⇒ pure path."""
    if LIB is None:
        return None
    px = np.ascontiguousarray(pixels, np.uint32).copy()
    modes = np.ascontiguousarray(modes, np.uint8)
    rc = LIB.media_vp8l_predict(
        px.ctypes.data_as(_U32), w, h, modes.ctypes.data_as(_U8), tw, size_bits
    )
    return px if rc == 0 else None
