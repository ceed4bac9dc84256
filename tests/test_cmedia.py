"""Compiled media folds (stages/_cmedia.c) pinned byte-identical to the
pure-Python codecs on every grid axis, with the pure path as the single
source of semantics (same contract as tests/test_encode_fast.py for the
jelly codec's _cfold.c).

Each test decodes once with the compiled fold and once with ``LIB = None``
(the gcc-less fallback) and asserts identical arrays/bytes; the corruption
tests assert both paths raise the same exception type.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from pyjelly_ray.stages import cmedia

HAS_GCC = cmedia.LIB is not None

pytestmark = pytest.mark.skipif(
    not HAS_GCC, reason="compiled media fold unavailable (no gcc)"
)


@contextlib.contextmanager
def pure_python():
    saved = cmedia.LIB
    cmedia.LIB = None
    try:
        yield
    finally:
        cmedia.LIB = saved


def both_paths(fn):
    """Run fn() on the compiled path and the pure path; return both."""
    fast = fn()
    with pure_python():
        pure = fn()
    return fast, pure


# ------------------------------------------------------------------ CRC


def test_crc_identical():
    from pyjelly_ray.stages.flac import _crc8, _crc16

    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 1000):
        d = rng.integers(0, 256, n).astype(np.uint8).tobytes()
        (f8, p8) = both_paths(lambda: _crc8(d))
        (f16, p16) = both_paths(lambda: _crc16(d))
        assert f8 == p8 and f16 == p16


# ------------------------------------------------------------------ LZW


@pytest.mark.parametrize("mcs,n", [(2, 17), (4, 999), (8, 70000), (8, 1)])
def test_gif_lzw_identical(mcs, n):
    from pyjelly_ray.stages.media_containers import _lzw_decode, _lzw_encode

    rng = np.random.default_rng(mcs * 1000 + n)
    idx = rng.integers(0, 1 << mcs, n).astype(np.uint8)
    enc = _lzw_encode(idx, mcs)
    fast, pure = both_paths(lambda: _lzw_decode(enc, mcs, n))
    assert (fast == pure).all() and (fast == idx).all()


def test_gif_lzw_truncated_raises_both_paths():
    from pyjelly_ray.stages.media_containers import _lzw_decode, _lzw_encode

    idx = np.arange(256).astype(np.uint8)
    enc = _lzw_encode(idx, 8)
    for fn in (
        lambda: _lzw_decode(enc[: len(enc) // 2], 8, 256),
        lambda: _lzw_decode(enc, 8, 10_000),
    ):
        with pytest.raises(ValueError):
            fn()
        with pure_python(), pytest.raises(ValueError):
            fn()


@pytest.mark.parametrize("n", [5, 4000, 600_000])
def test_tiff_lzw_identical(n):
    from pyjelly_ray.stages.media_containers import (
        _tiff_lzw_decode,
        _tiff_lzw_encode,
    )

    rng = np.random.default_rng(n)
    data = rng.integers(0, 256, n).astype(np.uint8).tobytes()
    data = data[: n // 2] * 2 if n > 10 else data  # repetition exercises chains
    data = data[:n]
    enc = _tiff_lzw_encode(data)
    fast, pure = both_paths(lambda: _tiff_lzw_decode(enc, len(data)))
    assert fast == pure == data


# ------------------------------------------------------------------ PNG


def test_png_grid_identical():
    from pyjelly_ray.stages.multimodal import (
        decode_png,
        decode_png16,
        encode_png,
        encode_png16,
        synth_png_table,
    )

    payloads = list(synth_png_table(48).column("payload").to_pylist())
    rng = np.random.default_rng(5)
    # every filter type × channel count (fdist 1..4), plus interlace + 16-bit
    for ft in range(5):
        for ch in (1, 2, 3, 4):
            img = rng.integers(0, 256, (21, 13, ch), dtype=np.uint8)
            payloads.append(encode_png(img, filter_type=ft))
    payloads.append(encode_png(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8), 4, interlace=True))
    img16 = rng.integers(0, 65536, (9, 11, 3), dtype=np.uint16)
    p16 = encode_png16(img16, filter_type=4)

    for p in payloads:
        fast, pure = both_paths(lambda: decode_png(p))
        assert (fast == pure).all()
    fast, pure = both_paths(lambda: decode_png16(p16))
    assert (fast == pure).all()


# ------------------------------------------------------------------ FLAC


@pytest.mark.parametrize(
    "kw",
    [
        dict(mode="fixed"),
        dict(mode="verbatim"),
        dict(mode="lpc"),
        dict(mode="fixed", partition_order=3),
        dict(mode="fixed", force_escape=True),
        dict(bits=8),
        dict(bits=24),
        dict(mode="fixed", stereo_mode="mid_side"),
        dict(mode="fixed", stereo_mode="left_side"),
        dict(mode="fixed", stereo_mode="side_right"),
    ],
)
def test_flac_grid_identical(kw):
    from pyjelly_ray.stages.flac import decode_flac, encode_flac

    rng = np.random.default_rng(11)
    n = 3000
    stereo = "stereo_mode" in kw
    base = (np.sin(np.arange(n) / 7) * 12000 + rng.integers(-99, 99, n)).astype(
        np.int64
    )
    bits = kw.get("bits", 16)
    lim = 1 << (bits - 1)
    base = np.clip(base, -lim, lim - 1)
    x = np.stack([base, np.roll(base, 13)], axis=1) if stereo else base
    enc = encode_flac(x, 8000, **kw)
    fast, pure = both_paths(lambda: decode_flac(enc))
    assert (fast[0] == pure[0]).all()
    assert fast[1:] == pure[1:]


def test_flac_corruption_same_failure_both_paths():
    from pyjelly_ray.stages.flac import decode_flac, encode_flac

    rng = np.random.default_rng(3)
    good = bytearray(encode_flac((np.sin(np.arange(2000) / 5) * 9000).astype(np.int16), 8000))
    n_checked = 0
    for k in range(60, len(good), 97):
        bad = bytes(good[:k]) + bytes([good[k] ^ 0x41]) + bytes(good[k + 1 :])
        try:
            decode_flac(bad)
            fast_err = None
        except ValueError as e:
            fast_err = type(e)
        with pure_python():
            try:
                decode_flac(bad)
                pure_err = None
            except ValueError as e:
                pure_err = type(e)
        assert fast_err == pure_err
        n_checked += 1
    assert n_checked > 5


# ------------------------------------------------------------------ JPEG


def test_jpeg_grid_identical():
    from pyjelly_ray.stages.multimodal import decode_jpeg, synth_jpeg_table

    for p in synth_jpeg_table(48).column("payload").to_pylist():
        fast, pure = both_paths(lambda: decode_jpeg(p))
        assert (fast == pure).all()


@pytest.mark.parametrize("restart", [0, 3])
@pytest.mark.parametrize("subsample", [False, True])
def test_jpeg_progressive_identical(restart, subsample):
    from pyjelly_ray.stages.multimodal import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(21)
    img = (
        rng.integers(0, 256, (40, 56, 3)).astype(np.float32) * 0.4
        + np.linspace(0, 150, 56)[None, :, None]
    ).astype(np.uint8)
    p = encode_jpeg(
        img, quality=80, progressive=True, subsample=subsample,
        restart_interval=restart,
    )
    fast, pure = both_paths(lambda: decode_jpeg(p))
    assert (fast == pure).all()


def test_jpeg_corruption_fuzz_both_paths():
    from pyjelly_ray.stages.multimodal import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    good = encode_jpeg(img, quality=70)
    for k in range(20, len(good), 31):
        bad = good[:k] + bytes([good[k] ^ 0x5A]) + good[k + 1 :]
        try:
            a = decode_jpeg(bad)
        except ValueError:
            a = None
        with pure_python():
            try:
                b = decode_jpeg(bad)
            except ValueError:
                b = None
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert (a == b).all()


# ------------------------------------------------------- ship-dir fallback


def test_cmedia_ship_dir_pattern(tmp_path, monkeypatch):
    """GRAFT_CFOLD_SO_DIR: a pre-built .so is honored before any build."""
    import hashlib

    from pyjelly_ray._cbuild import build

    src = open(cmedia._SRC, "rb").read()
    tag = hashlib.sha256(src).hexdigest()[:16]
    built = build(cmedia._SRC, "cmedia")
    assert built is not None
    import shutil

    shutil.copy(built, tmp_path / f"cmedia_{tag}.so")
    monkeypatch.setenv("GRAFT_CFOLD_SO_DIR", str(tmp_path))
    assert build(cmedia._SRC, "cmedia") == str(tmp_path / f"cmedia_{tag}.so")


# ------------------------------------------------------------------ VP8L


def test_vp8l_grid_identical():
    from pyjelly_ray.stages.vp8l import decode_webp_lossless, encode_webp_lossless

    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, (33, 47, 3), dtype=np.uint8)
    imga = rng.integers(0, 256, (21, 14, 4), dtype=np.uint8)
    pal = rng.integers(0, 256, (11, 3), dtype=np.uint8)
    pimg = pal[rng.integers(0, 11, (19, 25))]
    cases = [
        encode_webp_lossless(img),
        encode_webp_lossless(img, use_lz77=False),
        encode_webp_lossless(img, cache_bits=5),
        encode_webp_lossless(img, subtract_green=True),
        encode_webp_lossless(img, predictor_mode=11),
        encode_webp_lossless(img, cross_color=(9, -5, 3)),
        encode_webp_lossless(img, meta_bits=2, cache_bits=3),
        encode_webp_lossless(imga),
        encode_webp_lossless(pimg, palette=True),
        encode_webp_lossless(np.full((7, 9, 3), 44, np.uint8)),
    ]
    for p in cases:
        fast, pure = both_paths(lambda: decode_webp_lossless(p))
        assert (fast == pure).all()


def test_vp8l_corruption_same_failure_both_paths():
    from pyjelly_ray.stages.vp8l import decode_webp_lossless, encode_webp_lossless

    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    good = encode_webp_lossless(img, predictor_mode=4)
    for k in range(24, len(good), 13):
        bad = good[:k] + bytes([good[k] ^ 0x2D]) + good[k + 1 :]

        def dec():
            try:
                return ("ok", decode_webp_lossless(bad))
            except ValueError:
                return ("err", None)

        (fs, fv), (ps, pv) = both_paths(dec)
        assert fs == ps
        if fs == "ok":
            assert (fv == pv).all()
