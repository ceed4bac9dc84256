"""Shared build step for the optional compiled folds.

``jelly/_cfold.c`` (encoder fold), ``jelly/_cfold_dec.c`` (decoder fold)
and ``stages/_cmedia.c`` (media hot loops) are each compiled on first use
with the host compiler into a content-addressed cache (atomic rename, so
concurrent Ray workers race safely) and loaded via ctypes by their own
module.  Everything stays optional: no compiler, a failed build, or the
disable switch ⇒ :func:`build` returns ``None``, the module's ``LIB`` is
``None`` and callers use the pure-Python path, which remains the single
source of semantics.

Env knobs (one set for all three folds):

- ``GRAFT_NO_CFOLD=1`` disables every compiled fold;
- ``GRAFT_CFOLD_SO_DIR`` points gcc-less workers at pre-built .so files
  (build once on one node, ship the content-addressed files; checked
  read-only, before any build attempt);
- ``GRAFT_CFOLD_CACHE`` overrides the build cache directory;
- ``GRAFT_CC`` overrides the compiler (default ``gcc``).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile


def build(src_path: str, stem: str) -> str | None:
    """Path of the shared object compiled from ``src_path``, named
    ``<stem>_<sha256(src)[:16]>.so``; ``None`` when disabled or unbuildable."""
    if os.environ.get("GRAFT_NO_CFOLD"):
        return None
    try:
        with open(src_path, "rb") as f:
            src = f.read()
    except OSError:
        return None
    name = f"{stem}_{hashlib.sha256(src).hexdigest()[:16]}.so"
    ship_dir = os.environ.get("GRAFT_CFOLD_SO_DIR")
    if ship_dir:
        shipped = os.path.join(ship_dir, name)
        if os.path.exists(shipped):
            return shipped
    cache_dir = os.environ.get("GRAFT_CFOLD_CACHE") or os.path.join(
        tempfile.gettempdir(), f"pyjelly_ray_cfold_{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, name)
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        r = subprocess.run(
            [os.environ.get("GRAFT_CC", "gcc"), "-O2", "-fPIC", "-shared", "-o", tmp, src_path],
            capture_output=True,
            timeout=120,
        )
        if r.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, so_path)  # atomic: racing workers all win
        return so_path
    except Exception:
        return None
