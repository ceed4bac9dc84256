"""Columnar fast-path Jelly encoder: Arrow statement table → delimited frames.

Byte-identical to :class:`pyjelly_ray.jelly.encode.StreamEncoder` (property:
``b"".join(encode_table(t, o)) == slow path over rows_to_terms(t)``, pinned in
tests/test_encode_fast.py), but restructured for the shard-writer hot path
(ROADMAP #3):

- The per-shard Arrow table is **dictionary-encoded once** per term column;
  the ``split_iri`` cut and the prefix/name interning run over the unique
  values' UTF-8 bytes as whole arrays (numpy + Arrow), not per value in
  Python, and hand the compiled fold flat byte buffers + offsets.
- The sequential protocol fold (three LRU lookups + delta ids + repeated-term
  suppression — inherently order-dependent, see reference
  /root/reference/pyjelly/serialize/lookup.py:12-137) runs over **small int
  ids** (dictionary indices), so dict operations hash machine ints instead of
  long IRI strings.
- Rows are appended straight into one frame-payload ``bytearray`` (no
  per-row ``bytes`` objects, no row list), cut every ``frame_size`` rows.

Falls back to ``None`` (caller uses the general path) for shapes the fast
path does not cover: RDF-star / generalized kinds, non-delimited or
grouped streams.  All three physical types are covered: flat TRIPLES,
QUADS (graph slot in the statement row) and GRAPHS
(graph_start/triple…/graph_end marker rows at graph changes, mirroring
``encode_flat``'s marker emission and cut points).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_BNODE, KIND_DEFAULT, KIND_IRI, KIND_LITERAL
from .encode import (
    ROW_DATATYPE,
    ROW_GRAPH_END,
    ROW_GRAPH_START,
    ROW_NAME,
    ROW_PREFIX,
    ROW_QUAD,
    ROW_TRIPLE,
    _encode_options_row,
)
from .options import STRING_DATATYPE_IRI, JellyConformanceError, StreamOptions
from .wire import encode_varint

_MISSING = -1  # dictionary index for null / not-applicable


def _tag_len(buf: bytearray, field: int, payload) -> None:
    """append_tag_len inlined for bytes-like payloads (tag always 1 byte here)."""
    n = len(payload)
    buf.append((field << 3) | 2)
    if n < 0x80:
        buf.append(n)
    else:
        while n >= 0x80:
            buf.append((n & 0x7F) | 0x80)
            n >>= 7
        buf.append(n)
    buf += payload


def _tag_varint(buf: bytearray, field: int, value: int) -> None:
    buf.append(field << 3)
    if value < 0x80:
        buf.append(value)
    else:
        while value >= 0x80:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)


class _IntLookup:
    """EncoderLookup with int keys (dictionary ids) — identical semantics.

    Access order (and therefore LRU eviction and every delta id) is the same
    as the string-keyed table because key identity is preserved by dictionary
    encoding: equal strings ⟺ equal ids.  ``OrderedDict`` (not a plain dict
    with pop+reinsert): ``next(iter(plain_dict))`` walks the tombstones left
    by move-to-end churn and goes quadratic under heavy eviction (profiled:
    0.3 s of 4.2 s at 100k statements / 97k unique names).
    """

    __slots__ = ("data", "max_size", "_full", "last_assigned", "last_reused")

    def __init__(self, max_size: int) -> None:
        from collections import OrderedDict

        self.data: OrderedDict[int, int] = OrderedDict()
        self.max_size = max_size
        self._full = False
        self.last_assigned = 0
        self.last_reused = 0

    def entry_id(self, key: int) -> int | None:
        data = self.data
        if key in data:
            data.move_to_end(key)  # refresh recency
            return None
        if not self.max_size:
            raise JellyConformanceError("lookup disabled (size 0), cannot insert")
        if self._full:
            _, index = data.popitem(last=False)
            data[key] = index
        else:
            index = len(data) + 1
            data[key] = index
            if index == self.max_size:
                self._full = True
        previous = self.last_assigned
        self.last_assigned = index
        return 0 if index == previous + 1 else index

    def use(self, key: int) -> int:
        data = self.data
        data.move_to_end(key)
        index = data[key]
        self.last_reused = index
        return index


def _dict_encode(col: pa.ChunkedArray) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode a string column → (int64 indices, unique values).

    Null values get index ``_MISSING``; the dictionary holds no nulls.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    idx = enc.indices.fill_null(_MISSING).to_numpy(zero_copy_only=False)
    return idx.astype(np.int64), enc.dictionary


def _utf8_parts(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """String/binary array → (uint8 bytes, int64 offsets[len + 1] from 0):
    the UTF-8 payload of every value, laid end to end."""
    if len(arr) == 0:
        return np.zeros(0, np.uint8), np.zeros(1, np.int64)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.large_string()).view(pa.large_binary())
    else:
        arr = arr.cast(pa.large_binary())
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], np.int64, count=len(arr) + 1, offset=arr.offset * 8)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    return data[off[0]:off[-1]], off - off[0]


def _gather_parts(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> pa.Array:
    """The byte ranges ``data[lo[i]:hi[i]]`` as one large_binary array."""
    lens = hi - lo
    off = np.zeros(len(lo) + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    idx = np.repeat(lo - off[:-1], lens) + np.arange(off[-1])
    return pa.Array.from_buffers(
        pa.large_binary(), len(lo), [None, pa.py_buffer(off), pa.py_buffer(data[idx])]
    )


def _last_byte(data: np.ndarray, byte: int, starts: np.ndarray, ends: np.ndarray):
    """Per value ``[starts[i], ends[i])``: position of its last ``byte``, or -1."""
    pos = np.flatnonzero(data == byte)
    if len(pos) == 0:
        return np.full(len(starts), -1, np.int64)
    k = np.searchsorted(pos, ends) - 1
    last = pos[np.maximum(k, 0)]
    return np.where((k >= 0) & (last >= starts), last, -1)


def _split_values(data: np.ndarray, off: np.ndarray, use_prefixes: bool):
    """:func:`split_iri` of every value at once, then the prefix and name
    spaces deduplicated → (pref_of, name_of, prefix parts, name parts).

    ``#`` and ``/`` are ASCII, which no multi-byte UTF-8 sequence contains,
    so splitting the UTF-8 bytes at the last ``#``, else the last ``/``, is
    the same cut ``split_iri`` makes in the string.
    """
    starts, ends = off[:-1], off[1:]
    if use_prefixes:
        h = _last_byte(data, 0x23, starts, ends)
        sl = _last_byte(data, 0x2F, starts, ends)
        cut = np.where(h >= 0, h + 1, np.where(sl >= 0, sl + 1, starts))
    else:
        cut = starts
    pref_of, pref = _dict_encode(_gather_parts(data, starts, cut))
    name_of, name = _dict_encode(_gather_parts(data, cut, ends))
    return pref_of, name_of, _utf8_parts(pref), _utf8_parts(name)


def _parts_list(parts: tuple[np.ndarray, np.ndarray]) -> list[bytes]:
    data, off = parts
    raw = data.tobytes()
    return [raw[a:b] for a, b in zip(off[:-1].tolist(), off[1:].tolist())]


def encode_table(
    table: pa.Table, options: StreamOptions | None = None, metadata_fn=None
) -> Iterator[bytes] | None:
    """Encode a flattened triple-statement table as delimited Jelly frames.

    ``metadata_fn`` (optional) is called with the 0-based frame index at each
    cut and returns that frame's map<string,bytes> metadata (or None) — same
    contract as ``StreamEncoder.metadata_fn``.

    Returns ``None`` when the table's shape needs the general encoder
    (physical/columns mismatch, non-IRI/bnode/literal kinds — plus
    iri/bnode/default for the graph slot — non-delimited or grouped
    options).
    """
    from .options import PHYSICAL_GRAPHS, PHYSICAL_QUADS, PHYSICAL_TRIPLES

    options = options or StreamOptions()
    names = table.column_names
    has_g = "g_kind" in names
    graphs = options.physical_type == PHYSICAL_GRAPHS
    if (
        not options.delimited
        or not options.flat
        or (options.physical_type == PHYSICAL_TRIPLES and has_g)
        or (options.physical_type == PHYSICAL_QUADS and not has_g)
        or options.physical_type
        not in (PHYSICAL_TRIPLES, PHYSICAL_QUADS, PHYSICAL_GRAPHS)
    ):
        return None
    checks = [
        ("s_kind", {KIND_IRI, KIND_BNODE}),
        ("p_kind", {KIND_IRI}),
        ("o_kind", {KIND_IRI, KIND_BNODE, KIND_LITERAL}),
    ]
    if has_g:
        if table.column("g_kind").null_count:
            return None  # mixed triple/quad rows: general path
        checks.append(("g_kind", {KIND_IRI, KIND_BNODE, KIND_DEFAULT}))
    for kc, allowed in checks:
        kinds = set(pc.unique(table.column(kc)).to_pylist())
        kinds.discard(None)
        if not kinds <= allowed:
            return None
    # physical GRAPHS: graph marker rows at graph changes; a table without
    # g columns is one default graph
    return _encode_triples(
        table,
        options,
        metadata_fn,
        quads=has_g and not graphs,
        graphs=graphs,
    )


def _append_frame_metadata(frame: bytearray, md: dict[str, bytes] | None) -> None:
    """Append field-15 map entries (submessage {1: key, 2: value}) to a frame."""
    if not md:
        return
    for key in sorted(md):  # deterministic map order (mirror _frame_bytes)
        entry = bytearray()
        _tag_len(entry, 1, key.encode())
        _tag_len(entry, 2, md[key])
        _tag_len(frame, 15, bytes(entry))


def _encode_triples(
    table: pa.Table, options: StreamOptions, metadata_fn=None, quads: bool = False,
    graphs: bool = False,
) -> Iterator[bytes]:
    n = table.num_rows
    lp = options.lookup_preset
    use_prefixes = lp.max_prefixes > 0

    s_kind = np.asarray(
        table.column("s_kind").combine_chunks().to_numpy(zero_copy_only=False),
        dtype=np.int64,
    )
    o_kind_np = np.asarray(
        table.column("o_kind").combine_chunks().to_numpy(zero_copy_only=False),
        dtype=np.int64,
    )
    s_idx, s_uniq = _dict_encode(table.column("s_value"))
    p_idx, p_uniq = _dict_encode(table.column("p_value"))
    o_idx, o_uniq = _dict_encode(table.column("o_value"))
    is_lit = o_kind_np == KIND_LITERAL
    has_lit = bool(is_lit.any())
    if has_lit:
        # normalize lex nulls to "" BEFORE dict-encoding: the repeat key
        # compares `lex or ""`, so None and "" must share an index (their
        # emission is identical too — both skip the lex field)
        lex_idx_np, lex_uniq = _dict_encode(pc.fill_null(table.column("o_lex"), ""))
        lang_idx_np, lang_uniq = _dict_encode(table.column("o_lang"))
        dt_idx_np, dt_uniq = _dict_encode(table.column("o_dt"))
        lang_uniq, dt_uniq = lang_uniq.to_pylist(), dt_uniq.to_pylist()
        lang_bytes = [v.encode() if v else None for v in lang_uniq]
        dt_bytes = [v.encode() if v else b"" for v in dt_uniq]
        # skip the datatype machinery for absent / empty / xsd:string types,
        # mirroring `datatype and datatype != STRING_DATATYPE_IRI`
        dt_skip = [(not v) or v == STRING_DATATYPE_IRI for v in dt_uniq]

    # unify the slot value dictionaries into one global term-value id space
    offs_p, offs_o = len(s_uniq), len(s_uniq) + len(p_uniq)
    uniq = [s_uniq, p_uniq, o_uniq]
    sg_np = np.where(s_idx >= 0, s_idx, _MISSING)
    pg_np = np.where(p_idx >= 0, p_idx + offs_p, _MISSING)
    og_np = np.where(o_idx >= 0, o_idx + offs_o, _MISSING)
    emit_g = quads or graphs
    if emit_g:
        if "g_kind" in table.column_names:
            g_kind_np = np.asarray(
                table.column("g_kind").combine_chunks().to_numpy(zero_copy_only=False),
                dtype=np.int64,
            )
            g_idx, g_uniq = _dict_encode(table.column("g_value"))
            offs_g = offs_o + len(o_uniq)
            uniq.append(g_uniq)
            gg_np = np.where(g_idx >= 0, g_idx + offs_g, _MISSING)
        else:  # GRAPHS physical without g columns: one default graph
            g_kind_np = np.full(n, KIND_DEFAULT, np.int64)
            gg_np = np.full(n, _MISSING, np.int64)

    # vectorized repeated-term suppression: one composite int64 key per slot,
    # change masks via shifted != (no per-row Python key objects).  (value
    # id, kind) packing keeps a bnode and an IRI with the same string
    # distinct; literals get a disjoint key space above the non-literal
    # range, composed of (lex id, RAW lang id, RAW dt id) — raw because the
    # general path's tuple compare distinguishes None from "" for lang/dt.
    s_keys_np = (sg_np << 3) | s_kind
    if has_lit:
        lang_m = np.int64(len(lang_uniq) + 2)
        dt_m = np.int64(len(dt_uniq) + 2)
        lit_key = ((lex_idx_np + 1) * lang_m + (lang_idx_np + 1)) * dt_m + (
            dt_idx_np + 1
        )
        n_vals = sum(len(u) for u in uniq)
        lit_base = (np.int64(n_vals + 1) << 3) + 8  # above every non-lit key
        o_keys_np = np.where(is_lit, lit_base + lit_key, (og_np << 3) | o_kind_np)
    else:
        o_keys_np = (og_np << 3) | o_kind_np

    def _change_mask(keys: np.ndarray) -> np.ndarray:
        ch = np.empty(n, dtype=bool)
        if n:
            ch[0] = True
            np.not_equal(keys[1:], keys[:-1], out=ch[1:])
        return ch

    s_ch_np = _change_mask(s_keys_np)
    p_ch_np = _change_mask(pg_np)
    o_ch_np = _change_mask(o_keys_np)
    s_is_iri_np = s_kind == KIND_IRI
    if emit_g:
        g_ch_np = _change_mask((gg_np << 3) | g_kind_np)

    # per unique value: utf-8 bytes (bnode branch), split prefix/name ids +
    # their utf-8 bytes (IRI branch), all as flat byte buffers + offsets.
    # Prefix/name spaces are deduplicated across all values so the int
    # lookup keys coincide exactly with string equality classes.
    val_parts = _utf8_parts(
        pa.concat_arrays([u.cast(pa.large_string()) for u in uniq])
        if any(len(u) for u in uniq) else pa.array([], pa.large_string())
    )
    pref_of, name_of, pref_parts, name_parts = _split_values(*val_parts, use_prefixes)
    pref_lens = np.diff(pref_parts[1])
    empty = np.flatnonzero(pref_lens == 0)
    empty_pref_id = int(empty[0]) if len(empty) else -2
    lex_parts = _utf8_parts(lex_uniq) if has_lit else [b""]

    # compiled fold (cfold.py): same inputs, same bytes, ~1 C loop instead
    # of ~n Python rows.  Any unavailability/error falls through to the
    # Python fold below (which raises proper conformance errors).
    if metadata_fn is None:
        from . import cfold

        if cfold.LIB is not None:
            out = cfold.encode_fold(
                n=n,
                mode=2 if graphs else (1 if quads else 0),
                use_prefixes=use_prefixes,
                s_ch=s_ch_np,
                p_ch=p_ch_np,
                o_ch=o_ch_np,
                g_ch=g_ch_np if emit_g else np.zeros(n, bool),
                s_is_iri=s_is_iri_np,
                o_kind=o_kind_np,
                g_kind=g_kind_np if emit_g else np.zeros(n, np.int64),
                sg=sg_np,
                pg=pg_np,
                og=og_np,
                gg=gg_np if emit_g else np.zeros(n, np.int64),
                pref_of=pref_of,
                name_of=name_of,
                val_parts=val_parts,
                pref_parts=pref_parts,
                name_parts=name_parts,
                lex_idx=lex_idx_np if has_lit else np.zeros(n, np.int64),
                lang_idx=lang_idx_np if has_lit else np.full(n, _MISSING, np.int64),
                dt_idx=dt_idx_np if has_lit else np.full(n, _MISSING, np.int64),
                lex_parts=lex_parts,
                lang_parts=(
                    [v.encode() if v else b"" for v in lang_uniq] if has_lit else []
                ),
                dt_parts=dt_bytes if has_lit else [],
                dt_skip=(
                    np.array(dt_skip, np.uint8) if has_lit else np.zeros(0, np.uint8)
                ),
                max_prefixes=lp.max_prefixes,
                max_names=lp.max_names,
                max_datatypes=lp.max_datatypes,
                empty_pref_id=empty_pref_id,
                options_row=_encode_options_row(options),
                frame_size=options.frame_size,
            )
            if out is not None:
                yield out
                return

    val_bytes = _parts_list(val_parts)
    pref_bytes = _parts_list(pref_parts)
    name_bytes = _parts_list(name_parts)
    lex_bytes = _parts_list(lex_parts) if has_lit else lex_parts
    pref_of = pref_of.tolist()
    name_of = name_of.tolist()
    s_ch = s_ch_np.tolist()
    p_ch = p_ch_np.tolist()
    o_ch = o_ch_np.tolist()
    s_is_iri = s_is_iri_np.tolist()
    o_kind = o_kind_np.tolist()  # small ints are interned — cheap list
    if emit_g:
        g_ch = g_ch_np.tolist()
        g_kind = g_kind_np.tolist()

    prefixes = _IntLookup(lp.max_prefixes)
    name_lk = _IntLookup(lp.max_names)
    datatypes = _IntLookup(lp.max_datatypes)

    frame = bytearray()
    row_count = 1  # options row opens the first frame
    frame_index = 0
    _tag_len(frame, 1, _encode_options_row(options))
    frame_size = options.frame_size

    def _vsize(n: int) -> int:
        if n < 0x80:
            return 1
        if n < 0x4000:
            return 2
        return 3 if n < 0x200000 else 4  # payloads < 256 MB

    def _append_varint(v: int) -> None:
        while v >= 0x80:
            frame.append((v & 0x7F) | 0x80)
            v >>= 7
        frame.append(v)

    def emit_entry(row_type: int, entry_id: int, payload: bytes) -> None:
        """One lookup-entry row, framed inline (no intermediate buffers).

        Wire shape: frame field 1 { row field `row_type` { [1: entry_id]
        [2: payload] } }.  entry_id ≤ 4096 → its varint is ≤ 2 bytes.
        """
        nonlocal frame
        np_ = len(payload)
        e = (2 if entry_id < 0x80 else 3) if entry_id else 0
        if np_:
            e += 1 + _vsize(np_) + np_
        r = 1 + _vsize(e) + e
        frame.append(0x0A)  # frame field 1, wire 2
        _append_varint(r)
        frame.append((row_type << 3) | 2)
        _append_varint(e)
        if entry_id:
            frame.append(8)
            if entry_id < 0x80:
                frame.append(entry_id)
            else:
                frame.append((entry_id & 0x7F) | 0x80)
                frame.append(entry_id >> 7)
        if np_:
            frame.append(0x12)
            _append_varint(np_)
            frame += payload

    def encode_iri_into(body: bytearray, field: int, gid: int) -> None:
        """Append slot field `field` (RdfIri) to ``body``; entry rows → frame."""
        nonlocal row_count
        nid = name_of[gid]
        prefix_id = 0
        if use_prefixes:
            pid = pref_of[gid]
            pe = prefixes.entry_id(pid)
            prev = prefixes.last_reused
            if pe is not None:
                emit_entry(ROW_PREFIX, pe, pref_bytes[pid])
                row_count += 1
            if pid == empty_pref_id and prev == 0:
                prefix_id = 0  # ref rule: no table touch, last_reused stays 0
            elif pe is not None:
                # a fresh insert is already most-recent: use() ≡ last_assigned
                index = prefixes.last_assigned
                prefixes.last_reused = index
                prefix_id = index if prev == 0 else (0 if index == prev else index)
            else:
                index = prefixes.use(pid)
                prefix_id = index if prev == 0 else (0 if index == prev else index)
        ne = name_lk.entry_id(nid)
        prev_n = name_lk.last_reused
        if ne is not None:
            emit_entry(ROW_NAME, ne, name_bytes[nid])
            row_count += 1
            n_index = name_lk.last_assigned
            name_lk.last_reused = n_index
        else:
            n_index = name_lk.use(nid)
        name_id = 0 if n_index == prev_n + 1 else n_index
        # ids ≤ 4096 → varints ≤ 2 bytes; body length ≤ 6 → single len byte
        blen = (0 if not prefix_id else (2 if prefix_id < 0x80 else 3)) + (
            0 if not name_id else (2 if name_id < 0x80 else 3)
        )
        body.append((field << 3) | 2)
        body.append(blen)
        if prefix_id:
            body.append(8)
            if prefix_id < 0x80:
                body.append(prefix_id)
            else:
                body.append((prefix_id & 0x7F) | 0x80)
                body.append(prefix_id >> 7)
        if name_id:
            body.append(16)
            if name_id < 0x80:
                body.append(name_id)
            else:
                body.append((name_id & 0x7F) | 0x80)
                body.append(name_id >> 7)

    def encode_literal(i: int) -> bytes:
        nonlocal row_count
        di = dt_idx_np[i]
        datatype_id = 0
        if di != _MISSING and not dt_skip[di]:
            if datatypes.max_size == 0:
                raise JellyConformanceError(
                    f"can't encode literal with type {dt_uniq[di]}: datatype lookup disabled"
                )
            de = datatypes.entry_id(int(di))
            if de is not None:
                emit_entry(ROW_DATATYPE, de, dt_bytes[di])
                row_count += 1
            datatype_id = datatypes.use(int(di))
        body = bytearray()
        lexb = lex_bytes[lex_idx_np[i]]  # pre-encoded once per unique
        if lexb:
            _tag_len(body, 1, lexb)
        li = lang_idx_np[i]
        if li != _MISSING and lang_bytes[li]:
            _tag_len(body, 2, lang_bytes[li])
        if datatype_id:
            _tag_varint(body, 3, datatype_id)
        return bytes(body)

    LIT = KIND_LITERAL
    IRI = KIND_IRI

    def emit_graph_end() -> None:
        """RdfGraphEnd row: empty message, row field 5."""
        nonlocal frame, row_count
        frame.append(0x0A)
        frame.append(2)
        frame.append((ROW_GRAPH_END << 3) | 2)
        frame.append(0)
        row_count += 1

    def emit_graph_start(i: int) -> None:
        """RdfGraphStart row: graph term in fields 1(iri)/2(bnode)/3(default);
        entry rows from the IRI lookups land in the frame first (same as a
        statement slot).  NO cut check after (general-encoder parity:
        graph_start never cuts)."""
        nonlocal frame, row_count
        gbody = bytearray()
        gk = g_kind[i]
        if gk == IRI:
            encode_iri_into(gbody, 1, gg_np[i])
        elif gk == KIND_DEFAULT:
            gbody.append(0x1A)  # field 3, empty message
            gbody.append(0)
        else:
            _tag_len(gbody, 2, val_bytes[gg_np[i]])  # bnode graph name
        nb = len(gbody)
        frame.append(0x0A)
        _append_varint(1 + _vsize(nb) + nb)
        frame.append((ROW_GRAPH_START << 3) | 2)
        _append_varint(nb)
        frame += gbody
        row_count += 1

    for i in range(n):
        if graphs and g_ch[i]:
            if i:  # close the previous graph; graph_end MAY cut (parity)
                emit_graph_end()
                if row_count >= frame_size:
                    if metadata_fn is not None:
                        _append_frame_metadata(frame, metadata_fn(frame_index))
                        frame_index += 1
                    yield encode_varint(len(frame)) + frame
                    frame = bytearray()
                    row_count = 0
            emit_graph_start(i)
        body = bytearray()
        if s_ch[i]:
            if s_is_iri[i]:
                encode_iri_into(body, 1, sg_np[i])  # slot s: iri = field 1
            else:
                _tag_len(body, 2, val_bytes[sg_np[i]])  # s bnode
        if p_ch[i]:
            encode_iri_into(body, 5, pg_np[i])  # slot p: iri = field 5
        if o_ch[i]:
            ok = o_kind[i]
            if ok == IRI:
                encode_iri_into(body, 9, og_np[i])
            elif ok == LIT:
                _tag_len(body, 11, encode_literal(i))
            else:
                _tag_len(body, 10, val_bytes[og_np[i]])
        if quads and g_ch[i]:
            gk = g_kind[i]
            if gk == IRI:
                encode_iri_into(body, 13, gg_np[i])  # slot g: iri = field 13
            elif gk == KIND_DEFAULT:
                body.append(0x7A)  # field 15 (default graph), empty message
                body.append(0)
            else:
                _tag_len(body, 14, val_bytes[gg_np[i]])  # g bnode
        # row framing inline: frame field 1 { row field (ROW_TRIPLE|ROW_QUAD) }
        nb = len(body)
        frame.append(0x0A)
        _append_varint(1 + _vsize(nb) + nb)
        frame.append((ROW_QUAD << 3) | 2 if quads else 0x12)  # 0x12 = triple row
        _append_varint(nb)
        frame += body
        row_count += 1
        if row_count >= frame_size:
            if metadata_fn is not None:
                _append_frame_metadata(frame, metadata_fn(frame_index))
                frame_index += 1
            yield encode_varint(len(frame)) + frame
            frame = bytearray()
            row_count = 0
    if graphs and n:
        emit_graph_end()  # close the last graph (may cut, parity)
        if row_count >= frame_size:
            if metadata_fn is not None:
                _append_frame_metadata(frame, metadata_fn(frame_index))
                frame_index += 1
            yield encode_varint(len(frame)) + frame
            frame = bytearray()
            row_count = 0
    if row_count:
        if metadata_fn is not None:
            _append_frame_metadata(frame, metadata_fn(frame_index))
        yield encode_varint(len(frame)) + frame


__all__ = ["encode_table"]
