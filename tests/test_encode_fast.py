"""Byte-parity of the columnar fast-path encoder vs the general encoder.

The fast path (jelly/encode_fast.py) must produce the SAME bytes as the
sequential StreamEncoder for every table shape it accepts — including LRU
eviction, delta-id edge cases, repeated-term runs and mixed literal kinds.
The general path is itself pinned byte-for-byte against the reference
serializer (tests/test_jelly_interop.py), so parity here extends that chain.
"""

from __future__ import annotations

import random

import pyarrow as pa
import pytest

from pyjelly_ray.jelly.encode import StreamEncoder
from pyjelly_ray.jelly.encode_fast import encode_table
from pyjelly_ray.jelly.options import LookupPreset, StreamOptions
from pyjelly_ray.schema import TRIPLE_SCHEMA
from pyjelly_ray.sinks.jelly_sink import rows_to_terms
from pyjelly_ray.terms import KIND_BNODE, KIND_IRI, KIND_LITERAL


def slow_bytes(table: pa.Table, options: StreamOptions) -> bytes:
    enc = StreamEncoder(options)
    out = bytearray()
    for s, p, o in rows_to_terms(table):
        chunk = enc.triple(s, p, o)
        if chunk:
            out += chunk
    tail = enc.flush()
    if tail:
        out += tail
    return bytes(out)


def fast_bytes(table: pa.Table, options: StreamOptions) -> bytes:
    chunks = encode_table(table, options)
    assert chunks is not None, "fast path unexpectedly declined this table"
    return b"".join(chunks)


def make_table(rows: list[tuple]) -> pa.Table:
    cols = {name: [] for name, _ in zip(TRIPLE_SCHEMA.names, TRIPLE_SCHEMA.types)}
    for sk, sv, pv, ok, ov, olex, olang, odt in rows:
        cols["s_kind"].append(sk)
        cols["s_value"].append(sv)
        cols["p_kind"].append(KIND_IRI)
        cols["p_value"].append(pv)
        cols["o_kind"].append(ok)
        cols["o_value"].append(ov)
        cols["o_lex"].append(olex)
        cols["o_lang"].append(olang)
        cols["o_dt"].append(odt)
    return pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)


def random_rows(n: int, seed: int, *, n_iris: int = 500) -> list[tuple]:
    """Adversarial mix: shared prefixes/names, bnodes, literals, runs."""
    rng = random.Random(seed)
    iris = [
        f"https://ex{i % 7}.org/{'deep/' * (i % 3)}p{i % 40}#n{i}" for i in range(n_iris)
    ] + [f"plain{i}" for i in range(20)]  # prefixless IRIs
    preds = [f"https://ont.ex/v{i}#prop{i}" for i in range(30)]
    dts = [None, "", "http://www.w3.org/2001/XMLSchema#string",
           "http://www.w3.org/2001/XMLSchema#integer",
           "http://www.w3.org/2001/XMLSchema#double"]
    rows = []
    while len(rows) < n:
        sk = KIND_BNODE if rng.random() < 0.15 else KIND_IRI
        sv = f"b{rng.randrange(25)}" if sk == KIND_BNODE else rng.choice(iris)
        pv = rng.choice(preds)
        r = rng.random()
        if r < 0.5:
            row = (sk, sv, pv, KIND_IRI, rng.choice(iris), None, None, None)
        elif r < 0.65:
            row = (sk, sv, pv, KIND_BNODE, f"b{rng.randrange(25)}", None, None, None)
        else:
            lang = rng.choice([None, "en", "pl"])
            dt = None if lang else rng.choice(dts)
            lex = rng.choice(["", "x", "some longer lexical value " * rng.randrange(3)])
            row = (sk, sv, pv, KIND_LITERAL, None, lex, lang, dt)
        rows.append(row)
        # repeated-term runs (exercise suppression) and full-duplicate runs
        if rng.random() < 0.3:
            rows.extend([row] * rng.randrange(1, 4))
        elif rng.random() < 0.2 and rows:
            prev = rows[-1]
            rows.append((sk, sv, prev[2], *prev[3:]))
    return rows[:n]


PRESETS = [
    StreamOptions(),
    StreamOptions(lookup_preset=LookupPreset(max_names=16, max_prefixes=4, max_datatypes=2)),
    StreamOptions(lookup_preset=LookupPreset(max_names=8, max_prefixes=0, max_datatypes=2)),
    StreamOptions(frame_size=1),
    StreamOptions(frame_size=7),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("opts_i", range(len(PRESETS)))
def test_fast_matches_slow_random(seed: int, opts_i: int) -> None:
    opts = PRESETS[opts_i]
    t = make_table(random_rows(800, seed))
    assert fast_bytes(t, opts) == slow_bytes(t, opts)


def test_fast_matches_slow_eviction_heavy() -> None:
    # far more unique names than the default 4000-name table → eviction +
    # index-reuse delta paths
    rows = [
        (KIND_IRI, f"https://a.org/ns#s{i}", f"https://a.org/ns#p{i % 11}",
         KIND_IRI, f"https://b.org/x/o{i}", None, None, None)
        for i in range(9000)
    ]
    t = make_table(rows)
    small = StreamOptions(
        lookup_preset=LookupPreset(max_names=64, max_prefixes=3, max_datatypes=4)
    )
    assert fast_bytes(t, small) == slow_bytes(t, small)
    assert fast_bytes(t, StreamOptions()) == slow_bytes(t, StreamOptions())


def test_fast_empty_table() -> None:
    t = TRIPLE_SCHEMA.empty_table()
    assert fast_bytes(t, StreamOptions()) == slow_bytes(t, StreamOptions())


def test_iri_split_on_bytes_matches_split_iri() -> None:
    """The encoder splits every unique value's UTF-8 bytes at once; each
    cut must be ``split_iri``'s, and equal prefixes/names share one id."""
    from pyjelly_ray.jelly.encode import split_iri
    from pyjelly_ray.jelly.encode_fast import _parts_list, _split_values, _utf8_parts

    vals = ["http://a/b#c", "http://a/b#c/d", "urn:x", "", "#", "/", "a/", "a#",
            "http://\u00fc/\u00f1#\u00e9/x", "x#y#z", "a/b/c", "http://a/b#", "a/b\nc/d"]
    data, off = _utf8_parts(pa.array(vals, pa.string()))
    for use_prefixes in (True, False):
        pref_of, name_of, pref, name = _split_values(data, off, use_prefixes)
        prefs, names = _parts_list(pref), _parts_list(name)
        assert len(set(prefs)) == len(prefs) and len(set(names)) == len(names)
        for v, p, n in zip(vals, pref_of.tolist(), name_of.tolist()):
            want = split_iri(v) if use_prefixes else ("", v)
            assert (prefs[p].decode(), names[n].decode()) == want


def test_fast_declines_unsupported() -> None:
    from pyjelly_ray.sinks.jelly_sink import flat_quads_options

    t = make_table(random_rows(5, 1))
    assert encode_table(t, flat_quads_options()) is None
    assert encode_table(t, StreamOptions(delimited=False)) is None


def test_fast_output_parses_by_reference(pyjelly_reference) -> None:
    """End of the parity chain: fast-path bytes parse by pyjelly itself."""
    from tests.test_jelly_interop import _pyjelly_parse

    t = make_table(random_rows(300, 9))
    data = fast_bytes(t, StreamOptions())
    ours = list(rows_to_terms(t))
    theirs = _pyjelly_parse(data)
    assert len(theirs) == len(ours)


def make_quad_table(rows: list[tuple], gs: list[tuple]) -> pa.Table:
    from pyjelly_ray.schema import QUAD_SCHEMA

    t = make_table(rows)
    g_kind = [gk for gk, _ in gs]
    g_value = [gv for _, gv in gs]
    cols = {name: t.column(name).to_pylist() for name in t.column_names}
    cols["g_kind"] = g_kind
    cols["g_value"] = g_value
    return pa.Table.from_pydict(cols, schema=QUAD_SCHEMA)


def slow_quad_bytes(table: pa.Table, options: StreamOptions) -> bytes:
    enc = StreamEncoder(options)
    out = bytearray()
    for s, p, o, g in rows_to_terms(table):
        chunk = enc.quad(s, p, o, g)
        if chunk:
            out += chunk
    tail = enc.flush()
    if tail:
        out += tail
    return bytes(out)


@pytest.mark.parametrize("seed", [1, 4])
def test_fast_quads_match_slow(seed: int) -> None:
    import random

    from pyjelly_ray.sinks.jelly_sink import flat_quads_options
    from pyjelly_ray.terms import KIND_DEFAULT

    rng = random.Random(seed)
    rows = random_rows(700, seed)
    gs = []
    for _ in rows:
        r = rng.random()
        if r < 0.35:
            gs.append((KIND_IRI, f"https://g.org/graph/{rng.randrange(9)}"))
        elif r < 0.45:
            gs.append((KIND_BNODE, f"gb{rng.randrange(4)}"))
        elif r < 0.6:
            gs.append((KIND_DEFAULT, None))
        else:
            gs.append(gs[-1] if gs else (KIND_DEFAULT, None))  # repeat runs
    t = make_quad_table(rows, gs)
    opts = flat_quads_options()
    assert fast_bytes(t, opts) == slow_quad_bytes(t, opts)
    small = StreamOptions(
        physical_type=opts.physical_type,
        logical_type=opts.logical_type,
        lookup_preset=LookupPreset(max_names=64, max_prefixes=3, max_datatypes=4),
        frame_size=7,
    )
    assert fast_bytes(t, small) == slow_quad_bytes(t, small)


def test_fast_quads_parse_by_reference(pyjelly_reference) -> None:
    from pyjelly_ray.sinks.jelly_sink import flat_quads_options
    from pyjelly_ray.terms import KIND_DEFAULT
    from tests.test_jelly_interop import _pyjelly_parse

    rows = random_rows(120, 7)
    gs = [
        [(KIND_IRI, "https://g.org/g1"), (KIND_DEFAULT, None)][i % 2]
        for i in range(len(rows))
    ]
    t = make_quad_table(rows, gs)
    data = fast_bytes(t, flat_quads_options())
    theirs = _pyjelly_parse(data)
    assert len(theirs) == t.num_rows


def test_cfold_available_and_matches_python_fold() -> None:
    """The compiled fold (jelly/cfold.py) must be active on this host and
    byte-identical to the pure-Python fold on the adversarial grid.

    The rest of this file pins fast-vs-general parity with whichever fold
    is active; this test pins C-vs-Python explicitly so a cfold regression
    can never hide behind the fallback."""
    from pyjelly_ray.jelly import cfold

    assert cfold.LIB is not None, "gcc present but compiled fold unavailable"
    saved = cfold.LIB
    try:
        for seed in (1, 2, 3):
            for opts in PRESETS:
                t = make_table(random_rows(400, seed))
                cfold.LIB = saved
                out_c = fast_bytes(t, opts)
                cfold.LIB = None  # force the Python fold
                out_py = fast_bytes(t, opts)
                assert out_c == out_py, (seed, opts)
    finally:
        cfold.LIB = saved


def test_cfold_quads_match_python_fold() -> None:
    from pyjelly_ray.jelly import cfold
    from pyjelly_ray.jelly.options import (
        LOGICAL_FLAT_QUADS,
        PHYSICAL_QUADS,
    )
    from pyjelly_ray.terms import KIND_DEFAULT

    assert cfold.LIB is not None
    rng = random.Random(11)
    rows = random_rows(400, 11)
    graphs = ["https://g.ex/g1", "https://g.ex/g2", None, "bg"]
    cols = {c: [] for c in TRIPLE_SCHEMA.names}
    gk, gv = [], []
    for r in rows:
        for c, v in zip(TRIPLE_SCHEMA.names, (r[0], r[1], KIND_IRI, r[2], *r[3:])):
            cols[c].append(v)
        g = rng.choice(graphs)
        if g is None:
            gk.append(KIND_DEFAULT)
            gv.append(None)
        elif g == "bg":
            gk.append(KIND_BNODE)
            gv.append("bg0")
        else:
            gk.append(KIND_IRI)
            gv.append(g)
    t = pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)
    t = t.append_column("g_kind", pa.array(gk, pa.int64()))
    t = t.append_column("g_value", pa.array(gv, pa.string()))
    opts = StreamOptions(
        physical_type=PHYSICAL_QUADS, logical_type=LOGICAL_FLAT_QUADS
    )
    saved = cfold.LIB
    try:
        out_c = b"".join(encode_table(t, opts))
        cfold.LIB = None
        out_py = b"".join(encode_table(t, opts))
        assert out_c == out_py
    finally:
        cfold.LIB = saved


def test_cfold_long_payloads_and_empty() -> None:
    """C fold edge cases: multi-byte varint lengths (>127-byte and >16KB
    payloads), empty table, frame_size larger than the stream."""
    from pyjelly_ray.jelly import cfold

    assert cfold.LIB is not None
    long_name = "https://ex.org/" + "x" * 300
    huge_lex = "L" * 20_000
    rows = [
        (KIND_IRI, long_name + "#a", long_name + "#p", KIND_LITERAL, None,
         huge_lex, None, None),
        (KIND_IRI, long_name + "#a", long_name + "#p", KIND_IRI,
         long_name + "#o", None, None, None),
        (KIND_BNODE, "b" * 200, long_name + "#p", KIND_BNODE, "c" * 200,
         None, None, None),
    ] * 5
    for opts in (StreamOptions(), StreamOptions(frame_size=100000),
                 StreamOptions(frame_size=1)):
        t = make_table(rows)
        assert fast_bytes(t, opts) == slow_bytes(t, opts)
        empty = make_table([])
        assert fast_bytes(empty, opts) == slow_bytes(empty, opts)


def test_write_stream_graphs_physical_conformant(tmp_path) -> None:
    """_write_stream with PHYSICAL_GRAPHS must emit marker rows (previously
    it wrote bare triple rows that even our own decoder rejected) and the
    reference parser must read the file."""
    import io
    import sys

    import pyarrow as pa

    from pyjelly_ray.jelly import decode_flat
    from pyjelly_ray.jelly.decode_fast import decode_table
    from pyjelly_ray.jelly.options import LOGICAL_DATASETS, PHYSICAL_GRAPHS
    from pyjelly_ray.sinks.jelly_sink import _write_stream, rows_to_terms

    t = pa.table(
        {
            "s_kind": pa.array([1, 1, 1], pa.uint8()),
            "s_value": ["https://e/s", "https://e/s2", "https://e/s3"],
            "p_kind": pa.array([1, 1, 1], pa.uint8()),
            "p_value": ["https://e/p"] * 3,
            "o_kind": pa.array([1, 1, 1], pa.uint8()),
            "o_value": ["https://e/o"] * 3,
            "o_lex": pa.array([None] * 3, pa.string()),
            "o_lang": pa.array([None] * 3, pa.string()),
            "o_dt": pa.array([None] * 3, pa.string()),
            "g_kind": pa.array([1, 4, 1], pa.uint8()),
            "g_value": ["https://g/1", None, "https://g/1"],
        }
    )
    opts = StreamOptions(
        physical_type=PHYSICAL_GRAPHS, logical_type=LOGICAL_DATASETS
    )
    path = str(tmp_path / "g.jelly")
    n, _ = _write_stream(path, list(rows_to_terms(t)), opts)
    assert n == 3
    data = open(path, "rb").read()
    got = list(decode_flat(data))
    assert [q[3][0] for q in got] == [1, 4, 1]
    assert decode_table(data).num_rows == 3
    sys.path.insert(0, "/root/reference")
    from pyjelly.integrations.generic.generic_sink import GenericStatementSink

    sink = GenericStatementSink()
    sink.parse(io.BytesIO(data))
    assert len(sink) == 3


def _graphs_table(seed: int) -> pa.Table:
    import random

    rng = random.Random(seed)
    rows = random_rows(400, seed)
    cols = {c: [] for c in TRIPLE_SCHEMA.names}
    gk, gv = [], []
    graphs = ["https://g.ex/1", "https://g.ex/2", None, "bg"]
    cur = rng.choice(graphs)
    for r in rows:
        for c, v in zip(TRIPLE_SCHEMA.names, (r[0], r[1], KIND_IRI, r[2], *r[3:])):
            cols[c].append(v)
        if rng.random() < 0.2:  # runs of constant graph with switches
            cur = rng.choice(graphs)
        if cur is None:
            gk.append(4)
            gv.append(None)
        elif cur == "bg":
            gk.append(KIND_BNODE)
            gv.append("bg0")
        else:
            gk.append(KIND_IRI)
            gv.append(cur)
    t = pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)
    t = t.append_column("g_kind", pa.array(gk, pa.int64()))
    return t.append_column("g_value", pa.array(gv, pa.string()))


def test_fast_graphs_match_general_and_roundtrip() -> None:
    """PHYSICAL_GRAPHS through encode_table (C and Python folds) must be
    byte-identical to encode_flat's general marker emission — graph
    start/end rows, entry rows from graph-IRI lookups, cut-after-end /
    no-cut-after-start framing — and decode back equal."""
    from pyjelly_ray.jelly import cfold, decode_flat
    from pyjelly_ray.jelly.decode_fast import decode_table
    from pyjelly_ray.jelly.encode import encode_flat
    from pyjelly_ray.jelly.options import LOGICAL_FLAT_QUADS, PHYSICAL_GRAPHS
    from pyjelly_ray.sinks.jelly_sink import rows_to_terms
    from pyjelly_ray.sources.jelly_source import statements_to_table

    assert cfold.LIB is not None
    t = _graphs_table(5)
    saved = cfold.LIB
    try:
        for preset, fs in (
            (LookupPreset(), 250),
            (LookupPreset.tiny(), 4),
            (LookupPreset.small(), 1),
            (LookupPreset.no_prefixes(), 7),
        ):
            opts = StreamOptions(
                physical_type=PHYSICAL_GRAPHS,
                logical_type=LOGICAL_FLAT_QUADS,
                lookup_preset=preset,
                frame_size=fs,
            )
            general = b"".join(encode_flat(rows_to_terms(t), opts))
            cfold.LIB = saved
            out_c = b"".join(encode_table(t, opts))
            cfold.LIB = None
            out_py = b"".join(encode_table(t, opts))
            assert out_c == general and out_py == general, (preset, fs)
            dec = decode_table(general)
            assert dec is not None
            assert dec.equals(statements_to_table(decode_flat(general)))
    finally:
        cfold.LIB = saved


def test_cfold_gccless_node_simulation(tmp_path) -> None:
    """Cluster hardening (VERDICT r2 next-round #7): on a node WITHOUT a
    compiler (simulated via GRAFT_CC=/nonexistent + a fresh build cache)
    the loaders degrade to LIB=None and the codec still produces
    byte-identical output; shipping the prebuilt content-addressed .so
    via GRAFT_CFOLD_SO_DIR restores the compiled path with no compiler."""
    import os
    import shutil
    import subprocess
    import sys

    script = r"""
import json
import pyarrow as pa
from pyjelly_ray.jelly import cfold, cfold_dec
from pyjelly_ray.jelly.encode_fast import encode_table
from pyjelly_ray.jelly.decode_fast import decode_table
from pyjelly_ray.jelly.options import StreamOptions
from pyjelly_ray.schema import TRIPLE_SCHEMA
from pyjelly_ray.terms import KIND_IRI, KIND_LITERAL
cols = {n: [] for n in TRIPLE_SCHEMA.names}
for i in range(500):
    cols["s_kind"].append(KIND_IRI); cols["s_value"].append(f"https://x.dev/s{i%7}")
    cols["p_kind"].append(KIND_IRI); cols["p_value"].append("https://x.dev/p")
    cols["o_kind"].append(KIND_LITERAL); cols["o_value"].append(None)
    cols["o_lex"].append(f"v{i}"); cols["o_lang"].append(None); cols["o_dt"].append(None)
t = pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)
data = b"".join(encode_table(t, StreamOptions()))  # the cfold-accelerated path
back = decode_table(data)                           # the cfold_dec-accelerated path
print(json.dumps({"lib": cfold.LIB is not None, "dec": cfold_dec.LIB is not None,
                  "n": back.num_rows, "sha": __import__("hashlib").sha256(data).hexdigest()}))
"""

    def run(env_extra):
        env = dict(os.environ, **env_extra)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), env=env,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        import json

        return json.loads(r.stdout.strip().splitlines()[-1])

    # 1) compiled baseline into a fresh cache (also produces the .so to ship)
    cache = str(tmp_path / "cache")
    base = run({"GRAFT_CFOLD_CACHE": cache})
    assert base["lib"] and base["dec"], "gcc present but build failed"

    # 2) gcc-less node: broken compiler + empty cache → Python folds,
    #    byte-identical output
    nocc = run({"GRAFT_CC": "/nonexistent/cc", "GRAFT_CFOLD_CACHE": str(tmp_path / "empty")})
    assert not nocc["lib"] and not nocc["dec"]
    assert nocc["sha"] == base["sha"] and nocc["n"] == base["n"]

    # 3) ship the prebuilt .so: broken compiler but GRAFT_CFOLD_SO_DIR
    #    pointing at the node-1 artifacts → compiled path restored
    ship = tmp_path / "ship"
    ship.mkdir()
    for f in os.listdir(cache):
        if f.endswith(".so"):
            shutil.copy(os.path.join(cache, f), ship / f)
    shipped = run({
        "GRAFT_CC": "/nonexistent/cc",
        "GRAFT_CFOLD_CACHE": str(tmp_path / "empty2"),
        "GRAFT_CFOLD_SO_DIR": str(ship),
    })
    assert shipped["lib"] and shipped["dec"]
    assert shipped["sha"] == base["sha"]
