"""Arrow schemas shared across the engine.

The statement layout flattens RDF terms into per-slot kind/value columns
(SURVEY.md §1.5): this is the columnar analogue of the reference's row
objects and lets every stage stay zero-copy Arrow inside ``map_batches``.
Kind codes come from :mod:`pyjelly_ray.terms`.
"""

from __future__ import annotations

import pyarrow as pa

#: input corpus shape (BASELINE.json input_hint)
CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

#: corpus after ingest: content sha256 invariant column added
CORPUS_HASHED_SCHEMA = CORPUS_SCHEMA.append(pa.field("content_sha256", pa.string()))

#: flattened RDF statement columns (graph columns optional for triples)
STATEMENT_FIELDS = [
    ("s_kind", pa.uint8()),
    ("s_value", pa.string()),
    ("p_kind", pa.uint8()),
    ("p_value", pa.string()),
    ("o_kind", pa.uint8()),
    ("o_value", pa.string()),  # IRI / bnode identifier
    ("o_lex", pa.string()),  # literal lexical form
    ("o_lang", pa.string()),
    ("o_dt", pa.string()),
]

TRIPLE_SCHEMA = pa.schema(STATEMENT_FIELDS)

QUAD_SCHEMA = pa.schema(
    STATEMENT_FIELDS + [("g_kind", pa.uint8()), ("g_value", pa.string())]
)

#: triples + lineage columns carried through the KG pipeline
KG_TRIPLE_SCHEMA = pa.schema(
    STATEMENT_FIELDS
    + [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("seq", pa.int32()),  # deterministic ordering key within a file
        ("content_sha256", pa.string()),
    ]
)
