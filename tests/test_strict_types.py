"""Strict Arrow-type parity regression gate (fast subset of
tools/strict_schema_audit.py).

The driver's hash compare normalizes dtypes, so type drift (DuckDB
SUM(int)→HUGEINT, date_trunc→DATE, int32 carriers) passes it silently;
round 4 aligned all 482 oracled queries under EXACT type comparison.
This test keeps that from regressing: every query that EVER drifted runs
each time, as does a fixed slice of the rest (so the suite's test ids do
not change from one day to the next), plus a seeded rotating sample of
the remainder (deterministic per UTC day, so consecutive runs cover
different slices while staying reproducible within a day).
"""

from __future__ import annotations

import os
import random

import duckdb
import pyarrow as pa
import pytest

SF_DIR = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.001")
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

# the 24 queries the round-4 audit caught drifting — permanent members
EVER_DRIFTED = [
    "q_monthly_revenue_trend", "q_monthly_price_index",
    "q_monthly_top10_part_share", "q_revenue_bennet_decomposition",
    "q_doc_token_stats", "q_corpus_prep", "q_event_props_stats",
    "q_doc_bpe_token_stats", "q_user_click_purchase_overlap",
    "q_split_contamination", "q_purchase_gains_chart",
    "q_session_bounce_rate", "q_repeat_purchase_stats",
    "q_session_entry_conversion", "q_session_cart_abandonment",
    "q_embedding_1nn_label_accuracy", "q_embedding_label_margin",
    "q_user_value_concentration", "q_null_rate_trend",
    "q_embedding_label_silhouette", "q_dn_retention",
    "q_doc_self_repetition", "q_user_churn_risk", "q_daily_revenue_dense",
    "q_d7_retention_by_entry_type", "q_user_lifetime_rmst",
    "q_events_purchase_sprt", "q_daily_revenue_lomb_scargle",
]

# a fixed slice of the never-drifted queries (the 2026-10-17 and
# 2026-10-19 rotating samples) — permanent members, so every day's run
# has these test ids
FIXED_SAMPLE = [
    "q1_pricing_summary", "q_brand_price_elasticity", "q_click_period_kappa",
    "q_daily_revenue_biweight_location", "q_daily_revenue_matrix_profile",
    "q_doc_exact_dedup_docs", "q_dow_purchase_trend", "q_embedding_label_stats",
    "q_event_next_type_accuracy", "q_lang_hill_numbers", "q_lang_mixing_weights",
    "q_nation_spend_hhi", "q_order_global_rank", "q_order_rollup",
    "q_user_sessions",
    "q_benford_totalprice", "q_customer_order_interarrival",
    "q_customer_order_window", "q_customers_high_value_semi",
    "q_daily_revenue_cox_stuart", "q_daily_revenue_siegel_slope",
    "q_doc_dedup_stats", "q_doc_source_lang_mix", "q_events_lateness_watermark",
    "q_price_kfold_cv", "q_price_weighted_quantiles", "q_priority_size_somers_d",
    "q_source_burrows_delta", "q_user_day_streaks", "q_weekend_value_fdr",
]

SAMPLE_SIZE = 15


def _names():
    import __ray_entry__ as e

    oracled = sorted(e.oracle_sql().keys())
    fixed = [n for n in EVER_DRIFTED + FIXED_SAMPLE if n in oracled]
    rest = [n for n in oracled if n not in fixed]
    import datetime

    day = datetime.datetime.utcnow().strftime("%Y-%m-%d")
    rng = random.Random(day)
    sample = rng.sample(rest, min(SAMPLE_SIZE, len(rest)))
    return fixed + sample


@pytest.fixture(scope="module")
def ddb():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


def _to_table(r) -> pa.Table:
    if isinstance(r, pa.Table):
        return r
    if hasattr(r, "iter_batches"):
        bs = [b for b in r.iter_batches(batch_format="pyarrow")]
        bs = [b for b in bs if b.num_rows] or bs[:1]
        return pa.concat_tables(bs, promote_options="default") if bs else pa.table({})
    return pa.Table.from_pandas(r)


@pytest.mark.parametrize("name", _names())
def test_exact_arrow_types(ray_session, ddb, name):
    import __ray_entry__ as e

    rt = _to_table(e.queries()[name](SF_DIR))
    ot = ddb.execute(e.oracle_sql()[name]).fetch_arrow_table()
    mismatches = [
        (f.name, str(f.type), str(ot.schema.field(f.name).type))
        for f in rt.schema
        if f.name in ot.column_names and f.type != ot.schema.field(f.name).type
    ]
    assert not mismatches, mismatches
