"""Randomized equivalence tests for the hash-exchange operator layer.

Every wide operator now rides the explicit exchange
(`state/exchange.py`) instead of Ray's sort shuffle; these tests pin the
layer against independent engines on seeded random inputs — skewed keys,
nulls, empty slices, multi-block datasets — so exchange regressions
surface without needing the sf tables.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _random_table(seed: int, n: int, key_card: int, with_nulls: bool) -> pa.Table:
    rng = np.random.RandomState(seed)
    keys = rng.randint(0, key_card, size=n)
    strs = np.array([f"k{v}" for v in keys], dtype=object)
    vals = np.round(rng.standard_normal(n) * 100, 3)
    if with_nulls:
        null_mask = rng.random(n) < 0.1
        strs[null_mask] = None
    return pa.table(
        {
            "ik": pa.array(keys, pa.int64()),
            "sk": pa.array(strs, pa.string()),
            "v": pa.array(vals, pa.float64()),
        }
    )


def _ds(t: pa.Table, blocks: int):
    import ray

    # split into several blocks so the exchange actually fans out
    bounds = np.linspace(0, len(t), blocks + 1).astype(int)
    parts = [t.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(blocks)]
    return ray.data.from_arrow([pa.Table.from_batches(p.to_batches()) for p in parts])


@pytest.mark.parametrize("seed,card", [(1, 5), (2, 200), (3, 1)])
def test_grouped_agg_matches_duckdb(ray_session, seed, card):
    from pyjelly_ray.stages.agg import grouped_agg

    t = _random_table(seed, 997, card, with_nulls=False)
    got = (
        grouped_agg(
            _ds(t, 7),
            ["sk"],
            [("n", "v", "count"), ("s", "v", "sum"), ("m", "v", "mean"),
             ("lo", "v", "min"), ("hi", "v", "max")],
            round_to=6,
        )
        .to_pandas()
        .sort_values("sk")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT sk, count(*) AS n, round(sum(v),6) AS s, round(avg(v),6) AS m, "
        "round(min(v),6) AS lo, round(max(v),6) AS hi FROM t GROUP BY sk ORDER BY sk"
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got[["sk", "n", "s", "m", "lo", "hi"]], want, check_dtype=False
    )


@pytest.mark.parametrize("seed,how", [(11, "inner"), (12, "left outer")])
def test_hash_join_matches_arrow(ray_session, seed, how):
    from pyjelly_ray.stages.joins import hash_join

    left = _random_table(seed, 500, 60, with_nulls=False)
    right_t = _random_table(seed + 100, 200, 60, with_nulls=False)
    right = pa.table(
        {
            "rk": right_t.column("ik"),
            "rv": right_t.column("v"),
        }
    )
    got = (
        hash_join(_ds(left, 5), _ds(right, 3), left_key="ik", right_key="rk",
                  how=how, num_partitions=8)
        .to_pandas()
        .sort_values(["ik", "v", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    want = (
        left.join(right, keys=["ik"], right_keys=["rk"], join_type=how)
        .to_pandas()
        .sort_values(["ik", "v", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_grouped_topk_matches_pandas(ray_session):
    from pyjelly_ray.stages.agg import grouped_topk

    t = _random_table(21, 800, 15, with_nulls=False)
    got = (
        grouped_topk(_ds(t, 6), ["sk"], "v", 3, descending=True, tiebreak=["ik"])
        .to_pandas()
        .sort_values(["sk", "v", "ik"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    want = (
        df.sort_values(["sk", "v", "ik"], ascending=[True, False, True])
        .groupby("sk", sort=True)
        .head(3)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["sk", "v", "ik"]], want[["sk", "v", "ik"]])


def test_global_topk_matches_pandas(ray_session):
    from pyjelly_ray.stages.agg import global_topk

    t = _random_table(31, 900, 300, with_nulls=False)
    got = (
        global_topk(_ds(t, 6), ["v", "ik"], 25, descending=[True, False])
        .to_pandas()
        .reset_index(drop=True)
    )
    want = (
        t.to_pandas()
        .sort_values(["v", "ik"], ascending=[False, True])
        .head(25)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["ik", "sk", "v"]], want[["ik", "sk", "v"]])


def test_hash_exchange_preserves_rows(ray_session):
    from pyjelly_ray.state.exchange import hash_exchange

    t = _random_table(61, 700, 30, with_nulls=True)
    import pyarrow.compute as pc

    bucket = pc.cast(
        pc.bit_wise_and(t.column("ik"), pa.scalar(7, pa.int64())), pa.int32()
    )
    t = t.append_column("bucket", bucket)

    def reduce_fn(part: pa.Table) -> pa.Table:
        # assert the reducer never sees dictionary columns
        assert not any(pa.types.is_dictionary(f.type) for f in part.schema)
        return part.sort_by([("ik", "ascending"), ("v", "ascending")])

    got = hash_exchange(
        _ds(t, 5), bucket_col="bucket", n_partitions=8, reduce_fn=reduce_fn,
    ).to_pandas().sort_values(["ik", "v"]).reset_index(drop=True)
    want = t.to_pandas().sort_values(["ik", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_fused_exchange_schemaless_first_block(ray_session):
    """A bucket that gets no rows still reduces on a part with the input's
    schema when the first input block is empty and schema-less (a tiny
    corpus read into more blocks than it has rows)."""
    import ray

    from pyjelly_ray.state.exchange import fused_two_hop_exchange

    t = pa.table({"ik": pa.array([0, 2, 5], pa.int64()), "b": pa.array([0, 0, 0], pa.int32())})

    def reduce1(part: pa.Table) -> pa.Table:
        return part.append_column("q", pa.array(part.column("ik").to_numpy() % 2, pa.int32()))

    got = fused_two_hop_exchange(
        ray.data.from_arrow_refs([ray.put(pa.table({})), ray.put(t)]),
        key1_col="b", n1=2, reduce1=reduce1, key2_col="q", n2=2, reduce2=lambda part: part,
    )
    got = pa.concat_tables([ray.get(r) for r in got.to_arrow_refs()])
    assert sorted(zip(got.column("ik").to_pylist(), got.column("q").to_pylist())) == [
        (0, 0), (2, 0), (5, 1)]


def test_grouped_map_matches_ray_groupby(ray_session):
    from pyjelly_ray.stages.agg import grouped_map

    t = _random_table(41, 600, 25, with_nulls=True)

    def fold(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"sk": pa.array([], pa.string()), "total": pa.array([], pa.float64())}
            )
        import pyarrow.compute as pc

        return pa.table(
            {
                "sk": group.column("sk").slice(0, 1),
                "total": pa.array([pc.sum(group.column("v")).as_py()], pa.float64()),
            }
        )

    got = {
        r["sk"]: round(r["total"], 6)
        for r in grouped_map(_ds(t, 5), ["sk"], fold).take_all()
    }
    df = t.to_pandas()
    want = {
        (k if not (isinstance(k, float) and np.isnan(k)) else None): round(v, 6)
        for k, v in df.groupby("sk", dropna=False)["v"].sum().items()
    }
    assert got == want


def test_num_partitions_env_knob(ray_session, monkeypatch):
    """GRAFT_NUM_PARTITIONS drives every wide operator's exchange fan-out:
    the reduced output has exactly that many blocks."""
    import pyarrow as pa
    import ray

    from pyjelly_ray.stages.agg import grouped_agg

    monkeypatch.setenv("GRAFT_NUM_PARTITIONS", "3")
    t = pa.table({"k": list(range(100)) * 5, "v": [1.0] * 500})
    out = grouped_agg(
        ray.data.from_arrow(t).repartition(4), "k", [("s", "v", "sum")]
    ).materialize()
    assert out.num_blocks() == 3
    assert out.count() == 100


def test_rank_keys_order_equals_rank_key():
    """Hierarchical per-column ranks sort identically to the joined-string
    rank."""
    import pyarrow as pa

    from pyjelly_ray.arrowutil import rank_key, rank_keys

    t = pa.table(
        {
            "a": ["r2", "r1", "r2", "r1", "r10"],
            "b": ["x", "z", "a", "a", "b"],
            "v": [1, 2, 3, 4, 5],
        }
    )
    joint = t.append_column("_r", rank_key(t, ["a", "b"])).sort_by(
        [("_r", "ascending")]
    )
    r0, r1 = rank_keys(t, ["a", "b"])
    hier = (
        t.append_column("_r0", r0)
        .append_column("_r1", r1)
        .sort_by([("_r0", "ascending"), ("_r1", "ascending")])
    )
    assert joint.column("v").to_pylist() == hier.column("v").to_pylist()


def test_str_hash_chunked_equals_flat():
    """Shard assignment depends only on the values, not on how the batch is
    chunked: ``_str_hash`` of a multi-chunk column equals that of the flat
    column, and ``add_shard_column`` (with a salted hot repo) assigns the
    same shards either way."""
    import pyarrow as pa

    from pyjelly_ray.sinks.jelly_sink import _str_hash, add_shard_column

    repos = ["a", "b", "a", "c", "b", "hot", "hot", "hot"]
    paths = [f"p{i}.py" for i in range(len(repos))]
    flat = pa.array(repos)
    chunked = pa.chunked_array([repos[:3], repos[3:5], repos[5:]])
    assert _str_hash(chunked, 7).to_pylist() == _str_hash(flat, 7).to_pylist()

    assign = add_shard_column(5, {"hot": (2, 3)})
    one = assign(pa.table({"repo": flat, "path": pa.array(paths)}))
    many = assign(
        pa.table({
            "repo": chunked,
            "path": pa.chunked_array([paths[:3], paths[3:5], paths[5:]]),
        })
    )
    shards = one.column("shard").to_pylist()
    assert many.column("shard").to_pylist() == shards
    assert all(0 <= s < 5 for s in shards)
    assert all(2 <= s < 5 for s, r in zip(shards, repos) if r == "hot")
