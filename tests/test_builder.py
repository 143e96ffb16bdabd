"""Spark tests for the Airphant Builder (§III-C): parse → profile →
optimize → persist, checked against the DuckDB oracle."""
import pytest
from pyspark.sql import functions as F

from repro.cloud.blobstore import BlobStore
from repro.core.builder import (
    AirphantBuilder,
    BuilderConfig,
    auto_bins,
    doc_word_pairs,
    profile_corpus,
)
from repro.core.hashing import HashFamily
from repro.core.superpost import decode_header, header_blob_name
from repro.corpora import generators as gen
from repro.oracle import assert_equivalent


@pytest.fixture()
def store(tmp_path):
    return BlobStore(tmp_path)


@pytest.fixture()
def corpus(spark, store):
    return gen.zipf(spark, store, 300, 400, 8, seed=3)


class TestDocWordPairs:
    def test_distinct_pairs(self, spark, store):
        h = gen.write_corpus(spark, store, "c", ["a a b", "b c"])
        pairs = doc_word_pairs(h.df)
        got = pairs.groupBy("word").agg(F.count("*").alias("df"))
        assert_equivalent(
            got,
            """
            SELECT w AS word, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM corpus)
            GROUP BY w
            """,
            corpus=h.df,
        )

    def test_pairs_carry_byte_ranges(self, spark, store):
        h = gen.write_corpus(spark, store, "c", ["x y", "z"])
        rows = doc_word_pairs(h.df).collect()
        for r in rows:
            raw = store.get_range(r["blob"], r["offset"], r["length"])
            assert r["word"] in raw.decode().split()


class TestProfiling:
    def test_profile_against_oracle(self, spark, store):
        h = gen.zipf(spark, store, 120, 200, 6, seed=1)
        p = profile_corpus(h.df)
        got = spark.createDataFrame(
            [(p.n_docs, p.n_terms, p.total_words)], "n_docs long, n_terms long, total_words long"
        )
        assert_equivalent(
            got,
            """
            SELECT count(DISTINCT doc_id) AS n_docs,
                   count(DISTINCT w) AS n_terms,
                   count(*) AS total_words
            FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM corpus)
            """,
            corpus=h.df,
        )

    def test_doc_word_counts_against_oracle(self, spark, store):
        import duckdb

        h = gen.zipf(spark, store, 100, 150, 6, seed=2)
        p = profile_corpus(h.df)
        con = duckdb.connect()
        con.register("corpus", h.df.toPandas())
        expected = sorted(
            r[0]
            for r in con.execute(
                """
                SELECT count(DISTINCT w) FROM
                  (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM corpus)
                GROUP BY doc_id
                """
            ).fetchall()
        )
        con.close()
        assert sorted(p.doc_word_counts) == expected

    def test_sum_wi(self, spark, store):
        h = gen.write_corpus(spark, store, "c", ["a b c", "a a", "d"])
        p = profile_corpus(h.df)
        assert p.sum_wi == 3 + 1 + 1
        assert p.total_words == 6


class TestBuild:
    def test_report_and_header_consistent(self, spark, store, corpus):
        cfg = BuilderConfig(bins=200, f0=1.0, seed=5)
        report = AirphantBuilder(spark, store, cfg).build(corpus.df, "idx")
        header = decode_header(store.get(header_blob_name("idx")))
        assert header.n_layers == report.n_layers
        assert header.bins_per_layer == report.bins_per_layer
        assert header.n_docs == corpus.n_docs
        assert len(header.common) == report.n_common
        assert header.meta["expected_fp"] >= 0.0
        assert report.index_bytes == store.total_bytes("idx/")

    def test_manual_layers_skips_optimizer(self, spark, store, corpus):
        cfg = BuilderConfig(bins=100, n_layers=4, seed=0)
        report = AirphantBuilder(spark, store, cfg).build(corpus.df, "idx4")
        assert report.n_layers == 4
        assert report.optimization is None

    def test_common_fraction(self, spark, store, corpus):
        cfg = BuilderConfig(bins=300, n_layers=2, common_fraction=0.05)
        report = AirphantBuilder(spark, store, cfg).build(corpus.df, "idxc")
        assert report.n_common == 15
        header = decode_header(store.get(header_blob_name("idxc")))
        # common words are the highest-document-frequency terms
        pairs = doc_word_pairs(corpus.df)
        top = {
            r["word"]
            for r in pairs.groupBy("word")
            .agg(F.count("*").alias("df"))
            .orderBy(F.desc("df"), "word")
            .limit(15)
            .collect()
        }
        assert set(header.common) == top

    def test_no_common_bins(self, spark, store, corpus):
        cfg = BuilderConfig(bins=100, n_layers=2, common_fraction=0.0)
        report = AirphantBuilder(spark, store, cfg).build(corpus.df, "idx0")
        assert report.n_common == 0

    def test_superposts_contain_all_word_postings(self, spark, store):
        # no false negatives by construction: every (word, doc) pair's
        # posting must appear in the word's bin in EVERY layer.
        h = gen.write_corpus(
            spark, store, "tiny", ["apple banana", "banana cherry", "apple"]
        )
        cfg = BuilderConfig(bins=64, n_layers=3, common_fraction=0.0, seed=1)
        report = AirphantBuilder(spark, store, cfg).build(h.df, "nf")
        header = decode_header(store.get(header_blob_name("nf")))
        fam = HashFamily(seeds=header.seeds, bins_per_layer=header.bins_per_layer)
        from repro.core.postings import as_postings, decode_postings
        from repro.core.superpost import block_blob_name

        pairs = doc_word_pairs(h.df).collect()
        for r in pairs:
            for layer, b in enumerate(fam.bins(r["word"])):
                ptr = header.pointer(layer, b)
                assert not ptr.empty
                plist = as_postings(
                    decode_postings(
                        store.get_range(
                            block_blob_name("nf", ptr.block_id), ptr.offset, ptr.length
                        )
                    )
                )
                spans = {
                    (header.string_table.name(p.blob_id), p.offset, p.length)
                    for p in plist
                }
                assert (r["blob"], r["offset"], r["length"]) in spans

    def test_extra_layers_replication(self, spark, store, corpus):
        cfg = BuilderConfig(bins=200, n_layers=2, extra_layers=2, seed=0)
        report = AirphantBuilder(spark, store, cfg).build(corpus.df, "idxr")
        assert report.n_layers == 4
        header = decode_header(store.get(header_blob_name("idxr")))
        assert header.meta["base_layers"] == 2.0
        assert header.meta["extra_layers"] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BuilderConfig(bins=1)
        with pytest.raises(ValueError):
            BuilderConfig(common_fraction=1.0)
        with pytest.raises(ValueError):
            BuilderConfig(n_layers=0)
        with pytest.raises(ValueError):
            BuilderConfig(extra_layers=-1)


class TestAutoBins:
    def test_minimum(self):
        assert auto_bins(10, 1.0) == 64

    def test_formula(self):
        assert auto_bins(10_000, 10.0) == 500

    def test_f0_scaling(self):
        assert auto_bins(10_000, 10.0, f0=0.01) == 5000
