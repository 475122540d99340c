"""Inverted-index postings inside the corpus store: format and updates.

The postings are sections of the store's own files, published by the
store's one manifest swap.  This suite pins the format round-trip
(postings read back equal the shared :func:`page_postings` weighting of
the page text), the generational update protocol (changed pages shadow,
removals mask, removal-only updates advance the manifest without a
segment file, an update cannot publish pages without their postings),
the IDF rule (segments weight with the base IDF; compaction refits it)
and loud failure on corrupted postings.  The byte-boundary crash sweep
over an indexed store lives with the store's own sweep in
``tests/webtree/test_store.py``.
"""

import pickle

import pytest

from repro.core.errors import IngestError
from repro.nlp.vocab import IdfModel
from repro.retrieval.index import (
    build_corpus_index,
    open_corpus_index,
    page_postings,
    page_text,
    update_corpus_index,
)
from repro.retrieval.router import cut_top_k, query_terms, scan_scores
from repro.serving.corpus import build_corpus_store, update_corpus_store
from repro.serving.ingest import ingest_html, page_fingerprint
from repro.webtree.store import CorpusStoreUpdater, open_store

#: A deliberately tiny corpus: distinctive names and topics so routing
#: queries separate the pages, small enough that the byte-boundary
#: crash sweep stays fast.
DOCS = [
    ("<html><body><h1>Alice Chen</h1>"
     "<p>PhD student working on compiler verification.</p>"
     "</body></html>", "https://t/alice"),
    ("<html><body><h1>Robert Smith</h1>"
     "<p>Professor of databases and query optimization.</p>"
     "</body></html>", "https://t/robert"),
    ("<html><body><h1>Mary Anderson</h1>"
     "<p>Clinic hours on Tuesday for physical therapy.</p>"
     "</body></html>", "https://t/mary"),
    ("<html><body><h1>Program Schedule</h1>"
     "<p>The synthesis workshop runs Thursday afternoon.</p>"
     "</body></html>", "https://t/schedule"),
]

CHANGED_HTML = (
    "<html><body><h1>Alice Chen</h1>"
    "<p>Now studying program synthesis and datalog engines.</p>"
    "</body></html>"
)


def _build(tmp_path, docs=DOCS):
    path = str(tmp_path / "corpus.rpw")
    build_corpus_store(docs, path)
    build_corpus_index(path)
    return path


class TestBuildAndRead:
    def test_build_stat_and_page_set(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        assert len(reader.store) == len(DOCS)
        assert sorted(reader.store.fingerprints()) == sorted(store.fingerprints())
        stat = reader.store.stat()
        assert stat["pages"] == len(DOCS)
        # Indexing compacts: one store generation past the plain build.
        assert stat["generation"] == store.generation == 1
        assert stat["indexed"] is True
        assert stat["segments"] == 0
        assert stat["removed_pages"] == 0
        assert stat["terms"] > 0 and stat["postings"] >= stat["terms"]

    def test_postings_round_trip_the_shared_weighting(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        idf = reader.idf()
        for fingerprint in store.fingerprints():
            page, _ = store.load(fingerprint)
            assert reader.postings_for(fingerprint) == page_postings(
                page_text(page), idf
            )

    def test_built_idf_equals_scan_fit(self, tmp_path):
        # A fresh build fits the IdfModel exactly the way the no-index
        # exhaustive scan does: store pages in sorted-fingerprint order.
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()

    def test_score_and_route_match_exhaustive_scan(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        for question in (
            "Who is the PhD student working on compiler verification?",
            "When are the clinic hours for physical therapy?",
            "workshop schedule Thursday",
        ):
            query = query_terms(question)
            scanned = scan_scores(store, reader.idf(), query)
            assert reader.score(query) == scanned
            for top_k in (0, 1, 2, None):
                assert cut_top_k(reader.score(query), top_k) == cut_top_k(
                    scanned, top_k
                )

    def test_unknown_terms_score_nothing(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        assert reader.score({"zzzunseenzzz": 1.0}) == []

    def test_reader_pickles_at_current_generation(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        clone = pickle.loads(pickle.dumps(reader))
        assert clone.store.generation == reader.store.generation
        assert sorted(clone.store.fingerprints()) == sorted(
            reader.store.fingerprints()
        )


class TestGenerationalUpdates:
    def test_changed_page_publishes_a_shadowing_segment(self, tmp_path):
        path = _build(tmp_path)
        old_fp = page_fingerprint(DOCS[0][0], DOCS[0][1])
        report = update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        assert report["generation"] == 2
        assert report["indexed"] is True
        store = open_store(path)
        reader = open_corpus_index(path)
        new_fp = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        assert new_fp in reader.store and old_fp not in reader.store
        # The segment's postings use the *base* generation's IdfModel.
        page, _ = store.load(new_fp)
        assert reader.postings_for(new_fp) == page_postings(
            page_text(page), reader.idf()
        )
        assert reader.store.stat()["segments"] == 1

    def test_removal_only_update_is_manifest_only(self, tmp_path):
        path = _build(tmp_path)
        fp = page_fingerprint(DOCS[2][0], DOCS[2][1])
        report = update_corpus_store(path, [], remove_urls=(DOCS[2][1],))
        assert report["generation"] == 2
        reader = open_corpus_index(path)
        assert fp not in reader.store
        assert len(reader.store) == len(DOCS) - 1
        # No new segment was written — the manifest alone advanced.
        assert reader.store.stat()["segments"] == 0
        assert reader.store.stat()["removed_pages"] == 1
        # The removed page no longer routes.
        query = query_terms("clinic hours physical therapy Tuesday")
        assert fp not in dict(reader.score(query))

    def test_update_without_index_is_a_noop(self, tmp_path):
        path = str(tmp_path / "bare.rpw")
        build_corpus_store(DOCS, path)
        report = update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        assert report["generation"] == 1
        assert report["indexed"] is False and report["terms"] == 0
        with CorpusStoreUpdater(path) as updater:
            page = ingest_html(DOCS[0][0], url="https://t/again")
            updater.update("fp-again", page)
            assert update_corpus_index(updater, {"fp-again": page}) == 0
        with pytest.raises(IngestError, match="repro corpus index"):
            open_corpus_index(path)

    def test_segment_without_postings_cannot_publish(self, tmp_path):
        # The index cannot fall behind the store: an update that skips
        # the postings of a page it writes fails before its segment is
        # published, and the store stays at its generation.
        path = _build(tmp_path)
        page = ingest_html(CHANGED_HTML, url=DOCS[0][1])
        fingerprint = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        with pytest.raises(ValueError, match="no postings"):
            with CorpusStoreUpdater(path) as updater:
                updater.update(fingerprint, page)
        store = open_store(path)
        assert store.generation == 1 and fingerprint not in store
        assert not (tmp_path / "corpus.rpw.seg-2").exists()
        assert not (tmp_path / "corpus.rpw.seg-2.tmp").exists()

    def test_reload_picks_up_published_generations(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        assert reader.reload() is False
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        assert reader.reload() is True
        assert reader.store.generation == 2
        assert page_fingerprint(CHANGED_HTML, DOCS[0][1]) in reader.store

    def test_rebuild_compacts_and_refits(self, tmp_path):
        path = _build(tmp_path)
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        update_corpus_store(path, [], remove_urls=(DOCS[3][1],))
        stat = build_corpus_index(path)
        assert stat["rebuilt"] is True
        assert stat["segments"] == 0 and stat["removed_pages"] == 0
        assert stat["generation"] == 4  # past the build and both updates
        reader = open_corpus_index(path)
        store = open_store(path)
        assert sorted(reader.store.fingerprints()) == sorted(store.fingerprints())
        # The rebuild refit the IdfModel over the *current* corpus.
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()

    def test_compacting_store_update_rebuilds_index(self, tmp_path):
        path = _build(tmp_path)
        report = update_corpus_store(
            path, [(CHANGED_HTML, DOCS[0][1])], compact=True
        )
        assert report["generation"] == 3  # build, update, compaction
        assert report["indexed"] is True and report["segments"] == 0
        # Compacting an indexed store refits the IDF over its live pages.
        reader = open_corpus_index(path)
        store = open_store(path)
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()


class TestCorruption:
    def test_truncated_base_raises_ingest_error(self, tmp_path):
        path = _build(tmp_path)
        base = tmp_path / "corpus.rpw"
        payload = base.read_bytes()
        for keep in (0, 4, len(payload) // 2, len(payload) - 1):
            base.write_bytes(payload[:keep])
            with pytest.raises(IngestError):
                open_corpus_index(path)

    def test_corrupt_magic_raises_ingest_error(self, tmp_path):
        path = _build(tmp_path)
        base = tmp_path / "corpus.rpw"
        payload = bytearray(base.read_bytes())
        payload[0] ^= 0xFF
        base.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            open_corpus_index(path)

    def test_corrupt_footer_raises_ingest_error(self, tmp_path):
        path = _build(tmp_path)
        base = tmp_path / "corpus.rpw"
        payload = bytearray(base.read_bytes())
        payload[-3] ^= 0xFF
        base.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            open_corpus_index(path)

    @pytest.mark.parametrize(
        "section, value",
        [("offsets", [16, 10**9]), ("page_ids", [3, 5]), ("weights", [-8, 1])],
    )
    def test_out_of_bounds_postings_section_raises(self, tmp_path, section,
                                                    value):
        path = _build(tmp_path)
        _rewrite_manifest(
            tmp_path / "corpus.rpw",
            lambda manifest: manifest["postings"]["sections"].__setitem__(
                section, value
            ),
        )
        with pytest.raises(IngestError, match="unreadable"):
            open_corpus_index(path)

    def test_segment_postings_must_match_the_base(self, tmp_path):
        # An indexed base with a segment lacking postings is corruption.
        path = _build(tmp_path)
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        _rewrite_manifest(
            tmp_path / "corpus.rpw.seg-2",
            lambda manifest: manifest.pop("postings"),
        )
        with pytest.raises(IngestError, match="postings section"):
            open_store(path)


def _rewrite_manifest(path, edit):
    """Re-encode a store file's JSON manifest after ``edit(manifest)``."""
    import json
    import struct

    payload = path.read_bytes()
    offset, length, magic = struct.unpack("<QQ8s", payload[-24:])
    manifest = json.loads(payload[offset:offset + length])
    edit(manifest)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    path.write_bytes(
        payload[:offset] + encoded + struct.pack("<QQ8s", offset, len(encoded), magic)
    )
