"""Inverted keyword/entity index, stored inside the corpus store.

The corpus store (:mod:`repro.webtree.store`) answers "give me page X";
its postings sections answer "which pages could answer this question?".
They map **terms** — lower-cased word tokens and typed entity keys — to
postings lists of ``(page, weight)`` pairs over the store's
``page_fingerprint`` space, with weights from the corpus-fit
:class:`~repro.nlp.vocab.IdfModel` (tf-scaled IDF for tokens, a flat
boost for entity keys).  Routing a question then costs one vectorized
sparse dot-product over the question's terms — work proportional to the
match set, not the corpus.

**One generation for pages and postings.**  The base file and every
update segment carry the postings of exactly the pages whose planes they
hold (the layout is in the store module docstring), so the store's one
``.gen`` manifest swap publishes planes and postings together: the index
cannot lag the store, and a torn byte anywhere in a publish leaves both
at the previous generation.  :func:`update_corpus_index` stages a
feed's postings into the open :class:`~repro.webtree.store.CorpusStoreUpdater`;
:class:`CorpusIndexReader` is a postings view over a
:class:`~repro.webtree.store.CorpusStoreReader`.

**The IDF rule.**  Only the base manifest holds the IDF table.  Between
compactions, segments are weighted with the base IDF and score with it,
and the exhaustive scan borrows that same IDF — so routed ≡ exhaustive
bit for bit after any sequence of feeds.  Compaction and
:func:`build_corpus_index` (``repro corpus index``; the same operation)
refit the IDF over the live pages, so right after a compaction the
routed answer equals that of a store built from scratch over the same
pages.  In between, routed weights drift from a fresh fit by design:
refitting on every feed would rewrite every posting.

Scoring is deliberately order-pinned: both the vectorized reader path
and the on-the-fly exhaustive scan (:mod:`repro.retrieval.router`)
accumulate float32 posting weights into float64 scores in sorted-term
order, one addition per (term, page) — so routed and scanned scores are
bit-identical and the routed ≡ exhaustive differential can demand exact
equality, not tolerance bands.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional

import numpy as np

from ..core.errors import IngestError
from ..nlp.ner import extract_entities
from ..nlp.tokenize import words
from ..nlp.vocab import IdfModel
from ..webtree.store import (
    CorpusStoreReader,
    CorpusStoreUpdater,
    StoreSnapshot,
    compact_store,
)

#: Separator inside entity keys.  Word tokens are lower-cased
#: alphanumeric runs, so a term containing this byte is unambiguously an
#: entity key, never a token.
ENTITY_SEP = "\x1f"

#: Posting weight of an entity key.  Entity keys are near-unique by
#: construction (label + normalized phrase), so a flat boost in the
#: upper reach of the IDF scale makes entity-anchored questions route
#: entity-first without drowning topical token evidence.
ENTITY_WEIGHT = 2.5


def entity_key(label: str, text: str) -> str:
    """The index term for one typed entity occurrence ('' if degenerate)."""
    phrase = " ".join(words(text))
    if not phrase:
        return ""
    return f"{label.lower()}{ENTITY_SEP}{phrase}"


def page_postings(text: str, idf: IdfModel) -> dict[str, np.float32]:
    """Term → float32 weight for one page's text.

    The single weighting function of the whole retrieval layer: the
    index build pass, the feed path and the exhaustive scan all call
    it, so every path scores a page identically by construction.  Token
    weights are ``idf(t) * (1 + ln tf)`` (batched through
    :meth:`IdfModel.idf_array`); entity keys get the flat
    :data:`ENTITY_WEIGHT`.  Weights are quantized to float32 — the
    on-disk precision — *here*, so in-memory and memmapped postings are
    bit-identical.
    """
    postings: dict[str, np.float32] = {}
    tokens = words(text)
    if tokens:
        counts = Counter(tokens)
        unique = sorted(counts)
        weights = idf.idf_array(unique) * (
            1.0 + np.log(np.array([counts[t] for t in unique], dtype=np.float64))
        )
        for term, weight in zip(unique, weights.astype(np.float32).tolist()):
            postings[term] = np.float32(weight)
    for span in extract_entities(text):
        key = entity_key(span.label, span.text)
        if key:
            postings[key] = np.float32(ENTITY_WEIGHT)
    return postings


def page_text(page: "object") -> str:
    """The whole-page text the index tokenizes: the root subtree join.

    Store-loaded pages arrive with their index planes prebuilt, so this
    never parses — it reuses the cached Euler-tour text join.
    """
    return page.index().subtree_text(0)  # type: ignore[attr-defined]


def _no_index(path: str) -> IngestError:
    return IngestError(
        f"no index in corpus store {path!r}; run `repro corpus index`"
    )


def _live_masks(snapshot: StoreSnapshot) -> "list[np.ndarray]":
    """Per file: which posting page ids still own their fingerprint
    under shadowing and removal — the mask the scorer applies so a
    superseded segment row can never produce a candidate."""
    routing = snapshot.routing
    return [
        np.fromiter(
            (routing.get(fp) is store_file for fp in store_file.postings.pages),
            dtype=bool,
            count=len(store_file.postings.pages),
        )
        for store_file in snapshot.files
    ]


class CorpusIndexReader:
    """Postings view over a :class:`CorpusStoreReader`.

    Holds no generation of its own: every query reads the store reader's
    current :class:`~repro.webtree.store.StoreSnapshot` (or one the
    caller pinned), and the live masks are derived per snapshot.
    :meth:`reload` reloads the shared store reader and re-derives them.
    Picklable by store path.  A store without postings opens fine (the
    service keeps one reader per store either way); scoring it raises.
    """

    def __init__(self, store: "CorpusStoreReader | str") -> None:
        if not isinstance(store, CorpusStoreReader):
            store = CorpusStoreReader(store)
        self.store = store
        self._masks: "tuple[Optional[StoreSnapshot], object]" = (None, None)
        self._scan_idf: "tuple[Optional[StoreSnapshot], object]" = (None, None)

    # -- pickling (reopen by path) ------------------------------------------

    def __getstate__(self) -> dict:
        return {"store": self.store}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["store"])

    # -- generations ---------------------------------------------------------

    def reload(self) -> bool:
        """Reload the store reader; True when its generation or page set
        changed."""
        changed = self.store.reload()
        snapshot = self.store.snapshot()
        if snapshot.indexed:
            self._live(snapshot)
        return changed

    def _live(self, snapshot: StoreSnapshot) -> "list[np.ndarray]":
        cached_snapshot, masks = self._masks
        if cached_snapshot is not snapshot:
            if not snapshot.indexed:
                raise _no_index(self.store.path)
            masks = _live_masks(snapshot)
            self._masks = (snapshot, masks)
        return masks  # type: ignore[return-value]

    # -- postings queries ----------------------------------------------------

    def idf(self, snapshot: "Optional[StoreSnapshot]" = None) -> IdfModel:
        """The IdfModel postings are weighted with: the base manifest's.

        On a store without postings this is the exhaustive scan's
        fallback — a fit over the snapshot's pages in sorted-fingerprint
        order (exactly the build pass of :func:`build_corpus_index`),
        cached per snapshot.
        """
        if snapshot is None:
            snapshot = self.store.snapshot()
        if snapshot.idf is not None:
            return IdfModel.from_dict(snapshot.idf)
        cached_snapshot, idf = self._scan_idf
        if cached_snapshot is not snapshot:
            idf = IdfModel.fit(
                page_text(snapshot.load(fingerprint)[0])
                for fingerprint in sorted(snapshot.fingerprints())
            )
            self._scan_idf = (snapshot, idf)
        return idf  # type: ignore[return-value]

    def postings_for(self, fingerprint: str) -> dict[str, np.float32]:
        """All (term → weight) postings of one live page, for tests/stat."""
        snapshot = self.store.snapshot()
        store_file = snapshot.routing.get(fingerprint)
        if store_file is None:
            return {}
        if store_file.postings is None:
            raise _no_index(self.store.path)
        postings = store_file.postings
        page_id = postings.pages.index(fingerprint)
        result: dict[str, np.float32] = {}
        for term in postings.terms:
            ids, weights = postings.lookup(term)
            hit = np.nonzero(ids == page_id)[0]
            if hit.size:
                result[term] = np.float32(weights[int(hit[0])])
        return result

    # -- scoring -------------------------------------------------------------

    def score(
        self,
        query: Mapping[str, float],
        snapshot: "Optional[StoreSnapshot]" = None,
    ) -> "list[tuple[str, float]]":
        """Sparse dot-product of ``query`` against every live page.

        Returns ``(fingerprint, score)`` for every page with a positive
        score, sorted by ``(-score, fingerprint)`` — a total order, so
        any top-k cut is deterministic.  Accumulation is float64 over
        float32 postings in sorted-term order (see the module
        docstring's bit-exactness contract with the scan path).
        ``snapshot`` pins the generation scored (default: current).
        """
        if snapshot is None:
            snapshot = self.store.snapshot()
        masks = self._live(snapshot)
        terms = sorted(query)
        results: list[tuple[str, float]] = []
        for store_file, live in zip(snapshot.files, masks):
            if not live.any():
                continue
            postings = store_file.postings
            scores = np.zeros(len(postings.pages), dtype=np.float64)
            touched = np.zeros(len(postings.pages), dtype=bool)
            for term in terms:
                found = postings.lookup(term)
                if found is None:
                    continue
                page_ids, weights = found
                np.add.at(
                    scores,
                    page_ids,
                    np.float64(query[term]) * weights.astype(np.float64),
                )
                touched[page_ids] = True
            hits = np.nonzero(touched & live & (scores > 0.0))[0]
            pages = postings.pages
            results.extend(
                (pages[int(page_id)], float(scores[int(page_id)]))
                for page_id in hits
            )
        results.sort(key=lambda item: (-item[1], item[0]))
        return results


def build_corpus_index(
    store_path: str, idf: "Optional[IdfModel]" = None
) -> dict:
    """Index (or re-index) a corpus store: compact and refit the IDF.

    One pass over the live pages — rehydrated from the memmapped planes,
    never parsed — fitting the IdfModel over the whole corpus (unless
    one is supplied) and publishing a fresh base holding every page's
    planes and postings as the next store generation.  This is the
    compaction of an indexed store; on a store without postings it adds
    them.  Returns the new :meth:`~CorpusStoreReader.stat` plus the
    collected stale files.
    """
    fitted = idf

    def reindex(snapshot: StoreSnapshot):
        fingerprints = sorted(snapshot.fingerprints())
        texts = [page_text(snapshot.load(fp)[0]) for fp in fingerprints]
        model = fitted if fitted is not None else IdfModel.fit(texts)
        postings = {
            fingerprint: page_postings(text, model)
            for fingerprint, text in zip(fingerprints, texts)
        }
        return model.to_dict(), postings

    report = compact_store(store_path, reindex=reindex)
    stat = CorpusStoreReader(store_path).stat()
    stat["collected"] = report["collected"]
    stat["rebuilt"] = True
    return stat


def update_corpus_index(
    updater: CorpusStoreUpdater, pages: "Mapping[str, object]"
) -> int:
    """Stage the postings of a feed's pages into an open store updater.

    ``pages`` maps fingerprint → page for (at least) every page the
    updater wrote to its segment; each is weighted with the base IDF.
    No-op on a store without postings.  Returns the pages staged.
    """
    if not updater.indexed:
        return 0
    idf = IdfModel.from_dict(updater.idf)
    pending = updater.pending_postings()
    for fingerprint in pending:
        updater.add_postings(
            fingerprint, page_postings(page_text(pages[fingerprint]), idf)
        )
    return len(pending)


def open_corpus_index(store_path: str) -> CorpusIndexReader:
    """Open the index of an existing store; IngestError if it has none."""
    reader = CorpusIndexReader(store_path)
    if not reader.store.snapshot().indexed:
        raise _no_index(reader.store.path)
    return reader
