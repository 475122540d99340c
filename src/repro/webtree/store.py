"""Disk-backed columnar store for indexed webpage trees and their postings.

``PageIndex`` is already a pre/post "XPath accelerator"-style window
encoding in parallel arrays: pre-order ranks with ``exit``/``parent``/
``depth`` planes and rank-bitset masks.  This module persists exactly
those planes, so a corpus is parsed **once** and every later process
rehydrates pages straight from the planes — no HTML tokenizing, no
tree walk, no Euler tour.  A store file may also carry the inverted
keyword/entity postings of the pages it holds (see
:mod:`repro.retrieval.index` for how they are weighted and scored), so
page planes and routing postings are published by one commit.

On-disk layout (store-format file, little-endian)::

    header   b"RPWSTORE" + u32 version + u32 flags            (16 bytes)
    block*   one per page, at manifest-recorded offsets:
               node plane   n × NODE_DTYPE  (exit/parent/depth i4,
                            node_id i8, node_type u1 — packed, 21 B)
               text offsets (n+1) × u8      (*character* offsets)
               text blob    UTF-8           (all node texts, one run)
               leaf bits    ceil(n/8)       (leaf_mask, little-endian)
               elem bits    ceil(n/8)       (elem_mask, little-endian)
    postings (indexed files only) page_ids <u4, weights <f4 (one entry
             per posting, grouped by term), offsets <u8 (n_terms+1
             prefix offsets); page id i is the i-th fingerprint of the
             file's pages in sorted order
    manifest JSON: {"pages": fingerprint → {url, degraded, n, offset,
             text_bytes}, "base": B, "postings": {terms, sections}?,
             "idf": IDF state?}
    footer   u64 manifest_offset + u64 manifest_len + b"RPWSEND1"

The manifest key is the serving layer's raw-bytes ``page_fingerprint``
(sha256 over url + raw HTML), so a store lookup needs **no parse** —
hashing the input answers "is this page already indexed?".  The same
property is the invalidation rule: any byte change to the HTML (or the
url namespace) changes the key, so a stale entry can never be returned;
re-ingesting the changed document simply misses and parses.

A store is **indexed** when its base file carries a postings section;
then every segment carries the postings of exactly the pages whose
planes it holds, and only the base manifest holds the IDF table the
postings were weighted with.  A file without postings in an indexed
store (or the reverse) is corruption.

Generational updates
--------------------

A published store is immutable, but it is not frozen: mutations land in
**generations**.  ``<path>`` is the base file; each committed update
generation appends a segment file ``<path>.seg-<G>`` (itself a complete
store-format file, postings included) and atomically swaps the sidecar
manifest ``<path>.gen``::

    {"format": 1, "generation": G,
     "segments": ["<base>.seg-1", ...],     # applied in order
     "removed": ["<fingerprint>", ...]}     # hidden everywhere

This manifest is the **single commit point** of both the page planes and
the postings: one generation counter, one swap.  Later segments shadow
earlier files; ``removed`` hides fingerprints in every file (re-adding a
fingerprint drops it from ``removed`` — content addressing guarantees
the surviving bytes are the right ones).  With no ``.gen`` file the base
alone is generation 0, so every pre-generational store opens unchanged.

The publish ordering is the crash-safety argument:

1. segment blocks stream into ``<path>.seg-<G>.tmp``; finalize appends
   the postings section, fsyncs and ``os.replace``\\ s it to
   ``<path>.seg-<G>``;
2. the new ``.gen`` manifest is written to ``<path>.gen.tmp``, fsynced,
   and ``os.replace``\\ d over ``<path>.gen``;
3. the directory is fsynced (best effort) so the renames are durable.

A published manifest therefore only ever references fully-published
files, and a crash at *any* byte boundary of steps 1–2 leaves either
the previous ``.gen`` (previous generation, planes and postings fully
intact) or the new one — never a torn hybrid.  Orphan segments and
stale ``*.tmp`` files from interrupted updates are inert (readers never
open unreferenced files) and are deleted by :func:`collect_garbage`.

:func:`compact_store` folds all live pages back into a fresh base,
which it replaces *before* publishing the manifest that drops the
segments.  Every file records the **base id** ``B`` it belongs to (a
compacted base takes its generation number as id; segments copy the id
of the base they were written against).  A crash between the base
replace and the manifest swap leaves the old manifest over the new
base: its segments carry a stale base id, so readers skip them — the
new base already holds every live page with identical bytes, and with
postings weighted by its own IDF, so scores never mix two IDF fits.
One writer at a time: updates, compaction and GC assume a single
updating process, while any number of readers may hold older
generations mapped — ``os.replace``/``unlink`` never disturb an open
``np.memmap``.

A reader installs each generation as one immutable
:class:`StoreSnapshot` (generation, files, routing) with a single
assignment; :meth:`CorpusStoreReader.reload` swaps the reader to the
newest generation without invalidating pages already loaded, and a
caller that pins one snapshot scores, loads and resolves urls against
one generation even while a feed reloads the reader underneath it.

Readers map each file with ``np.memmap`` and slice plane views out of
it zero-copy; N worker processes opening one store share the read-only
pages through the OS page cache.  The numeric planes are converted to
Python lists at page-load time (the rank bitsets are arbitrary-
precision ints, and ``1 << numpy_int`` overflows), which is the only
materialization the load path pays besides decoding the text blob.

Truncated or corrupt *published* files fail loudly: every structural
check (magic, version, footer, manifest bounds, block bounds, postings
sections, text encoding, generation manifest shape) raises
:class:`~repro.core.errors.IngestError` instead of serving garbage.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from ..core.errors import IngestError
from .index import PageIndex
from .node import NodeType, PageNode, WebPage

MAGIC = b"RPWSTORE"
FOOTER_MAGIC = b"RPWSEND1"
VERSION = 1

#: Format tag of the ``.gen`` generation manifest sidecar.
GEN_FORMAT = 1

_HEADER = struct.Struct("<8sII")
_FOOTER = struct.Struct("<QQ8s")

#: One row per pre-order rank; packed (align=False) so row r of a page
#: with block offset o lives at byte o + 21*r regardless of platform.
NODE_DTYPE = np.dtype(
    [
        ("exit", "<i4"),
        ("parent", "<i4"),
        ("depth", "<i4"),
        ("node_id", "<i8"),
        ("node_type", "u1"),
    ],
    align=False,
)

OFFSET_DTYPE = np.dtype("<u8")
PAGE_ID_DTYPE = np.dtype("<u4")
WEIGHT_DTYPE = np.dtype("<f4")

_TYPE_CODE = {NodeType.NONE: 0, NodeType.LIST: 1, NodeType.TABLE: 2}
_TYPE_BY_CODE = {code: node_type for node_type, code in _TYPE_CODE.items()}


def _corrupt(path: str, reason: str) -> IngestError:
    return IngestError(f"corpus store {path!r} is unreadable: {reason}")


def _fsync_dir(path: str) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _pack_postings(
    pages: "list[str]",
    postings_by_page: "Mapping[str, Mapping[str, float]]",
    offset: int,
) -> "tuple[bytes, dict]":
    """Serialize a postings section starting at file ``offset``.

    Returns the section bytes and its manifest entry.  Page ids index
    ``pages`` (the file's fingerprints, sorted), so each term's postings
    come out in ascending page-id order.
    """
    by_term: "dict[str, tuple[list[int], list[float]]]" = {}
    for page_id, fingerprint in enumerate(pages):
        for term, weight in postings_by_page[fingerprint].items():
            ids, weights = by_term.setdefault(term, ([], []))
            ids.append(page_id)
            weights.append(float(weight))
    terms = sorted(by_term)
    offsets = np.zeros(len(terms) + 1, dtype=OFFSET_DTYPE)
    page_ids: "list[int]" = []
    weights: "list[float]" = []
    for i, term in enumerate(terms):
        ids, term_weights = by_term[term]
        page_ids.extend(ids)
        weights.extend(term_weights)
        offsets[i + 1] = len(page_ids)
    page_id_bytes = np.array(page_ids, dtype=PAGE_ID_DTYPE).tobytes()
    weight_bytes = np.array(weights, dtype=WEIGHT_DTYPE).tobytes()
    sections = {
        "page_ids": [offset, len(page_ids)],
        "weights": [offset + len(page_id_bytes), len(weights)],
        "offsets": [
            offset + len(page_id_bytes) + len(weight_bytes),
            len(terms) + 1,
        ],
    }
    payload = page_id_bytes + weight_bytes + offsets.tobytes()
    return payload, {"terms": terms, "sections": sections}


class CorpusStoreWriter:
    """Streaming store builder: pages in, one atomic file out.

    Usage::

        with CorpusStoreWriter(path) as writer:
            for html, url in corpus:
                outcome = ingest_page(html, url, ...)
                writer.add_page(outcome.fingerprint, outcome.page,
                                degraded=outcome.degraded)
        # __exit__ finalizes (atomic rename); an exception aborts and
        # removes the temp file instead.

    Pages stream straight to disk — the writer holds one page's planes
    at a time plus the (small) manifest, so corpus size is bounded by
    disk, not RAM.  An ``indexed`` writer (any writer given an ``idf``
    state is one) must receive :meth:`add_postings` for every page it
    holds before :meth:`finalize`; ``base`` is the base id recorded in
    the manifest (see the module docstring).
    """

    def __init__(
        self,
        path: str,
        *,
        base: int = 0,
        indexed: bool = False,
        idf: "Optional[dict]" = None,
    ) -> None:
        self.path = os.fspath(path)
        self._tmp_path = self.path + ".tmp"
        self._file = open(self._tmp_path, "wb")
        self._file.write(_HEADER.pack(MAGIC, VERSION, 0))
        self._offset = _HEADER.size
        self._manifest: dict[str, dict] = {}
        self._base = int(base)
        self._idf = idf
        self._postings: "Optional[dict[str, Mapping[str, float]]]" = (
            {} if indexed or idf is not None else None
        )
        self._closed = False

    def __enter__(self) -> "CorpusStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.abort()

    def __len__(self) -> int:
        return len(self._manifest)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._manifest

    def _append(self, fingerprint: str, entry: dict, block) -> None:
        entry["offset"] = self._offset
        self._offset += self._file.write(block)
        self._manifest[fingerprint] = entry

    def add_page(
        self, fingerprint: str, page: WebPage, degraded: bool = False
    ) -> bool:
        """Serialize one indexed page under ``fingerprint``.

        Returns False (and writes nothing) when the fingerprint is
        already present — re-ingesting a known page is a no-op, matching
        the cache semantics of the serving layer.
        """
        if self._closed:
            raise ValueError("writer is closed")
        if fingerprint in self._manifest:
            return False
        index = page.index()
        nodes = index.nodes
        size = len(nodes)
        plane = np.empty(size, dtype=NODE_DTYPE)
        plane["exit"] = index.exit
        plane["parent"] = index.parent
        plane["depth"] = index.depth
        try:
            plane["node_id"] = [node.node_id for node in nodes]
        except OverflowError as exc:
            raise ValueError(
                f"page {page.url!r} has a node_id outside int64"
            ) from exc
        plane["node_type"] = [_TYPE_CODE[node.node_type] for node in nodes]
        offsets = np.zeros(size + 1, dtype=OFFSET_DTYPE)
        np.cumsum(
            [len(text) for text in index.texts], out=offsets[1:]
        )
        # surrogatepass: node text is arbitrary Python str (hostile HTML
        # can smuggle lone surrogates through the parser); the reader
        # decodes with the same handler, so any str round-trips exactly.
        blob = "".join(index.texts).encode("utf-8", "surrogatepass")
        mask_bytes = (size + 7) // 8
        block = b"".join(
            (
                plane.tobytes(),
                offsets.tobytes(),
                blob,
                index.leaf_mask.to_bytes(mask_bytes, "little"),
                index.elem_mask.to_bytes(mask_bytes, "little"),
            )
        )
        entry = {"url": page.url, "degraded": bool(degraded), "n": size,
                 "text_bytes": len(blob)}
        self._append(fingerprint, entry, block)
        return True

    def copy_page(self, source: "_StoreFile", fingerprint: str) -> None:
        """Copy one page's block verbatim from another store file."""
        entry = dict(source.pages[fingerprint])
        start = entry["offset"]
        length = _block_length(entry["n"], entry["text_bytes"])
        self._append(fingerprint, entry, source.view[start : start + length])

    def add_postings(
        self, fingerprint: str, postings: "Mapping[str, float]"
    ) -> None:
        """Attach the term → weight postings of a page this file holds."""
        if self._postings is None:
            raise ValueError("postings need an indexed writer")
        if fingerprint not in self._manifest:
            raise KeyError(fingerprint)
        self._postings[fingerprint] = postings

    def pending_postings(self) -> "list[str]":
        """Pages of an indexed writer still waiting for their postings."""
        if self._postings is None:
            return []
        return [fp for fp in self._manifest if fp not in self._postings]

    def finalize(self) -> None:
        """Write postings + manifest + footer, fsync, publish atomically."""
        if self._closed:
            return
        manifest: dict = {"pages": self._manifest, "base": self._base}
        if self._postings is not None:
            missing = self.pending_postings()
            if missing:
                self.abort()
                raise ValueError(
                    f"indexed store file {self.path!r}: {len(missing)} "
                    "page(s) have no postings"
                )
            section, manifest["postings"] = _pack_postings(
                sorted(self._manifest), self._postings, self._offset
            )
            self._offset += self._file.write(section)
        if self._idf is not None:
            manifest["idf"] = self._idf
        payload = json.dumps(
            manifest, ensure_ascii=False, sort_keys=True
        ).encode("utf-8")
        self._file.write(payload)
        self._file.write(_FOOTER.pack(self._offset, len(payload), FOOTER_MAGIC))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._closed = True
        os.replace(self._tmp_path, self.path)
        _fsync_dir(self.path)

    def abort(self) -> None:
        """Discard everything written; the published path is untouched."""
        if self._closed:
            return
        self._file.close()
        self._closed = True
        try:
            os.unlink(self._tmp_path)
        except OSError:
            pass


def _block_length(size: int, text_bytes: int) -> int:
    return (
        size * NODE_DTYPE.itemsize
        + (size + 1) * OFFSET_DTYPE.itemsize
        + text_bytes
        + 2 * ((size + 7) // 8)
    )


class _Postings:
    """The validated postings section of one store file."""

    __slots__ = ("pages", "terms", "term_index", "page_ids", "weights", "offsets")

    def __init__(
        self, raw: np.ndarray, pages: "list[str]", manifest: dict, end: int
    ) -> None:
        self.pages = pages
        self.terms: "list[str]" = list(manifest["terms"])
        sections = manifest["sections"]
        self.page_ids = self._section(raw, sections, "page_ids", PAGE_ID_DTYPE, end)
        self.weights = self._section(raw, sections, "weights", WEIGHT_DTYPE, end)
        self.offsets = self._section(raw, sections, "offsets", OFFSET_DTYPE, end)
        if len(self.offsets) != len(self.terms) + 1:
            raise ValueError("offset table does not match term count")
        if len(self.page_ids) != len(self.weights):
            raise ValueError("postings arrays disagree in length")
        if int(self.offsets[-1]) != len(self.page_ids) or np.any(
            np.diff(self.offsets.astype(np.int64)) < 0
        ):
            raise ValueError("offset table is not a valid prefix sum")
        if len(self.page_ids) and int(self.page_ids.max()) >= len(pages):
            raise ValueError("posting page id out of range")
        self.term_index = {term: i for i, term in enumerate(self.terms)}

    @staticmethod
    def _section(
        raw: np.ndarray, sections: dict, name: str, dtype: np.dtype, end: int
    ) -> np.ndarray:
        offset, count = (int(value) for value in sections[name])
        stop = offset + count * dtype.itemsize
        if offset < _HEADER.size or count < 0 or stop > end:
            raise ValueError(f"postings section {name!r} out of bounds")
        return np.frombuffer(raw[offset:stop], dtype=dtype)

    def lookup(self, term: str) -> "Optional[tuple[np.ndarray, np.ndarray]]":
        """(page_ids, weights) slices for ``term``; None when absent."""
        index = self.term_index.get(term)
        if index is None:
            return None
        start, stop = int(self.offsets[index]), int(self.offsets[index + 1])
        return self.page_ids[start:stop], self.weights[start:stop]


class _StoreFile:
    """One validated, memmapped store-format file (base or segment)."""

    __slots__ = ("path", "raw", "view", "pages", "base", "idf", "postings")

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        try:
            raw = np.memmap(self.path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise _corrupt(self.path, str(exc)) from exc
        total = raw.size
        if total < _HEADER.size + _FOOTER.size:
            raise _corrupt(self.path, f"file too short ({total} bytes)")
        magic, version, _flags = _HEADER.unpack(
            raw[: _HEADER.size].tobytes()
        )
        if magic != MAGIC:
            raise _corrupt(self.path, "bad magic (not a corpus store)")
        if version != VERSION:
            raise _corrupt(self.path, f"unsupported version {version}")
        manifest_offset, manifest_len, footer_magic = _FOOTER.unpack(
            raw[total - _FOOTER.size :].tobytes()
        )
        if footer_magic != FOOTER_MAGIC:
            raise _corrupt(
                self.path, "bad footer magic (truncated or corrupt)"
            )
        if manifest_offset + manifest_len + _FOOTER.size != total:
            raise _corrupt(self.path, "manifest bounds do not match file size")
        try:
            manifest = json.loads(
                raw[manifest_offset : manifest_offset + manifest_len]
                .tobytes()
                .decode("utf-8")
            )
            pages = manifest["pages"]
            self.base = int(manifest.get("base", 0))
            self.idf = manifest.get("idf")
            postings = manifest.get("postings")
            self.postings = None if postings is None else _Postings(
                raw, sorted(pages), postings, manifest_offset
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise _corrupt(self.path, f"manifest unreadable: {exc}") from exc
        for fingerprint, entry in pages.items():
            try:
                size = entry["n"]
                offset = entry["offset"]
                text_bytes = entry["text_bytes"]
                entry["url"], entry["degraded"]
            except (TypeError, KeyError) as exc:
                raise _corrupt(
                    self.path, f"manifest entry {fingerprint[:12]} malformed"
                ) from exc
            if (
                size < 1
                or offset < _HEADER.size
                or offset + _block_length(size, text_bytes) > manifest_offset
            ):
                raise _corrupt(
                    self.path,
                    f"page block {fingerprint[:12]} out of bounds",
                )
        self.raw = raw
        # Plain memoryview over the mapping: per-load byte reads (text
        # blob, bitsets) skip np.memmap.__getitem__/__array_finalize__
        # overhead, which dominates small-page loads.
        self.view = memoryview(raw)
        self.pages = pages

    def load(self, fingerprint: str) -> "tuple[WebPage, bool]":
        """Rehydrate one page (with its index prebuilt) from the planes."""
        entry = self.pages[fingerprint]
        size = entry["n"]
        offset = entry["offset"]
        text_bytes = entry["text_bytes"]
        raw = self.raw
        view = self.view
        plane = np.frombuffer(raw, dtype=NODE_DTYPE, count=size, offset=offset)
        cursor = offset + size * NODE_DTYPE.itemsize
        char_offsets = np.frombuffer(
            raw, dtype=OFFSET_DTYPE, count=size + 1, offset=cursor
        ).tolist()
        cursor += (size + 1) * OFFSET_DTYPE.itemsize
        try:
            blob = str(
                view[cursor : cursor + text_bytes], "utf-8", "surrogatepass"
            )
        except UnicodeDecodeError as exc:
            raise _corrupt(
                self.path, f"text blob of {fingerprint[:12]} undecodable"
            ) from exc
        cursor += text_bytes
        mask_bytes = (size + 7) // 8
        leaf_mask = int.from_bytes(
            view[cursor : cursor + mask_bytes], "little"
        )
        cursor += mask_bytes
        elem_mask = int.from_bytes(
            view[cursor : cursor + mask_bytes], "little"
        )
        if char_offsets[0] != 0 or char_offsets[-1] != len(blob):
            raise _corrupt(
                self.path, f"text offsets of {fingerprint[:12]} inconsistent"
            )
        # Bitset arithmetic needs Python ints (`1 << numpy_int` would
        # overflow); .tolist() materializes each plane exactly once.
        exit_ = plane["exit"].tolist()
        parent = plane["parent"].tolist()
        depth = plane["depth"].tolist()
        node_ids = plane["node_id"].tolist()
        type_codes = plane["node_type"].tolist()
        texts = [
            blob[begin:end]
            for begin, end in zip(char_offsets, char_offsets[1:])
        ]
        nodes: list[PageNode] = []
        # PageNode.__init__ and add_child are inlined (slot stores only):
        # this loop is the hot center of store-backed cold serving.
        new_node = object.__new__
        node_type = _TYPE_BY_CODE
        append = nodes.append
        rank = 0
        try:
            for node_id, code, parent_rank, text in zip(
                node_ids, type_codes, parent, texts
            ):
                node = new_node(PageNode)
                node.node_id = node_id
                node.text = text
                node.node_type = node_type[code]
                node.children = []
                node.parent = None
                node.sibling_pos = 0
                if parent_rank >= 0:
                    # Pre-order guarantees parent[r] < r, so the parent
                    # object always exists already; sibling_pos is set
                    # exactly as add_child would.
                    top = nodes[parent_rank]
                    node.parent = top
                    node.sibling_pos = len(top.children)
                    top.children.append(node)
                elif rank != 0:
                    raise _corrupt(
                        self.path,
                        f"page {fingerprint[:12]} has multiple roots",
                    )
                append(node)
                rank += 1
        except (KeyError, IndexError) as exc:
            raise _corrupt(
                self.path, f"node plane of {fingerprint[:12]} inconsistent"
            ) from exc
        page = WebPage(nodes[0], url=entry["url"])
        page._index = PageIndex.from_planes(
            page, nodes, exit_, parent, depth, leaf_mask, elem_mask,
            texts=texts,
        )
        return page, entry["degraded"]


def _generation_path(path: str) -> str:
    return path + ".gen"


def _segment_path(path: str, generation: int) -> str:
    return f"{path}.seg-{generation}"


def _read_generation_manifest(path: str) -> dict:
    """The ``.gen`` sidecar as a dict; a synthetic generation 0 if absent."""
    gen_path = _generation_path(path)
    try:
        with open(gen_path, "rb") as handle:
            payload = handle.read()
    except FileNotFoundError:
        return {"format": GEN_FORMAT, "generation": 0,
                "segments": [], "removed": []}
    except OSError as exc:
        raise _corrupt(gen_path, str(exc)) from exc
    try:
        manifest = json.loads(payload.decode("utf-8"))
        if manifest["format"] != GEN_FORMAT:
            raise ValueError(f"unsupported format {manifest['format']!r}")
        manifest["generation"] = int(manifest["generation"])
        if manifest["generation"] < 0:
            raise ValueError("negative generation")
        segments = manifest["segments"]
        removed = manifest["removed"]
        if not isinstance(segments, list) or not all(
            isinstance(name, str) for name in segments
        ):
            raise ValueError("segments must be a list of file names")
        if not isinstance(removed, list) or not all(
            isinstance(fp, str) for fp in removed
        ):
            raise ValueError("removed must be a list of fingerprints")
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise _corrupt(gen_path, f"generation manifest unreadable: {exc}") from exc
    return manifest


def _publish_generation(
    path: str, generation: int, segments: "list[str]", removed: "list[str]"
) -> None:
    """Swap in the ``.gen`` manifest of ``generation`` — the commit point
    (tmp → fsync → replace → directory fsync)."""
    manifest = {"format": GEN_FORMAT, "generation": generation,
                "segments": segments, "removed": removed}
    gen_path = _generation_path(path)
    with open(gen_path + ".tmp", "wb") as handle:
        handle.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(gen_path + ".tmp", gen_path)
    _fsync_dir(gen_path)


@dataclass(frozen=True, eq=False)
class StoreSnapshot:
    """One published generation of a store: files, routing, removals.

    Built once per open or reload and never mutated, so a caller holding
    a snapshot sees one consistent generation — page set, planes and
    postings — however many reloads happen meanwhile.
    """

    generation: int
    files: "list[_StoreFile]"
    routing: "dict[str, _StoreFile]"
    removed: "frozenset[str]"

    @property
    def indexed(self) -> bool:
        """Whether this generation carries routing postings."""
        return self.files[0].postings is not None

    @property
    def idf(self) -> "Optional[dict]":
        """The base manifest's IDF state (``None`` when not indexed)."""
        return self.files[0].idf

    def fingerprints(self) -> Iterator[str]:
        return iter(self.routing)

    def entry(self, fingerprint: str) -> "Optional[dict]":
        """The live manifest entry for ``fingerprint`` (url etc.), if any."""
        store_file = self.routing.get(fingerprint)
        if store_file is None:
            return None
        return store_file.pages[fingerprint]

    def load(self, fingerprint: str) -> "tuple[WebPage, bool]":
        return self.routing[fingerprint].load(fingerprint)


def _open_generation(path: str) -> StoreSnapshot:
    """Open the current generation: base + referenced segments, composed."""
    manifest = _read_generation_manifest(path)
    directory = os.path.dirname(os.path.abspath(path))
    base = _StoreFile(path)
    files = [base]
    for name in manifest["segments"]:
        segment = _StoreFile(os.path.join(directory, name))
        if segment.base != base.base:
            # Written against an older base: residue of a compaction
            # that crashed before its manifest swap.  The new base holds
            # every live page of this generation already.
            continue
        if (segment.postings is None) != (base.postings is None):
            raise _corrupt(
                segment.path, "postings section disagrees with the base's"
            )
        files.append(segment)
    removed = frozenset(manifest["removed"])
    routing: dict[str, _StoreFile] = {}
    for store_file in files:  # later segments shadow earlier files
        for fingerprint in store_file.pages:
            routing[fingerprint] = store_file
    for fingerprint in removed:
        routing.pop(fingerprint, None)
    return StoreSnapshot(manifest["generation"], files, routing, removed)


class LoadedPage(tuple):
    """One :meth:`CorpusStoreReader.load`: unpacks as ``(page, degraded)``.

    ``cache_hit`` is True when the page cache passed to the load
    answered it, so no plane was read.
    """

    def __new__(
        cls, page: WebPage, degraded: bool, cache_hit: bool = False
    ) -> "LoadedPage":
        loaded = super().__new__(cls, (page, degraded))
        loaded.cache_hit = cache_hit
        return loaded


class CorpusStoreReader:
    """Read-only memmap view of a corpus store (base + update segments).

    Cheap to open (header/footer/manifest validation; no page is read
    until :meth:`load`), safe to share across threads, and **picklable
    by path** — unpickling re-opens the memmaps in the receiving
    process, so a reader can ride initargs into ``TaskRunner`` process
    workers where all workers share the files through the OS page cache.

    :meth:`reload` swaps the reader to the newest published generation
    in place; pages loaded from the previous generation stay valid (the
    old mappings survive until the last loaded page drops them).
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._snapshot = _open_generation(self.path)

    # -- pickling (reopen by path) ------------------------------------------

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])

    # -- generations ---------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """The generation this reader currently serves (immutable)."""
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def reload(self) -> bool:
        """Re-open the newest published generation.

        Returns True when the visible page set (or generation number)
        changed.  Pages already loaded, and snapshots already handed
        out, are untouched: they hold their own references to the old
        mappings, which ``os.replace`` and ``unlink`` cannot disturb.
        """
        with self._lock:
            snapshot = _open_generation(self.path)
            previous = self._snapshot
            self._snapshot = snapshot
            return (
                snapshot.generation != previous.generation
                or snapshot.routing.keys() != previous.routing.keys()
            )

    # -- manifest queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._snapshot.routing)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._snapshot.routing

    def fingerprints(self) -> Iterator[str]:
        return self._snapshot.fingerprints()

    def entry(self, fingerprint: str) -> "Optional[dict]":
        """The live manifest entry for ``fingerprint`` (url etc.), if any."""
        return self._snapshot.entry(fingerprint)

    def stat(self) -> dict:
        """Aggregate shape of the store, for `repro corpus stat`."""
        snapshot = self._snapshot
        routing = snapshot.routing
        entries = [
            store_file.pages[fingerprint]
            for fingerprint, store_file in routing.items()
        ]
        postings = [f.postings for f in snapshot.files if f.postings is not None]
        return {
            "path": self.path,
            "file_bytes": sum(
                int(store_file.raw.size) for store_file in snapshot.files
            ),
            "pages": len(routing),
            "nodes": sum(entry["n"] for entry in entries),
            "text_bytes": sum(entry["text_bytes"] for entry in entries),
            "degraded_pages": sum(
                1 for entry in entries if entry["degraded"]
            ),
            "generation": snapshot.generation,
            "segments": len(snapshot.files) - 1,
            "removed_pages": len(snapshot.removed),
            "indexed": snapshot.indexed,
            "terms": sum(len(p.terms) for p in postings),
            "postings": sum(len(p.page_ids) for p in postings),
        }

    # -- page loads ----------------------------------------------------------

    def get(self, fingerprint: str) -> "Optional[tuple[WebPage, bool]]":
        """``(page, degraded)`` for ``fingerprint``, or None if absent."""
        store_file = self._snapshot.routing.get(fingerprint)
        if store_file is None:
            return None
        return store_file.load(fingerprint)

    def load(
        self,
        fingerprint: str,
        snapshot: "Optional[StoreSnapshot]" = None,
        cache: "object | None" = None,
    ) -> "LoadedPage":
        """One page (with its index prebuilt): from ``cache``, else the planes.

        ``snapshot`` pins the generation to load from (default: the
        current one).  ``cache`` is a page cache keyed like the store
        (``get_entry``/``put`` of ``(page, degraded)`` by fingerprint, as
        :class:`~repro.serving.ingest.PageCache`): a hit returns the
        cached page, whose evaluation memos are already warm, and reads
        no plane; a miss rehydrates from ``snapshot`` and puts the page
        while that is still the current generation.  Fingerprints are
        content digests, so a cached page is the page of that fingerprint
        in every generation that holds it; a load pinned to a generation
        that a reload has since replaced does not re-cache a page the
        newer generation may have dropped.
        """
        if cache is not None:
            entry = cache.get_entry(fingerprint)
            if entry is not None:
                return LoadedPage(*entry, cache_hit=True)
        if snapshot is None:
            snapshot = self._snapshot
        page, degraded = snapshot.load(fingerprint)
        if cache is not None and snapshot is self._snapshot:
            cache.put(fingerprint, page, degraded)
        return LoadedPage(page, degraded)


class CorpusStoreUpdater:
    """Crash-safe mutations to a published store, one generation at a time.

    Usage::

        with CorpusStoreUpdater(path) as updater:
            updater.remove(stale_fingerprint)
            updater.update(new_fingerprint, page)
        # __exit__ commits (publishes the next generation); an
        # exception aborts and removes the in-flight segment instead.

    :meth:`update` streams page blocks into ``<path>.seg-<G>.tmp``; no
    published file is touched until :meth:`commit`, which runs the
    two-step publish described in the module docstring (segment rename,
    then manifest rename).  A crash at any byte boundary leaves the
    previous generation fully openable.  One updater commits one
    generation; the instance is closed afterwards.  Single writer at a
    time — concurrent updaters would race the generation counter.

    On an indexed store every page written to the segment needs its
    postings (:meth:`add_postings`, weighted with :attr:`idf`; see
    :func:`repro.retrieval.index.update_corpus_index`) before the
    segment can publish.
    """

    def __init__(self, path: str, *, create: bool = True) -> None:
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            if not create:
                raise _corrupt(self.path, "no store at path")
            CorpusStoreWriter(self.path).finalize()
        self._snapshot = _open_generation(self.path)
        base = self._snapshot.files[0]
        self._base_id = base.base
        #: Whether segments must carry postings, and the base IDF state
        #: they are weighted with.
        self.indexed = base.postings is not None
        self.idf = base.idf
        self._base_generation = self._snapshot.generation
        self._segment_target = _segment_path(
            self.path, self._base_generation + 1
        )
        self._writer: "Optional[CorpusStoreWriter]" = None
        self._removed = set(self._snapshot.removed)
        self._added: set[str] = set()
        self._restored: set[str] = set()
        self._segment_published = False
        self._closed = False

    def __enter__(self) -> "CorpusStoreUpdater":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    @property
    def generation(self) -> int:
        """The generation this updater will publish (base + 1)."""
        return self._base_generation + 1

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("updater is closed")

    def _has_bytes(self, fingerprint: str) -> bool:
        """Whether any on-disk file already stores this fingerprint."""
        return any(
            fingerprint in store_file.pages
            for store_file in self._snapshot.files
        )

    def _in_segment(self, fingerprint: str) -> bool:
        return self._writer is not None and fingerprint in self._writer

    def _dirty(self) -> bool:
        return bool(
            self._added
            or self._restored
            or self._removed != self._snapshot.removed
        )

    def update(
        self, fingerprint: str, page: WebPage, degraded: bool = False
    ) -> bool:
        """Stage ``page`` under ``fingerprint`` for the next generation.

        Returns False (writing nothing) when the fingerprint is already
        live — content addressing makes that a guaranteed no-op.  A
        fingerprint whose bytes exist but were removed is restored
        without rewriting (the stored bytes are identical by key).
        """
        self._check_open()
        if fingerprint in self._added or fingerprint in self._restored:
            return False
        if fingerprint not in self._removed and (
            fingerprint in self._snapshot.routing
            or self._in_segment(fingerprint)
        ):
            return False
        if self._has_bytes(fingerprint) or self._in_segment(fingerprint):
            self._restored.add(fingerprint)
            self._removed.discard(fingerprint)
            return True
        if self._writer is None:
            self._writer = CorpusStoreWriter(
                self._segment_target, base=self._base_id, indexed=self.indexed
            )
        self._writer.add_page(fingerprint, page, degraded=degraded)
        self._added.add(fingerprint)
        self._removed.discard(fingerprint)
        return True

    def remove(self, fingerprint: str) -> bool:
        """Stage removal of ``fingerprint``; False when not live."""
        self._check_open()
        staged = fingerprint in self._added or fingerprint in self._restored
        live = staged or (
            fingerprint not in self._removed
            and (self._has_bytes(fingerprint) or self._in_segment(fingerprint))
        )
        if not live:
            return False
        self._added.discard(fingerprint)
        self._restored.discard(fingerprint)
        self._removed.add(fingerprint)
        return True

    def pending_postings(self) -> "list[str]":
        """Pages written to the segment that still need their postings."""
        if self._writer is None:
            return []
        return self._writer.pending_postings()

    def add_postings(
        self, fingerprint: str, postings: "Mapping[str, float]"
    ) -> None:
        """Stage the postings of a page written to this segment."""
        self._check_open()
        if not self._in_segment(fingerprint):
            raise KeyError(fingerprint)
        self._writer.add_postings(fingerprint, postings)  # type: ignore[union-attr]

    def publish_segment(self) -> None:
        """Step 1 of the publish: atomically rename the segment file."""
        self._check_open()
        if self._segment_published or self._writer is None:
            return
        if len(self._writer) == 0:
            self._writer.abort()
            self._writer = None
            return
        self._writer.finalize()
        self._segment_published = True

    def publish_manifest(self) -> int:
        """Step 2 of the publish: atomically swap the ``.gen`` manifest."""
        self._check_open()
        names = [
            os.path.basename(store_file.path)
            for store_file in self._snapshot.files[1:]
        ]
        if self._segment_published:
            names.append(os.path.basename(self._segment_target))
        generation = self._base_generation + 1
        _publish_generation(self.path, generation, names, sorted(self._removed))
        self._closed = True
        return generation

    def commit(self) -> int:
        """Publish all staged mutations; returns the live generation.

        With nothing staged this is a no-op returning the unchanged
        generation.
        """
        self._check_open()
        if not self._dirty():
            self.abort()
            return self._base_generation
        self.publish_segment()
        return self.publish_manifest()

    def abort(self) -> None:
        """Discard staged mutations; published files are untouched."""
        if self._closed:
            return
        if self._writer is not None and not self._segment_published:
            self._writer.abort()
        self._closed = True

    def abandon(self) -> None:
        """Simulate a crash mid-update (tests/chaos): drop all in-flight
        state, leaving any partially written segment tmp on disk."""
        if self._closed:
            return
        if self._writer is not None and not self._writer._closed:
            self._writer._file.close()
            self._writer._closed = True
        self._closed = True


def collect_garbage(path: str) -> "list[str]":
    """Delete generation debris not referenced by the current manifest.

    Removes orphan segments (published but never referenced — a crash
    between the two publish steps) and stale ``*.tmp`` files from
    interrupted writes.  Returns the deleted paths.  Safe with respect
    to live readers: only unreferenced files are touched, and unlink
    never disturbs an open memmap.  Assumes the single-writer rule (an
    updater running in another process could lose its in-flight tmp).
    """
    path = os.fspath(path)
    manifest = _read_generation_manifest(path)
    referenced = set(manifest["segments"])
    directory = os.path.dirname(os.path.abspath(path)) or "."
    base = os.path.basename(path)
    deleted: list[str] = []
    for name in sorted(os.listdir(directory)):
        if not name.startswith(base + "."):
            continue
        stale_tmp = name.endswith(".tmp") and (
            name == base + ".tmp"
            or name == base + ".gen.tmp"
            or name.startswith(base + ".seg-")
        )
        orphan_segment = (
            name.startswith(base + ".seg-")
            and not name.endswith(".tmp")
            and name not in referenced
        )
        if not (stale_tmp or orphan_segment):
            continue
        target = os.path.join(directory, name)
        try:
            os.unlink(target)
        except OSError:
            continue
        deleted.append(target)
    return deleted


def compact_store(path: str, reindex: "Optional[Callable]" = None) -> dict:
    """Fold all live pages into a fresh base and drop the segments.

    Publishes the result as the next generation (empty ``segments`` and
    ``removed``), then garbage-collects the stale files.  The base file
    is replaced *before* the manifest swap; the base id it records makes
    a crash between the two safe (see the module docstring).

    An indexed store is compacted only together with a ``reindex``
    callback, ``reindex(snapshot) -> (idf_state, postings by
    fingerprint)`` over every live page — compaction is where the IDF is
    refit, so the new base's postings must come from the new fit
    (:func:`repro.retrieval.index.build_corpus_index` supplies it).
    ``reindex`` also indexes a store that had no postings.
    """
    path = os.fspath(path)
    snapshot = _open_generation(path)
    if reindex is None and snapshot.indexed:
        raise ValueError(
            f"corpus store {path!r} is indexed: compact it with "
            "repro.retrieval.index.build_corpus_index, which refits the IDF"
        )
    idf, postings = reindex(snapshot) if reindex is not None else (None, None)
    generation = snapshot.generation + 1
    writer = CorpusStoreWriter(path, base=generation, idf=idf)
    try:
        for fingerprint, store_file in snapshot.routing.items():
            writer.copy_page(store_file, fingerprint)
            if postings is not None:
                writer.add_postings(fingerprint, postings[fingerprint])
    except BaseException:
        writer.abort()
        raise
    writer.finalize()
    _publish_generation(path, generation, [], [])
    collected = collect_garbage(path)
    return {
        "path": path,
        "generation": generation,
        "pages": len(snapshot.routing),
        "file_bytes": os.path.getsize(path),
        "collected": collected,
    }


def open_store(path: str) -> CorpusStoreReader:
    """Open an existing corpus store (validating its structure)."""
    return CorpusStoreReader(path)
