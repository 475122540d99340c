"""Tag-soup tolerant HTML parser producing :mod:`repro.html.dom` trees.

Built on the stdlib :class:`html.parser.HTMLParser` tokenizer.  Real-world
faculty/clinic pages are rarely valid HTML, so the tree builder implements
the recovery behaviours that matter in practice:

* void elements (``<br>``, ``<img>``, ...) never take children;
* implicit closing of ``<p>``/``<li>``/``<tr>``/``<td>``-style elements
  when a sibling opens (``<li>a<li>b`` yields two list items);
* stray end tags are ignored; unclosed elements are closed at EOF;
* character references are decoded by the tokenizer (``convert_charrefs``).

The output is a :class:`~repro.html.dom.Document`.

Serving guards (PR 6): :func:`parse_html` accepts optional ``max_depth``
and ``max_nodes`` caps so a pathological page (adversarial nesting, a
million flat siblings) degrades to a *bounded* parse instead of
exhausting recursion depth or memory downstream.  A capped document is
flagged ``document.truncated = True``; with the caps at their ``None``
defaults behaviour is bit-identical to the uncapped parser.

Fast tokenizer (PR 7): :func:`parse_html` defaults to a **single-pass
streaming scanner** (``str.find`` + a handful of compiled regexes)
that emits the same start/end/data/comment events into the same
:class:`_TreeBuilder` the stdlib tokenizer feeds.  The scanner accepts
only a conservative well-formed subset of tag soup — strict tag names,
unambiguous attributes, terminated comments/declarations — and **any**
construct outside that subset aborts the whole document to the stdlib
:class:`~html.parser.HTMLParser` path (``tokenizer="stdlib"`` forces
it; ``document.fast_fallback`` records that it fired).  Equivalence is
by construction on the accepted subset — every fast-path regex is the
stdlib tolerant regex or a strict subset of it, so a matched construct
tokenizes identically — and is pinned by differential tests over the
dataset corpus, the six adversarial-HTML families, and hypothesis
markup (``tests/html/test_fast_tokenizer.py``).
"""

from __future__ import annotations

import re
import threading
from html import unescape
from html.parser import HTMLParser

from .dom import Comment, Document, Element, TextNode

#: Elements that cannot have content; an end tag is neither required nor
#: expected for these.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

#: Opening one of these tags implicitly closes an open element of a tag in
#: the mapped set (HTML5 "optional end tag" behaviour, simplified).
IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "p": frozenset({"p"}),
    "option": frozenset({"option"}),
    "thead": frozenset({"tr", "td", "th"}),
    "tbody": frozenset({"thead", "tr", "td", "th"}),
    "tfoot": frozenset({"tbody", "tr", "td", "th"}),
}

#: Content of these elements is dropped entirely; the paper's pipeline
#: removes scripts/styles before building the tree (Section 7).
DROPPED_CONTENT = frozenset({"script", "style"})


class _TreeBuilder(HTMLParser):
    """Incremental tree builder fed by the stdlib tokenizer.

    ``max_depth`` bounds the open-element stack: elements opened beyond
    it are appended *flat* (their children attach to the capped
    ancestor), which bounds every later recursive traversal of the tree.
    ``max_nodes`` bounds the total node count: once spent, further
    nodes are dropped.  Either cap firing sets ``document.truncated``.
    """

    def __init__(
        self, max_depth: int | None = None, max_nodes: int | None = None
    ) -> None:
        super().__init__(convert_charrefs=True)
        self.document = Document()
        self._stack: list[Element] = [self.document]
        self._drop_depth = 0
        self._max_depth = max_depth
        self._nodes_left = max_nodes

    # -- helpers ------------------------------------------------------------

    @property
    def _top(self) -> Element:
        return self._stack[-1]

    def _spend_node(self) -> bool:
        """Take one node from the budget; False (and truncated) when spent."""
        if self._nodes_left is None:
            return True
        if self._nodes_left <= 0:
            self.document.truncated = True
            return False
        self._nodes_left -= 1
        return True

    def _may_push(self) -> bool:
        """Whether a new open element may deepen the stack."""
        if self._max_depth is None or len(self._stack) < self._max_depth:
            return True
        self.document.truncated = True
        return False

    def _implicitly_close_for(self, tag: str) -> None:
        closers = IMPLICIT_CLOSERS.get(tag)
        if not closers:
            return
        while len(self._stack) > 1 and self._top.tag in closers:
            self._stack.pop()

    # -- tokenizer callbacks -------------------------------------------------

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if self._drop_depth:
            if tag in DROPPED_CONTENT:
                self._drop_depth += 1
            return
        if tag in DROPPED_CONTENT:
            self._drop_depth = 1
            return
        self._implicitly_close_for(tag)
        if not self._spend_node():
            return
        element = Element(tag, {k.lower(): (v or "") for k, v in attrs})
        self._top.append(element)
        if tag not in VOID_ELEMENTS and self._may_push():
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if self._drop_depth or tag in DROPPED_CONTENT:
            return
        self._implicitly_close_for(tag)
        if not self._spend_node():
            return
        self._top.append(Element(tag, {k.lower(): (v or "") for k, v in attrs}))

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if self._drop_depth:
            if tag in DROPPED_CONTENT:
                self._drop_depth -= 1
            return
        if tag in VOID_ELEMENTS:
            return
        # Close up to the matching open element; ignore stray end tags.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        if self._drop_depth or not data:
            return
        if not self._spend_node():
            return
        self._top.append(TextNode(data))

    def handle_comment(self, data: str) -> None:
        if self._drop_depth:
            return
        if not self._spend_node():
            return
        self._top.append(Comment(data))


# -- fast tokenizer -----------------------------------------------------------
#
# The scanner below replaces the stdlib tokenizer's char-by-char state
# machine with one pass of `str.find` + anchored regex matches, emitting
# the identical event stream into the identical _TreeBuilder.  The
# correctness contract: every construct the scanner *accepts* is matched
# by a regex that is the stdlib tolerant regex itself (end tags,
# comment close) or a strict subset of it (start tags), so the consumed
# span and the emitted event are equal by construction; every construct
# it *rejects* raises _FastBailout and the whole document re-parses on
# the stdlib path.  The subset was chosen against CPython 3.11's
# html.parser semantics; the places where the tolerant parser is
# genuinely weird (bare `=` attributes, `\v`/NBSP inside tag names,
# bogus comments, EOF-truncated constructs) all land in the bailout.

#: ASCII whitespace — the only separators the fast path accepts between
#: attributes.  Unicode whitespace (which the stdlib's `\s` also
#: matches, in different roles per regex) forces the fallback.
_AWS = " \t\n\r\f"

#: One well-formed start tag: strict tag name (a subset of the stdlib's
#: tolerant `[^\t\n\r\f />\x00]*` name class), attributes with
#: ASCII-space separators, a single `=`, quoted or bare values exactly
#: as `attrfind_tolerant` takes them (bare values may not *start* with
#: a quote or `=`), and a clean `>` / `/>` end.
_FAST_START = re.compile(
    r"<([a-zA-Z][-.a-zA-Z0-9:_]*)"
    r"((?:[%(ws)s]+[^\s/>=][^\s/>=]*"
    r"(?:[%(ws)s]*=[%(ws)s]*"
    r"(?:'[^']*'|\"[^\"]*\"|(?!['\"=])[^>\s]+))?)*)"
    r"[%(ws)s]*(/?)>" % {"ws": _AWS}
)

#: One attribute inside _FAST_START's group 2 (same classes).
_FAST_ATTR = re.compile(
    r"[%(ws)s]+([^\s/>=]+)"
    r"(?:[%(ws)s]*=[%(ws)s]*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"=])[^>\s]+))?" % {"ws": _AWS}
)

#: The stdlib's `endtagfind`, verbatim: when it matches, the stdlib
#: consumes exactly this span and emits exactly this end tag.
_FAST_END = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")

#: The stdlib's `commentclose`, verbatim.
_COMMENT_CLOSE = re.compile(r"--\s*>")

#: The stdlib's CDATA `interesting` pattern per element, verbatim
#: (`set_cdata_mode` compiles `r'</\s*%s' % elem`, IGNORECASE): where
#: the stdlib first *stops* scanning script/style content.
_CDATA_PREFIX = {
    elem: re.compile(r"</\s*%s" % elem, re.IGNORECASE)
    for elem in HTMLParser.CDATA_CONTENT_ELEMENTS
}

#: A *clean* CDATA close: `endtagfind` restricted to the element itself.
#: When this matches at the prefix position, the stdlib provably emits
#: handle_endtag and leaves CDATA mode there.  When the prefix matches
#: but this does not (`</scriptx`, `</script foo>`, EOF-truncated), the
#: stdlib's recovery is baroque (it may swallow a later real close tag
#: as data) — those documents bail out to the stdlib path.
_CDATA_CLOSE = {
    elem: re.compile(r"</\s*%s\s*>" % elem, re.IGNORECASE)
    for elem in HTMLParser.CDATA_CONTENT_ELEMENTS
}

#: Parse-path observability: how often parse_html ran, and how often the
#: fast scanner bailed to the stdlib tokenizer.  `parse_call_count()`
#: backs the CI corpus-smoke assertion that store-backed serving parses
#: *nothing*; the fallback count feeds the ingest ``parse_fallbacks`` counter.
_counts_lock = threading.Lock()
_parse_calls = 0
_fast_fallbacks = 0


def parse_call_count() -> int:
    """Total :func:`parse_html` invocations in this process."""
    with _counts_lock:
        return _parse_calls


def parse_fallback_count() -> int:
    """Total fast-scanner bailouts to the stdlib tokenizer."""
    with _counts_lock:
        return _fast_fallbacks


class _FastBailout(Exception):
    """Internal: the scanner met a construct outside its subset."""


#: Cross-document tag memo: raw start-tag text → (tag, attrs,
#: self_closing), raw end-tag text → tag.  The mapping is a pure
#: function of the raw text (attrs dicts are copied into each Element),
#: so entries never go stale; corpus pages repeat the same literal tags
#: across pages as heavily as within one, which is exactly the serving
#: ingest workload.  The cap only bounds memory against adversarial
#: unique-tag streams — on overflow the memo is simply cleared
#: (recomputing is what the memo-less path did anyway).  Races under
#: concurrent parses are benign: worst case a duplicate compute.
_TAG_MEMO: dict = {}
_TAG_MEMO_CAP = 16384


def _parse_fast(
    markup: str,
    max_depth: "int | None",
    max_nodes: "int | None",
) -> Document:
    """One-pass scan of ``markup`` straight into a :class:`Document`.

    The tree-building logic is :class:`_TreeBuilder`'s, inlined: the
    event-per-callback indirection (and the per-tag attribute
    re-lowering it forces) costs as much as tokenizing does, and the
    whole point of this path is the parse benchmark.  Any construct
    outside the scanner subset raises :class:`_FastBailout` and the
    caller re-parses from scratch on the stdlib path, so a partially
    built document never escapes.
    """
    document = Document()
    stack: list = [document]
    nodes_left = max_nodes
    start_match = _FAST_START.match
    pos = 0
    n = len(markup)
    find = markup.find
    # Node attachment (`Element.append`) is inlined below — two slot
    # stores per node instead of a method call; constructors and the
    # recovery tables are locals for the same reason.
    text_node = TextNode
    element_node = Element
    dropped = DROPPED_CONTENT
    void = VOID_ELEMENTS
    closers_get = IMPLICIT_CLOSERS.get
    # Pages repeat the same literal tags (`<td class="name">`, `<li>`)
    # hundreds of times — and a corpus repeats them across pages;
    # memoizing on the raw tag text skips the attribute regex +
    # lowercasing for every repeat (see _TAG_MEMO).
    tag_cache = _TAG_MEMO
    new_element = object.__new__
    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            lt = n
        if lt > pos:
            text = markup[pos:lt]
            if "&" in text:
                text = unescape(text)
            if text:
                if nodes_left is None:
                    node = text_node(text)
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                elif nodes_left > 0:
                    nodes_left -= 1
                    node = text_node(text)
                    top = stack[-1]
                    node.parent = top
                    top.children.append(node)
                else:
                    document.truncated = True
        if lt == n:
            break
        nxt = markup[lt + 1] if lt + 1 < n else ""
        if "a" <= nxt <= "z" or "A" <= nxt <= "Z":
            match = start_match(markup, lt)
            if match is None:
                raise _FastBailout
            raw = match.group(0)
            cached = tag_cache.get(raw)
            if cached is None:
                attrs = {}
                for attr in _FAST_ATTR.finditer(match.group(2)):
                    value = attr.group(2)
                    if value is None:
                        value = ""
                    else:
                        if value[0] in "'\"":
                            value = value[1:-1]
                        if "&" in value:
                            value = unescape(value)
                    attrs[attr.group(1).lower()] = value
                cached = (
                    match.group(1).lower(),
                    attrs,
                    bool(match.group(3)),
                )
                if len(tag_cache) >= _TAG_MEMO_CAP:
                    tag_cache.clear()
                tag_cache[raw] = cached
            tag, attrs, self_closing = cached
            pos = match.end()
            if tag in dropped:
                # The builder creates no node for script/style; their
                # raw content is CDATA in the stdlib tokenizer and is
                # dropped whole here (no events ever fire inside it).
                if self_closing:
                    continue
                prefix = _CDATA_PREFIX[tag].search(markup, pos)
                if prefix is None:
                    # Unterminated script/style: the stdlib holds the
                    # CDATA run forever (never flushed, even at close).
                    break
                close = _CDATA_CLOSE[tag].match(markup, prefix.start())
                if close is None:
                    # `</scriptx`, `</script foo>`, truncated at EOF:
                    # stdlib recovery territory.
                    raise _FastBailout
                pos = close.end()
                continue
            closers = closers_get(tag)
            if closers:
                while len(stack) > 1 and stack[-1].tag in closers:
                    stack.pop()
            if nodes_left is not None:
                if nodes_left <= 0:
                    document.truncated = True
                    continue
                nodes_left -= 1
            # Element.__init__ inlined: `tag` is pre-lowered by the memo
            # and the attrs copy keeps the shared memo dict immutable.
            element = new_element(element_node)
            element.tag = tag
            element.attrs = dict(attrs)
            element.children = []
            top = stack[-1]
            element.parent = top
            top.children.append(element)
            if not self_closing and tag not in void:
                if max_depth is None or len(stack) < max_depth:
                    stack.append(element)
                else:
                    document.truncated = True
        elif nxt == "/":
            # End tags repeat even more than start tags (`</td>` ...);
            # the regex can never span a `>`, so the raw slice up to the
            # first `>` is a sound memo key (no `>` at all would make
            # the stdlib buffer to EOF: bail out).
            gt = find(">", lt)
            if gt < 0:
                raise _FastBailout
            raw = markup[lt : gt + 1]
            tag = tag_cache.get(raw)
            if tag is None:
                match = _FAST_END.fullmatch(raw)
                if match is None:
                    # Bogus end tags (`</>`, `</3`, `</tag attr>`) take
                    # the stdlib's bogus-comment / junk paths: bail out.
                    raise _FastBailout
                tag = match.group(1).lower()
                if len(tag_cache) >= _TAG_MEMO_CAP:
                    tag_cache.clear()
                tag_cache[raw] = tag
            pos = gt + 1
            if tag in void:
                continue
            # Close up to the matching open element; ignore strays.
            for index in range(len(stack) - 1, 0, -1):
                if stack[index].tag == tag:
                    del stack[index:]
                    break
        elif markup.startswith("<!--", lt):
            close = _COMMENT_CLOSE.search(markup, lt + 4)
            if close is None:
                raise _FastBailout
            if nodes_left is None:
                stack[-1].append(Comment(markup[lt + 4 : close.start()]))
            elif nodes_left > 0:
                nodes_left -= 1
                stack[-1].append(Comment(markup[lt + 4 : close.start()]))
            else:
                document.truncated = True
            pos = close.end()
        elif nxt == "?":
            # Processing instruction: scanned to `>`, handle_pi is a
            # no-op for the tree builder (as in the stdlib path).
            gt = find(">", lt + 2)
            if gt < 0:
                raise _FastBailout
            pos = gt + 1
        elif nxt == "!":
            if markup[lt : lt + 9].lower() == "<!doctype":
                # handle_decl is a no-op for the tree builder.
                gt = find(">", lt + 9)
                if gt < 0:
                    raise _FastBailout
                pos = gt + 1
            else:
                # Marked sections / bogus comments: stdlib-only.
                raise _FastBailout
        else:
            # A stray `<` is literal text in the tolerant parser
            # (emitted as its own data event, hence its own TextNode).
            if nodes_left is None:
                stack[-1].append(TextNode("<"))
            elif nodes_left > 0:
                nodes_left -= 1
                stack[-1].append(TextNode("<"))
            else:
                document.truncated = True
            pos = lt + 1
    return document


def parse_html(
    markup: str,
    max_depth: int | None = None,
    max_nodes: int | None = None,
    tokenizer: str = "fast",
) -> Document:
    """Parse an HTML string into a :class:`Document`.

    The parser never raises on malformed input; it recovers using the
    rules documented in the module docstring.  ``max_depth`` /
    ``max_nodes`` bound the result tree for hostile inputs (see the
    module docstring); the capped parse is flagged on
    ``document.truncated``.

    ``tokenizer`` selects the event source feeding the tree builder:
    ``"fast"`` (default) runs the single-pass scanner and transparently
    re-parses on the stdlib path when the input leaves the scanner's
    subset (``document.fast_fallback`` reports which path produced the
    tree); ``"stdlib"`` forces the :class:`~html.parser.HTMLParser`
    tokenizer.  Both produce identical trees for every input.

    >>> doc = parse_html("<html><body><h1>Hi</h1><p>there</p></body></html>")
    >>> doc.title
    ''
    >>> doc.body.text_content()
    'Hithere'
    """
    if tokenizer not in ("fast", "stdlib"):
        raise ValueError(f"unknown tokenizer {tokenizer!r}")
    global _parse_calls, _fast_fallbacks
    with _counts_lock:
        _parse_calls += 1
    fell_back = False
    if tokenizer == "fast":
        try:
            document = _parse_fast(markup, max_depth, max_nodes)
        except _FastBailout:
            with _counts_lock:
                _fast_fallbacks += 1
            fell_back = True
        else:
            document.fast_fallback = False
            return document
    builder = _TreeBuilder(max_depth=max_depth, max_nodes=max_nodes)
    builder.feed(markup)
    builder.close()
    builder.document.fast_fallback = fell_back
    return builder.document
