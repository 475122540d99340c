"""Loss functions for transductive program selection (paper Section 7).

The paper instantiates the selection objective with the Hamming distance
between the *sets of words* extracted by two programs on the same inputs:
``L(π; I, O) = Hamming(π(I), O)``.

Both callers of the loss — Figure 11's :func:`select_program` and the
corpus vote :func:`consensus_select` — compare the same few distinct
answers hundreds of times, so the word set of an answer is tokenized
once and read from :func:`answer_word_set`, a bounded LRU memo keyed by
the answer tuple (:data:`WORD_SET_MEMO_SIZE` entries; least recently used
answers drop out first).  The memo holds immutable frozensets of a pure
function of its key, so it never changes a loss; it is cleared with the
other process memos by
:func:`~repro.experiments.common.clear_process_caches`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ..nlp.tokenize import word_set

#: Bound on memoized answer word sets.  One 25-task fit meets a few
#: thousand distinct per-page answers and a corpus vote at most ``top_k``
#: per ask, so the bound only bites on long-running processes.
WORD_SET_MEMO_SIZE = 16_384


@lru_cache(maxsize=WORD_SET_MEMO_SIZE)
def answer_word_set(answer: "tuple[str, ...]") -> "frozenset[str]":
    """The lower-cased word set of one answer tuple (memoized)."""
    return word_set(" ".join(answer))


def hamming_word_distance(answer_a: Sequence[str], answer_b: Sequence[str]) -> int:
    """Symmetric difference size between the word sets of two answers.

    >>> hamming_word_distance(["Bob Smith"], ["Bob Jones"])
    2
    >>> hamming_word_distance(["a b"], ["b a"])
    0
    """
    set_a = answer_word_set(tuple(answer_a))
    set_b = answer_word_set(tuple(answer_b))
    return len(set_a ^ set_b)


def output_loss(
    outputs_a: Sequence[Sequence[str]], outputs_b: Sequence[Sequence[str]]
) -> int:
    """Total Hamming word distance across aligned per-page outputs.

    This is ``L(π; I, O_j)`` with I implicit in the alignment: element i
    of each argument is the output on unlabeled page i.
    """
    if len(outputs_a) != len(outputs_b):
        raise ValueError("output sequences must align page-for-page")
    return sum(
        hamming_word_distance(a, b) for a, b in zip(outputs_a, outputs_b)
    )
