"""The shared loss kernel ≡ the pairwise loops it replaced.

``reference_consensus_select`` and ``reference_select_program`` are the
all-pairs loops of ``consensus_select`` and ``select_program`` as they
stood before selection ran each distinct program once and each
unordered distinct pair's loss once.  They are the specification: the
kernel must return the same index, loss, support, selected program and
``distinct_outputs``, bit for bit.  The memo under the loss
(:func:`repro.selection.loss.answer_word_set`) must stay within its
bound and empty on :func:`repro.experiments.common.clear_process_caches`.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import ast
from repro.experiments.common import clear_process_caches
from repro.nlp import NlpModels
from repro.selection import transductive
from repro.selection.loss import (
    WORD_SET_MEMO_SIZE,
    answer_word_set,
    hamming_word_distance,
    output_loss,
)
from repro.selection.transductive import (
    SelectionOutcome,
    consensus_select,
    select_program,
)
from repro.synthesis import LabeledExample, synthesize
from repro.synthesis.examples import TaskContexts

from tests.synthesis.conftest import (
    GOLD_A,
    GOLD_B,
    KEYWORDS,
    PAGE_A,
    PAGE_B,
    PAGE_C,
    QUESTION,
    small_config,
)

MODELS = NlpModels()


# -- the specification: the loops before the shared kernel -----------------


def reference_consensus_select(outputs):
    if not outputs:
        raise ValueError("consensus_select needs at least one output")
    multiplicity: dict[tuple[str, ...], int] = {}
    for answer in outputs:
        multiplicity[answer] = multiplicity.get(answer, 0) + 1
    losses: dict[tuple[str, ...], float] = {}
    for answer in multiplicity:
        total = 0.0
        for other, count in multiplicity.items():
            total += count * output_loss((answer,), (other,))
        losses[answer] = total / len(outputs)
    best = min(
        multiplicity,
        key=lambda answer: (losses[answer], -multiplicity[answer], answer),
    )
    return outputs.index(best), losses[best], multiplicity[best]


def reference_select_program(
    result, unlabeled_pages, models, ensemble_size=1000, seed=0, engine=None
):
    if not result.spaces:
        raise ValueError("synthesis produced no optimal programs to select from")
    ensemble = result.sample_many(ensemble_size, seed=seed)
    contexts = TaskContexts(
        result.question, tuple(result.keywords), models, engine=engine
    )

    # Group ensemble members by their behaviour on the unlabeled pages.
    by_output: dict[tuple[tuple[str, ...], ...], list[ast.Program]] = {}
    for program in ensemble:
        outputs = transductive.run_on_pages(
            program, unlabeled_pages, result.question, result.keywords,
            models, contexts,
        )
        by_output.setdefault(outputs, []).append(program)

    distinct = list(by_output.items())
    best_program = None
    best_loss = float("inf")
    for outputs, programs in distinct:
        total = 0.0
        for other_outputs, other_programs in distinct:
            total += len(other_programs) * output_loss(outputs, other_outputs)
        mean_loss = total / len(ensemble)
        if mean_loss < best_loss:
            best_loss = mean_loss
            best_program = programs[0]
    assert best_program is not None
    return SelectionOutcome(
        program=best_program,
        loss=best_loss,
        ensemble_size=len(ensemble),
        distinct_outputs=len(distinct),
    )


# -- answers that stress the word-set loss ----------------------------------

#: Duplicates after case folding, empty answers and empty strings,
#: punctuation-only text, multi-element answers and word-order swaps.
ANSWER_POOL = (
    (),
    ("",),
    ("", ""),
    ("!!", "..."),
    ("—",),
    ("Bob Smith",),
    ("bob SMITH",),
    ("Smith, Bob",),
    ("Bob Jones",),
    ("Bob", "Smith"),
    ("Ann Lee", "Bob Smith"),
    ("PLDI '21 (PC)",),
    ("pldi 21 pc",),
    ("Room 3.14",),
)

answers = st.sampled_from(ANSWER_POOL)


@given(
    outputs=st.lists(answers, min_size=1, max_size=24),
    as_tuple=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_consensus_select_matches_reference(outputs, as_tuple):
    container = tuple(outputs) if as_tuple else list(outputs)
    got = consensus_select(container)
    assert got == reference_consensus_select(container)
    assert [type(value) for value in got] == [int, float, int]


@given(a=answers, b=answers)
def test_hamming_list_and_tuple_agree(a, b):
    expected = hamming_word_distance(a, b)
    assert hamming_word_distance(list(a), list(b)) == expected
    assert hamming_word_distance(b, a) == expected


class _SampledResult:
    """A synthesis result whose ensemble is given, not sampled."""

    def __init__(self, ensemble):
        self._ensemble = ensemble
        self.spaces = (None,)
        self.question = QUESTION
        self.keywords = KEYWORDS

    def sample_many(self, n, seed=0):
        return list(self._ensemble)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_select_program_matches_reference(data):
    """Any ensemble, any behaviour table: same program, loss, outputs."""
    pages = data.draw(st.integers(min_value=0, max_value=3))
    programs = data.draw(st.integers(min_value=1, max_value=8))
    behaviour = {
        program: tuple(data.draw(answers) for _ in range(pages))
        for program in range(programs)
    }
    ensemble = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=programs - 1),
            min_size=1,
            max_size=30,
        )
    )
    result = _SampledResult(ensemble)
    with mock.patch.object(
        transductive,
        "run_on_pages",
        lambda program, *_args: behaviour[program],
    ):
        got = select_program(result, [None] * pages, MODELS)
        expected = reference_select_program(result, [None] * pages, MODELS)
    assert got == expected
    assert type(got.loss) is float


def test_select_program_matches_reference_on_synthesis():
    examples = [LabeledExample(PAGE_A, GOLD_A), LabeledExample(PAGE_B, GOLD_B)]
    result = synthesize(examples, QUESTION, KEYWORDS, MODELS, small_config())
    for seed in range(4):
        got = select_program(
            result, [PAGE_C, PAGE_A], MODELS, ensemble_size=60, seed=seed
        )
        expected = reference_select_program(
            result, [PAGE_C, PAGE_A], MODELS, ensemble_size=60, seed=seed
        )
        assert got == expected


def test_each_distinct_pair_is_scored_once():
    outputs = [("a",), ("b",), ("a",), ("c d",), ("b",)]
    with mock.patch(
        "repro.selection.loss.hamming_word_distance",
        wraps=hamming_word_distance,
    ) as counted:
        consensus_select(outputs)
    assert counted.call_count == 3  # {a,b}, {a,cd}, {b,cd}


# -- the word-set memo --------------------------------------------------------


def test_word_set_memo_stays_bounded_across_fits():
    clear_process_caches()
    examples = [LabeledExample(PAGE_A, GOLD_A), LabeledExample(PAGE_B, GOLD_B)]
    result = synthesize(examples, QUESTION, KEYWORDS, MODELS, small_config())
    for seed in range(3):
        select_program(result, [PAGE_C], MODELS, ensemble_size=40, seed=seed)
        assert 0 < answer_word_set.cache_info().currsize <= WORD_SET_MEMO_SIZE
    for index in range(WORD_SET_MEMO_SIZE + 100):
        hamming_word_distance((f"w{index}",), ("x",))
    info = answer_word_set.cache_info()
    assert info.maxsize == WORD_SET_MEMO_SIZE
    assert info.currsize == WORD_SET_MEMO_SIZE


def test_clear_process_caches_empties_word_set_memo():
    hamming_word_distance(("Bob Smith",), ("Bob Jones",))
    assert answer_word_set.cache_info().currsize > 0
    clear_process_caches()
    assert answer_word_set.cache_info().currsize == 0
