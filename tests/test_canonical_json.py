"""The canonical JSON writer against `json.dumps(indent=2, sort_keys=True)`
as the reference, byte for byte and in both `ensure_ascii` modes: on the
corpus, on generated documents, on analysis reports and on arbitrary nested
values."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    RingSpec,
    analyze,
    corpus_names,
    corpus_text,
    document_from_liar_cycle,
    document_from_model,
    liar_cycle_model,
    print_model,
    render_json,
    report_json,
)
from contextuality.documents import canonical_json

from _random_models import random_contextual_models, random_models
from conftest import groetzsch_colouring


def assert_matches_json_dumps(value):
    for ensure_ascii in (True, False):
        expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)
        assert canonical_json(value, ensure_ascii=ensure_ascii) == expected


def assert_printed_canonically(doc):
    text = print_model(doc)
    expected = json.dumps(json.loads(text), ensure_ascii=False, indent=2, sort_keys=True)
    assert text == expected + "\n"
    assert_matches_json_dumps(json.loads(text))


def test_corpus_documents(corpus_documents):
    for name in corpus_names():
        assert_matches_json_dumps(json.loads(corpus_text(name)))
        assert_printed_canonically(corpus_documents[name])


def test_generated_documents():
    for n in (3, 5, 12, 48):
        assert_printed_canonically(document_from_liar_cycle(n))
        assert_printed_canonically(document_from_model(liar_cycle_model(n)))
    assert_printed_canonically(document_from_model(groetzsch_colouring(3)))
    for model in random_models(25, seed=20240818) + random_contextual_models(10, seed=7):
        assert_printed_canonically(document_from_model(model))


@pytest.mark.parametrize("rings", [None, (RingSpec(4),), (RingSpec(6),)], ids=["default", "Z4", "Z6"])
def test_analysis_reports(corpus_documents, rings):
    for doc in corpus_documents.values():
        report = analyze(doc, rings=rings)
        payload = report_json(report)
        assert_matches_json_dumps(payload)
        assert render_json(report) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


awkward_text = st.text(
    alphabet=st.sampled_from('ab "\\/\x00\x08\x1f\x7f\xe9 中\U0001f600'),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.5e-07, 1e300, -1e-300, 0.0, -0.0, 2.5, 1e16]),
    st.text(),
    awkward_text,
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), awkward_text), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_arbitrary_nested_values(value):
    assert_matches_json_dumps(value)


def test_empty_and_nested_empty_containers():
    for value in ({}, [], (), [[]], {"a": {}}, [{}, [], ()], {"": [[], {"": {}}]}):
        assert_matches_json_dumps(value)


@pytest.mark.parametrize("value", [{1, 2}, object(), {"a": b"bytes"}, {1: 2}])
def test_unserialisable_values_are_type_errors(value):
    with pytest.raises(TypeError):
        canonical_json(value)
