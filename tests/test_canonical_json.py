"""The canonical JSON writer, the document printer and the report renderer
against `json.dumps(indent=2, sort_keys=True)` as the reference, byte for
byte and in both `ensure_ascii` modes: on the corpus, on generated
documents, on analysis reports (against the dict built in
`_reference_report.py`) and on arbitrary nested values."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    INTEGERS,
    RingSpec,
    Scenario,
    analyze,
    corpus_names,
    corpus_text,
    document_from_equations,
    document_from_liar_cycle,
    document_from_model,
    document_from_table,
    liar_cycle_model,
    parse_model,
    print_model,
    render_json,
)
from contextuality import documents as documents_module
from contextuality.documents import canonical_json

from _random_models import random_contextual_models, random_models
from _reference_report import reference_json, reference_report
from conftest import bell_table, groetzsch_colouring, relabelled

BENCH = Path(__file__).resolve().parent.parent / "bench"

# one label per awkward character: a quote, a backslash, format braces,
# non-ASCII, an astral character and a control character
AWKWARD = ('"', "\\", "{", "}", "é", "中", "\U0001f600", "\x07")


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


def assert_rendered_as_reference(report):
    reference = reference_report(report)
    assert_matches_json_dumps(reference)
    assert render_json(report) == reference_json(report)


def awkward_documents():
    """Documents of every printed payload kind whose labels hold every
    awkward character, alone and inside longer labels."""
    liar = relabelled(liar_cycle_model(8), AWKWARD)
    joined = relabelled(liar_cycle_model(4), ["a" + "".join(AWKWARD), "{0}", "}}{{", 'x=1,"y"'])
    # the Bell table relabelled in its printed text, where each label
    # appears only as a quoted string
    table = print_model(document_from_table(bell_table()))
    for old, new in zip(("a1", "a2", "b1", "b2"), ("{a}", "é\\", "\U0001f600\x07", '"中"')):
        table = table.replace(f'"{old}"', json.dumps(new))
    cycle = AWKWARD[4:] + AWKWARD[:2]
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    scenario = Scenario(cycle, tuple(edges), (0, 1, 2, 3))
    theory = document_from_equations(scenario, 4, [({a: 1, b: 1}, 1) for a, b in edges], name="é{0}")
    ring_outcomes = json.loads(print_model(document_from_model(liar, name="\x07")))
    ring_outcomes["scenario"]["outcomes"] = {"modulus": 2}
    return [
        document_from_model(liar, name=AWKWARD[0], notes="".join(AWKWARD), provenance="中"),
        document_from_model(joined),
        parse_model(table),
        theory,
        parse_model(json.dumps(ring_outcomes)),
    ]


@pytest.mark.parametrize("rings", [None, (RingSpec(4),), (RingSpec(6),)], ids=["default", "Z4", "Z6"])
def test_analysis_reports(corpus_documents, rings):
    for doc in corpus_documents.values():
        assert_rendered_as_reference(analyze(doc, rings=rings))


def test_workload_reports():
    """Every seed-1 document of every benchmark workload, with its default
    rings and with the rings of each of its `analyze` operations."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, build

    for workload in WORKLOADS:
        texts, operations = build(workload, 1)
        docs = {stem: parse_model(text) for stem, text in texts.items()}
        for doc in docs.values():
            assert_rendered_as_reference(analyze(doc))
        for op in operations:
            if op.command == "analyze" and "--ring" in op.argv:
                ring = RingSpec.parse(op.argv[op.argv.index("--ring") + 1])
                assert_rendered_as_reference(analyze(docs[op.doc], rings=(ring,)))


def test_reports_of_every_shape():
    bell = document_from_table(bell_table())
    reports = [
        analyze(doc, rings=rings)
        for doc in awkward_documents()
        for rings in (None, (INTEGERS,), (RingSpec(3),))
    ]
    reports += [
        analyze(bell),
        analyze(bell, budget=1),
        analyze(document_from_model(liar_cycle_model(5)), rings=(INTEGERS,)),
    ]
    for report in reports:
        assert_rendered_as_reference(report)
    shapes = [reference_report(report) for report in reports]
    # a report with no non-extending section, one with a global section,
    # one undecided, one with a ring whose AvN is skipped for its outcomes,
    # and one over Z alone
    assert any(not shape["non_extending"] for shape in shapes)
    assert any(shape["global_section"] is not None for shape in shapes)
    assert any(shape["logically_contextual"] is None for shape in shapes)
    assert any("embed" in (ring["avn_skipped"] or "") for shape in shapes for ring in shape["rings"])
    assert any([ring["ring"] for ring in shape["rings"]] == ["Z"] for shape in shapes)


def test_awkward_labels_print_canonically():
    for doc in awkward_documents():
        assert_printed_canonically(doc)
        assert print_model(parse_model(print_model(doc))) == print_model(doc)


@pytest.mark.parametrize("name", ["liar-48", "pr-box", "bell"])
def test_supports_reports_and_documents_walk_no_value(name, corpus_documents, monkeypatch):
    """A supports or probabilities document prints, hashes and renders its
    report from templates alone: the generic writer is never called."""
    if name == "liar-48":
        doc = document_from_model(liar_cycle_model(48), name=name)
    else:
        doc = corpus_documents[name]
    text = print_model(doc)

    def refuse(*args):
        raise AssertionError("the generic JSON writer was called")

    monkeypatch.setattr(documents_module, "_write_json", refuse)
    assert print_model(doc) == text
    report = analyze(doc)
    assert render_json(report) == reference_json(report)
    # the patch was live: the generic writer does refuse
    with pytest.raises(AssertionError):
        canonical_json({})


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
