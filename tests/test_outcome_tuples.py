"""Outcome tuples as the stored form of a model, against Section-level
references: a model built from tuples equals the model built from the same
sections, the supports printer writes exactly `json.dumps` of the document
rebuilt from sections, and the maximal model of a theory holds exactly the
sections that satisfy it."""

import json
import random

import pytest

from contextuality import (
    SCHEMA,
    DegenerateModelError,
    EmpiricalModel,
    EmptySupportError,
    ModelError,
    RingSpec,
    Scenario,
    Section,
    SectionNotSupportedError,
    SignallingError,
    Theory,
    document_from_model,
    document_hash,
    materialize,
    model_of_theory,
    parse_model,
    print_model,
    satisfies,
    solutions,
)

from contextuality.scenario import sections_of
from contextuality.theory import equations_on_cover

from _random_models import random_contextual_models, random_models, random_scenario

# measurements whose label order differs from their declared order, over an
# alphabet declared out of numeric order; the overlap b of the two contexts
# takes the values 2, -1 and 0 on both sides
AWKWARD = {
    "format": SCHEMA,
    "name": "awkward",
    "notes": "non-ASCII names, a non-ascending alphabet, repeated and unsorted rows",
    "scenario": {
        "measurements": ["中", "b", "α"],
        "contexts": [["α", "b"], ["b", "中"]],
        "outcomes": [2, -1, 0],
    },
    "supports": [
        [
            {"α": 0, "b": -1},
            {"α": 2, "b": 2},
            {"b": 0, "α": -1},
            {"α": 2, "b": 2},
        ],
        [
            {"b": -1, "中": -1},
            {"b": 0, "中": 2},
            {"b": 2, "中": 0},
            {"b": 0, "中": 2},
        ],
    ],
}


def renamed(model, rename):
    """The same supports under new measurement names, built from sections."""
    scn = model.scenario
    scenario = Scenario(
        tuple(map(rename, scn.measurements)),
        tuple(tuple(map(rename, c)) for c in scn.contexts),
        scn.outcomes,
    )
    supports = tuple(
        tuple(Section.of((rename(m), o) for m, o in s.items) for s in sup)
        for sup in model.supports
    )
    return EmpiricalModel(scenario, supports)


def reversed_alphabet(model):
    """The same supports over the alphabet declared in reverse order, which
    reverses the lexicographic order of every support."""
    scn = model.scenario
    scenario = Scenario(scn.measurements, scn.contexts, scn.outcomes[::-1])
    return EmpiricalModel(scenario, model.supports)


@pytest.fixture(scope="module")
def models(corpus_documents):
    found = [materialize(doc) for doc in corpus_documents.values()]
    found += random_models(30, seed=20261101) + random_contextual_models(15, seed=20261102)
    found += [reversed_alphabet(m) for m in found]
    # braces and a percent sign in the keys the printer's templates quote
    found += [renamed(m, lambda x: "μ{" + x[::-1] + "}%") for m in found[::3]]
    found.append(parse_model(json.dumps(AWKWARD)).model)
    return found


def reference_support(model, ci):
    """The distinct sections of support ci, sorted by their outcomes' places
    in the declared alphabet, context by context."""
    scn = model.scenario
    place = {o: k for k, o in enumerate(scn.outcomes)}
    ctx = scn.contexts[ci]
    return tuple(sorted(set(model.support(ci)), key=lambda s: [place[s[m]] for m in ctx]))


def test_tuple_built_models_equal_section_built_ones(models):
    for model in models:
        scn = model.scenario
        by_sections = EmpiricalModel(scn, model.supports)
        values = [model.support_values(ci) for ci in range(len(scn.contexts))]
        # repeated and reversed rows make no difference
        by_values = EmpiricalModel.from_values(scn, [vs[::-1] + vs[:1] for vs in values])
        parsed = parse_model(print_model(document_from_model(model))).model
        for built in (by_values, parsed):
            assert built.supports == by_sections.supports
            assert built.supports == tuple(
                reference_support(model, ci) for ci in range(len(scn.contexts))
            )
            for ci, ctx in enumerate(scn.contexts):
                assert built.support_values(ci) == by_sections.support_values(ci)
                assert built.support_values(ci) == tuple(
                    s.values_on(ctx) for s in by_sections.support(ci)
                )
                assert built.support_set(ci) == by_sections.support_set(ci)
            assert built == by_sections and by_sections == built
            assert hash(built) == hash(by_sections)


def test_from_values_rejects_what_is_not_a_support():
    scenario = parse_model(json.dumps(AWKWARD)).model.scenario
    good = [(2, 2), (-1, 0), (0, -1)]
    with pytest.raises(ModelError, match="expected 2 supports, got 1"):
        EmpiricalModel.from_values(scenario, [good])
    with pytest.raises(ModelError, match=r"outcome tuple \(2,\) does not have one outcome per measurement"):
        EmpiricalModel.from_values(scenario, [good + [(2,)], good])
    with pytest.raises(ModelError, match=r"outcome tuple \(0, 1\) uses outcome outside the alphabet"):
        EmpiricalModel.from_values(scenario, [good, [(0, 1), (1, 1)]])
    with pytest.raises(EmptySupportError):
        EmpiricalModel.from_values(scenario, [good, []])
    with pytest.raises(SignallingError):
        EmpiricalModel.from_values(scenario, [good, [(2, 0)]])


def test_awkward_document_keeps_its_supports():
    model = parse_model(json.dumps(AWKWARD)).model
    # b before α in declared order, outcomes ranked 2 < -1 < 0
    assert model.scenario.contexts == (("b", "α"), ("中", "b"))
    assert model.support_values(0) == ((2, 2), (-1, 0), (0, -1))
    assert model.support_values(1) == ((2, 0), (-1, -1), (0, 2))
    assert model.support(0)[1] == Section.of({"α": 0, "b": -1})


def test_support_position_follows_the_supports(models):
    for model in models[::4]:
        scn = model.scenario
        for ci, ctx in enumerate(scn.contexts):
            support = model.support(ci)
            for k, s in enumerate(support):
                assert model.support_position(ci, s) == k
                assert model.context_of_section(s) == ci
            for s in sections_of(scn, ctx):
                if s not in support:
                    assert model.support_position(ci, s) is None
                    with pytest.raises(SectionNotSupportedError):
                        model.context_of_section(s)
            wider = Section.of({**support[0].as_dict(), "not-a-measurement": 0})
            assert model.support_position(ci, wider) is None
            assert model.support_position(ci, support[0].restrict(ctx[:1])) is None


def reference_text(doc):
    """json.dumps of the document's JSON object, rebuilt from sections."""
    scn = doc.model.scenario
    data = {
        "format": SCHEMA,
        "scenario": {
            "measurements": list(scn.measurements),
            "contexts": [list(c) for c in scn.contexts],
            "outcomes": {"modulus": len(scn.outcomes)} if doc.ring_outcomes else list(scn.outcomes),
        },
        "supports": [[dict(s.items) for s in sup] for sup in doc.model.supports],
    }
    for field in ("name", "notes", "provenance"):
        if getattr(doc, field) is not None:
            data[field] = getattr(doc, field)
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_supports_printer_matches_json_dumps(models, corpus_documents):
    docs = [d for d in corpus_documents.values() if d.payload_kind == "supports"]
    docs += [document_from_model(m) for m in models]
    docs += [
        document_from_model(m, name="ключ", notes='"quoted" {braces} 100%', provenance="中")
        for m in models[::5]
    ]
    for doc in docs:
        text = print_model(doc)
        assert text == reference_text(doc)
        assert text == reference_text(parse_model(text))
        assert print_model(parse_model(text)) == text
        assert document_hash(doc) == document_hash(parse_model(text))


def test_boolean_outcomes_print_as_integers():
    scenario = Scenario(("a",), (("a",),), (0, 1))
    model = EmpiricalModel(scenario, ((Section((("a", True),)), Section((("a", 0),))),))
    text = print_model(document_from_model(model))
    assert json.loads(text)["supports"] == [[{"a": 0}, {"a": 1}]]
    assert parse_model(text).model == model


def test_awkward_document_prints_deduplicated_and_sorted():
    doc = parse_model(json.dumps(AWKWARD))
    text = print_model(doc)
    assert text == reference_text(doc)
    printed = json.loads(text)["supports"]
    assert printed == [
        [{"α": 2, "b": 2}, {"α": 0, "b": -1}, {"α": -1, "b": 0}],
        [{"b": 0, "中": 2}, {"b": -1, "中": -1}, {"b": 2, "中": 0}],
    ]


def random_theory(rng, ring, scenario):
    """A few equations, each on a random part of a random context and
    expanded onto every context containing that part."""
    equations = []
    for _ in range(rng.randint(1, 3)):
        ctx = rng.choice(scenario.contexts)
        part = rng.sample(ctx, rng.randint(1, len(ctx)))
        coefficients = {m: rng.randrange(ring.modulus) for m in part}
        equations.extend(
            equations_on_cover(ring, scenario, coefficients, rng.randrange(ring.modulus))
        )
    return Theory(ring, tuple(equations))


def test_model_of_theory_matches_the_section_reference():
    rng = random.Random(20261103)
    seen = {"model": 0, "degenerate": 0, "signalling": 0}
    for n in (4, 6):
        ring = RingSpec(n)
        for _ in range(60):
            shape = random_scenario(rng)
            # all residues, or all but one, in a shuffled order
            outcomes = tuple(rng.sample(range(n), rng.choice((n, n, n - 1))))
            scenario = Scenario(shape.measurements, shape.contexts, outcomes)
            theory = random_theory(rng, ring, scenario)
            reference = []
            for ctx in scenario.contexts:
                applicable = [eq for eq in theory.equations if set(eq.context) <= set(ctx)]
                found = tuple(
                    s for s in sections_of(scenario, ctx) if all(satisfies(s, eq) for eq in applicable)
                )
                assert solutions(theory, ctx, outcomes) == found
                reference.append(found)
            if not all(reference):
                with pytest.raises(DegenerateModelError):
                    model_of_theory(theory, scenario)
                seen["degenerate"] += 1
                continue
            try:
                expected = EmpiricalModel(scenario, tuple(reference))
            except SignallingError as exc:
                with pytest.raises(type(exc)) as err:
                    model_of_theory(theory, scenario)
                assert str(err.value) == str(exc)
                seen["signalling"] += 1
                continue
            model = model_of_theory(theory, scenario)
            assert model == expected and model.supports == expected.supports
            seen["model"] += 1
    # every branch is reached: models, theories without a section on some
    # context, and maximal models that signal
    assert seen == {"model": 52, "degenerate": 61, "signalling": 7}
