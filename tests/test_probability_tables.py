"""Probability tables on outcome tuples against the reference built from
sections and per-entry fractions (`_reference_probabilities.py`): equal
rows, supports, printed text and hashes, or the same error with the same
message, path, contexts and section.

Documents come from seeded mixtures of global assignments, which are
no-signalling, and from perturbations of them, which move weight within a
row and mostly signal. The scenarios declare their measurements and their
alphabets out of order, use outcomes whose text sorts differently from
their order, and let one measurement lie in several contexts; rows list
their entries shuffled, with zero entries and unreduced weights."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from contextuality import (
    SCHEMA,
    ContextualityError,
    ModelError,
    NormalisationError,
    ProbabilityTable,
    Scenario,
    SignallingError,
    corpus_text,
    document_from_table,
    document_hash,
    materialize,
    parse_model,
    print_model,
    support_of_probability_table,
)

from _random_models import random_models
from _reference_probabilities import (
    reference_document,
    reference_marginal,
    reference_rows,
    reference_support,
    reference_text,
)
from conftest import BIPARTITE, bell_table, nerve_pairs

_LABELS = ("b", "a", "x10", "x2", "c", "y")
_OUTCOMES = (0, 1, 2, 10, -1)


def _failed(found) -> bool:
    return isinstance(found, tuple) and len(found) == 5 and isinstance(found[0], type)


def _outcome(run):
    """What `run` returns, or its error as (type, message, path, contexts,
    section)."""
    try:
        return run()
    except ContextualityError as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "path", None),
            getattr(exc, "contexts", None),
            getattr(exc, "section", None),
        )


def _library(text):
    doc = parse_model(text)
    table = doc.table
    marginals = [table.marginal(i, overlap) for i, _, overlap in nerve_pairs(table.scenario)]
    return table.rows, materialize(doc).supports, marginals, print_model(doc), document_hash(doc)


def _reference(text):
    scenario, rows, printed = reference_document(text)
    marginals = [reference_marginal(rows, i, overlap) for i, _, overlap in nerve_pairs(scenario)]
    support = reference_support(scenario, rows).supports
    return rows, support, marginals, printed, hashlib.sha256(printed.encode("utf-8")).hexdigest()


def assert_document_agrees(text):
    found = _outcome(lambda: _library(text))
    assert found == _outcome(lambda: _reference(text))
    return found


def _scenario_json(scenario):
    return {
        "measurements": list(scenario.measurements),
        "contexts": [list(c) for c in scenario.contexts],
        "outcomes": list(scenario.outcomes),
    }


def assert_table_agrees(scenario, rows, validate=True, table=None):
    """`ProbabilityTable(scenario, rows, validate)` (or `table`, built from
    those rows) against the reference; a table that validated also prints
    and materialises as the reference does."""

    def library():
        found = ProbabilityTable(scenario, rows, validate) if table is None else table()
        return found, found.rows

    built = _outcome(library)
    expected = _outcome(lambda: reference_rows(scenario, rows, validate))
    if _failed(built) or _failed(expected):
        assert built == expected
        return None
    found, found_rows = built
    assert found_rows == expected
    if validate:
        assert support_of_probability_table(found).supports == reference_support(scenario, expected).supports
        data = {"format": SCHEMA, "name": "table", "scenario": _scenario_json(scenario)}
        text = reference_text(data, expected)
        assert print_model(document_from_table(found, name="table")) == text
        assert document_hash(document_from_table(found, name="table")) == hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()
    return found


# ---------------------------------------------------------------------------
# seeded documents


def random_scenario(rng: random.Random) -> Scenario:
    """3 to 6 measurements declared in shuffled order, contexts of one to
    three of them (an antichain, not always connected), and two or three
    outcomes declared in shuffled order."""
    measurements = tuple(rng.sample(_LABELS, rng.randint(3, 6)))
    chosen = dict.fromkeys(
        frozenset(rng.sample(measurements, rng.randint(1, 3))) for _ in range(rng.randint(2, 6))
    )
    contexts = [c for c in chosen if not any(c < d for d in chosen)]
    covered = set().union(*contexts)
    contexts += [frozenset((m,)) for m in measurements if m not in covered]
    rng.shuffle(contexts)
    outcomes = tuple(rng.sample(_OUTCOMES, rng.randint(2, 3)))
    return Scenario(measurements, tuple(tuple(rng.sample(sorted(c), len(c))) for c in contexts), outcomes)


def mixture_rows(rng: random.Random, scenario: Scenario):
    """Per context, {outcome tuple: weight} of a mixture of one to four
    global assignments with random positive weights."""
    assignments = [
        {m: rng.choice(scenario.outcomes) for m in scenario.measurements}
        for _ in range(rng.randint(1, 4))
    ]
    shares = [rng.randint(1, 6) for _ in assignments]
    rows = []
    for ctx in scenario.contexts:
        row: dict[tuple[int, ...], Fraction] = {}
        for g, share in zip(assignments, shares):
            v = tuple(g[m] for m in ctx)
            row[v] = row.get(v, Fraction(0)) + Fraction(share, sum(shares))
        rows.append(row)
    return rows


def perturb(rng: random.Random, scenario: Scenario, rows):
    """Move part of one entry's weight to another section of its row, in
    one or two contexts; rows still sum to one."""
    rows = [dict(row) for row in rows]
    for ci in rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 2))):
        row = rows[ci]
        source = rng.choice(sorted(row))
        target = rng.choice([v for v in product(scenario.outcomes, repeat=len(scenario.contexts[ci])) if v != source])
        moved = row[source] * rng.choice((Fraction(1, 2), Fraction(1)))
        row[source] -= moved
        row[target] = row.get(target, Fraction(0)) + moved
    return rows


def _weight_text(rng: random.Random, w: Fraction) -> str:
    k = rng.choice((1, 1, 2, 3))
    return str(w) if k == 1 else f"{w.numerator * k}/{w.denominator * k}"


def document_text(rng: random.Random, scenario: Scenario, rows) -> str:
    """The rows as a probabilities document: entries shuffled, up to two
    zero entries added per row, weights sometimes unreduced."""
    payload = []
    for ctx, row in zip(scenario.contexts, rows):
        entries = list(row.items())
        absent = [v for v in product(scenario.outcomes, repeat=len(ctx)) if v not in row]
        entries += [(v, Fraction(0)) for v in rng.sample(absent, min(len(absent), rng.randint(0, 2)))]
        rng.shuffle(entries)
        payload.append(
            [{"section": dict(zip(ctx, v)), "p": _weight_text(rng, w)} for v, w in entries]
        )
    return json.dumps(
        {
            "format": SCHEMA,
            "name": "mixture",
            "scenario": {
                "measurements": list(scenario.measurements),
                "contexts": [rng.sample(list(c), len(c)) for c in scenario.contexts],
                "outcomes": list(scenario.outcomes),
            },
            "probabilities": payload,
        }
    )


def section_rows(scenario: Scenario, text: str):
    """The (section, weight) entries of a document's rows, in the order
    written, zero entries included."""
    data = json.loads(text)
    return tuple(
        tuple((scenario.section(ctx, [e["section"][m] for m in ctx]), Fraction(e["p"])) for e in row)
        for ctx, row in zip(scenario.contexts, data["probabilities"])
    )


# ---------------------------------------------------------------------------
# agreement


def test_bell_table_agrees_with_the_reference():
    rows, support, _, printed, _ = assert_document_agrees(corpus_text("bell"))
    assert printed == corpus_text("bell")
    assert [len(s) for s in support] == [2, 4, 4, 4]
    table = bell_table()
    assert table.rows == rows
    assert_table_agrees(BIPARTITE, table.rows)


def test_uniform_tables_of_random_models_agree_with_the_reference():
    signalling = 0
    for model in random_models(80, seed=20261019):
        scenario = model.scenario
        rows = tuple(
            tuple((s, Fraction(1, len(sup))) for s in sup) for sup in model.supports
        )
        for validate in (True, False):
            found = assert_table_agrees(
                scenario, rows, validate, table=lambda: ProbabilityTable.uniform(model, validate)
            )
            if found is None:
                signalling += 1
    # only validation fails, on marginals: possibilistic no-signalling
    # does not force uniform weights to be no-signalling
    assert 0 < signalling < 80


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixtures_and_their_perturbations_agree_with_the_reference(seed):
    rng = random.Random(seed)
    kinds = {"valid": 0, "signalling": 0, "other": 0}
    for _ in range(60):
        scenario = random_scenario(rng)
        rows = mixture_rows(rng, scenario)
        for candidate in (rows, perturb(rng, scenario, rows)):
            text = document_text(rng, scenario, candidate)
            found = assert_document_agrees(text)
            assert_table_agrees(scenario, section_rows(scenario, text))
            if not _failed(found):
                kinds["valid"] += 1
            elif found[0] is SignallingError:
                kinds["signalling"] += 1
            else:
                kinds["other"] += 1
    # every mixture is no-signalling, so each document that fails signals
    assert kinds["other"] == 0
    assert kinds["valid"] >= 60 and kinds["signalling"] >= 20


def test_the_first_signalling_pair_lies_on_the_overlap_forest():
    # of the pairs with one overlap, those off the spanning forest join two
    # contexts that earlier forest pairs already join, and equal marginals
    # are transitive, so the first pair that differs is always on the
    # forest: the reference's scan over every pair names a forest pair
    rng = random.Random(7)
    off_forest = 0
    for _ in range(200):
        scenario = random_scenario(rng)
        index = scenario.overlap_index
        forest = {(i, j) for i, j, *_ in index.forest}
        off_forest += len(nerve_pairs(scenario)) - len(forest)
        text = document_text(rng, scenario, perturb(rng, scenario, mixture_rows(rng, scenario)))
        found = assert_document_agrees(text)
        if found[0] is SignallingError:
            i, j = map(scenario.contexts.index, found[3])
            assert (i, j) in forest
    assert off_forest > 0


BELL = json.loads(corpus_text("bell"))


def _bell_with(row, entries):
    data = json.loads(json.dumps(BELL))
    data["probabilities"][row] = entries
    return json.dumps(data)


def _entry(a, b, p, first=("a1", "b1")):
    return {"section": {first[0]: a, first[1]: b}, "p": p}


MALFORMED = {
    "negative weight": _bell_with(0, [_entry(0, 0, "3/2"), _entry(1, 1, "-1/2")]),
    "negative weight after a zero": _bell_with(0, [_entry(0, 1, "0"), _entry(0, 0, "-1/2"), _entry(1, 1, "3/2")]),
    "row sums to less than one": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, "1/4")]),
    "row sums to more than one": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, "3/4")]),
    "duplicate section": _bell_with(0, [_entry(0, 0, "1/4"), _entry(0, 0, "1/4"), _entry(1, 1, "1/2")]),
    "duplicate with zero first": _bell_with(0, [_entry(0, 0, "0"), _entry(0, 0, "1/2"), _entry(1, 1, "1/2")]),
    "duplicate with zero last": _bell_with(0, [_entry(0, 0, "1/2"), _entry(0, 0, "0"), _entry(1, 1, "1/2")]),
    "duplicate zeros": _bell_with(0, [_entry(0, 1, "0"), _entry(0, 0, "1/2"), _entry(0, 1, "0/3"), _entry(1, 1, "1/2")]),
    "all-zero row": _bell_with(0, [_entry(0, 0, "0"), _entry(1, 1, "0")]),
    "empty row": _bell_with(0, []),
    "signalling row": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 0, "1/2")]),
    "extra entry field": _bell_with(0, [_entry(0, 0, "1/2"), {**_entry(1, 1, "1/2"), "q": 1}]),
    "entry without p": _bell_with(0, [_entry(0, 0, "1/2"), {"section": {"a1": 1, "b1": 1}}]),
    "entry without a section": _bell_with(0, [_entry(0, 0, "1/2"), {"p": "1/2", "s": {}}]),
    "entry not an object": _bell_with(0, [_entry(0, 0, "1/2"), ["1/2"]]),
    "section with another measurement": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, "1/2", ("a1", "b2"))]),
    "section with an extra measurement": _bell_with(
        0, [_entry(0, 0, "1/2"), {"section": {"a1": 1, "b1": 1, "b2": 0}, "p": "1/2"}]
    ),
    "section missing a measurement": _bell_with(0, [_entry(0, 0, "1/2"), {"section": {"a1": 1}, "p": "1/2"}]),
    "outcome outside the alphabet": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 2, "1/2")]),
    "boolean outcome": _bell_with(0, [_entry(0, 0, "1/2"), _entry(True, 1, "1/2")]),
    "invalid rational": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, "one half")]),
    "zero denominator": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, "1/0")]),
    "weight not a string": _bell_with(0, [_entry(0, 0, "1/2"), _entry(1, 1, 0.5)]),
    "row not a list": _bell_with(0, {"p": "1"}),
    "negative weight before a malformed row": _bell_with(
        1, [_entry(0, 0, "1/2", ("a1", "b2")), _entry(1, 1, "x", ("a1", "b2"))]
    ).replace('"p": "1/2"', '"p": "-1/2"', 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_fail_as_the_reference_fails(case):
    found = assert_document_agrees(MALFORMED[case])
    assert isinstance(found[0], type)


def test_a_repeated_section_is_rejected_whatever_its_weights_and_order():
    message = "duplicate section a1=0,b1=0 in row for ('a1', 'b1')"
    zero, half = _entry(0, 0, "0"), _entry(0, 0, "1/2")
    for entries in ([zero, half], [half, zero]):
        text = _bell_with(0, [*entries, _entry(1, 1, "1/2")])
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert type(err.value) is ModelError and str(err.value) == message
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    t = BIPARTITE.section(("a1", "b1"), (1, 1))
    for row in (((s, 0), (s, Fraction(1, 2)), (t, Fraction(1, 2))), ((s, Fraction(1, 2)), (t, Fraction(1, 2)), (s, 0))):
        with pytest.raises(ModelError) as err:
            ProbabilityTable(BIPARTITE, (row, *bell_table().rows[1:]), validate=False)
        assert str(err.value) == message
        assert_table_agrees(BIPARTITE, (row, *bell_table().rows[1:]))


def test_an_entry_is_checked_before_a_later_entry_fails_to_convert():
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    rest = bell_table().rows[1:]
    with pytest.raises(NormalisationError, match="negative probability -1/2"):
        ProbabilityTable(BIPARTITE, (((s, Fraction(-1, 2)), (s, "x")), *rest))
    with pytest.raises(ValueError):
        ProbabilityTable(BIPARTITE, (((s, Fraction(1, 2)), (s, "x")), *rest))


def test_tables_are_immutable_values():
    table = bell_table()
    again = parse_model(corpus_text("bell")).table
    assert table == again and hash(table) == hash(again)
    assert support_of_probability_table(again) is support_of_probability_table(again)
    with pytest.raises(AttributeError):
        table.rows = ()
