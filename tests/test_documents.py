"""Document layer: canonical print/parse inverses (byte-for-byte on the
bundled corpus), path-carrying diagnostics, and materialisation of every
payload kind."""

import hashlib
import json

import pytest

from contextuality import (
    DegenerateModelError,
    DocumentError,
    LiarCycle,
    ModelDocument,
    NormalisationError,
    SCHEMA,
    SignallingError,
    UnknownCorpusEntryError,
    corpus,
    corpus_names,
    corpus_text,
    document_from_equations,
    document_from_liar_cycle,
    document_from_model,
    document_from_table,
    document_from_triple,
    document_hash,
    ghz_model,
    liar_cycle_model,
    materialize,
    parse_model,
    print_model,
    support_of_probability_table,
)

from conftest import BIPARTITE, bell_table, pr_box


def doc(payload: str, **extra) -> str:
    data = {
        "format": SCHEMA,
        "scenario": {
            "measurements": ["a1", "b1"],
            "contexts": [["a1", "b1"]],
            "outcomes": [0, 1],
        },
    }
    data.update(json.loads(payload) if isinstance(payload, str) else payload)
    data.update(extra)
    return json.dumps(data)


SUPPORTS = '{"supports": [[{"a1": 0, "b1": 0}, {"a1": 1, "b1": 1}]]}'


# ---------------------------------------------------------------------------
# canonical form


def test_corpus_round_trips_byte_for_byte(corpus_documents):
    for name in corpus_names():
        text = corpus_text(name)
        parsed = parse_model(text)
        assert print_model(parsed) == text
        assert document_hash(parsed) == hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()


def test_corpus_names_and_metadata(corpus_documents):
    assert corpus_names() == (
        "bell",
        "hardy",
        "pr-box",
        "ghz-mermin",
        "specker-triangle",
        "liar-4",
        "box-25",
        "peres-mermin-square",
        "ks-18",
    )
    for name, document in corpus_documents.items():
        assert document.name == name
    for name in ("peres-mermin-square", "ks-18"):
        assert corpus_documents[name].provenance.startswith("external:")
    with pytest.raises(UnknownCorpusEntryError):
        corpus("no-such-entry")


def test_print_parse_inverse_on_constructed_documents():
    documents = [
        document_from_model(pr_box(), name="pr", notes="n"),
        document_from_table(bell_table(), provenance="made up"),
        document_from_equations(
            BIPARTITE, 2, (({"a1": 1, "b1": 1}, 0), ({"a1": 1}, 1))
        ),
        document_from_liar_cycle(4, name="liar"),
        document_from_triple(
            tuple(__import__("contextuality").GHZ_TRIPLE),
            ghz_model().scenario,
        ),
    ]
    for document in documents:
        text = print_model(document)
        again = parse_model(text)
        assert print_model(again) == text
        assert again.payload_kind == document.payload_kind
        assert document_hash(again) == document_hash(document)


def test_hashes_distinguish_corpus_entries(corpus_documents):
    hashes = {document_hash(d) for d in corpus_documents.values()}
    assert len(hashes) == len(corpus_documents)


def test_modulus_outcome_form_round_trips():
    text = doc(
        {
            "scenario": {
                "measurements": ["a1", "b1"],
                "contexts": [["a1", "b1"]],
                "outcomes": {"modulus": 3},
            },
            "supports": [[{"a1": 0, "b1": 2}]],
        }
    )
    parsed = parse_model(text)
    assert parsed.scenario.outcomes == (0, 1, 2)
    assert parsed.ring_outcomes
    printed = print_model(parsed)
    assert '"modulus": 3' in printed
    assert parse_model(printed).scenario == parsed.scenario


# ---------------------------------------------------------------------------
# diagnostics


def test_json_and_shape_errors():
    with pytest.raises(DocumentError, match="invalid JSON at line 1"):
        parse_model("{not json")
    # nesting deeper than the decoder recurses, and an integer longer than
    # int() converts, fail at the root like any invalid JSON
    for text in ("[" * 100_000 + "]" * 100_000, '{"format": ' + "1" * 5000 + "}"):
        with pytest.raises(DocumentError, match="^invalid JSON: ") as err:
            parse_model(text)
        assert err.value.path == "$"
    with pytest.raises(DocumentError, match=r"expected an object"):
        parse_model("[]")
    with pytest.raises(DocumentError, match=r"\$\.bogus"):
        parse_model(doc(SUPPORTS, bogus=1))
    with pytest.raises(DocumentError, match="missing field 'format'"):
        parse_model('{"scenario": {}}')
    with pytest.raises(DocumentError, match=r"\$\.format"):
        parse_model(doc(SUPPORTS, format="contextuality-model/0"))
    with pytest.raises(DocumentError, match=r"\$\.name"):
        parse_model(doc(SUPPORTS, name=3))


def test_payload_multiplicity_errors():
    with pytest.raises(DocumentError, match="exactly one payload"):
        parse_model(doc(SUPPORTS, liar_cycle={"length": 4}))
    with pytest.raises(DocumentError, match="exactly one payload"):
        parse_model(doc("{}"))


def test_scenario_errors():
    with pytest.raises(DocumentError, match=r"\$\.scenario\.measurements"):
        parse_model(doc(SUPPORTS, scenario={"measurements": "a", "contexts": [], "outcomes": []}))
    with pytest.raises(DocumentError, match=r"\$\.scenario\.contexts\[0\]\[0\]"):
        parse_model(
            doc(
                SUPPORTS,
                scenario={
                    "measurements": ["a1", "b1"],
                    "contexts": [[0, "b1"]],
                    "outcomes": [0, 1],
                },
            )
        )
    with pytest.raises(DocumentError, match=r"\$\.scenario\.outcomes\.modulus"):
        parse_model(
            doc(
                SUPPORTS,
                scenario={
                    "measurements": ["a1", "b1"],
                    "contexts": [["a1", "b1"]],
                    "outcomes": {"modulus": 1},
                },
            )
        )
    # booleans are not integers here, even though Python thinks so
    with pytest.raises(DocumentError, match="got a boolean"):
        parse_model(
            doc(
                SUPPORTS,
                scenario={
                    "measurements": ["a1", "b1"],
                    "contexts": [["a1", "b1"]],
                    "outcomes": [True, 1],
                },
            )
        )


def test_support_payload_errors():
    with pytest.raises(DocumentError, match="one per context"):
        parse_model(doc('{"supports": []}'))
    with pytest.raises(DocumentError, match=r"\$\.supports\[0\]\[0\]\.zz"):
        parse_model(doc('{"supports": [[{"a1": 0, "b1": 0, "zz": 0}]]}'))
    with pytest.raises(DocumentError, match="missing value for 'b1'"):
        parse_model(doc('{"supports": [[{"a1": 0}]]}'))
    with pytest.raises(DocumentError, match="not in the alphabet"):
        parse_model(doc('{"supports": [[{"a1": 0, "b1": 7}]]}'))
    # every section that fails the one-check read of a supports payload is
    # reported exactly as the field-by-field check reports it; the valid
    # section first makes the offence the second one of its row
    valid = {"a1": 0, "b1": 0}
    offences = [
        ([0, 1], "$.supports[0][1]", "expected a section object, got list"),
        ({"a1": True, "b1": 0}, "$.supports[0][1].a1", "expected an integer outcome, got a boolean"),
        ({"a1": 0, "b1": "0"}, "$.supports[0][1].b1", "expected an integer outcome, got str"),
        ({"a1": 0.0, "b1": 0}, "$.supports[0][1].a1", "expected an integer outcome, got float"),
        ({}, "$.supports[0][1]", "missing value for 'a1'"),
        ({"a1": 0, "zz": 0}, "$.supports[0][1].zz", "'zz' is not a measurement of context ('a1', 'b1')"),
        ({"zz": 0, "a1": 0}, "$.supports[0][1].zz", "'zz' is not a measurement of context ('a1', 'b1')"),
        ({"a1": 2, "b1": 0}, "$.supports[0][1].a1", "outcome 2 is not in the alphabet (0, 1)"),
    ]
    for section, path, message in offences:
        with pytest.raises(DocumentError) as err:
            parse_model(doc({"supports": [[valid, section]]}))
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
    with pytest.raises(DocumentError) as err:
        parse_model(doc({"supports": [valid]}))
    assert (err.value.path, str(err.value)) == (
        "$.supports[0]",
        "$.supports[0]: expected a list of sections, got dict",
    )


def test_a_measurement_name_that_is_not_a_string_carries_its_path():
    document = json.loads(doc('{"supports": [[{"a1": 0, "b1": 0}]]}'))
    document["scenario"]["measurements"] = ["a1", 1]
    with pytest.raises(DocumentError) as err:
        parse_model(json.dumps(document))
    path = "$.scenario.measurements[1]"
    assert (err.value.path, str(err.value)) == (path, f"{path}: expected a measurement name, got int")


def test_probability_payload_errors():
    def table(p):
        return doc(
            json.dumps(
                {
                    "probabilities": [
                        [
                            {"section": {"a1": 0, "b1": 0}, "p": p},
                            {"section": {"a1": 1, "b1": 1}, "p": "1/2"},
                        ]
                    ]
                }
            )
        )

    with pytest.raises(DocumentError, match=r"\$\.probabilities\[0\]\[0\]\.p"):
        parse_model(table("3/0"))
    with pytest.raises(DocumentError, match="rational written as a string"):
        parse_model(table(0.5))
    with pytest.raises(NormalisationError):
        parse_model(table("1/4"))
    with pytest.raises(NormalisationError):
        parse_model(table("-1/2"))


def test_probability_payload_signalling_is_caught():
    text = json.dumps(
        {
            "format": SCHEMA,
            "scenario": {
                "measurements": ["a1", "a2", "b1", "b2"],
                "contexts": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
                "outcomes": [0, 1],
            },
            "probabilities": [
                [{"section": {"a1": 0, "b1": 0}, "p": "1"}],
                [{"section": {"a1": 1, "b2": 0}, "p": "1"}],
                [{"section": {"a2": 0, "b1": 0}, "p": "1"}],
                [{"section": {"a2": 0, "b2": 0}, "p": "1"}],
            ],
        }
    )
    with pytest.raises(SignallingError):
        parse_model(text)


def test_theory_payload_errors():
    def theory(equations):
        return doc(json.dumps({"theory": {"modulus": 2, "equations": equations}}))

    with pytest.raises(DocumentError, match=r"coefficients\.zz"):
        parse_model(theory([{"coefficients": {"zz": 1}, "constant": 0}]))
    with pytest.raises(DocumentError, match="no cover context"):
        parse_model(
            json.dumps(
                {
                    "format": SCHEMA,
                    "scenario": {
                        "measurements": ["a1", "a2", "b1", "b2"],
                        "contexts": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
                        "outcomes": [0, 1],
                    },
                    "theory": {
                        "modulus": 2,
                        "equations": [{"coefficients": {"a1": 1, "a2": 1}, "constant": 0}],
                    },
                }
            )
        )
    with pytest.raises(DocumentError, match=r"\$\.theory\.modulus"):
        parse_model(doc('{"theory": {"modulus": 1, "equations": []}}'))


def test_liar_and_triple_payload_errors():
    with pytest.raises(DocumentError, match=r"\$\.liar_cycle\.length"):
        parse_model(doc('{"liar_cycle": {"length": 0}}'))
    with pytest.raises(DocumentError, match=r"\$\.liar_cycle\.depth"):
        parse_model(doc('{"liar_cycle": {"length": 4, "depth": 1}}'))
    with pytest.raises(DocumentError, match="exactly three operators"):
        parse_model(doc('{"pauli_triple": {"operators": ["XX", "YY"]}}'))
    with pytest.raises(DocumentError, match=r"operators\[1\]"):
        parse_model(doc('{"pauli_triple": {"operators": ["XX", "WW", "YY"]}}'))
    with pytest.raises(DocumentError, match="share an arity"):
        parse_model(doc('{"pauli_triple": {"operators": ["XX", "YYY", "XX"]}}'))
    # a cycle shorter than three, and a triple of identities, denote no
    # model: both fail at parse time, at their own path
    for n in (1, 2):
        with pytest.raises(DocumentError) as err:
            parse_model(doc({"liar_cycle": {"length": n}}))
        assert (err.value.path, str(err.value)) == (
            "$.liar_cycle.length",
            f"$.liar_cycle.length: length must be at least 3, got {n}",
        )
        with pytest.raises(DegenerateModelError):
            liar_cycle_model(n)
    for identities in (["II", "II", "II"], ["I", "I", "I"]):
        with pytest.raises(DocumentError) as err:
            parse_model(doc({"pauli_triple": {"operators": identities}}))
        assert (err.value.path, str(err.value)) == (
            "$.pauli_triple.operators",
            "$.pauli_triple.operators: the triple measures nothing",
        )


MISSING_FIELDS = [
    (
        doc({"scenario": {"measurements": ["a1", "b1"], "contexts": [["a1", "b1"]]}}),
        "$.scenario",
        "missing field 'outcomes'",
    ),
    (
        doc({"scenario": {"measurements": ["a1", "b1"], "contexts": [["a1", "b1"]], "outcomes": {}}}),
        "$.scenario.outcomes",
        "missing field 'modulus'",
    ),
    (doc({"probabilities": []}), "$.probabilities", "expected 1 rows (one per context), got 0"),
    (
        doc({"probabilities": [[{"section": {"a1": 0, "b1": 0}}]]}),
        "$.probabilities[0][0]",
        "missing field 'p'",
    ),
    (doc({"theory": {"modulus": 2}}), "$.theory", "missing field 'equations'"),
    (
        doc({"theory": {"modulus": 2, "equations": [{"coefficients": {"a1": 1}}]}}),
        "$.theory.equations[0]",
        "missing field 'constant'",
    ),
    (doc({"liar_cycle": {}}), "$.liar_cycle", "missing field 'length'"),
    (doc({"pauli_triple": {}}), "$.pauli_triple", "missing field 'operators'"),
    (json.dumps({"format": SCHEMA, "supports": []}), "$", "missing field 'scenario'"),
]

TOP = json.loads(doc(SUPPORTS))
SCENARIO = TOP["scenario"]
ENTRY = {"section": {"a1": 0, "b1": 0}, "p": "1"}
EQUATION = {"coefficients": {"a1": 1}, "constant": 0}
THEORY = {"modulus": 2, "equations": [EQUATION]}
TRIPLE = {"operators": ["XX", "YY", "ZZ"]}


def without(obj: dict, *fields: str, **extra) -> dict:
    return {**{k: v for k, v in obj.items() if k not in fields}, **extra}


def with_scenario(scenario) -> str:
    return doc(SUPPORTS, scenario=scenario)


def with_outcomes(outcomes) -> str:
    return with_scenario({**SCENARIO, "outcomes": outcomes})


def with_entry(entry) -> str:
    return doc({"probabilities": [[entry]]})


def with_equation(equation) -> str:
    return doc({"theory": {**THEORY, "equations": [equation]}})


def bipartite(payload: dict) -> str:
    scenario = {
        "measurements": ["a1", "a2", "b1", "b2"],
        "contexts": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
        "outcomes": [0, 1],
    }
    return json.dumps({"format": SCHEMA, "scenario": scenario, **payload})


UNKNOWN = "unknown field 'zz'"
NOT_AN_OBJECT = "expected an object, got list"

# every JSON object of a document against each shape offence: a list in its
# place, an unknown field, each required field missing, and an unknown field
# with a missing one (the unknown is reported); then the rows-per-context and
# modulus rules, and documents with two offences, of which the first is
# reported; (id, text, path, message)
OBJECT_SHAPES = [
    ("$ list", json.dumps([TOP]), "$", NOT_AN_OBJECT),
    ("$ zz", doc(SUPPORTS, zz=0), "$.zz", UNKNOWN),
    ("$ -format", json.dumps(without(TOP, "format")), "$", "missing field 'format'"),
    ("$ zz -format", json.dumps(without(TOP, "format", zz=0)), "$.zz", UNKNOWN),
    (
        "$ format before scenario",
        json.dumps({"format": "contextuality-model/0", "supports": []}),
        "$.format",
        f"unsupported format 'contextuality-model/0'; this reader understands {SCHEMA!r}",
    ),
    ("$ name before scenario", json.dumps({"format": SCHEMA, "name": 3}), "$.name", "expected a string, got int"),
    ("$ no payload", json.dumps(without(TOP, "supports")), "$", (
        "a document carries exactly one payload out of ('supports', 'probabilities', "
        "'theory', 'liar_cycle', 'pauli_triple'), found none"
    )),
    ("$.scenario list", with_scenario([SCENARIO]), "$.scenario", NOT_AN_OBJECT),
    ("$.scenario zz", with_scenario({**SCENARIO, "zz": 0}), "$.scenario.zz", UNKNOWN),
    (
        "$.scenario -measurements",
        with_scenario(without(SCENARIO, "measurements")),
        "$.scenario",
        "missing field 'measurements'",
    ),
    ("$.scenario -contexts", with_scenario(without(SCENARIO, "contexts")), "$.scenario", "missing field 'contexts'"),
    # two unknown fields: the first in the object's own order, not sorted
    ("$.scenario zz yy -outcomes", with_scenario(without(SCENARIO, "outcomes", zz=0, yy=0)), "$.scenario.zz", UNKNOWN),
    (
        "$.scenario.outcomes list",
        with_outcomes([{"modulus": 2}]),
        "$.scenario.outcomes[0]",
        "expected an integer outcome, got dict",
    ),
    (
        "$.scenario.outcomes str",
        with_outcomes("01"),
        "$.scenario.outcomes",
        "expected a list or a modulus object, got str",
    ),
    ("$.scenario.outcomes zz", with_outcomes({"modulus": 2, "zz": 0}), "$.scenario.outcomes.zz", UNKNOWN),
    ("$.scenario.outcomes zz -modulus", with_outcomes({"zz": 0}), "$.scenario.outcomes.zz", UNKNOWN),
    (
        "$.scenario.outcomes.modulus 1",
        with_outcomes({"modulus": 1}),
        "$.scenario.outcomes.modulus",
        "modulus must be at least 2, got 1",
    ),
    (
        "$.scenario.outcomes.modulus str",
        with_outcomes({"modulus": "2"}),
        "$.scenario.outcomes.modulus",
        "expected an integer, got str",
    ),
    ("$.supports rows", doc({"supports": []}), "$.supports", "expected 1 rows (one per context), got 0"),
    (
        "$.probabilities rows",
        doc({"probabilities": [[ENTRY], [ENTRY]]}),
        "$.probabilities",
        "expected 1 rows (one per context), got 2",
    ),
    ("$.probabilities[0][0] list", with_entry([ENTRY]), "$.probabilities[0][0]", NOT_AN_OBJECT),
    ("$.probabilities[0][0] zz", with_entry({**ENTRY, "zz": 0}), "$.probabilities[0][0].zz", UNKNOWN),
    (
        "$.probabilities[0][0] -section",
        with_entry(without(ENTRY, "section")),
        "$.probabilities[0][0]",
        "missing field 'section'",
    ),
    # two fields, as a valid entry has, but not the two it needs
    ("$.probabilities[0][0] zz -p", with_entry(without(ENTRY, "p", zz="1")), "$.probabilities[0][0].zz", UNKNOWN),
    ("$.theory list", doc({"theory": [THEORY]}), "$.theory", NOT_AN_OBJECT),
    ("$.theory zz", doc({"theory": {**THEORY, "zz": 0}}), "$.theory.zz", UNKNOWN),
    ("$.theory -modulus", doc({"theory": without(THEORY, "modulus")}), "$.theory", "missing field 'modulus'"),
    ("$.theory zz -modulus", doc({"theory": without(THEORY, "modulus", zz=0)}), "$.theory.zz", UNKNOWN),
    (
        "$.theory.modulus 1",
        doc({"theory": {**THEORY, "modulus": 1}}),
        "$.theory.modulus",
        "modulus must be at least 2, got 1",
    ),
    (
        "$.theory.modulus bool",
        doc({"theory": {**THEORY, "modulus": True}}),
        "$.theory.modulus",
        "expected an integer, got a boolean",
    ),
    ("$.theory.equations[0] list", with_equation([EQUATION]), "$.theory.equations[0]", NOT_AN_OBJECT),
    ("$.theory.equations[0] zz", with_equation({**EQUATION, "zz": 0}), "$.theory.equations[0].zz", UNKNOWN),
    (
        "$.theory.equations[0] -coefficients",
        with_equation(without(EQUATION, "coefficients")),
        "$.theory.equations[0]",
        "missing field 'coefficients'",
    ),
    (
        "$.theory.equations[0] zz -constant",
        with_equation(without(EQUATION, "constant", zz=0)),
        "$.theory.equations[0].zz",
        UNKNOWN,
    ),
    ("$.liar_cycle list", doc({"liar_cycle": [{"length": 4}]}), "$.liar_cycle", NOT_AN_OBJECT),
    ("$.liar_cycle zz", doc({"liar_cycle": {"length": 4, "zz": 0}}), "$.liar_cycle.zz", UNKNOWN),
    ("$.liar_cycle zz -length", doc({"liar_cycle": {"zz": 4}}), "$.liar_cycle.zz", UNKNOWN),
    ("$.pauli_triple list", doc({"pauli_triple": [TRIPLE]}), "$.pauli_triple", NOT_AN_OBJECT),
    ("$.pauli_triple zz", doc({"pauli_triple": {**TRIPLE, "zz": 0}}), "$.pauli_triple.zz", UNKNOWN),
    ("$.pauli_triple zz -operators", doc({"pauli_triple": {"zz": 0}}), "$.pauli_triple.zz", UNKNOWN),
    (
        "$.supports two faults",
        bipartite(
            {
                "supports": [
                    [{"a1": 0, "b1": 5}],
                    [{"a1": "0", "b2": 0}],
                    [{"a2": 0, "b1": 0}],
                    [{"a2": 0, "b2": 0}],
                ]
            }
        ),
        "$.supports[0][0].b1",
        "outcome 5 is not in the alphabet (0, 1)",
    ),
    (
        "$.probabilities two faults",
        bipartite(
            {
                "probabilities": [
                    [{"section": {"a1": 0, "b1": 0}, "p": "1/0"}],
                    [{"p": "1"}],
                    [{"section": {"a2": 0, "b1": 0}, "p": "1"}],
                    [{"section": {"a2": 0, "b2": 0}, "p": "1"}],
                ]
            }
        ),
        "$.probabilities[0][0].p",
        "invalid rational '1/0': Fraction(1, 0)",
    ),
    # equation 0 lands on no context and equation 1 has a string constant:
    # equations are read and landed one at a time, so equation 0 is reported
    (
        "$.theory two faults",
        bipartite(
            {
                "theory": {
                    "modulus": 2,
                    "equations": [
                        {"coefficients": {"a1": 1, "a2": 1}, "constant": 0},
                        {"coefficients": {"a1": 1}, "constant": "1"},
                    ],
                }
            }
        ),
        "$.theory.equations[0]",
        "no cover context contains ['a1', 'a2'] jointly",
    ),
]


@pytest.mark.parametrize(
    "text, path, message",
    MISSING_FIELDS + [case[1:] for case in OBJECT_SHAPES],
    ids=[path for _, path, _ in MISSING_FIELDS] + [case[0] for case in OBJECT_SHAPES],
)
def test_missing_fields_and_row_counts_carry_their_path(text, path, message):
    with pytest.raises(DocumentError) as err:
        parse_model(text)
    # an offence at the root carries no path prefix
    assert (err.value.path, str(err.value)) == (
        path,
        message if path == "$" else f"{path}: {message}",
    )


SURROGATE = "a string with a lone surrogate cannot be written as UTF-8"


@pytest.mark.parametrize("field", ["name", "notes", "provenance"])
def test_metadata_that_utf8_cannot_encode_is_rejected(field):
    # the escape is kept in the text, so json.loads makes the lone surrogate
    text = doc(SUPPORTS, **{field: "ok"}).replace('"ok"', '"x\\ud800"')
    with pytest.raises(DocumentError) as err:
        parse_model(text)
    assert (err.value.path, str(err.value)) == (f"$.{field}", f"$.{field}: {SURROGATE}")
    # a surrogate pair written as two escapes is one astral character
    text = doc(SUPPORTS, **{field: "ok"}).replace('"ok"', '"x\\ud83d\\ude00"')
    assert getattr(parse_model(text), field) == "x\U0001f600"


def test_a_measurement_label_that_utf8_cannot_encode_is_rejected():
    document = json.loads(corpus_text("pr-box"))
    document["scenario"]["measurements"][1] = "\udc00"
    with pytest.raises(DocumentError) as err:
        parse_model(json.dumps(document))
    path = "$.scenario.measurements[1]"
    assert (err.value.path, str(err.value)) == (path, f"{path}: {SURROGATE}")


def test_root_errors_carry_no_path_prefix():
    try:
        parse_model("[]")
    except DocumentError as exc:
        assert not str(exc).startswith("$")


# ---------------------------------------------------------------------------
# materialisation and constructors


def test_materialize_each_payload_kind(corpus_documents, corpus_models):
    assert corpus_models["pr-box"].supports == pr_box().supports
    bell = corpus_models["bell"]
    assert sorted(len(s) for s in bell.supports) == [2, 4, 4, 4]
    assert bell.supports == support_of_probability_table(bell_table()).supports
    assert corpus_models["ghz-mermin"] == ghz_model()
    assert corpus_models["liar-4"] == liar_cycle_model(4)


def test_materialize_rejects_mismatched_liar_scenario():
    bad = ModelDocument(
        scenario=BIPARTITE, payload_kind="liar_cycle", liar_cycle=LiarCycle(4)
    )
    with pytest.raises(DocumentError, match=r"\$\.scenario"):
        materialize(bad)


def test_equation_documents_expand_onto_containing_contexts():
    document = document_from_equations(
        BIPARTITE, 2, (({"a1": 1, "b1": 1}, 0), ({"a1": 1, "b2": 2}, 1))
    )
    # the b2 coefficient reduces to zero, so the second equation mentions a1
    # alone and lands on both contexts containing it
    assert len(document.raw_equations) == 2
    assert document.raw_equations[1].coefficients == (("a1", 1),)
    contexts = sorted(eq.context for eq in document.theory.equations)
    assert contexts == [("a1", "b1"), ("a1", "b1"), ("a1", "b2")]
    with pytest.raises(DocumentError, match="no cover context"):
        document_from_equations(BIPARTITE, 2, (({"a1": 1, "a2": 1}, 0),))
