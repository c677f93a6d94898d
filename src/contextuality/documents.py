"""Reading and writing model documents.

One JSON document describes one model: a scenario block plus exactly one
payload (explicit supports, exact probabilities, a linear theory, a liar
cycle, or a Pauli triple). Parsing is total: any malformed input becomes a
DocumentError carrying the JSON path of the first offence. Printing is
canonical, so parse and print are mutually inverse on printed documents and
hashing the printed bytes identifies the model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import itemgetter, mul
from typing import Any, Collection, Iterable, Mapping

from .errors import DocumentError, PauliError
from .model import EmpiricalModel, ProbabilityTable, support_of_probability_table
from .paradox import LiarCycle, liar_cycle_model
from .pauli import PauliOperator, generate_subgroup, theory_of_subgroup, triple_scenario
from .rings import RingSpec
from .scenario import Scenario
from .theory import LinearEquation, Theory, equations_on_cover, model_of_theory

SCHEMA = "contextuality-model/1"

PAYLOAD_KINDS = ("supports", "probabilities", "theory", "liar_cycle", "pauli_triple")

_METADATA = ("name", "notes", "provenance")

_TOP_KEYS = {"format", "scenario", *_METADATA, *PAYLOAD_KINDS}

# the only types each JSON list may hold, for one-pass checks
_STR, _LIST, _DICT, _INT = {str}, {list}, {dict}, {int}

# the JSON of None and the booleans
_JSON_LITERALS = {None: "null", True: "true", False: "false"}


@dataclass(frozen=True)
class RawEquation:
    """A theory equation as written: nonzero coefficients by measurement,
    expanded onto every cover context that contains them jointly."""

    coefficients: tuple[tuple[str, int], ...]
    constant: int


@dataclass(frozen=True)
class ModelDocument:
    scenario: Scenario
    payload_kind: str
    model: EmpiricalModel | None = None
    table: ProbabilityTable | None = None
    theory: Theory | None = None
    raw_equations: tuple[RawEquation, ...] | None = None
    modulus: int | None = None
    liar_cycle: LiarCycle | None = None
    pauli_triple: tuple[PauliOperator, ...] | None = None
    name: str | None = None
    notes: str | None = None
    provenance: str | None = None
    ring_outcomes: bool = False  # outcomes written as {"modulus": n}


# ---------------------------------------------------------------------------
# parsing


def _expect(value: Any, kind: type, what: str, path: str):
    if kind is int and isinstance(value, bool):
        raise DocumentError(f"expected {what}, got a boolean", path=path)
    if not isinstance(value, kind):
        raise DocumentError(
            f"expected {what}, got {type(value).__name__}", path=path
        )
    return value


def _check_keys(obj: Mapping, allowed: Collection[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"unknown field {key!r}", path=f"{path}.{key}")


def _object(obj: Any, fields: tuple[str, ...], path: str) -> Mapping:
    """`obj`, an object with exactly these fields. The offence is the first
    unknown field, in the object's own order, then the first missing one."""
    _expect(obj, dict, "an object", path)
    _check_keys(obj, fields, path)
    for field in fields:
        if field not in obj:
            raise DocumentError(f"missing field {field!r}", path=path)
    return obj


def _encodable(texts: list[str], path_of) -> None:
    """Rejects a string that UTF-8 cannot encode: one holding a lone
    surrogate, as the JSON escape "\\ud800" writes. The strings are encoded
    once, together, and walked only to name the offender, at `path_of(i)`."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        for i, text in enumerate(texts):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise DocumentError(
                    "a string with a lone surrogate cannot be written as UTF-8", path=path_of(i)
                ) from None


def _rows(obj: Any, scenario: Scenario, what: str, path: str) -> list:
    """A payload's list of rows, one per context."""
    rows = _expect(obj, list, f"a list of {what} rows", path)
    if len(rows) != len(scenario.contexts):
        raise DocumentError(
            f"expected {len(scenario.contexts)} rows (one per context), got {len(rows)}",
            path=path,
        )
    return rows


def _modulus(value: Any, path: str) -> int:
    n = _expect(value, int, "an integer", path)
    if n < 2:
        raise DocumentError(f"modulus must be at least 2, got {n}", path=path)
    return n


def _parse_scenario(obj: Any, path: str) -> tuple[Scenario, bool]:
    _object(obj, ("measurements", "contexts", "outcomes"), path)
    # each list is type-checked in one pass, and walked item by item only
    # to name the first offence
    measurements = _expect(obj["measurements"], list, "a list", f"{path}.measurements")
    if not set(map(type, measurements)) <= _STR:
        for i, m in enumerate(measurements):
            _expect(m, str, "a measurement name", f"{path}.measurements[{i}]")
    _encodable(measurements, lambda i: f"{path}.measurements[{i}]")
    contexts = _expect(obj["contexts"], list, "a list", f"{path}.contexts")
    if not (
        set(map(type, contexts)) <= _LIST
        and set(map(type, chain.from_iterable(contexts))) <= _STR
    ):
        for i, ctx in enumerate(contexts):
            _expect(ctx, list, "a list of measurement names", f"{path}.contexts[{i}]")
            for j, m in enumerate(ctx):
                _expect(m, str, "a measurement name", f"{path}.contexts[{i}][{j}]")
    outcomes_obj = obj["outcomes"]
    ring_outcomes = False
    if isinstance(outcomes_obj, dict):
        _object(outcomes_obj, ("modulus",), f"{path}.outcomes")
        outcomes = tuple(range(_modulus(outcomes_obj["modulus"], f"{path}.outcomes.modulus")))
        ring_outcomes = True
    else:
        outcomes_list = _expect(outcomes_obj, list, "a list or a modulus object", f"{path}.outcomes")
        if not set(map(type, outcomes_list)) <= _INT:
            for i, o in enumerate(outcomes_list):
                _expect(o, int, "an integer outcome", f"{path}.outcomes[{i}]")
        outcomes = tuple(outcomes_list)
    scenario = Scenario(tuple(measurements), tuple(map(tuple, contexts)), outcomes)
    return scenario, ring_outcomes


def _parse_section(obj: Any, scenario: Scenario, context: tuple[str, ...], path: str) -> tuple[int, ...]:
    """The outcome tuple, in context order, of a section object over the context."""
    _expect(obj, dict, "a section object", path)
    for m in obj:
        if m not in context:
            raise DocumentError(
                f"{m!r} is not a measurement of context {context}", path=f"{path}.{m}"
            )
    for m in context:
        if m not in obj:
            raise DocumentError(f"missing value for {m!r}", path=path)
        o = _expect(obj[m], int, "an integer outcome", f"{path}.{m}")
        if o not in scenario.outcomes:
            raise DocumentError(
                f"outcome {o} is not in the alphabet {scenario.outcomes}",
                path=f"{path}.{m}",
            )
    return tuple(obj[m] for m in context)


def _parse_supports(obj: Any, scenario: Scenario, path: str) -> EmpiricalModel:
    """The model of a supports payload, read straight into outcome tuples.

    The payload passes in a few whole-payload checks (`_read_sections`) and
    its tuples go to the model unchecked. Otherwise the rows are walked
    section by section, and `_parse_section` reports the first offence."""
    rows = _rows(obj, scenario, "support", path)
    values = _read_sections(scenario, rows) if set(map(type, rows)) <= _LIST else None
    if values is not None:
        return EmpiricalModel._of_checked_values(scenario, values)
    values = []
    for i, (ctx, row) in enumerate(zip(scenario.contexts, rows)):
        _expect(row, list, "a list of sections", f"{path}[{i}]")
        values.append(
            [_parse_section(s, scenario, ctx, f"{path}[{i}][{j}]") for j, s in enumerate(row)]
        )
    return EmpiricalModel._of_checked_values(scenario, values)


def _read_sections(scenario: Scenario, rows: list[list]) -> list[list[tuple[int, ...]]] | None:
    """The outcome tuples, in context order, of one list of section objects
    per context, or None when a section is not an object holding every
    measurement of its context, and as many keys as the context has
    measurements, with integer values of the alphabet."""
    contexts = scenario.contexts
    if not set(map(type, chain.from_iterable(rows))) <= _DICT:
        return None
    try:
        values = list(map(list, map(map, map(_reader, contexts), rows)))
    except KeyError:
        return None
    # every key of a context is in each of its sections, so equal key
    # counts leave no other key; booleans and floats equal to an outcome
    # fail the type check
    keys = sum(map(len, chain.from_iterable(rows)))
    found = list(chain.from_iterable(chain.from_iterable(values)))
    if (
        keys == sum(map(mul, map(len, contexts), map(len, rows)))
        and set(map(type, found)) <= _INT
        and set(scenario.outcomes).issuperset(found)
    ):
        return values
    return None


def _reader(context: tuple[str, ...]):
    """Reads a section object's outcomes in context order, as a tuple."""
    if len(context) == 1:
        (m,) = context
        return lambda s: (s[m],)
    return itemgetter(*context)


def _parse_fraction(value: Any, path: str) -> Fraction:
    text = _expect(value, str, 'a rational written as a string like "3/8"', path)
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"invalid rational {text!r}: {exc}", path=path) from None
    return frac


def _parse_probabilities(obj: Any, scenario: Scenario, path: str) -> ProbabilityTable:
    """The table of a probabilities payload, read straight into outcome
    tuples and exact weights.

    The payload passes in a few whole-payload checks: lists of entry
    objects with exactly the fields "section" and "p", sections that
    `_read_sections` accepts, and weights written as strings that
    `Fraction` reads, each distinct string read once. Otherwise the
    entries are walked one by one to report the first offence. The table
    then checks the weights."""
    rows = _rows(obj, scenario, "probability", path)
    read = _read_entries(scenario, rows) if set(map(type, rows)) <= _LIST else None
    if read is not None:
        return ProbabilityTable._of_checked_values(scenario, *read)
    values, weights = [], []
    for i, (ctx, row) in enumerate(zip(scenario.contexts, rows)):
        _expect(row, list, "a list of probability entries", f"{path}[{i}]")
        vs, ws = [], []
        for j, entry in enumerate(row):
            entry_path = f"{path}[{i}][{j}]"
            _object(entry, ("section", "p"), entry_path)
            vs.append(_parse_section(entry["section"], scenario, ctx, f"{entry_path}.section"))
            ws.append(_parse_fraction(entry["p"], f"{entry_path}.p"))
        values.append(vs)
        weights.append(ws)
    return ProbabilityTable._of_checked_values(scenario, values, weights)


_SECTION, _WEIGHT = itemgetter("section"), itemgetter("p")


def _read_entries(scenario: Scenario, rows: list[list]):
    """(outcome tuples, weights) of the rows of a probabilities payload, or
    None when an entry fails a check of `_parse_probabilities`."""
    entries = list(chain.from_iterable(rows))
    # two keys that are both the fields leave no other key
    if not (set(map(type, entries)) <= _DICT and sum(map(len, entries)) == 2 * len(entries)):
        return None
    try:
        sections = [list(map(_SECTION, row)) for row in rows]
        texts = [list(map(_WEIGHT, row)) for row in rows]
    except KeyError:
        return None
    if not set(map(type, chain.from_iterable(texts))) <= _STR:
        return None
    try:
        weight = {text: Fraction(text) for text in set(chain.from_iterable(texts))}
    except (ValueError, ZeroDivisionError):
        return None
    values = _read_sections(scenario, sections)
    return None if values is None else (values, [list(map(weight.__getitem__, row)) for row in texts])


def _parse_theory(obj: Any, scenario: Scenario, path: str) -> tuple[Theory, tuple[RawEquation, ...], int]:
    _object(obj, ("modulus", "equations"), path)
    modulus = _modulus(obj["modulus"], f"{path}.modulus")
    ring = RingSpec(modulus)
    equations_obj = _expect(obj["equations"], list, "a list of equations", f"{path}.equations")
    raw: list[RawEquation] = []
    expanded: list[LinearEquation] = []
    measurements = set(scenario.measurements)
    for i, eq in enumerate(equations_obj):
        eq_path = f"{path}.equations[{i}]"
        _object(eq, ("coefficients", "constant"), eq_path)
        coeffs_obj = _expect(eq["coefficients"], dict, "an object", f"{eq_path}.coefficients")
        constant = _expect(eq["constant"], int, "an integer", f"{eq_path}.constant")
        for m, c in coeffs_obj.items():
            if m not in measurements:
                raise DocumentError(
                    f"{m!r} is not a measurement of the scenario",
                    path=f"{eq_path}.coefficients.{m}",
                )
            _expect(c, int, "an integer", f"{eq_path}.coefficients.{m}")
        equation, landed = _expand_equation(ring, scenario, coeffs_obj, constant, eq_path)
        raw.append(equation)
        expanded.extend(landed)
    return Theory(ring, tuple(expanded)), tuple(raw), modulus


def _expand_equation(ring: RingSpec, scenario: Scenario, coefficients: Mapping, constant: int, path="$"):
    """The equation as written (canonical nonzero coefficients) and its
    copies on the cover contexts that contain its measurements jointly."""
    kept = {m: ring.canon(c) for m, c in coefficients.items() if ring.canon(c)}
    landed = equations_on_cover(ring, scenario, kept, constant)
    if not landed:
        raise DocumentError(f"no cover context contains {sorted(kept)} jointly", path=path)
    return RawEquation(tuple(sorted(kept.items())), ring.canon(constant)), landed


def _parse_liar(obj: Any, path: str) -> LiarCycle:
    length = _object(obj, ("length",), path)["length"]
    n = _expect(length, int, "an integer", f"{path}.length")
    if n < 3:
        # shorter cycles collapse onto one context whose constraints
        # contradict each other, so they denote no model
        raise DocumentError(f"length must be at least 3, got {n}", path=f"{path}.length")
    return LiarCycle(n)


def _parse_triple(obj: Any, path: str) -> tuple[PauliOperator, ...]:
    operators = _object(obj, ("operators",), path)["operators"]
    ops_obj = _expect(operators, list, "a list of three operators", f"{path}.operators")
    if len(ops_obj) != 3:
        raise DocumentError(
            f"expected exactly three operators, got {len(ops_obj)}", path=f"{path}.operators"
        )
    ops = []
    for i, text in enumerate(ops_obj):
        _expect(text, str, "an operator string", f"{path}.operators[{i}]")
        try:
            ops.append(PauliOperator.parse(text))
        except Exception as exc:
            raise DocumentError(str(exc), path=f"{path}.operators[{i}]") from None
    try:
        triple_scenario(*ops)
    except PauliError as exc:
        raise DocumentError(str(exc), path=f"{path}.operators") from None
    return tuple(ops)


def parse_model(text: str) -> ModelDocument:
    """Parse and validate a document. Schema offences become DocumentError
    with a path; domain offences (non-antichain cover, signalling
    probabilities, empty supports) surface as their own error types."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder recurses, or an integer longer
        # than int() converts
        raise DocumentError(f"invalid JSON: {exc}") from None
    _expect(data, dict, "an object", "$")
    _check_keys(data, _TOP_KEYS, "$")
    if "format" not in data:
        raise DocumentError("missing field 'format'", path="$")
    fmt = _expect(data["format"], str, "a string", "$.format")
    if fmt != SCHEMA:
        raise DocumentError(
            f"unsupported format {fmt!r}; this reader understands {SCHEMA!r}",
            path="$.format",
        )
    metadata = [field for field in _METADATA if field in data]
    for field in metadata:
        _expect(data[field], str, "a string", f"$.{field}")
    _encodable([data[field] for field in metadata], lambda i: f"$.{metadata[i]}")
    if "scenario" not in data:
        raise DocumentError("missing field 'scenario'", path="$")
    scenario, ring_outcomes = _parse_scenario(data["scenario"], "$.scenario")

    present = [k for k in PAYLOAD_KINDS if k in data]
    if len(present) != 1:
        raise DocumentError(
            "a document carries exactly one payload out of "
            f"{PAYLOAD_KINDS}, found {present or 'none'}",
            path="$",
        )
    kind = present[0]
    common = _common(*map(data.get, _METADATA), scenario, kind, ring_outcomes)
    if kind == "supports":
        return ModelDocument(model=_parse_supports(data[kind], scenario, "$.supports"), **common)
    if kind == "probabilities":
        return ModelDocument(table=_parse_probabilities(data[kind], scenario, "$.probabilities"), **common)
    if kind == "theory":
        theory, raw, modulus = _parse_theory(data[kind], scenario, "$.theory")
        return ModelDocument(theory=theory, raw_equations=raw, modulus=modulus, **common)
    if kind == "liar_cycle":
        return ModelDocument(liar_cycle=_parse_liar(data[kind], "$.liar_cycle"), **common)
    return ModelDocument(pauli_triple=_parse_triple(data[kind], "$.pauli_triple"), **common)


# ---------------------------------------------------------------------------
# printing


def _json_block(items: Iterable[str], newline: str, brackets: str = "[]") -> str:
    """Items already written, one to a line, inside the brackets, as
    `canonical_json` writes a list (or, with "{}", an object's members) that
    starts on a line beginning with `newline`."""
    inner = newline + "  "
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}{newline}{brackets[1]}" if body else brackets


def _scenario_json(doc: ModelDocument) -> str:
    """The scenario block, as `canonical_json` writes it under a top-level
    key, with each list of labels joined in one call."""
    scn = doc.scenario
    quote, level2, level3 = encode_basestring, "\n    ", "\n      "
    contexts = _json_block((_json_block(map(quote, c), level3) for c in scn.contexts), level2)
    measurements = _json_block(map(quote, scn.measurements), level2)
    if doc.ring_outcomes:
        outcomes = f'{{\n      "modulus": {len(scn.outcomes)}\n    }}'
    else:
        outcomes = _json_block(map(str, scn.outcomes), level2)
    return f"""{{
    "contexts": {contexts},
    "measurements": {measurements},
    "outcomes": {outcomes}
  }}"""


def _write_json(value: Any, quote, newline: str) -> str:
    """The indented JSON of `value`; `newline` is the line break plus the
    indentation of the line `value` starts on."""
    if isinstance(value, str):
        return quote(value)
    if value is None or value is True or value is False:
        return _JSON_LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        return _json_block([_write_json(item, quote, inner) for item in value], newline)
    if isinstance(value, dict):
        members = [f"{quote(key)}: {_write_json(value[key], quote, inner)}" for key in sorted(value)]
        return _json_block(members, newline, "{}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(value: Any, ensure_ascii: bool = True) -> str:
    """Exactly `json.dumps(value, indent=2, sort_keys=True,
    ensure_ascii=ensure_ascii)`, for values built from dicts with string
    keys, lists, tuples, strings, ints, finite floats, booleans and None;
    anything else is a TypeError.

    With `indent` set, `json.dumps` runs its pure-Python encoder; this writer
    makes one pass and quotes strings through `json.encoder`'s C routines.
    """
    quote = encode_basestring_ascii if ensure_ascii else encode_basestring
    return _write_json(value, quote, "\n")


def _section_template(context: tuple[str, ...], indent: str) -> str:
    """A `str.format` template of a section object over the context, as
    `canonical_json` writes it at `indent`: its measurements sorted and
    quoted, with the field {k} for the outcome at position k of the
    context. The fields format as integers, so an outcome given as a
    boolean in a section built in code prints as the integer it equals."""
    fields = ",".join(
        f"\n{indent}  " + encode_basestring(context[k]).replace("{", "{{").replace("}", "}}")
        + f": {{{k}:d}}"
        for k in sorted(range(len(context)), key=context.__getitem__)
    )
    return "{{" + fields + f"\n{indent}}}}}"


def _supports_json(model: EmpiricalModel) -> str:
    """The supports payload straight from the outcome tuples, with one
    template per context."""
    rows = []
    for ci, ctx in enumerate(model.scenario.contexts):
        template = _section_template(ctx, "      ")
        rows.append([template.format(*v) for v in model.support_values(ci)])
    return _json_block((_json_block(row, "\n    ") for row in rows), "\n  ")


def _probabilities_json(table: ProbabilityTable) -> str:
    """The probabilities payload straight from the outcome tuples and their
    weights, with one template per context."""
    rows = []
    for ci, ctx in enumerate(table.scenario.contexts):
        section = _section_template(ctx, "        ")
        template = '{{\n        "p": "{p}",\n        "section": ' + section + "\n      }}"
        weighted = zip(table.row_values(ci), table.row_weights(ci))
        rows.append([template.format(*v, p=str(w)) for v, w in weighted])
    return _json_block((_json_block(row, "\n    ") for row in rows), "\n  ")


def _payload_json(doc: ModelDocument) -> Any:
    if doc.payload_kind == "theory":
        return {
            "modulus": doc.modulus,
            "equations": [
                {"coefficients": dict(eq.coefficients), "constant": eq.constant}
                for eq in doc.raw_equations
            ],
        }
    if doc.payload_kind == "liar_cycle":
        return {"length": doc.liar_cycle.length}
    return {"operators": [str(op) for op in doc.pauli_triple]}


def print_model(doc: ModelDocument) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline.
    Printing then parsing is the identity on documents, and parsing then
    printing is the identity on canonical text.

    The text is `json.dumps(..., indent=2, sort_keys=True,
    ensure_ascii=False)` of the document's JSON object, written from
    templates (a supports or probabilities payload from outcome tuples);
    only a theory, liar-cycle or Pauli-triple payload goes through `_write_json`."""
    members = {"format": encode_basestring(SCHEMA), "scenario": _scenario_json(doc)}
    for field in _METADATA:
        value = getattr(doc, field)
        if value is not None:
            members[field] = encode_basestring(value)
    kind = doc.payload_kind
    if kind == "supports":
        members[kind] = _supports_json(doc.model)
    elif kind == "probabilities":
        members[kind] = _probabilities_json(doc.table)
    else:
        members[kind] = _write_json(_payload_json(doc), encode_basestring, "\n  ")
    ordered = (f'"{key}": {members[key]}' for key in sorted(members))
    return _json_block(ordered, "\n", "{}") + "\n"


def document_hash(doc: ModelDocument) -> str:
    return hashlib.sha256(print_model(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# materialisation


def materialize(doc: ModelDocument) -> EmpiricalModel:
    """The empirical model a document denotes.

    Theories materialise as their maximal models, liar cycles and Pauli
    triples through their describing constructions; a declared scenario
    inconsistent with the payload's own scenario is an authoring error.
    """
    if doc.payload_kind == "supports":
        return doc.model
    if doc.payload_kind == "probabilities":
        return support_of_probability_table(doc.table)
    if doc.payload_kind == "theory":
        return model_of_theory(doc.theory, doc.scenario)
    if doc.payload_kind == "liar_cycle":
        model = liar_cycle_model(doc.liar_cycle)
        if model.scenario != doc.scenario:
            raise DocumentError(
                f"declared scenario does not match a liar cycle of length "
                f"{doc.liar_cycle.length}",
                path="$.scenario",
            )
        return model
    if triple_scenario(*doc.pauli_triple) != doc.scenario:
        raise DocumentError("declared scenario does not match the Pauli triple", path="$.scenario")
    subgroup = generate_subgroup(doc.pauli_triple)
    theory = theory_of_subgroup(subgroup, doc.scenario)
    return model_of_theory(theory, doc.scenario)


# ---------------------------------------------------------------------------
# document construction, used by the corpus and the CLI


def _common(name, notes, provenance, scenario, kind, ring_outcomes=False) -> dict:
    return dict(
        scenario=scenario,
        payload_kind=kind,
        name=name,
        notes=notes,
        provenance=provenance,
        ring_outcomes=ring_outcomes,
    )


def document_from_model(
    model: EmpiricalModel,
    name: str | None = None,
    notes: str | None = None,
    provenance: str | None = None,
) -> ModelDocument:
    return ModelDocument(
        model=model,
        **_common(name, notes, provenance, model.scenario, "supports"),
    )


def document_from_table(
    table: ProbabilityTable,
    name: str | None = None,
    notes: str | None = None,
    provenance: str | None = None,
) -> ModelDocument:
    return ModelDocument(
        table=table,
        **_common(name, notes, provenance, table.scenario, "probabilities"),
    )


def document_from_equations(
    scenario: Scenario,
    modulus: int,
    equations: Iterable[tuple[Mapping[str, int], int]],
    name: str | None = None,
    notes: str | None = None,
    provenance: str | None = None,
) -> ModelDocument:
    """Equations given as (coefficients-by-measurement, constant) pairs."""
    ring = RingSpec(modulus)
    raw = []
    expanded = []
    for coeffs, constant in equations:
        equation, landed = _expand_equation(ring, scenario, coeffs, constant)
        raw.append(equation)
        expanded.extend(landed)
    return ModelDocument(
        theory=Theory(ring, tuple(expanded)),
        raw_equations=tuple(raw),
        modulus=modulus,
        **_common(name, notes, provenance, scenario, "theory"),
    )


def document_from_liar_cycle(
    length: int,
    name: str | None = None,
    notes: str | None = None,
    provenance: str | None = None,
) -> ModelDocument:
    model = liar_cycle_model(length)
    return ModelDocument(
        liar_cycle=LiarCycle(length),
        **_common(name, notes, provenance, model.scenario, "liar_cycle"),
    )


def document_from_triple(
    triple: tuple[PauliOperator, PauliOperator, PauliOperator],
    scenario: Scenario,
    name: str | None = None,
    notes: str | None = None,
    provenance: str | None = None,
) -> ModelDocument:
    return ModelDocument(
        pauli_triple=tuple(triple),
        **_common(name, notes, provenance, scenario, "pauli_triple"),
    )
