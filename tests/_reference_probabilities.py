"""Probability tables through `Section`s and per-entry `Fraction`s: the
reference for the library's tables, which read, check and print outcome
tuples.

A document's probabilities payload is read entry by entry into sections
and weights; a row is normalised by dropping zero entries and sorting its
sections lexicographically; validation checks non-negative weights,
sections given once per row, rows summing to one and, for every pair of
overlapping contexts in cover order, marginals computed by restricting
each section. Printing builds the document's JSON object with one
`{"p": ..., "section": ...}` object per entry and `json.dumps` writes it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from contextuality import (
    SCHEMA,
    DocumentError,
    EmpiricalModel,
    ModelError,
    NormalisationError,
    Scenario,
    Section,
    SignallingError,
)
from contextuality.documents import _check_keys, _expect, _parse_scenario


def _parse_section(obj: Any, scenario: Scenario, context: tuple[str, ...], path: str) -> Section:
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
    return Section.of({m: obj[m] for m in context})


def _parse_fraction(value: Any, path: str) -> Fraction:
    text = _expect(value, str, 'a rational written as a string like "3/8"', path)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"invalid rational {text!r}: {exc}", path=path) from None


def reference_entries(obj: Any, scenario: Scenario, path: str = "$.probabilities"):
    """The rows of a probabilities payload as (section, weight) entries in
    the order written."""
    rows = _expect(obj, list, "a list of probability rows", path)
    if len(rows) != len(scenario.contexts):
        raise DocumentError(
            f"expected {len(scenario.contexts)} rows (one per context), got {len(rows)}",
            path=path,
        )
    table_rows = []
    for i, (ctx, row) in enumerate(zip(scenario.contexts, rows)):
        _expect(row, list, "a list of probability entries", f"{path}[{i}]")
        entries = []
        for j, entry in enumerate(row):
            entry_path = f"{path}[{i}][{j}]"
            _expect(entry, dict, "an object", entry_path)
            _check_keys(entry, {"section", "p"}, entry_path)
            for field in ("section", "p"):
                if field not in entry:
                    raise DocumentError(f"missing field {field!r}", path=entry_path)
            section = _parse_section(entry["section"], scenario, ctx, f"{entry_path}.section")
            entries.append((section, _parse_fraction(entry["p"], f"{entry_path}.p")))
        table_rows.append(tuple(entries))
    return tuple(table_rows)


def reference_rows(scenario: Scenario, rows, validate: bool = True):
    """The rows normalised and checked: zero entries dropped, sections in
    lexicographic order. A section may appear once per row, whatever its
    weights."""
    if len(rows) != len(scenario.contexts):
        raise ModelError(f"expected {len(scenario.contexts)} rows, got {len(rows)}")
    pos = {o: i for i, o in enumerate(scenario.outcomes)}
    normalised = []
    for ctx, row in zip(scenario.contexts, rows):
        ctx_set = frozenset(ctx)
        seen = set()
        cleaned = {}
        for s, p in row:
            if s.domain != ctx_set:
                raise ModelError(f"{s} is not a section over {ctx}")
            p = Fraction(p)
            if p < 0:
                raise NormalisationError(f"negative probability {p} at {s}")
            if s in seen:
                raise ModelError(f"duplicate section {s} in row for {ctx}")
            seen.add(s)
            if p > 0:
                cleaned[s] = p
        ordered = sorted(cleaned.items(), key=lambda kv: tuple(pos[kv[0][m]] for m in ctx))
        normalised.append(tuple(ordered))
    normalised = tuple(normalised)
    if validate:
        for ctx, row in zip(scenario.contexts, normalised):
            total = sum((p for _, p in row), Fraction(0))
            if total != 1:
                raise NormalisationError(f"row for {ctx} sums to {total}, not 1")
        _check_marginals(scenario, normalised)
    return normalised


def reference_marginal(rows, index: int, subset) -> dict[Section, Fraction]:
    out: dict[Section, Fraction] = {}
    for s, p in rows[index]:
        t = s.restrict(subset)
        out[t] = out.get(t, Fraction(0)) + p
    return out


def _check_marginals(scenario: Scenario, rows) -> None:
    """Every pair i < j of overlapping contexts in cover order; the first
    whose marginals differ raises, with the first differing overlap section
    in the order of its text."""
    contexts = scenario.contexts
    for i, ci in enumerate(contexts):
        for j in range(i + 1, len(contexts)):
            overlap = tuple(m for m in ci if m in contexts[j])
            if not overlap:
                continue
            mi = reference_marginal(rows, i, overlap)
            mj = reference_marginal(rows, j, overlap)
            if mi != mj:
                bad = next(
                    t for t in sorted(set(mi) | set(mj), key=str)
                    if mi.get(t, Fraction(0)) != mj.get(t, Fraction(0))
                )
                raise SignallingError(
                    f"distributions of {ci} and {contexts[j]} "
                    f"have different marginals at {bad}",
                    contexts=(ci, contexts[j]),
                    section=bad,
                )


def reference_support(scenario: Scenario, rows) -> EmpiricalModel:
    """The sections with positive weight, as a model built from sections."""
    return EmpiricalModel(scenario, tuple(tuple(s for s, _ in row) for row in rows))


def reference_text(data: dict, rows) -> str:
    """The canonical text of a probabilities document: `data` holds its
    other top-level fields, as written."""
    document = {k: v for k, v in data.items() if k != "probabilities"}
    document["probabilities"] = [
        [{"section": dict(s.items), "p": str(p)} for s, p in row] for row in rows
    ]
    return json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def reference_document(text: str):
    """(scenario, normalised rows, canonical text) of a probabilities
    document whose other fields are well formed."""
    data = json.loads(text)
    scenario, ring_outcomes = _parse_scenario(data["scenario"], "$.scenario")
    rows = reference_rows(scenario, reference_entries(data["probabilities"], scenario))
    data["format"] = SCHEMA
    data["scenario"] = {
        "measurements": list(scenario.measurements),
        "contexts": [list(c) for c in scenario.contexts],
        "outcomes": {"modulus": len(scenario.outcomes)} if ring_outcomes else list(scenario.outcomes),
    }
    return scenario, rows, reference_text(data, rows)
