"""One-call classification of a documented model.

Gathers every verdict the library can produce (no-signalling, logical and
strong contextuality, AvN per finite ring, cohomological obstructions per
ring and over the integers), asserts the implication hierarchy between them
before reporting, and renders the result as text or JSON. A hierarchy
violation means the library contradicts itself on this input and is
reported as a self-check failure, never silently.

The linear algebra runs before the LC/SC search and settles what it can.
AvN_R or CSC_R for some ring means no global section, so SC and LC hold
and nothing is searched. Otherwise a section with a non-vanishing
obstruction over some ring extends to no global section, so LC holds and
only the remaining sections, and the global section, are searched. The
report names the rule behind each verdict (`decided_by`).

Strong contextuality of the affine closure is reported as the AvN verdict
itself. Over Z_n the affine span of a context's support is the solution set
of that context's linear theory (Z_n is a Frobenius ring, so every submodule
equals its double annihilator), hence the closure has a global section
exactly when the theory has a global solution. No closure is listed or
searched here; the tests keep that search as an oracle for the equivalence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .cohomology import ObstructionReport, _degree0_complex, classify_cohomological
from .documents import (
    _JSON_LITERALS,
    ModelDocument,
    _json_block,
    document_hash,
    materialize,
)
from .errors import OutcomeCoercionError, SelfCheckError
from .model import (
    DEFAULT_SEARCH_BUDGET,
    ContextualityReport,
    EmpiricalModel,
    _classify,
    check_no_signalling,
)
from .rings import INTEGERS, RingSpec
from .scenario import section_template
from .theory import AvnReport, is_avn


@dataclass(frozen=True)
class RingAnalysis:
    """Verdicts tied to one coefficient ring."""

    ring: RingSpec
    avn: bool | None
    avn_report: AvnReport | None
    avn_skipped: str | None
    obstructions: ObstructionReport


@dataclass(frozen=True)
class StageTiming:
    stage: str
    seconds: float


@dataclass(frozen=True)
class AnalysisReport:
    name: str | None
    payload_kind: str
    sha256: str
    model: EmpiricalModel
    no_signalling: bool
    classification: ContextualityReport
    rings: tuple[RingAnalysis, ...]
    budget: int
    timings: tuple[StageTiming, ...]
    # the rule that decided each verdict: "search", or a ring verdict such
    # as "AvN over Z2", "CSC over Z" or "CLC over Z4"; None when undecided
    lc_decided_by: str | None
    sc_decided_by: str | None

    @property
    def lc(self) -> bool | None:
        return self.classification.logically_contextual

    @property
    def sc(self) -> bool | None:
        return self.classification.strongly_contextual

    def ring_entry(self, ring: RingSpec) -> RingAnalysis:
        for entry in self.rings:
            if entry.ring == ring:
                return entry
        raise KeyError(f"no analysis over {ring}")


def default_rings(doc: ModelDocument) -> tuple[RingSpec, ...]:
    """The ring the document itself suggests: its theory's modulus, or the
    alphabet size when the alphabet is an initial segment 0..n-1."""
    if doc.modulus is not None:
        return (RingSpec(doc.modulus),)
    outcomes = doc.scenario.outcomes
    if outcomes == tuple(range(len(outcomes))) and len(outcomes) >= 2:
        return (RingSpec(len(outcomes)),)
    return ()


def _implies(
    premises: list[str],
    antecedent: bool | None,
    consequent: bool | None,
    rule: str,
) -> None:
    if antecedent is True and consequent is False:
        premises.append(rule)


def _check_hierarchy(report: AnalysisReport) -> None:
    violations: list[str] = []
    lc = report.lc
    sc = report.sc
    integral = report.ring_entry(INTEGERS).obstructions
    _implies(violations, integral.csc, sc, "CSC_Z must imply SC")
    _implies(violations, integral.clc, lc, "CLC_Z must imply LC")
    for entry in report.rings:
        ring = entry.ring
        if ring.is_integers:
            continue
        obs = entry.obstructions
        _implies(violations, entry.avn, obs.csc, f"AvN_{ring} must imply CSC_{ring}")
        # every Z_n obstruction form is read from the integer one, so these
        # two compare routes that share it; the tests' per-ring oracle
        # checks that shared route
        _implies(violations, obs.csc, integral.csc, f"CSC_{ring} must imply CSC_Z")
        _implies(violations, obs.clc, integral.clc, f"CLC_{ring} must imply CLC_Z")
        _implies(violations, obs.csc, obs.clc, f"CSC_{ring} must imply CLC_{ring}")
        _implies(violations, obs.csc, sc, f"CSC_{ring} must imply SC")
        _implies(violations, obs.clc, lc, f"CLC_{ring} must imply LC")
    if violations:
        raise SelfCheckError(
            "hierarchy violation on this model: " + "; ".join(violations)
        )


def _strong_rule(entries: list[RingAnalysis]) -> str | None:
    """The first ring verdict, in report order, that leaves no global
    section; within a ring AvN comes before CSC."""
    for entry in entries:
        if entry.avn:
            return f"AvN over {entry.ring}"
        if entry.obstructions.csc:
            return f"CSC over {entry.ring}"
    return None


def _decided_by(rule: str | None, verdict: bool | None) -> str | None:
    if rule is not None:
        return rule
    return None if verdict is None else "search"


def analyze(
    doc: ModelDocument,
    rings: tuple[RingSpec, ...] | None = None,
    budget: int | None = None,
) -> AnalysisReport:
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    timings: list[StageTiming] = []

    def timed(stage: str, thunk):
        start = time.perf_counter()
        result = thunk()
        timings.append(StageTiming(stage, time.perf_counter() - start))
        return result

    model = timed("materialise", lambda: materialize(doc))
    ns = timed("no-signalling", lambda: check_no_signalling(model))

    requested = tuple(rings) if rings is not None else default_rings(doc)
    ordered: list[RingSpec] = []
    for ring in requested + (INTEGERS,):
        if ring not in ordered:
            ordered.append(ring)

    # every ring's obstructions read the degree-0 complex, the integer
    # kernel and the integer block form
    timed("cohomology integer form", lambda: _degree0_complex(model).form(INTEGERS))
    entries = []
    for ring in ordered:
        avn_report = None
        avn = None
        avn_skipped = None
        if ring.is_finite:
            try:
                avn_report = timed(f"avn {ring}", lambda: is_avn(model, ring))
                avn = avn_report.avn
            except OutcomeCoercionError as exc:
                avn_skipped = str(exc)
        else:
            avn_skipped = "All-vs-Nothing needs a finite ring"
        obstructions = timed(
            f"cohomology {ring}", lambda: classify_cohomological(model, ring)
        )
        entries.append(RingAnalysis(ring, avn, avn_report, avn_skipped, obstructions))

    # what the linear algebra settles, the search need not: AvN_R or CSC_R
    # leaves no global section, and a non-vanishing obstruction leaves none
    # through its section
    strong_rule = _strong_rule(entries)
    logical_rule = strong_rule or next(
        (f"CLC over {entry.ring}" for entry in entries if entry.obstructions.clc), None
    )
    non_extending = set()
    if strong_rule is None:
        for entry in entries:
            non_extending.update(
                k for k, vanishes in enumerate(entry.obstructions.vanishes) if not vanishes
            )
    classification = timed(
        "classify",
        lambda: _classify(model, budget, strong_rule is not None, non_extending),
    )

    report = AnalysisReport(
        name=doc.name,
        payload_kind=doc.payload_kind,
        sha256=document_hash(doc),
        model=model,
        no_signalling=ns.holds,
        classification=classification,
        rings=tuple(entries),
        budget=budget,
        timings=tuple(timings),
        lc_decided_by=_decided_by(logical_rule, classification.logically_contextual),
        sc_decided_by=_decided_by(strong_rule, classification.strongly_contextual),
    )
    _check_hierarchy(report)
    return report


# ---------------------------------------------------------------------------
# rendering


def _verdict(value: bool | None) -> str:
    if value is None:
        return "undecided"
    return "yes" if value else "no"


def _decided(value: bool | None, rule: str | None) -> str:
    return _verdict(value) if rule is None else f"{_verdict(value)} ({rule})"


def _non_extending(report: AnalysisReport) -> Iterator[tuple[tuple[str, ...], str, list]]:
    """Each context with a section that extends to no global section, its
    section template and the outcome tuples of those sections in support
    order."""
    model = report.model
    flags = iter(report.classification.extends)
    for ci, ctx in enumerate(model.scenario.contexts):
        failing = [v for v, extends in zip(model.support_values(ci), flags) if extends is False]
        if failing:
            yield ctx, section_template(ctx), failing


def render_text(report: AnalysisReport) -> str:
    model = report.model
    scn = model.scenario
    lines = []
    title = report.name or "model"
    lines.append(f"{title}  (sha256 {report.sha256[:12]})")
    lines.append(
        f"scenario: {len(scn.measurements)} measurements, "
        f"{len(scn.contexts)} contexts, alphabet {{{', '.join(map(str, scn.outcomes))}}}; "
        f"payload {report.payload_kind}"
    )
    lines.append(f"no-signalling: {_verdict(report.no_signalling)}")
    cls = report.classification
    lines.append(
        f"logically contextual (LC): "
        f"{_decided(cls.logically_contextual, report.lc_decided_by)}"
    )
    failing = cls.extends.count(False)
    if failing:
        texts = (
            f"{template.format(*v)} at ({', '.join(ctx)})"
            for ctx, template, failing_values in _non_extending(report)
            for v in failing_values
        )
        shown = ", ".join(islice(texts, 4))
        more = "" if failing <= 4 else f" and {failing - 4} more"
        lines.append(f"  non-extending: {shown}{more}")
    lines.append(
        f"strongly contextual (SC): "
        f"{_decided(cls.strongly_contextual, report.sc_decided_by)}"
    )
    if cls.global_section is not None:
        lines.append(f"  global section: {cls.global_section}")
    if not cls.decided:
        lines.append(f"  search budget exhausted after {cls.nodes_used} nodes")
    for entry in report.rings:
        lines.append(f"ring {entry.ring}:")
        # SC of the affine closure is AvN itself (see the module docstring)
        if entry.avn_report is None:
            lines.append(f"  AvN: skipped ({entry.avn_skipped})")
            lines.append(f"  SC of affine closure: skipped ({entry.avn_skipped})")
        else:
            solution, rows = entry.avn_report.solution, entry.avn_report.howell_rows
            detail = f"solution {solution}"
            if solution is None:
                detail = f"unsolvable; {len(rows)} reduced rows"
            lines.append(f"  AvN: {_verdict(entry.avn)} ({detail})")
            lines.append(f"  SC of affine closure: {_verdict(entry.avn)}")
        obs = entry.obstructions
        total = len(obs.vanishes)
        non_vanishing = obs.vanishes.count(False)
        lines.append(
            f"  obstructions: {non_vanishing} of {total} non-vanishing "
            f"(system {obs.unknowns} unknowns, {obs.compatibility_rows} "
            f"compatibility rows); CLC {_verdict(obs.clc)}, CSC {_verdict(obs.csc)}"
        )
    lines.append("hierarchy self-check: passed")
    lines.append(
        "timings: "
        + ", ".join(f"{t.stage} {t.seconds:.3f}s" for t in report.timings)
    )
    lines.append(f"search nodes: {cls.nodes_used} (budget {report.budget})")
    return "\n".join(lines) + "\n"


def _text(value: str | None) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def _ring_json(entry: RingAnalysis) -> str:
    obs = entry.obstructions
    solution = entry.avn_report.solution if entry.avn_report else None
    avn, skipped = _JSON_LITERALS[entry.avn], _text(entry.avn_skipped)
    return f"""{{
      "aff_sc": {avn},
      "aff_skipped": {skipped},
      "avn": {avn},
      "avn_skipped": {skipped},
      "avn_solution": {_text(None if solution is None else str(solution))},
      "clc": {_JSON_LITERALS[obs.clc]},
      "csc": {_JSON_LITERALS[obs.csc]},
      "non_vanishing": {obs.vanishes.count(False)},
      "ring": {_text(str(entry.ring))},
      "sections": {len(obs.vanishes)},
      "system": {{
        "compatibility_rows": {obs.compatibility_rows},
        "unknowns": {obs.unknowns}
      }}
    }}"""


def render_json(report: AnalysisReport) -> str:
    """`json.dumps(..., indent=2, sort_keys=True)` of the report's JSON
    object, written from fixed templates in sorted-key order. Each context
    with a non-extending section gets one template for its whole entry,
    filled in with each such section's outcomes."""
    quote, level1, level2, level3 = encode_basestring_ascii, "\n  ", "\n    ", "\n      "
    scn = report.model.scenario
    cls = report.classification
    contexts = _json_block((_json_block(map(quote, c), level2) for c in scn.contexts), level1)
    entries = []
    for ctx, template, failing in _non_extending(report):
        # the entry is a format template, so its own braces are doubled
        context = _json_block(map(quote, ctx), level3).replace("{", "{{").replace("}", "}}")
        members = f'{level3}"context": {context},{level3}"section": {quote(template)}'
        entry = "{{" + members + level2 + "}}"
        entries.extend(entry.format(*v) for v in failing)
    timings = {t.stage: t.seconds for t in report.timings}
    timings = [f"{quote(stage)}: {timings[stage]!r}" for stage in sorted(timings)]
    return f"""{{
  "budget": {report.budget},
  "contexts": {contexts},
  "decided_by": {{
    "lc": {_text(report.lc_decided_by)},
    "sc": {_text(report.sc_decided_by)}
  }},
  "global_section": {_text(str(cls.global_section) if cls.global_section else None)},
  "hierarchy": "ok",
  "logically_contextual": {_JSON_LITERALS[cls.logically_contextual]},
  "measurements": {_json_block(map(quote, scn.measurements), level1)},
  "name": {_text(report.name)},
  "no_signalling": {_JSON_LITERALS[report.no_signalling]},
  "nodes": {cls.nodes_used},
  "non_extending": {_json_block(entries, level1)},
  "payload": {quote(report.payload_kind)},
  "rings": {_json_block(map(_ring_json, report.rings), level1)},
  "sha256": {quote(report.sha256)},
  "strongly_contextual": {_JSON_LITERALS[cls.strongly_contextual]},
  "timings": {_json_block(timings, level1, "{}")}
}}
"""


def report_json(report: AnalysisReport) -> dict:
    """The report's JSON object, read back from `render_json`."""
    return json.loads(render_json(report))
