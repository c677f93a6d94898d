"""The aggregate analyzer: ring selection, verdict aggregation, the built-in
hierarchy self-check, and both renderings of the report."""

import dataclasses
import gc
import json
import types
import weakref

import pytest

from contextuality import (
    EmpiricalModel,
    INTEGERS,
    RingSpec,
    Scenario,
    Section,
    SelfCheckError,
    analyze,
    classify_contextuality,
    default_rings,
    document_from_liar_cycle,
    document_from_model,
    render_json,
    render_text,
    report_json,
)
from contextuality import analysis as analysis_module
from contextuality.model import _Restrictor

from _random_models import random_contextual_models, random_models, tseitin_model
from _reference_report import reference_report
from conftest import (
    ALL4,
    CORR,
    bell_table,
    bipartite_model,
    mycielski_colouring,
    pr_box,
    with_sections,
)
from contextuality import document_from_table

Z2 = RingSpec(2)
Z3 = RingSpec(3)


def _ring_json(report, ring: RingSpec) -> dict:
    """The report's JSON entry for the ring."""
    return next(r for r in report_json(report)["rings"] if r["ring"] == str(ring))


def test_ghz_analysis_over_z2_and_z(corpus_documents):
    report = analyze(corpus_documents["ghz-mermin"], rings=(Z2,))
    assert report.no_signalling
    assert report.lc and report.sc
    assert [e.ring for e in report.rings] == [Z2, INTEGERS]
    z2 = report.ring_entry(Z2)
    assert z2.avn is True
    assert _ring_json(report, Z2)["aff_sc"] is True
    assert z2.obstructions.clc and z2.obstructions.csc
    integral = report.ring_entry(INTEGERS)
    assert integral.avn is None
    assert "finite ring" in integral.avn_skipped
    assert integral.obstructions.csc  # GHZ is cohomologically strong even over Z
    with pytest.raises(KeyError):
        report.ring_entry(RingSpec(5))


def test_hardy_analysis_shows_the_integral_blind_spot(corpus_documents):
    report = analyze(corpus_documents["hardy"])
    assert report.lc is True
    assert report.sc is False
    assert [e.ring for e in report.rings] == [Z2, INTEGERS]
    assert report.ring_entry(INTEGERS).obstructions.clc is False
    assert report.ring_entry(Z2).obstructions.clc is False


def test_box25_avn_depends_on_the_modulus(corpus_documents):
    report = analyze(corpus_documents["box-25"], rings=(Z2, Z3))
    z2, z3 = report.ring_entry(Z2), report.ring_entry(Z3)
    assert z3.avn is True and z2.avn is False
    # prime rings: AvN coincides with strong contextuality of the closure
    assert _ring_json(report, Z3)["aff_sc"] is True
    assert _ring_json(report, Z2)["aff_sc"] is False


def test_default_rings_follow_the_document(corpus_documents):
    assert default_rings(corpus_documents["ghz-mermin"]) == (Z2,)  # theory modulus
    assert default_rings(corpus_documents["box-25"]) == (Z2,)  # binary alphabet
    assert default_rings(document_from_liar_cycle(4)) == (Z2,)
    ternary = Scenario(("a", "b"), (("a", "b"),), (0, 1, 2))
    model = EmpiricalModel(ternary, ((ternary.section(("a", "b"), (0, 0)),),))
    assert default_rings(document_from_model(model)) == (RingSpec(3),)
    sparse = Scenario(("a", "b"), (("a", "b"),), (0, 2))
    model = EmpiricalModel(sparse, ((sparse.section(("a", "b"), (0, 0)),),))
    assert default_rings(document_from_model(model)) == ()


def test_integers_always_analyzed_exactly_once():
    doc = document_from_model(pr_box())
    report = analyze(doc, rings=(Z2, INTEGERS))
    assert [e.ring for e in report.rings] == [Z2, INTEGERS]
    report = analyze(doc, rings=())
    assert [e.ring for e in report.rings] == [INTEGERS]


def test_coercion_failures_skip_avn_but_not_cohomology():
    ternary = Scenario(("a", "b"), (("a", "b"),), (0, 1, 2))
    sections = tuple(
        ternary.section(("a", "b"), (o, o)) for o in (0, 1, 2)
    )
    doc = document_from_model(EmpiricalModel(ternary, (sections,)))
    report = analyze(doc, rings=(Z2,))
    entry = report.ring_entry(Z2)
    assert entry.avn is None and entry.avn_skipped
    row = _ring_json(report, Z2)
    assert row["aff_sc"] is None and row["aff_skipped"]
    assert entry.obstructions.vanishes  # cohomology ran anyway


def test_affine_closure_sc_is_decided_by_avn_beyond_the_budget(corpus_documents):
    # pr-box's closure over Z1009 has 4036 sections, more than the budget;
    # SC of the closure is the AvN verdict, so no closure is listed. The
    # parity argument needs characteristic 2, so both are false here
    ring = RingSpec(1009)
    report = analyze(corpus_documents["pr-box"], rings=(ring,), budget=1000)
    entry = report.ring_entry(ring)
    row = _ring_json(report, ring)
    assert entry.avn is False and row["aff_sc"] is False
    assert row["aff_skipped"] is None
    assert entry.obstructions.vanishes and entry.obstructions.csc
    assert "SC of affine closure: no" in render_text(report)


@pytest.mark.parametrize("rings", [None, (RingSpec(4),), (RingSpec(6),)], ids=["default", "Z4", "Z6"])
def test_no_stage_lists_or_searches_an_affine_closure(corpus_documents, rings):
    for name, doc in corpus_documents.items():
        report = analyze(doc, rings=rings)
        stages = [t.stage for t in report.timings]
        assert not [s for s in stages if "affine" in s], (name, stages)
        rows = report_json(report)["rings"]
        assert all(r["aff_sc"] == r["avn"] and r["aff_skipped"] == r["avn_skipped"] for r in rows)


@pytest.mark.parametrize("ring", [RingSpec(4), RingSpec(6)], ids=str)
def test_ks18_affine_closure_is_decided_over_composite_rings(corpus_documents, ring):
    # the closure search ran out of nodes here; AvN decides it exactly
    report = analyze(corpus_documents["ks-18"], rings=(ring,))
    row = _ring_json(report, ring)
    assert report.ring_entry(ring).avn is True and row["aff_sc"] is True
    assert row["aff_skipped"] is None


def test_render_text_carries_the_verdicts(corpus_documents):
    text = render_text(analyze(corpus_documents["pr-box"]))
    assert "no-signalling: yes" in text
    assert "logically contextual (LC): yes" in text
    assert "strongly contextual (SC): yes" in text
    assert "AvN: yes (unsolvable;" in text
    assert "hierarchy self-check: passed" in text
    assert "ring Z2:" in text and "ring Z:" in text

    text = render_text(analyze(corpus_documents["hardy"]))
    assert "non-extending: a1=0,b1=0 at (a1, b1)" in text

    bell = document_from_table(bell_table())
    text = render_text(analyze(bell))
    assert "global section:" in text
    assert "AvN: skipped (All-vs-Nothing needs a finite ring)" in text.replace(
        "  ", " "
    ) or "skipped" in text


@pytest.mark.parametrize(
    "outcomes, shown",
    [((0, 1), "{0, 1}"), ((1, 0), "{1, 0}"), ((-1, 1), "{-1, 1}"), ((32, 0), "{32, 0}")],
)
def test_render_text_writes_the_alphabet_in_declared_order(outcomes, shown):
    scenario = Scenario(("a", "b"), (("a", "b"),), outcomes)
    model = EmpiricalModel.from_values(scenario, [[outcomes, outcomes[::-1]]])
    text = render_text(analyze(document_from_model(model)))
    assert f"2 measurements, 1 contexts, alphabet {shown}; payload supports" in text


def test_render_json_is_valid_and_faithful(corpus_documents):
    report = analyze(corpus_documents["ghz-mermin"], rings=(Z2,))
    text = render_json(report)
    assert text == json.dumps(reference_report(report), indent=2, sort_keys=True) + "\n"
    data = json.loads(text)
    assert data == report_json(report)
    assert data["name"] == "ghz-mermin"
    assert data["no_signalling"] is True
    assert data["logically_contextual"] is True
    assert data["strongly_contextual"] is True
    assert data["hierarchy"] == "ok"
    assert data["sha256"] == report.sha256
    rings = {entry["ring"]: entry for entry in data["rings"]}
    assert rings["Z2"]["avn"] is True
    assert rings["Z2"]["csc"] is True
    assert rings["Z"]["avn"] is None
    assert rings["Z"]["avn_skipped"]
    assert set(data["timings"]) >= {"materialise", "no-signalling", "classify"}
    assert data["decided_by"] == {"lc": "AvN over Z2", "sc": "AvN over Z2"}
    assert data["nodes"] == 0


def test_timings_cover_every_stage():
    report = analyze(document_from_model(pr_box()), rings=(Z2,))
    stages = [t.stage for t in report.timings]
    # the linear algebra runs before the search, which it may spare
    assert stages[:3] == ["materialise", "no-signalling", "cohomology integer form"]
    assert stages[-1] == "classify"
    assert any(s.startswith("avn") for s in stages)
    assert any(s.startswith("cohomology") for s in stages)
    ring_stages = stages[2:-1]
    assert ring_stages and all(s.startswith(("avn ", "cohomology ")) for s in ring_stages)
    assert all(t.seconds >= 0 for t in report.timings)


def test_contradictory_verdicts_raise_a_self_check_error(monkeypatch):
    # force AvN true on a non-contextual model: the analyzer must refuse to
    # report rather than hand back an inconsistent hierarchy
    fake = types.SimpleNamespace(avn=True, solution=None, howell_rows=())
    monkeypatch.setattr(analysis_module, "is_avn", lambda model, ring: fake)
    bell = document_from_model(bipartite_model(CORR, ALL4, ALL4, ALL4))
    with pytest.raises(SelfCheckError, match="hierarchy violation"):
        analyze(bell, rings=(Z2,))


def test_a_lying_obstruction_route_cannot_produce_a_derived_sc(monkeypatch):
    # report every obstruction over Z2 as non-vanishing on a non-contextual
    # model: SC would follow by CSC over Z2 with no search, so the
    # independent elimination over Z must refuse it
    honest = analysis_module.classify_cohomological

    def lying(model, ring):
        report = honest(model, ring)
        if ring != Z2:
            return report
        vanishes = (False,) * len(report.vanishes)
        return dataclasses.replace(report, vanishes=vanishes, clc=True, csc=True)

    monkeypatch.setattr(analysis_module, "classify_cohomological", lying)
    bell = document_from_model(bipartite_model(CORR, ALL4, ALL4, ALL4))
    with pytest.raises(SelfCheckError, match="hierarchy violation.*CSC_Z2 must imply CSC_Z"):
        analyze(bell, rings=(Z2,))


def test_a_section_settled_as_failing_that_extends_is_a_self_check_error(monkeypatch):
    # report only a1=0,b1=0 as non-vanishing over Z2: the first global
    # section restricts to it, so the search contradicts the settled fact
    honest = analysis_module.classify_cohomological

    def lying(model, ring):
        report = honest(model, ring)
        if ring != Z2:
            return report
        vanishes = (False,) + report.vanishes[1:]
        return dataclasses.replace(report, vanishes=vanishes, clc=True)

    monkeypatch.setattr(analysis_module, "classify_cohomological", lying)
    bell = document_from_model(bipartite_model(CORR, ALL4, ALL4, ALL4))
    with pytest.raises(SelfCheckError, match="a1=0,b1=0 .* extend to no global section"):
        analyze(bell, rings=(Z2,))


# ---------------------------------------------------------------------------
# what the linear algebra settles before the search


def _ring_verdict(report, rule: str) -> bool | None:
    name, _, ring = rule.partition(" over ")
    entry = next(e for e in report.rings if str(e.ring) == ring)
    return {"AvN": entry.avn, "CSC": entry.obstructions.csc, "CLC": entry.obstructions.clc}[name]


def _assert_agrees_with_the_search(report):
    """Wherever the pure search decides, analyze reaches its verdicts, its
    global section and its non-extending sections; every rule named in
    `decided_by` is a ring verdict that holds."""
    pure = classify_contextuality(report.model)
    cls = report.classification
    if pure.strongly_contextual is not None:
        assert report.sc == pure.strongly_contextual
        assert cls.global_section == pure.global_section
    if pure.logically_contextual is not None:
        assert report.lc == pure.logically_contextual
    flags = with_sections(report.model, cls.extends)
    for (_, ctx, s, mine), searched in zip(flags, pure.extends, strict=True):
        if searched is not None:
            assert mine == searched, (ctx, str(s))
    for verdict, rule in ((report.lc, report.lc_decided_by), (report.sc, report.sc_decided_by)):
        if rule is None:
            assert verdict is None
        elif rule != "search":
            assert verdict is True and _ring_verdict(report, rule) is True, rule
    return pure


@pytest.mark.parametrize("rings", [None, (RingSpec(4), RingSpec(6))], ids=["default", "Z4-Z6"])
def test_analyze_agrees_with_the_pure_search_on_the_corpus(corpus_documents, rings):
    for doc in corpus_documents.values():
        _assert_agrees_with_the_search(analyze(doc, rings=rings))


def test_analyze_agrees_with_the_pure_search_on_random_models():
    models = random_models(40, seed=20240817) + random_contextual_models(40, seed=20240824)
    rules = set()
    for model in models:
        for rings in (None, (Z3, RingSpec(4), RingSpec(6))):
            report = analyze(document_from_model(model), rings=rings)
            _assert_agrees_with_the_search(report)
            rules.add(report.lc_decided_by.partition(" ")[0])
    # every kind of rule is exercised
    assert rules == {"search", "AvN", "CSC", "CLC"}


@pytest.mark.parametrize(
    "model",
    [
        mycielski_colouring(4, 3),
        mycielski_colouring(4, 4),
        tseitin_model(12, seed=1),
        tseitin_model(18, seed=1),
    ],
    ids=["M4-3col", "M4-4col", "tseitin-12", "tseitin-18"],
)
def test_analyze_agrees_with_the_pure_search_at_scale(model):
    pure = _assert_agrees_with_the_search(analyze(document_from_model(model)))
    assert pure.decided


def test_sections_settled_by_an_obstruction_are_not_searched(monkeypatch):
    # a = b = c with a + c = 2 over Z4: the global sections are a = 1 and
    # a = 3, and each context's other two sections have non-vanishing
    # obstructions over Z4 (CLC without CSC)
    scenario = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")), (0, 1, 2, 3))
    model = EmpiricalModel.from_values(
        scenario,
        (
            [(x, x) for x in range(4)],
            [(x, x) for x in range(4)],
            [(x, (2 - x) % 4) for x in range(4)],
        ),
    )
    searched = []
    first = _Restrictor.first

    def counted(self, fixed, budget):
        assignment = ((scenario.measurements[p], o) for p, o in fixed.items())
        searched.append(str(Section.of(assignment)) if fixed else None)
        return first(self, fixed, budget)

    monkeypatch.setattr(_Restrictor, "first", counted)
    report = analyze(document_from_model(model))
    z4 = report.ring_entry(RingSpec(4))
    assert z4.obstructions.clc and not z4.obstructions.csc and z4.avn is False
    assert (report.lc_decided_by, report.sc_decided_by) == ("CLC over Z4", "search")
    flags = with_sections(model, report.classification.extends)
    failing = [str(s) for _, _, s, extends in flags if extends is False]
    assert failing == ["a=0,b=0", "a=2,b=2", "b=0,c=0", "b=2,c=2", "a=0,c=2", "a=2,c=0"]
    # the global search, then the one section its witness left open
    assert searched == [None, "a=3,b=3"]

    searched.clear()
    pure = _assert_agrees_with_the_search(report)
    assert searched[:1] == [None] and set(failing) < set(searched)
    assert report.classification.nodes_used < pure.nodes_used


def test_budget_exhaustion_under_the_new_order(corpus_documents):
    # nothing linear settles bell, so the search runs and runs out
    report = analyze(corpus_documents["bell"], budget=3)
    assert report.lc is None and report.sc is None
    assert (report.lc_decided_by, report.sc_decided_by) == (None, None)
    text = render_text(report)
    assert "search budget exhausted after 3 nodes" in text
    assert "strongly contextual (SC): undecided\n" in text

    # AvN over Z2 settles pr-box before the search, which never starts
    report = analyze(corpus_documents["pr-box"], budget=3)
    assert report.lc is True and report.sc is True
    assert report.classification.nodes_used == 0
    assert report.classification.decided
    assert (report.lc_decided_by, report.sc_decided_by) == ("AvN over Z2", "AvN over Z2")
    text = render_text(report)
    assert "budget exhausted" not in text
    assert "strongly contextual (SC): yes (AvN over Z2)" in text
    assert "logically contextual (LC): yes (AvN over Z2)" in text


@pytest.mark.parametrize("contexts", [30, 40])
def test_tseitin_parity_is_settled_by_avn_without_search(contexts):
    model = tseitin_model(contexts, seed=1)
    report = analyze(document_from_model(model))
    assert report.sc is True and report.lc is True
    assert report.classification.nodes_used == 0
    assert report.classification.global_section is None
    assert (report.lc_decided_by, report.sc_decided_by) == ("AvN over Z2", "AvN over Z2")
    assert all(extends is False for extends in report.classification.extends)


def test_tseitin_parity_is_out_of_reach_of_the_search():
    # the rule decides, not the search: 20,000 nodes settle nothing here
    report = classify_contextuality(tseitin_model(30, seed=1), budget=20_000)
    assert report.strongly_contextual is None
    assert report.nodes_used == 20_000


def test_hierarchy_self_check_passes_on_random_models():
    models = random_models(40, seed=20240820) + random_contextual_models(10, 20240824)
    for model in models:
        analyze(document_from_model(model), rings=(Z2, Z3, RingSpec(4), RingSpec(6)))


def test_analyze_frees_its_model_without_the_cycle_collector(corpus_documents):
    # the LC/SC search must leave no reference cycle holding the model (with
    # its restriction cache and degree-0 complex) once the report is dropped
    gc.collect()
    gc.disable()
    try:
        report = analyze(corpus_documents["ghz-mermin"])
        model = weakref.ref(report.model)
        del report
        assert model() is None
    finally:
        gc.enable()
