"""The aggregate analyzer: ring selection, verdict aggregation, the built-in
hierarchy self-check, and both renderings of the report."""

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
    SelfCheckError,
    analyze,
    default_rings,
    document_from_liar_cycle,
    document_from_model,
    render_json,
    render_text,
    report_json,
)
from contextuality import analysis as analysis_module

from _random_models import random_contextual_models, random_models
from conftest import ALL4, CORR, bell_table, bipartite_model, hardy_model, pr_box
from contextuality import document_from_table

Z2 = RingSpec(2)
Z3 = RingSpec(3)


def test_ghz_analysis_over_z2_and_z(corpus_documents):
    report = analyze(corpus_documents["ghz-mermin"], rings=(Z2,))
    assert report.no_signalling
    assert report.lc and report.sc
    assert [e.ring for e in report.rings] == [Z2, INTEGERS]
    z2 = report.ring_entry(Z2)
    assert z2.avn is True
    assert z2.aff_sc is True
    assert z2.clc and z2.csc
    integral = report.ring_entry(INTEGERS)
    assert integral.avn is None
    assert "finite ring" in integral.avn_skipped
    assert integral.csc  # GHZ is cohomologically strong even over Z
    with pytest.raises(KeyError):
        report.ring_entry(RingSpec(5))


def test_hardy_analysis_shows_the_integral_blind_spot(corpus_documents):
    report = analyze(corpus_documents["hardy"])
    assert report.lc is True
    assert report.sc is False
    assert [e.ring for e in report.rings] == [Z2, INTEGERS]
    assert report.ring_entry(INTEGERS).clc is False
    assert report.ring_entry(Z2).clc is False


def test_box25_avn_depends_on_the_modulus(corpus_documents):
    report = analyze(corpus_documents["box-25"], rings=(Z2, Z3))
    z2, z3 = report.ring_entry(Z2), report.ring_entry(Z3)
    assert z3.avn is True and z2.avn is False
    # prime rings: AvN coincides with strong contextuality of the closure
    assert z3.aff_sc is True and z2.aff_sc is False


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
    assert entry.aff_sc is None and entry.aff_skipped
    assert entry.obstructions.verdicts  # cohomology ran anyway


def test_affine_closure_sc_is_decided_by_avn_beyond_the_budget(corpus_documents):
    # pr-box's closure over Z1009 has 4036 sections, more than the budget;
    # SC of the closure is the AvN verdict, so no closure is listed. The
    # parity argument needs characteristic 2, so both are false here
    ring = RingSpec(1009)
    report = analyze(corpus_documents["pr-box"], rings=(ring,), budget=1000)
    entry = report.ring_entry(ring)
    assert entry.avn is False and entry.aff_sc is False
    assert entry.aff_skipped is None
    assert entry.obstructions.verdicts and entry.csc
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
    entry = analyze(corpus_documents["ks-18"], rings=(ring,)).ring_entry(ring)
    assert entry.avn is True and entry.aff_sc is True
    assert entry.aff_skipped is None


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


def test_render_json_is_valid_and_faithful(corpus_documents):
    report = analyze(corpus_documents["ghz-mermin"], rings=(Z2,))
    data = json.loads(render_json(report))
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


def test_timings_cover_every_stage():
    report = analyze(document_from_model(pr_box()), rings=(Z2,))
    stages = [t.stage for t in report.timings]
    assert stages[:3] == ["materialise", "no-signalling", "classify"]
    assert any(s.startswith("avn") for s in stages)
    assert any(s.startswith("cohomology") for s in stages)
    assert all(t.seconds >= 0 for t in report.timings)


def test_contradictory_verdicts_raise_a_self_check_error(monkeypatch):
    # force AvN true on a non-contextual model: the analyzer must refuse to
    # report rather than hand back an inconsistent hierarchy
    fake = types.SimpleNamespace(avn=True, solution=None, reduced_system=None)
    monkeypatch.setattr(analysis_module, "is_avn", lambda model, ring: fake)
    bell = document_from_model(bipartite_model(CORR, ALL4, ALL4, ALL4))
    with pytest.raises(SelfCheckError, match="hierarchy violation"):
        analyze(bell, rings=(Z2,))


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
