"""The aggregate analyzer: ring selection, verdict aggregation, the built-in
hierarchy self-check, and both renderings of the report."""

import json
import types

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

from _random_models import random_models
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


def test_affine_closure_over_the_budget_is_skipped(corpus_documents):
    # pr-box's closure over Z1009 has 1009 sections per context, 4036 in
    # all: the Howell pivots give that size, and the closure is not listed
    ring = RingSpec(1009)
    report = analyze(corpus_documents["pr-box"], rings=(ring,), budget=1000)
    entry = report.ring_entry(ring)
    assert entry.aff_sc is None
    assert "4036 sections" in entry.aff_skipped and "budget of 1000" in entry.aff_skipped
    assert entry.avn is not None and entry.obstructions.verdicts  # the rest ran
    assert "SC of affine closure: skipped" in render_text(report)


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
    # Z6 affine closures on three-measurement contexts are outside the
    # unit-test budget, so composite rings only go with small covers
    for i, model in enumerate(random_models(40, seed=20240820)):
        widest = max(len(c) for c in model.scenario.contexts)
        if i % 3 == 0 and widest <= 2:
            rings = (Z2, RingSpec(6))
        elif i % 3 == 0:
            rings = (Z2, RingSpec(4))
        else:
            rings = (Z2, Z3)
        analyze(document_from_model(model), rings=rings)
