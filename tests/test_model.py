"""Empirical models and the extension search, checked against exhaustive
enumeration of global assignments."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product

import pytest

from contextuality import (
    EmpiricalModel,
    EmptySupportError,
    ModelError,
    NormalisationError,
    ProbabilityTable,
    Scenario,
    ScenarioError,
    Section,
    SectionNotSupportedError,
    SignallingError,
    analyze,
    check_no_signalling,
    classify_contextuality,
    parse_model,
    print_model,
    support_of_probability_table,
)
import contextuality.model as model_module
from contextuality.model import _Restrictor

from conftest import (
    ALL4,
    ANTI,
    BIPARTITE,
    CORR,
    bell_table,
    bipartite_model,
    groetzsch_colouring,
    hardy_model,
    pr_box,
    with_sections,
)
from _random_models import random_contextual_models, random_models, random_scenario, tseitin_model
from _reference_search import reference_classify


def all_global_sections(model):
    scn = model.scenario
    out = []
    for vals in product(scn.outcomes, repeat=len(scn.measurements)):
        g = Section.of(zip(scn.measurements, vals))
        if all(
            g.restrict(ctx) in model.support_set(ci)
            for ci, ctx in enumerate(scn.contexts)
        ):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# construction and no-signalling


def test_support_normalisation_dedupes_and_sorts():
    s00 = BIPARTITE.section(("a1", "b1"), (0, 0))
    s11 = BIPARTITE.section(("a1", "b1"), (1, 1))
    model = bipartite_model(((1, 1), (0, 0), (1, 1)), ALL4, ALL4, ALL4)
    assert model.supports[0] == (s00, s11)


def test_empty_support_rejected():
    with pytest.raises(EmptySupportError):
        bipartite_model((), ALL4, ALL4, ALL4)


def test_wrong_domain_rejected():
    bad = BIPARTITE.section(("a1", "b2"), (0, 0))
    with pytest.raises(ModelError):
        EmpiricalModel(BIPARTITE, ((bad,), (bad,), (bad,), (bad,)))


def test_alien_outcome_rejected():
    s = Section.of({"a1": 0, "b1": 7})
    with pytest.raises(ModelError):
        EmpiricalModel(
            BIPARTITE,
            ((s,), (BIPARTITE.section(("a1", "b2"), (0, 0)),), (), ()),
        )


def test_signalling_rejected_with_witness():
    # deleting b2=1 outcomes from one context but not its neighbour breaks E2
    rows = (CORR, ((0, 0), (1, 0)), CORR, ANTI)
    with pytest.raises(SignallingError) as err:
        bipartite_model(*rows)
    assert err.value.section is not None


def test_check_no_signalling_witness_location():
    rows = (CORR, ((0, 0), (1, 0)), CORR, ANTI)
    supports = tuple(
        tuple(BIPARTITE.section(ctx, vals) for vals in row)
        for ctx, row in zip(BIPARTITE.contexts, rows)
    )
    model = EmpiricalModel(BIPARTITE, supports, validate=False)
    verdict = check_no_signalling(model)
    assert not verdict.holds
    w = verdict.witness
    assert {w.context_a, w.context_b} == {("a1", "b2"), ("a2", "b2")}
    assert str(w.section) == "b2=1"
    assert verdict.witness.present_in == "second"


def test_pr_box_no_signalling():
    assert check_no_signalling(pr_box()).holds


def counting_signalling_witness(monkeypatch):
    calls = []
    witness = model_module._signalling_witness

    def counted(model):
        calls.append(model)
        return witness(model)

    monkeypatch.setattr(model_module, "_signalling_witness", counted)
    return calls


def test_analyze_checks_no_signalling_once(corpus_documents, monkeypatch):
    # the model is validated where the document is parsed (supports) or
    # materialised (the other payloads); the no-signalling stage returns
    # that verdict instead of checking again
    texts = {name: print_model(doc) for name, doc in corpus_documents.items()}
    calls = counting_signalling_witness(monkeypatch)
    for name, text in texts.items():
        calls.clear()
        report = analyze(parse_model(text))
        assert report.no_signalling is True
        assert len(calls) == 1, name


def test_unvalidated_models_are_still_checked(monkeypatch):
    calls = counting_signalling_witness(monkeypatch)
    tables = signalling_tables(10, seed=20240821)
    for table in tables:
        expected = reference_signalling_witnesses(table)[0]
        w = check_no_signalling(table).witness
        assert (w.context_a, w.context_b, w.section, w.present_in) == expected
    assert calls == tables
    unchecked = EmpiricalModel(pr_box().scenario, pr_box().supports, validate=False)
    calls.clear()
    assert check_no_signalling(unchecked).holds
    assert calls == [unchecked]


# ---------------------------------------------------------------------------
# restriction against all-pairs references built on Section.restrict


def lexicographic(scenario, measurements):
    pos = {o: k for k, o in enumerate(scenario.outcomes)}
    return lambda s: tuple(pos[s[m]] for m in measurements)


def reference_signalling_witnesses(model):
    """Every E2 violation over all context pairs (i, j), i < j in cover
    order: the two contexts, the first overlap section in lexicographic
    order that only one side's restriction contains, and that side."""
    scn = model.scenario
    found = []
    for i, ci in enumerate(scn.contexts):
        for cj, sup in zip(scn.contexts[i + 1 :], model.supports[i + 1 :]):
            overlap = tuple(m for m in ci if m in cj)
            if not overlap:
                continue
            left = {s.restrict(overlap) for s in model.supports[i]}
            right = {s.restrict(overlap) for s in sup}
            if left != right:
                t = min(left ^ right, key=lexicographic(scn, overlap))
                found.append((ci, cj, t, "first" if t in left else "second"))
    return found


def reference_restricted_support(model, index, subset):
    sub = model.scenario.sorted_measurements(subset)
    image = {s.restrict(sub) for s in model.supports[index]}
    return tuple(sorted(image, key=lexicographic(model.scenario, sub)))


def reversed_orders(model):
    """The same supports over a scenario that declares its measurements
    and outcomes in reverse order, so that declared order, label order and
    numeric order all differ."""
    scn = model.scenario
    flipped = Scenario(scn.measurements[::-1], scn.contexts, scn.outcomes[::-1])
    return EmpiricalModel(flipped, model.supports, validate=False)


def signalling_tables(count, seed):
    """Unvalidated models over random covers whose supports are random
    subsets of each context's sections, kept when E2 fails on at least two
    context pairs."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        scn = random_scenario(rng)
        supports = []
        for ctx in scn.contexts:
            full = [scn.section(ctx, v) for v in product(scn.outcomes, repeat=len(ctx))]
            supports.append(tuple(rng.sample(full, rng.randint(1, len(full)))))
        table = EmpiricalModel(scn, tuple(supports), validate=False)
        if len(reference_signalling_witnesses(table)) >= 2:
            tables.append(table)
    return tables


def perturbed_colourings(count, seed):
    """Unvalidated colouring models of the Groetzsch graph, whose vertices
    each lie in three to five edge contexts, with one support perturbed:
    one context loses every section with a given colour at one of its two
    vertices, so it disagrees with the other edges at that vertex only."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        base = groetzsch_colouring(rng.choice((3, 4)))
        ci = rng.randrange(len(base.scenario.contexts))
        position, colour = rng.randrange(2), rng.choice(base.scenario.outcomes)
        supports = list(base.supports)
        supports[ci] = tuple(
            s for s, v in zip(base.support(ci), base.support_values(ci)) if v[position] != colour
        )
        tables.append(EmpiricalModel(base.scenario, tuple(supports), validate=False))
    return tables


def test_signalling_witness_matches_all_pairs_reference():
    three_pairs = (CORR, ((0, 0), (1, 0)), ((0, 0),), ANTI)
    fixed = EmpiricalModel(
        BIPARTITE,
        tuple(
            tuple(BIPARTITE.section(ctx, vals) for vals in row)
            for ctx, row in zip(BIPARTITE.contexts, three_pairs)
        ),
        validate=False,
    )
    tables = [fixed] + signalling_tables(40, seed=20240820)
    assert len(tables) == 41
    # overlaps shared by three or more contexts, where pairs lie off the
    # overlap forest: the first forest pair that disagrees is the first pair
    tables += perturbed_colourings(20, seed=20261019)
    models = random_models(25, seed=20240818) + tables
    for model in models + [reversed_orders(m) for m in models]:
        expected = reference_signalling_witnesses(model)
        verdict = check_no_signalling(model)
        if not expected:
            assert verdict.holds
            continue
        w = verdict.witness
        assert (w.context_a, w.context_b, w.section, w.present_in) == expected[0]
        with pytest.raises(SignallingError) as err:
            EmpiricalModel(model.scenario, model.supports)
        assert (err.value.contexts, err.value.section) == ((w.context_a, w.context_b), w.section)
    assert len(reference_signalling_witnesses(fixed)) == 3


def test_restricted_support_matches_all_pairs_reference():
    models = random_models(25, seed=20240818) + [hardy_model(), pr_box()]
    for model in models + [reversed_orders(m) for m in models]:
        scn = model.scenario
        for ci, ctx in enumerate(scn.contexts):
            assert model.restricted_support(ci, ctx) is model.supports[ci]
            for size in range(1, len(ctx) + 1):
                for sub in combinations(ctx, size):
                    expected = reference_restricted_support(model, ci, sub)
                    assert model.restricted_support(ci, sub[::-1]) == expected
                    order = scn.sorted_measurements(sub)
                    assert model.restricted_values(ci, set(sub)) == tuple(
                        s.values_on(order) for s in expected
                    )


def test_models_are_immutable_values():
    model = pr_box()
    twin = EmpiricalModel.from_values(BIPARTITE, map(model.support_values, range(4)))
    assert model == twin and twin == model and hash(model) == hash(twin)
    assert model != hardy_model() and model != model.scenario
    for attempt in (
        lambda: setattr(model, "scenario", BIPARTITE),
        lambda: setattr(model, "_values", twin._values),
        lambda: setattr(model, "extra", 1),
        lambda: delattr(model, "scenario"),
        lambda: delattr(twin, "_values"),
    ):
        with pytest.raises(FrozenInstanceError):
            attempt()
    assert model == twin and model.supports == twin.supports


def test_models_and_tables_reject_a_foreign_section_alike():
    # the table's wording, which tests/_reference_probabilities.py pins
    for section, message in (
        (BIPARTITE.section(("a1", "b2"), (0, 0)), "a1=0,b2=0 is not a section over ('a1', 'b1')"),
        (Section.of({"a1": 0, "b1": 2}), "section a1=0,b1=2 uses outcome outside the alphabet"),
    ):
        supports = ((*pr_box().support(0), section), *pr_box().supports[1:])
        rows = ((*bell_table().rows[0], (section, Fraction(0))), *bell_table().rows[1:])
        for build in (lambda: EmpiricalModel(BIPARTITE, supports), lambda: ProbabilityTable(BIPARTITE, rows)):
            with pytest.raises(ModelError) as err:
                build()
            assert type(err.value) is ModelError and str(err.value) == message


def test_context_of_section_requires_support():
    model = pr_box()
    good = BIPARTITE.section(("a1", "b1"), (0, 0))
    assert model.context_of_section(good) == 0
    with pytest.raises(SectionNotSupportedError):
        model.context_of_section(BIPARTITE.section(("a1", "b1"), (0, 1)))
    with pytest.raises(ScenarioError):
        model.context_of_section(Section.of({"a1": 0}))


# ---------------------------------------------------------------------------
# probability tables


def test_bell_table_support_drops_zero_rows():
    support = support_of_probability_table(bell_table())
    assert [len(s) for s in support.supports] == [2, 4, 4, 4]
    assert support.support_set(0) == {
        BIPARTITE.section(("a1", "b1"), (0, 0)),
        BIPARTITE.section(("a1", "b1"), (1, 1)),
    }


def test_probability_rows_validated():
    def corr_row(ctx):
        return {
            BIPARTITE.section(ctx, (0, 0)): Fraction(1, 2),
            BIPARTITE.section(ctx, (1, 1)): Fraction(1, 2),
        }

    bad_sum = {BIPARTITE.section(("a1", "b2"), (0, 0)): Fraction(9, 8)}
    with pytest.raises(NormalisationError):
        ProbabilityTable.from_mappings(
            BIPARTITE,
            (corr_row(("a1", "b1")), bad_sum, corr_row(("a2", "b1")), corr_row(("a2", "b2"))),
        )
    negative = {
        BIPARTITE.section(("a1", "b1"), (0, 0)): Fraction(3, 2),
        BIPARTITE.section(("a1", "b1"), (1, 1)): Fraction(-1, 2),
    }
    with pytest.raises(NormalisationError):
        ProbabilityTable.from_mappings(
            BIPARTITE,
            (
                negative,
                corr_row(("a1", "b2")),
                corr_row(("a2", "b1")),
                corr_row(("a2", "b2")),
            ),
        )


def test_probability_marginals_must_match():
    uniform = {BIPARTITE.section(("a1", "b2"), v): Fraction(1, 4) for v in ALL4}
    corr = {
        BIPARTITE.section(("a1", "b1"), (0, 0)): Fraction(1, 2),
        BIPARTITE.section(("a1", "b1"), (1, 1)): Fraction(1, 2),
    }
    skew = {
        BIPARTITE.section(("a2", "b1"), (0, 0)): Fraction(3, 4),
        BIPARTITE.section(("a2", "b1"), (1, 1)): Fraction(1, 4),
    }
    anti = {BIPARTITE.section(("a2", "b2"), v): Fraction(1, 4) for v in ALL4}
    with pytest.raises(SignallingError):
        ProbabilityTable.from_mappings(BIPARTITE, (corr, uniform, skew, anti))


def reference_marginal_witness(table):
    """The first context pair (i, j), i < j in cover order, whose
    marginals on their overlap differ, with the first differing overlap
    section in the order of its text, or None."""
    scn = table.scenario
    for i, ci in enumerate(scn.contexts):
        for j in range(i + 1, len(scn.contexts)):
            overlap = tuple(m for m in ci if m in scn.contexts[j])
            if not overlap:
                continue
            mi, mj = table.marginal(i, overlap), table.marginal(j, overlap)
            for t in sorted(set(mi) | set(mj), key=str):
                if mi.get(t, 0) != mj.get(t, 0):
                    return (ci, scn.contexts[j]), t
    return None


def test_marginal_witness_matches_all_pairs_reference():
    # uniform weight on the proper colourings of each edge of the Groetzsch
    # graph has uniform marginals at every vertex; moving weight between two
    # sections that differ only at one vertex of one edge breaks the
    # marginals at that vertex, which three to five edges share
    base = groetzsch_colouring(3)
    scn = base.scenario
    rng = random.Random(20261019)
    uniform = [{s: Fraction(1, 6) for s in base.support(ci)} for ci in range(len(scn.contexts))]
    table = ProbabilityTable.from_mappings(scn, uniform)
    assert reference_marginal_witness(table) is None
    for _ in range(12):
        ci = rng.randrange(len(scn.contexts))
        u, v = scn.contexts[ci]
        x, y, z = rng.sample(scn.outcomes, 3)
        rows = [dict(row) for row in uniform]
        shift = Fraction(1, 12)
        rows[ci][scn.section((u, v), (x, y))] += shift
        rows[ci][scn.section((u, v), (z, y))] -= shift
        unchecked = ProbabilityTable.from_mappings(scn, rows, validate=False)
        contexts, section = reference_marginal_witness(unchecked)
        assert u in contexts[0] and u in contexts[1]
        with pytest.raises(SignallingError) as err:
            ProbabilityTable.from_mappings(scn, rows)
        assert (err.value.contexts, err.value.section) == (contexts, section)


def test_uniform_table_on_pr_box_is_no_signalling():
    table = ProbabilityTable.uniform(pr_box())
    assert sum(p for _, p in table.rows[0]) == 1


# ---------------------------------------------------------------------------
# classification against the exhaustive oracle


def test_pr_box_strongly_contextual():
    report = classify_contextuality(pr_box())
    assert report.strongly_contextual is True
    assert report.logically_contextual is True
    assert report.global_section is None
    assert report.decided


def test_hardy_logically_but_not_strongly():
    report = classify_contextuality(hardy_model())
    assert report.logically_contextual is True
    assert report.strongly_contextual is False
    failing = with_sections(hardy_model(), report.extends)
    assert [str(s) for _, _, s, extends in failing if not extends] == ["a1=0,b1=0"]
    # the witnessing global section is the lexicographically first one
    assert report.global_section == min(
        all_global_sections(hardy_model()),
        key=lambda g: g.values_on(("a1", "a2", "b1", "b2")),
    )


def test_full_support_not_contextual():
    report = classify_contextuality(bipartite_model(ALL4, ALL4, ALL4, ALL4))
    assert report.logically_contextual is False
    assert report.strongly_contextual is False


def test_budget_exhaustion_reports_undecided():
    report = classify_contextuality(pr_box(), budget=3)
    assert report.strongly_contextual is None
    assert not report.decided
    assert report.nodes_used <= 3


def test_classification_matches_oracle_on_random_models():
    models = random_models(60, seed=20240817)
    for model in models:
        report = classify_contextuality(model)
        assert report.decided
        globals_ = all_global_sections(model)
        assert report.strongly_contextual == (not globals_)
        if globals_:
            assert report.global_section in globals_
        for _, ctx, s, extends in with_sections(model, report.extends):
            expected = any(g.restrict(ctx) == s for g in globals_)
            assert extends == expected, (model.scenario, str(s))


def test_every_global_section_found_settles_its_sections(corpus_models):
    # the reference searches for every section on its own; the global
    # sections found along the way may only spare searches, never change a
    # verdict
    models = list(corpus_models.values())
    models += random_models(60, seed=20240817) + random_contextual_models(20, seed=20240824)
    for model in models:
        report = classify_contextuality(model)
        engine = _Restrictor(model)
        measurements = model.scenario.measurements
        first = engine.first({}, model_module.DEFAULT_SEARCH_BUDGET)[0]
        assert report.global_section == (
            None if first is None else Section.of(zip(measurements, first))
        )
        assert report.strongly_contextual == (first is None)
        expected = [
            engine.first(
                {measurements.index(m): o for m, o in s.items},
                model_module.DEFAULT_SEARCH_BUDGET,
            )[0]
            is not None
            for _, _, s, _ in with_sections(model, report.extends)
        ]
        assert list(report.extends) == expected
        assert report.logically_contextual == (not all(expected))


def test_settled_sections_spare_their_searches(corpus_models, monkeypatch):
    # bell and hardy took 10 and 9 per-section searches when only the first
    # global section settled sections
    fixed = []
    first = _Restrictor.first

    def counted(self, positions, budget):
        fixed.append(positions or None)
        return first(self, positions, budget)

    monkeypatch.setattr(_Restrictor, "first", counted)
    for name, searches, nodes in (("bell", 6, 32), ("hardy", 5, 37)):
        fixed.clear()
        report = classify_contextuality(corpus_models[name])
        assert fixed[0] is None
        assert len(fixed) - 1 == searches
        assert report.nodes_used == nodes


@pytest.fixture(scope="module")
def reference_models(corpus_models):
    return (
        list(corpus_models.values())
        + random_models(120, 7)
        + random_contextual_models(40, 7)
        + [tseitin_model(12, seed=1), tseitin_model(18, seed=1)]
    )


@pytest.mark.parametrize("budget", (1, 2, 3, 5, 8, 13, 50, 200, 2_000, 20_000))
def test_search_matches_the_recursive_reference(reference_models, budget):
    # the same visiting order and node rule as a plain recursion: every
    # verdict, witness and node count agrees, also where the budget cuts a
    # search short
    for model in reference_models:
        report = classify_contextuality(model, budget)
        found = (
            report.extends,
            report.logically_contextual,
            report.strongly_contextual,
            report.global_section,
            report.nodes_used,
        )
        assert found == reference_classify(model, budget), model.scenario.contexts


def test_section_extension_oracle_on_corpus(corpus_models):
    for name in ("pr-box", "hardy", "specker-triangle", "bell"):
        model = corpus_models[name]
        report = classify_contextuality(model)
        globals_ = all_global_sections(model)
        assert report.strongly_contextual == (not globals_)
        for _, ctx, s, extends in with_sections(model, report.extends):
            assert extends == any(g.restrict(ctx) == s for g in globals_)
