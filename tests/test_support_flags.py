"""Per-section verdicts kept as flags aligned with the supports' outcome
tuples: the obstruction flags against the solver, the extension flags
against the supports, the AvN theory and certificate built from the kept
rows, and the text that `analyze` writes from the flags without building a
section."""

import random

import pytest

from contextuality import (
    INTEGERS,
    EmpiricalModel,
    ObstructionSolver,
    OutcomeCoercionError,
    RingSpec,
    Scenario,
    Section,
    analyze,
    classify_cohomological,
    classify_contextuality,
    document_from_model,
    is_avn,
    is_avn_at,
    liar_cycle_model,
    parse_model,
    print_model,
    render_json,
    render_text,
    report_json,
    theory_of_model,
)
from contextuality.cohomology import cochain_basis, vector_to_cochain
from contextuality.rings import echelon, sparse
from contextuality.scenario import section_template

import contextuality.cli as cli_module
import contextuality.theory as theory_module

from _random_models import random_contextual_models, random_models
from conftest import ALL4, CORR, bipartite_model, hardy_model, pr_box, relabelled, with_sections

Z2, Z3, Z4 = RingSpec(2), RingSpec(3), RingSpec(4)

# labels that the text of a section must carry as they are: the separators
# of that text, format braces and non-ASCII
LABELS = ("{0}", "a=2,x", "β}", "b{{2")


def _relabelled(model: EmpiricalModel, labels=LABELS) -> EmpiricalModel:
    return relabelled(model, labels)


def _awkward() -> EmpiricalModel:
    """Labels sorted unlike their declared order, over an alphabet declared
    out of numeric order, so support order is not the order of the raw
    outcome tuples."""
    scenario = Scenario(("中", "}b", "α{"), (("}b", "α{"), ("中", "}b")), (2, -1, 0))
    return EmpiricalModel.from_values(
        scenario,
        (
            [(2, 0), (-1, 2), (0, -1), (2, 2)],
            [(0, 0), (2, 2), (-1, -1), (0, 2), (2, -1)],
        ),
    )


def _models(corpus_models) -> list[EmpiricalModel]:
    models = list(corpus_models.values())
    models += random_models(30, seed=20261018) + random_contextual_models(10, seed=20261019)
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    models += [_relabelled(m) for m in (pr_box(), hardy_model(), bell)]
    models.append(_awkward())
    return models


def test_the_report_writes_a_section_as_its_text():
    for labels in (LABELS, ("中", "}b", "α{"), ("b", "a", "c", "{}", "{1}"), ("{", "}", "z,=")):
        for v in ((0, 1, 2, 3, 4)[: len(labels)], (-1, 10, 0, 7, 2)[: len(labels)]):
            assert section_template(labels).format(*v) == str(Section.of(zip(labels, v)))


# ---------------------------------------------------------------------------
# the flags pair with the supports


def test_obstruction_verdicts_are_the_solver_verdicts():
    models = random_models(25, seed=20261020) + random_contextual_models(10, seed=20261021)
    for model in models:
        for ring in (Z2, Z3, Z4, INTEGERS):
            report = classify_cohomological(model, ring)
            solver = ObstructionSolver(model, ring)
            for _, ctx, s, vanishes in with_sections(model, report.vanishes):
                assert vanishes == solver.vanishes(ctx, s), (ring, ctx, str(s))
            assert report.clc == (False in report.vanishes)
            assert report.csc == (True not in report.vanishes)


def test_extension_verdicts_are_rebuilt_from_the_supports(corpus_models, corpus_documents):
    reports = [(m, classify_contextuality(m)) for m in _models(corpus_models)]
    for doc in corpus_documents.values():
        report = analyze(doc)
        reports.append((report.model, report.classification))
    # flags left undecided at the budget
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    reports.append((bell, classify_contextuality(bell, budget=3)))
    assert None in reports[-1][1].extends
    for model, report in reports:
        # one flag per supported section, in support order
        flags = [extends for _, _, _, extends in with_sections(model, report.extends)]
        assert report.decided == (
            report.logically_contextual is not None
            and report.strongly_contextual is not None
            and None not in flags
        )


def _howell_certificate(model, theory, ring, s0=None) -> tuple[dict, ...] | None:
    """The pivot rows of the Howell form of the theory's rows (and the rows
    fixing s0), when it has a pivot in the constant column."""
    index = model.scenario.measurement_index
    width = len(model.scenario.measurements)
    rows = []
    for eq in theory.equations:
        row = {index(m): a for m, a in zip(eq.context, eq.coefficients) if a}
        row[width] = eq.constant
        rows.append(row)
    if s0 is not None:
        for m in model.scenario.sorted_measurements(s0.domain):
            rows.append({index(m): 1, width: ring.canon(s0[m])})
    form = echelon(ring, rows, width + 1)
    if width not in form.rows:
        return None
    return tuple(form.rows.values())


def _avn_cases(corpus_models):
    for model in _models(corpus_models):
        for ring in (Z2, Z3, Z4, RingSpec(6)):
            try:
                report = is_avn(model, ring)
            except OutcomeCoercionError:
                continue
            yield model, ring, report, None
            ci = len(model.scenario.contexts) // 2
            s0 = model.support(ci)[-1]
            yield model, ring, is_avn_at(model, s0, ring), s0


def test_avn_theory_and_certificate_are_built_from_the_kept_rows(corpus_models):
    cases = avn = 0
    for model, ring, report, s0 in _avn_cases(corpus_models):
        theory = theory_of_model(model, ring)
        assert report.theory == theory
        assert report.howell_rows == _howell_certificate(model, theory, ring, s0)
        assert (report.howell_rows is not None) == report.avn
        assert report.fixed == s0
        cases += 1
        avn += report.avn
    assert avn and cases - avn


def test_avn_runs_one_kernel_per_distinct_support(corpus_models, monkeypatch):
    calls = []
    kernel = theory_module._kernel_generators

    def counted(ring, width, values, embedding):
        calls.append(values)
        return kernel(ring, width, values, embedding)

    monkeypatch.setattr(theory_module, "_kernel_generators", counted)
    models = list(corpus_models.values()) + [liar_cycle_model(12), _relabelled(pr_box())]
    for model in models:
        distinct = {
            (len(ctx), model.support_values(ci)) for ci, ctx in enumerate(model.scenario.contexts)
        }
        s0 = model.support(0)[0]
        theory = theory_of_model(model, Z2)
        for run in (lambda: is_avn(model, Z2), lambda: is_avn_at(model, s0, Z2)):
            calls.clear()
            report = run()
            assert len(calls) == len(distinct)
            # reading the theory runs no elimination of its own
            assert report.theory == theory
            assert (report.howell_rows is None) != report.avn
            assert len(calls) == len(distinct)


# ---------------------------------------------------------------------------
# what analyze and obstruction write, against their renderings through Section


def _documents(corpus_documents, corpus_models):
    docs = list(corpus_documents.values())
    docs += [document_from_model(m) for m in _models(corpus_models)[len(corpus_models):]]
    return docs


def test_non_extending_sections_render_as_their_sections(corpus_documents, corpus_models):
    # a budget of 3 nodes leaves some sections undecided, which are not shown
    reports = [
        analyze(doc, budget=budget)
        for doc in _documents(corpus_documents, corpus_models)
        for budget in (None, 3)
    ]
    assert any(None in report.classification.extends for report in reports)
    for report in reports:
        flags = with_sections(report.model, report.classification.extends)
        failing = [(ctx, s) for _, ctx, s, extends in flags if extends is False]
        assert report_json(report)["non_extending"] == [
            {"context": list(ctx), "section": str(s)} for ctx, s in failing
        ]
        lines = [
            line for line in render_text(report).splitlines()
            if line.startswith("  non-extending: ")
        ]
        if not failing:
            assert lines == []
            continue
        shown = ", ".join(f"{s} at ({', '.join(ctx)})" for ctx, s in failing[:4])
        more = "" if len(failing) <= 4 else f" and {len(failing) - 4} more"
        assert lines == [f"  non-extending: {shown}{more}"]


@pytest.mark.parametrize("name", ["liar-48", "pr-box"])
def test_analyze_and_render_json_build_no_section(name, corpus_documents, monkeypatch):
    if name == "liar-48":
        doc = document_from_model(liar_cycle_model(48), name=name)
    else:
        doc = corpus_documents[name]
    doc = parse_model(print_model(doc))

    def refuse(self, index):
        raise AssertionError(f"support({index}) built Sections")

    monkeypatch.setattr(EmpiricalModel, "support", refuse)
    report = analyze(doc)
    assert report.sc and report.classification.extends.count(False) > 0
    assert render_json(report)


# ---------------------------------------------------------------------------
# what obstruction and avn write, against the objects they render


def _backwards(model: EmpiricalModel, labels) -> EmpiricalModel:
    """The model relabelled in declared order over its alphabet declared in
    reverse, so a support's order is not the order of its raw outcome
    tuples."""
    model = _relabelled(model, labels)
    scn = model.scenario
    return EmpiricalModel.from_values(
        Scenario(scn.measurements, scn.contexts, scn.outcomes[::-1]),
        (model.support_values(ci) for ci in range(len(scn.contexts))),
    )


def _cycle() -> EmpiricalModel:
    """A non-contextual 6-cycle over the alphabet (0, 1)."""
    contexts = tuple((f"x{k}", f"x{(k + 1) % 6}") for k in range(6))
    scenario = Scenario(tuple(f"x{k}" for k in range(6)), contexts, (0, 1))
    return EmpiricalModel.from_values(scenario, [CORR if k % 2 else ALL4 for k in range(6)])


def test_point_query_texts_are_the_object_renderings(corpus_models):
    # `obstruction` writes each family from its weights and `avn` writes
    # each equation from the kernels; both must read as str() of the
    # FormalLinearCombination and LinearEquation objects they replace,
    # term order included where support order is not raw tuple order
    models = list(corpus_models.values())
    models += random_models(30, seed=20261022) + random_contextual_models(10, seed=20261023)
    models += [_backwards(hardy_model(), LABELS), _backwards(_cycle(), LABELS + ("é", "}"))]
    models.append(_awkward())
    rng = random.Random(20261024)
    reordered = zeros = equations = 0
    for model in models:
        basis = cochain_basis(model, 0)
        for ring in (Z2, Z3, Z4, RingSpec(6), INTEGERS):
            solver = ObstructionSolver(model, ring)
            for ci, ctx in enumerate(model.scenario.contexts):
                for s in model.support(ci):
                    weights = solver.weights(ctx, s)
                    family = solver.family(ctx, s)
                    assert (weights is None) == (family is None)
                    if family is None:
                        continue
                    texts = cli_module._family_texts(model, weights)
                    assert texts == [str(c) for c in family]
                    for lo, hi, values in zip(basis.offsets, basis.offsets[1:], basis.values):
                        kept = [k for k in range(lo, hi) if k in weights]
                        reordered += kept != sorted(kept, key=lambda k: values[k - lo])
            # weights off any family, some contexts left empty
            for _ in range(3):
                empty = {ci for ci in range(len(basis.simplices)) if rng.random() < 0.3}
                vec = [
                    0 if si in empty else rng.randrange(-3, 4) if ring.is_integers
                    else rng.randrange(ring.modulus)
                    for si, secs in enumerate(basis.sections) for _ in secs
                ]
                expected = [str(c) for c in vector_to_cochain(ring, basis, vec).components]
                assert cli_module._family_texts(model, sparse(vec)) == expected
                zeros += expected.count("0")
            if ring.is_integers:
                continue
            try:
                reports = [is_avn(model, ring)]
            except OutcomeCoercionError:
                continue
            for ci in range(len(basis.simplices)):
                reports += [is_avn_at(model, s, ring) for s in model.support(ci)]
            for report in reports:
                assert report.equation_texts() == [str(eq) for eq in report.theory.equations]
                equations += len(report.kernels) > 0
    assert reordered and zeros and equations
