"""End-to-end acceptance checks.

One test per headline claim, each ending with a printed
"[criterion N] label: PASS" line (visible under pytest -s). Exact
arithmetic everywhere; no tolerances. The whole file is expected to run
in well under a minute.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from contextuality import (
    GHZ_TRIPLE,
    INTEGERS,
    EmpiricalModel,
    LinearEquation,
    ObstructionSolver,
    OutcomeCoercionError,
    RingMatrix,
    RingSpec,
    Scenario,
    Section,
    affine_closure_model,
    build_nerve,
    check_no_signalling,
    chsh_propositions,
    classify_cohomological,
    classify_contextuality,
    coboundary_matrix,
    connecting_hom_check,
    corpus,
    corpus_names,
    generate_subgroup,
    ghz_model,
    is_avn,
    liar_cycle_model,
    linear_decomposition,
    logical_bell_bound,
    materialize,
    model_isomorphic,
    satisfies,
    theory_of_subgroup,
    triple_scenario,
)

from contextuality.model import _Restrictor

from _random_models import random_contextual_models, random_models
from conftest import with_sections

Z2 = RingSpec(2)
Z3 = RingSpec(3)


def _passed(number: int, label: str) -> None:
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_bell_logical_bound():
    table = corpus("bell").table
    props = chsh_propositions(table)
    assert [p.probability for p in props] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(3, 4),
    ]
    bound = logical_bell_bound(props)
    assert bound.sum_probabilities == Fraction(13, 4)
    assert bound.bound == 3
    assert bound.violation == Fraction(1, 4)
    _passed(1, "Bell table logical bound")


def test_criterion_2_hardy_logical_but_not_strong():
    model = materialize(corpus("hardy"))
    classification = classify_contextuality(model)
    assert classification.decided
    assert classification.logically_contextual
    witness = Section.of((("a1", 0), ("b1", 0)))
    flags = with_sections(model, classification.extends)
    assert next(extends for _, _, s, extends in flags if s == witness) is False
    assert not classification.strongly_contextual
    assert classification.global_section is not None

    # the integer obstruction misses this model entirely
    report = classify_cohomological(model, INTEGERS)
    assert report.clc is False
    assert all(report.vanishes)
    _passed(2, "Hardy model verdicts")


def test_criterion_3_pr_box_and_the_liar_cycle():
    model = materialize(corpus("pr-box"))
    assert check_no_signalling(model).holds
    assert classify_contextuality(model).strongly_contextual
    assert is_avn(model, Z2).avn
    assert classify_cohomological(model, Z2).csc

    iso = model_isomorphic(liar_cycle_model(4), model)
    assert iso.isomorphic
    correspondence = (("x1", "a2"), ("x2", "b1"), ("x3", "a1"), ("x4", "b2"))
    identity = tuple((f"x{i}", ((0, 0), (1, 1))) for i in range(1, 5))
    assert any(
        w.measurement_map == correspondence and w.outcome_maps == identity
        for w in iso.witnesses
    )
    _passed(3, "PR box and liar-4 correspondence")


def test_criterion_4_ghz_mermin():
    subgroup = generate_subgroup(GHZ_TRIPLE)
    theory = theory_of_subgroup(subgroup, triple_scenario(*GHZ_TRIPLE))
    assert sorted(str(eq) for eq in theory.equations) == [
        "X1 + X2 + X3 = 1 (mod 2)",
        "X1 + Y2 + Y3 = 0 (mod 2)",
        "Y1 + X2 + Y3 = 0 (mod 2)",
        "Y1 + Y2 + X3 = 0 (mod 2)",
    ]

    model = ghz_model()
    assert is_avn(model, Z2).avn
    assert classify_contextuality(model).strongly_contextual
    for ring in (Z2, INTEGERS):
        report = classify_cohomological(model, ring)
        assert report.csc
        assert report.vanishes == (False,) * sum(map(len, model.supports))
    _passed(4, "GHZ parity equations and verdicts")


def test_criterion_5_box_25():
    model = materialize(corpus("box-25"))
    six = (
        (("a0", "b0"), (1, 2), 0),
        (("a1", "c0"), (1, 2), 0),
        (("a0", "b1", "c0"), (1, 1, 1), 2),
        (("a0", "b1", "c1"), (1, 1, 1), 2),
        (("a1", "b0", "c1"), (1, 1, 1), 2),
        (("a1", "b1", "c1"), (1, 1, 1), 2),
    )
    # every supported section satisfies each equation, wherever it applies
    for ctx, coeffs, rhs in six:
        equation = LinearEquation(Z3, ctx, coeffs, rhs)
        applicable = 0
        for ci, cover in enumerate(model.scenario.contexts):
            if set(ctx) <= set(cover):
                applicable += 1
                for s in model.supports[ci]:
                    assert satisfies(s.restrict(ctx), equation)
        assert applicable > 0

    # yet the six together have no solution mod 3
    measurements = model.scenario.measurements
    rows = []
    rhs_column = []
    for ctx, coeffs, rhs in six:
        row = [0] * len(measurements)
        for m, c in zip(ctx, coeffs):
            row[measurements.index(m)] = c
        rows.append(row)
        rhs_column.append(rhs)
    assert linear_decomposition(Z3, rows).solve(rhs_column) is None

    assert is_avn(model, Z3).avn
    assert not is_avn(model, Z2).avn
    _passed(5, "box 25 mod-3 argument")


# criterion 6: the implication chain, model level and section level


def _ring_avn_and_affine_sc(model: EmpiricalModel, ring: RingSpec):
    try:
        avn = is_avn(model, ring).avn
        closed = affine_closure_model(model, ring)
    except OutcomeCoercionError:
        return None, None
    return avn, classify_contextuality(closed).strongly_contextual


def _assert_hierarchy(model: EmpiricalModel) -> None:
    classification = classify_contextuality(model)
    assert classification.decided
    sc = classification.strongly_contextual
    lc = classification.logically_contextual
    extends = {(ci, s): flag for ci, _, s, flag in with_sections(model, classification.extends)}

    integral = classify_cohomological(model, INTEGERS)
    assert not integral.csc or sc
    assert not integral.clc or lc
    integral_vanishes = {(ci, s): flag for ci, _, s, flag in with_sections(model, integral.vanishes)}
    for key, value in extends.items():
        if value:
            assert integral_vanishes[key]

    for ring in (Z2, Z3):
        avn, aff_sc = _ring_avn_and_affine_sc(model, ring)
        report = classify_cohomological(model, ring)
        if avn is not None:
            assert not avn or aff_sc
            assert not aff_sc or report.csc
            assert avn == aff_sc  # the converse, here over prime moduli
        assert not report.csc or integral.csc
        assert not report.csc or sc
        assert not report.clc or lc
        for ci, _, s, vanishes in with_sections(model, report.vanishes):
            if extends[ci, s]:
                assert vanishes
            if integral_vanishes[ci, s]:
                assert vanishes


def test_criterion_6_hierarchy_property_suite():
    for name in corpus_names():
        _assert_hierarchy(materialize(corpus(name)))
    for model in random_models(500, seed=20250819):
        _assert_hierarchy(model)
    _passed(6, "implication hierarchy on corpus and 500 random models")


_ORACLE_BUDGET = 5_000


def _strongly_contextual(model: EmpiricalModel, budget: int) -> bool | None:
    """SC from one search for a global section, which is how
    `classify_contextuality` decides it, without that function's
    per-section searches: None when the budget runs out first."""
    found, _, complete = _Restrictor(model).first({}, budget)
    if found is not None:
        return False
    return True if complete else None


def test_criterion_6_affine_closure_sc_is_avn_over_every_zn():
    # Over Z_n the affine span of a support is the solution set of its
    # theory (double annihilators in a Frobenius ring), so searching the
    # listed closure must agree with the linear AvN verdict for every
    # modulus, composite ones included
    models = [materialize(corpus(name)) for name in corpus_names()]
    models += random_models(15, seed=20250819)
    models += random_contextual_models(15, seed=20250824)
    agree = undecided = 0
    for model in models:
        for n in range(2, 13):
            ring = RingSpec(n)
            try:
                avn = is_avn(model, ring).avn
            except OutcomeCoercionError:
                continue
            closed = affine_closure_model(model, ring)
            aff_sc = _strongly_contextual(closed, _ORACLE_BUDGET)
            if aff_sc is None:
                undecided += 1
            else:
                assert aff_sc == avn, (model.scenario.contexts, ring)
                agree += 1
    assert agree > 10 * undecided
    _passed(
        6,
        f"SC of the affine closure equals AvN over Z2..Z12 on {agree} pairs "
        f"({undecided} undecided within {_ORACLE_BUDGET} nodes)",
    )


# criterion 7: independent oracles agree with the production paths


def _matmul(ring: RingSpec, a: RingMatrix, b: RingMatrix) -> list[list[int]]:
    assert a.ncols == b.nrows
    rows_a = list(a.rows())
    rows_b = list(b.rows())
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                acc = ring.add(acc, ring.mul(rows_a[i][k], rows_b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def test_criterion_7_oracle_equivalences():
    for name in corpus_names():
        model = materialize(corpus(name))
        for ring in (Z2, INTEGERS):
            for ci, ctx in enumerate(model.scenario.contexts):
                for s in model.supports[ci]:
                    assert ObstructionSolver(model, ring).vanishes(
                        ctx, s
                    ) == connecting_hom_check(model, ctx, s, ring)
    for model in random_models(200, seed=20250820):
        ctx = model.scenario.contexts[0]
        for s in model.supports[0][:4]:
            for ring in (Z2, INTEGERS):
                assert ObstructionSolver(model, ring).vanishes(
                    ctx, s
                ) == connecting_hom_check(model, ctx, s, ring)

    rng = random.Random(20250821)
    checked = 0
    for _ in range(80):
        n = rng.choice((2, 2, 3, 4, 6))
        unknowns = rng.randint(1, 14 if n == 2 else 4)
        ring = RingSpec(n)
        rows = [
            [rng.randrange(n) for _ in range(unknowns)]
            for _ in range(rng.randint(1, 5))
        ]
        rhs = tuple(rng.randrange(n) for _ in rows)
        solution = linear_decomposition(ring, rows, unknowns).solve(list(rhs))
        brute = None
        for candidate in product(range(n), repeat=unknowns):
            if all(
                sum(c * x for c, x in zip(row, candidate)) % n == b
                for row, b in zip(rows, rhs)
            ):
                brute = candidate
                break
        assert (solution is not None) == (brute is not None)
        if solution is not None:
            assert all(
                sum(c * x for c, x in zip(row, solution)) % n == b
                for row, b in zip(rows, rhs)
            )
        checked += 1
    assert checked == 80

    for name in corpus_names():
        model = materialize(corpus(name))
        nerve = build_nerve(model.scenario)
        for ring in (Z2, Z3, INTEGERS):
            mats = [
                coboundary_matrix(model, q, ring, nerve)
                for q in range(len(nerve))
            ]
            for lower, upper in zip(mats, mats[1:]):
                for row in _matmul(ring, upper, lower):
                    assert all(x == 0 for x in row)
    _passed(7, "solver, obstruction, and coboundary oracles")


def _drop_context(model: EmpiricalModel, index: int) -> EmpiricalModel:
    contexts = tuple(
        ctx for i, ctx in enumerate(model.scenario.contexts) if i != index
    )
    scenario = Scenario(
        model.scenario.measurements, contexts, model.scenario.outcomes
    )
    supports = tuple(
        sup for i, sup in enumerate(model.supports) if i != index
    )
    return EmpiricalModel(scenario, supports)


def test_criterion_8_specker_triangle_is_tight():
    model = materialize(corpus("specker-triangle"))
    assert classify_contextuality(model).strongly_contextual
    assert classify_cohomological(model, Z2).csc
    for i in range(len(model.scenario.contexts)):
        reduced = classify_contextuality(_drop_context(model, i))
        assert reduced.global_section is not None
        assert not reduced.strongly_contextual
    _passed(8, "Specker triangle tightness")


def test_criterion_9_transcribed_tables():
    for name in ("peres-mermin-square", "ks-18"):
        model = materialize(corpus(name))
        assert classify_contextuality(model).strongly_contextual
        report = classify_cohomological(model, Z2)
        assert report.csc
    _passed(9, "Peres-Mermin square and KS-18 verdicts")
