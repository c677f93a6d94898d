"""Linear theories and All-vs-Nothing: kernel generators checked against
the definition, affine spans against brute-force combination enumeration."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    DegenerateModelError,
    EmpiricalModel,
    INTEGERS,
    LinearEquation,
    OutcomeCoercionError,
    RingError,
    RingSpec,
    Scenario,
    Section,
    Theory,
    UnsupportedRingError,
    affine_closure_model,
    affine_span,
    classify_contextuality,
    is_avn,
    is_avn_at,
    liar_cycle_model,
    linear_decomposition,
    model_of_theory,
    outcome_embedding,
    satisfies,
    solutions,
    theory_of_model,
    theory_of_sections,
)

import contextuality.theory as theory_module
from contextuality.rings import dense
from contextuality.theory import equations_on_cover

from _random_models import random_contextual_models, random_models
from conftest import (
    ALL4,
    BIPARTITE,
    CORR,
    bipartite_model,
    groetzsch_colouring,
    hardy_model,
    pr_box,
)


def brute_affine_span(n, vectors):
    """Every affine combination with one coefficient per distinct vector;
    repeats collapse into these, so this is the whole span."""
    vecs = sorted({tuple(x % n for x in v) for v in vectors})
    dim = len(vecs[0])
    out = set()
    for coeffs in product(range(n), repeat=len(vecs)):
        if sum(coeffs) % n != 1:
            continue
        out.add(
            tuple(
                sum(c * v[i] for c, v in zip(coeffs, vecs)) % n
                for i in range(dim)
            )
        )
    return frozenset(out)


# ---------------------------------------------------------------------------
# equations


def test_equation_canonicalises_and_prints():
    eq = LinearEquation(RingSpec(3), ("a0", "b0"), (1, -1), 5)
    assert eq.coefficients == (1, 2)
    assert eq.constant == 2
    assert str(eq) == "a0 + 2*b0 = 2 (mod 3)"
    assert eq.coefficient("a0") == 1
    assert eq.coefficient("zz") == 0


def test_equation_validation():
    with pytest.raises(RingError):
        LinearEquation(RingSpec(2), ("a", "b"), (1,), 0)
    with pytest.raises(RingError):
        LinearEquation(RingSpec(2), ("a", "a"), (1, 1), 0)


def test_satisfies():
    eq = LinearEquation(RingSpec(2), ("a", "b"), (1, 1), 1)
    assert satisfies(Section.of({"a": 0, "b": 1}), eq)
    assert not satisfies(Section.of({"a": 1, "b": 1}), eq)


def test_theory_dedupes_and_checks_ring():
    eq = LinearEquation(RingSpec(2), ("a", "b"), (1, 1), 0)
    assert len(Theory(RingSpec(2), (eq, eq))) == 1
    with pytest.raises(RingError):
        Theory(RingSpec(3), (eq,))


def test_equations_land_on_the_contexts_containing_them():
    ring = RingSpec(2)
    landed = equations_on_cover(ring, BIPARTITE, {"a1": 1}, 1)
    assert [eq.context for eq in landed] == [("a1", "b1"), ("a1", "b2")]
    assert [eq.coefficients for eq in landed] == [(1, 0), (1, 0)]
    # zero coefficients constrain nothing: the equation lands everywhere
    everywhere = equations_on_cover(ring, BIPARTITE, {"a1": 2}, 1)
    assert [eq.context for eq in everywhere] == list(BIPARTITE.contexts)
    assert equations_on_cover(ring, BIPARTITE, {"a1": 1, "a2": 1}, 0) == ()
    assert equations_on_cover(ring, BIPARTITE, {"zz": 1}, 0) == ()


def test_outcome_embedding_requires_injectivity():
    assert outcome_embedding(RingSpec(3), (0, 1)) == {0: 0, 1: 1}
    with pytest.raises(OutcomeCoercionError):
        outcome_embedding(RingSpec(2), (0, 1, 2))
    with pytest.raises(OutcomeCoercionError):
        outcome_embedding(RingSpec(3), (0, 3))


# ---------------------------------------------------------------------------
# theories of sections and models


def test_pr_box_theory_is_the_four_parity_equations():
    theory = theory_of_model(pr_box(), RingSpec(2))
    assert sorted(str(eq) for eq in theory.equations) == [
        "a1 + b1 = 0 (mod 2)",
        "a1 + b2 = 0 (mod 2)",
        "a2 + b1 = 0 (mod 2)",
        "a2 + b2 = 1 (mod 2)",
    ]


def test_full_support_context_has_no_equations():
    assert theory_of_sections(
        RingSpec(2),
        ("a1", "b1"),
        [BIPARTITE.section(("a1", "b1"), v) for v in ALL4],
    ) == ()


def test_generators_hold_on_their_sections():
    rng = random.Random(7)
    for n in (2, 3, 4, 6):
        ring = RingSpec(n)
        ctx = ("a", "b", "c")
        pool = [
            Section.of(zip(ctx, vals))
            for vals in product(range(n), repeat=3)
        ]
        secs = rng.sample(pool, rng.randint(1, 6))
        for eq in theory_of_sections(ring, ctx, secs):
            assert all(satisfies(s, eq) for s in secs)


def test_theory_of_model_requires_finite_ring():
    with pytest.raises(UnsupportedRingError):
        theory_of_model(pr_box(), INTEGERS)


def test_theory_of_model_shares_kernels_between_equal_supports(corpus_models, monkeypatch):
    # the reference computes one kernel per context; the equations, their
    # order included, must not change
    kernels = []
    generators = theory_module._kernel_generators

    def counted(ring, width, values, embedding):
        kernels.append(width)
        return generators(ring, width, values, embedding)

    models = list(corpus_models.values()) + [liar_cycle_model(48)]
    models += random_models(40, seed=20240825) + random_contextual_models(20, seed=20240826)
    checked = 0
    for model in models:
        scn = model.scenario
        for n in range(2, 13):
            ring = RingSpec(n)
            try:
                embedding = outcome_embedding(ring, scn.outcomes)
            except OutcomeCoercionError:
                continue
            expected = tuple(
                eq
                for ci, ctx in enumerate(scn.contexts)
                for eq in theory_of_sections(ring, ctx, model.support(ci), embedding)
            )
            monkeypatch.setattr(theory_module, "_kernel_generators", counted)
            kernels.clear()
            theory = theory_of_model(model, ring)
            monkeypatch.setattr(theory_module, "_kernel_generators", generators)
            assert theory.equations == Theory(ring, expected).equations
            distinct = {model.support_values(ci) for ci in range(len(scn.contexts))}
            assert len(kernels) == len(distinct)
            checked += 1
    assert checked > 300
    # 48 contexts with 2 distinct supports, 20 with 1
    assert len({liar_cycle_model(48).support_values(ci) for ci in range(48)}) == 2
    kernels.clear()
    monkeypatch.setattr(theory_module, "_kernel_generators", counted)
    theory_of_model(groetzsch_colouring(3), RingSpec(3))
    assert len(kernels) == 1


def test_solutions_and_model_of_theory_round_trip():
    theory = theory_of_model(pr_box(), RingSpec(2))
    rebuilt = model_of_theory(theory, BIPARTITE)
    assert rebuilt.supports == pr_box().supports
    # default alphabet: ring elements
    eq = LinearEquation(RingSpec(3), ("a", "b"), (1, 1), 0)
    sols = solutions(Theory(RingSpec(3), (eq,)), ("a", "b"))
    assert len(sols) == 3
    assert all(satisfies(s, eq) for s in sols)


def test_inconsistent_theory_materialises_as_degenerate():
    absurd = LinearEquation(RingSpec(2), ("a1", "b1"), (0, 0), 1)
    with pytest.raises(DegenerateModelError):
        model_of_theory(Theory(RingSpec(2), (absurd,)), BIPARTITE)


# ---------------------------------------------------------------------------
# Galois connection and closure


@given(
    n=st.sampled_from([2, 3, 4, 5, 6]),
    k=st.integers(1, 5),
    seed=st.integers(0, 9999),
)
@settings(max_examples=80)
def test_sections_contained_in_solution_closure(n, k, seed):
    # S is a subset of M(T(S)), and closing twice adds nothing
    rng = random.Random(seed)
    ring = RingSpec(n)
    ctx = ("a", "b")
    pool = [Section.of(zip(ctx, vals)) for vals in product(range(n), repeat=2)]
    secs = rng.sample(pool, min(k, len(pool)))
    theory = Theory(ring, theory_of_sections(ring, ctx, secs))
    closed = set(solutions(theory, ctx))
    assert set(secs) <= closed
    theory2 = Theory(ring, theory_of_sections(ring, ctx, closed))
    assert set(solutions(theory2, ctx)) == closed


_SPAN_SHAPES = [(n, d) for n in (2, 3, 4, 5, 6, 8, 9, 12) for d in (1, 2, 3)]


@given(
    shape=st.sampled_from(_SPAN_SHAPES),
    k=st.integers(1, 4),
    seed=st.integers(0, 9999),
)
@settings(max_examples=100, deadline=None)
def test_affine_span_matches_brute_force(shape, k, seed):
    n, dim = shape
    rng = random.Random(seed)
    ring = RingSpec(n)
    vectors = [
        tuple(rng.randrange(n) for _ in range(dim)) for _ in range(k)
    ]
    assert affine_span(ring, vectors) == brute_affine_span(n, vectors)


@given(
    n=st.sampled_from([2, 3, 5]),
    k=st.integers(1, 5),
    seed=st.integers(0, 9999),
)
@settings(max_examples=80)
def test_solution_closure_is_affine_span_over_fields(n, k, seed):
    rng = random.Random(seed)
    ring = RingSpec(n)
    ctx = ("a", "b")
    pool = [Section.of(zip(ctx, vals)) for vals in product(range(n), repeat=2)]
    secs = rng.sample(pool, min(k, len(pool)))
    theory = Theory(ring, theory_of_sections(ring, ctx, secs))
    closed = {s.values_on(ctx) for s in solutions(theory, ctx)}
    assert closed == set(affine_span(ring, [s.values_on(ctx) for s in secs]))


@given(
    n=st.sampled_from([4, 6]),
    k=st.integers(1, 4),
    seed=st.integers(0, 9999),
)
@settings(max_examples=40, deadline=None)
def test_affine_span_within_solution_closure_composite(n, k, seed):
    rng = random.Random(seed)
    ring = RingSpec(n)
    ctx = ("a", "b")
    pool = [Section.of(zip(ctx, vals)) for vals in product(range(n), repeat=2)]
    secs = rng.sample(pool, min(k, len(pool)))
    theory = Theory(ring, theory_of_sections(ring, ctx, secs))
    closed = {s.values_on(ctx) for s in solutions(theory, ctx)}
    assert set(affine_span(ring, [s.values_on(ctx) for s in secs])) <= closed


@given(
    n=st.sampled_from([2, 3, 4, 6]),
    k=st.integers(1, 5),
    seed=st.integers(0, 9999),
)
@settings(max_examples=40, deadline=None)
def test_theory_unchanged_by_affine_closure(n, k, seed):
    rng = random.Random(seed)
    ring = RingSpec(n)
    ctx = ("a", "b")
    pool = [Section.of(zip(ctx, vals)) for vals in product(range(n), repeat=2)]
    secs = rng.sample(pool, min(k, len(pool)))
    span = affine_span(ring, [s.values_on(ctx) for s in secs])
    closed_sections = [Section.of(zip(ctx, v)) for v in span]
    t1 = Theory(ring, theory_of_sections(ring, ctx, secs))
    t2 = Theory(ring, theory_of_sections(ring, ctx, closed_sections))
    assert set(solutions(t1, ctx)) == set(solutions(t2, ctx))
    for eq in t1.equations:
        assert all(satisfies(s, eq) for s in closed_sections)


def test_affine_closure_model_shape():
    closed = affine_closure_model(pr_box(), RingSpec(2))
    assert closed.scenario.outcomes == (0, 1)
    assert closed.supports == pr_box().supports  # already affine-closed
    with pytest.raises(UnsupportedRingError):
        affine_closure_model(pr_box(), INTEGERS)


def test_affine_closure_over_larger_ring_grows_alphabet():
    closed = affine_closure_model(pr_box(), RingSpec(3))
    assert closed.scenario.outcomes == (0, 1, 2)
    # correlated pair {00, 11} spans the mod-3 diagonal
    assert {s.values_on(("a1", "b1")) for s in closed.supports[0]} == {
        (0, 0),
        (1, 1),
        (2, 2),
    }


def test_affine_closure_alphabet_is_the_residues_that_occur():
    # one section per context is its own closure: a huge ring must not
    # become the alphabet of a two-section model
    scn = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c")), (0, 1))
    model = EmpiricalModel(
        scn, ((scn.section(("a", "b"), (0, 1)),), (scn.section(("b", "c"), (1, 0)),))
    )
    closed = affine_closure_model(model, RingSpec(1000003))
    assert closed.scenario.outcomes == (0, 1)
    assert closed.supports == model.supports


# ---------------------------------------------------------------------------
# AvN verdicts and certificates


def _solve(report):
    """A solution of the certificate's dense rows [A | b], or None, from the
    one public solver."""
    width = len(report.model.scenario.measurements)
    rows = [dense(row, width + 1) for row in report.howell_rows]
    a, b = [row[:-1] for row in rows], [row[-1] for row in rows]
    return linear_decomposition(report.ring, a, width).solve(b)


def test_pr_box_avn_with_unsolvable_certificate():
    report = is_avn(pr_box(), RingSpec(2))
    assert report.avn
    assert report.solution is None
    assert report.howell_rows is not None
    assert _solve(report) is None


@pytest.mark.parametrize("n", [2, 4, 6])
def test_avn_certificate_shows_the_impossible_row(n, corpus_models):
    models = [m for name, m in sorted(corpus_models.items()) if name != "ks-18"]
    verdicts = 0
    for model in models + [liar_cycle_model(8)]:
        report = is_avn(model, RingSpec(n))
        if not report.avn:
            continue
        verdicts += 1
        # a row whose only key is the b column: 0 = b with b nonzero
        width = len(model.scenario.measurements)
        assert any(list(row) == [width] for row in report.howell_rows)
    assert verdicts


def test_bell_support_model_not_avn():
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    report = is_avn(bell, RingSpec(2))
    assert not report.avn
    g = report.solution
    assert g is not None
    for eq in report.theory.equations:
        assert satisfies(g.restrict(eq.context), eq)


def test_avn_fixed_section_tightens_the_system():
    # three correlated contexts plus one free context: globally consistent,
    # inconsistent through the section a2=0,b2=1
    model = bipartite_model(CORR, CORR, CORR, ALL4)
    ring = RingSpec(2)
    assert not is_avn(model, ring).avn
    s0 = BIPARTITE.section(("a2", "b2"), (0, 1))
    report = is_avn_at(model, s0, ring)
    assert report.avn
    assert report.fixed == s0
    assert _solve(report) is None
    s1 = BIPARTITE.section(("a2", "b2"), (0, 0))
    assert not is_avn_at(model, s1, ring).avn


def test_avn_at_requires_supported_section():
    from contextuality import SectionNotSupportedError

    with pytest.raises(SectionNotSupportedError):
        is_avn_at(pr_box(), BIPARTITE.section(("a1", "b1"), (0, 1)), RingSpec(2))


def _check_avn_report(model, ring, report, s0=None):
    """The report against the dense system [A | b] built here from its
    theory (and s0's fixing rows), solved by `linear_decomposition`."""
    measurements = model.scenario.measurements
    embedding = outcome_embedding(ring, model.scenario.outcomes)
    rows, rhs = [], []
    for eq in report.theory.equations:
        rows.append([eq.coefficient(m) for m in measurements])
        rhs.append(eq.constant)
    fixed = {} if s0 is None else {m: embedding[o] for m, o in s0.items}
    for m, value in fixed.items():
        rows.append([int(m == other) for other in measurements])
        rhs.append(value)
    unsolvable = linear_decomposition(ring, rows, len(measurements)).solve(rhs) is None
    assert report.avn == unsolvable
    if report.avn:
        assert report.solution is None
        assert list(report.howell_rows[-1]) == [len(measurements)]
        return
    assert report.howell_rows is None
    g = report.solution
    assert g.domain == frozenset(measurements)
    for eq in report.theory.equations:
        assert satisfies(g.restrict(eq.context), eq)
    assert all(g[m] == value for m, value in fixed.items())


def test_avn_reports_match_the_dense_system(corpus_models):
    # every verdict, solution and certificate of is_avn and is_avn_at,
    # over prime, prime-power and mixed composite moduli
    models = list(corpus_models.values()) + random_models(30, seed=20240822)
    tallies = {"avn": 0, "solved": 0, "at-avn": 0, "at-solved": 0}
    for model in models:
        for n in (2, 3, 4, 6, 8, 9, 12):
            ring = RingSpec(n)
            try:
                report = is_avn(model, ring)
            except OutcomeCoercionError:
                continue
            _check_avn_report(model, ring, report)
            tallies["avn" if report.avn else "solved"] += 1
            for ci in range(len(model.scenario.contexts)):
                for s0 in model.support(ci):
                    report = is_avn_at(model, s0, ring)
                    assert report.fixed == s0
                    _check_avn_report(model, ring, report, s0)
                    tallies["at-avn" if report.avn else "at-solved"] += 1
    assert all(tallies.values()), tallies


def test_avn_decides_from_one_echelon_form(monkeypatch):
    # the theory's per-context kernels aside, a verdict costs one echelon
    # form of [A | b], whichever way it goes; the echelon forms that
    # `_kernel_generators` makes are not counted
    calls = []
    original = theory_module.echelon
    generators = theory_module._kernel_generators
    in_kernel = []

    def counting(*args):
        if not in_kernel:
            calls.append(args)
        return original(*args)

    def uncounted(*args):
        in_kernel.append(True)
        try:
            return generators(*args)
        finally:
            in_kernel.pop()

    monkeypatch.setattr(theory_module, "echelon", counting)
    monkeypatch.setattr(theory_module, "_kernel_generators", uncounted)
    model = bipartite_model(CORR, CORR, CORR, ALL4)
    for decide in (
        lambda: is_avn(pr_box(), RingSpec(2)),
        lambda: is_avn(model, RingSpec(2)),
        lambda: is_avn_at(model, BIPARTITE.section(("a2", "b2"), (0, 1)), RingSpec(2)),
        lambda: is_avn_at(model, BIPARTITE.section(("a2", "b2"), (0, 0)), RingSpec(2)),
    ):
        calls.clear()
        decide()
        assert len(calls) == 1


def test_box25_avn_moduli(corpus_models):
    box = corpus_models["box-25"]
    assert is_avn(box, RingSpec(3)).avn
    report = is_avn(box, RingSpec(2))
    assert not report.avn
    for eq in report.theory.equations:
        assert satisfies(report.solution.restrict(eq.context), eq)


def test_avn_skipped_alphabets_raise_coercion_error():
    scn = Scenario(("a", "b"), (("a", "b"),), (0, 1, 2))
    model = model_of_theory(
        Theory(RingSpec(3), (LinearEquation(RingSpec(3), ("a", "b"), (1, 2), 0),)),
        scn,
    )
    with pytest.raises(OutcomeCoercionError):
        is_avn(model, RingSpec(2))


def test_field_converse_on_small_models():
    # over a prime modulus, AvN coincides with strong contextuality of the
    # affine closure
    ring = RingSpec(2)
    for model in (pr_box(), hardy_model(), bipartite_model(CORR, ALL4, ALL4, ALL4)):
        avn = is_avn(model, ring).avn
        aff_sc = classify_contextuality(
            affine_closure_model(model, ring)
        ).strongly_contextual
        assert avn == aff_sc
