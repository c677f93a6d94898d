"""Propositional layer: the formula grammar round-trips, the satisfiability
bound is exact over Fractions, and the liar constructions land on the known
models (length four is the PR box, the correspondence included)."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    And,
    BudgetExceededError,
    DegenerateModelError,
    EmpiricalModel,
    FormulaError,
    Iff,
    LiarCycle,
    Not,
    Or,
    ProbabilityTable,
    Proposition,
    Scenario,
    Section,
    Var,
    chsh_propositions,
    classify_contextuality,
    format_formula,
    holds_in,
    liar_cycle_model,
    logical_bell_bound,
    model_isomorphic,
    parse_formula,
    proposition_probability,
    specker_triangle,
)
from contextuality.paradox import evaluate, truth, variables

from conftest import BIPARTITE, bell_table, bipartite_model, pr_box, ALL4, CORR
from _random_models import random_models


# ---------------------------------------------------------------------------
# formulas


def test_parse_precedence_and_associativity():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse_formula("a | b & c") == Or(a, And(b, c))
    assert parse_formula("!a & b") == And(Not(a), b)
    assert parse_formula("a <-> b <-> c") == Iff(Iff(a, b), c)
    assert parse_formula("a & b & c") == And(And(a, b), c)
    assert parse_formula("¬a ∧ (b ∨ c) ↔ d") == Iff(And(Not(a), Or(b, c)), Var("d"))
    assert parse_formula("!!a") == Not(Not(a))


def test_format_uses_minimal_parentheses():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert format_formula(Or(a, And(b, c))) == "a ∨ b ∧ c"
    assert format_formula(And(Or(a, b), c)) == "(a ∨ b) ∧ c"
    assert format_formula(Or(a, Or(b, c))) == "a ∨ (b ∨ c)"
    assert format_formula(Or(Or(a, b), c)) == "a ∨ b ∨ c"
    assert format_formula(Iff(Iff(a, b), c)) == "a ↔ b ↔ c"
    assert format_formula(Not(And(a, b))) == "¬(a ∧ b)"


_FORMULAS = st.recursive(
    st.builds(Var, st.sampled_from(("a", "b", "c", "x1", "p_q"))),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Iff, inner, inner),
    ),
    max_leaves=12,
)


@given(formula=_FORMULAS)
@settings(max_examples=200)
def test_format_parse_round_trip(formula):
    assert parse_formula(format_formula(formula)) == formula


def test_parse_error_positions():
    with pytest.raises(FormulaError, match="position 2"):
        parse_formula("a @ b")
    with pytest.raises(FormulaError, match="end of input"):
        parse_formula("(a")
    with pytest.raises(FormulaError, match="position 2"):
        parse_formula("a b")
    with pytest.raises(FormulaError, match="position 0"):
        parse_formula(")")
    with pytest.raises(FormulaError, match="end of input"):
        parse_formula("!")
    with pytest.raises(FormulaError):
        parse_formula("")


def test_evaluate_and_variables():
    f = parse_formula("a <-> !b")
    assert variables(f) == {"a", "b"}
    assert evaluate(f, {"a": True, "b": False})
    assert not evaluate(f, {"a": True, "b": True})
    with pytest.raises(FormulaError, match="no value"):
        evaluate(f, {"a": True})


def test_truth_convention_reads_zero_as_true():
    assert truth(0) and not truth(1)
    s = BIPARTITE.section(("a1", "b1"), (0, 1))
    assert holds_in(s, Var("a1"))
    assert not holds_in(s, Var("b1"))
    assert holds_in(s, Iff(Var("a1"), Not(Var("b1"))))


# ---------------------------------------------------------------------------
# propositions and bounds


def test_proposition_validation():
    with pytest.raises(FormulaError, match="outside"):
        Proposition(("a1", "b1"), Var("a2"))
    with pytest.raises(FormulaError, match="probability"):
        Proposition(("a1", "b1"), Var("a1"), Fraction(9, 8))
    p = Proposition(("a1", "b1"), Var("a1"), Fraction(1, 2))
    assert p.probability == Fraction(1, 2)


def test_proposition_probability_on_the_bell_table():
    table = bell_table()
    assert proposition_probability(
        table, ("a1", "b1"), Iff(Var("a1"), Var("b1"))
    ) == Fraction(1)
    assert proposition_probability(
        table, ("a2", "b2"), Iff(Var("a2"), Not(Var("b2")))
    ) == Fraction(3, 4)
    # a row that is not symmetric under swapping the two measurements
    scn = Scenario(("a", "b"), (("a", "b"),), (0, 1))
    weights = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 8), (1, 1): Fraction(1, 8)}
    skewed = ProbabilityTable(scn, (tuple((scn.section(("a", "b"), v), w) for v, w in weights.items()),))
    assert proposition_probability(skewed, ("a", "b"), parse_formula("a & !b")) == Fraction(1, 4)
    assert proposition_probability(skewed, ("b", "a"), parse_formula("!a | b")) == Fraction(3, 4)


def test_chsh_bound_on_the_bell_table():
    props = chsh_propositions(bell_table())
    assert [p.probability for p in props] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(3, 4),
    ]
    report = logical_bell_bound(props)
    assert not report.jointly_satisfiable
    assert report.witness is None
    assert report.proposition_count == 4
    assert report.sum_probabilities == Fraction(13, 4)
    assert report.bound == 3
    assert report.violation == Fraction(1, 4)
    assert "violation 1/4" in report.describe()


def test_satisfiable_propositions_support_no_bound():
    props = (
        Proposition(("x", "y"), parse_formula("x <-> y"), Fraction(1)),
        Proposition(("y", "z"), parse_formula("y <-> z"), Fraction(3, 4)),
    )
    report = logical_bell_bound(props)
    assert report.jointly_satisfiable
    assert report.bound is None and report.violation is None
    env = dict(report.witness)
    assert all(evaluate(p.formula, env) for p in props)
    assert "jointly satisfiable" in report.describe()


def test_bound_input_validation():
    with pytest.raises(FormulaError):
        logical_bell_bound(())
    with pytest.raises(FormulaError, match="no probability"):
        logical_bell_bound((Proposition(("x",), Var("x")),))
    many = tuple(
        Proposition((f"m{i}",), Var(f"m{i}"), Fraction(1)) for i in range(21)
    )
    with pytest.raises(BudgetExceededError):
        logical_bell_bound(many)


def test_chsh_needs_two_measurement_contexts():
    scn = Scenario(("a", "b", "c"), (("a", "b", "c"),), (0, 1))
    model = EmpiricalModel(scn, ((scn.section(("a", "b", "c"), (0, 0, 0)),),))
    with pytest.raises(FormulaError):
        chsh_propositions(ProbabilityTable.uniform(model))


# ---------------------------------------------------------------------------
# liar cycles


def test_short_cycles_collapse_to_contradictions():
    with pytest.raises(FormulaError):
        LiarCycle(0)
    for n in (1, 2):
        with pytest.raises(DegenerateModelError):
            liar_cycle_model(n)


def test_liar_cycle_model_shape():
    model = liar_cycle_model(LiarCycle(4))
    assert model.scenario.contexts == (
        ("x1", "x2"),
        ("x2", "x3"),
        ("x3", "x4"),
        ("x1", "x4"),
    )
    values = [
        {s.values_on(ctx) for s in sup}
        for ctx, sup in zip(model.scenario.contexts, model.supports)
    ]
    assert values == [set(CORR), set(CORR), set(CORR), {(0, 1), (1, 0)}]


def test_liar_cycles_are_strongly_contextual():
    for n in range(3, 7):
        report = classify_contextuality(liar_cycle_model(n))
        assert report.strongly_contextual, n


def test_liar_four_is_the_pr_box_with_the_usual_correspondence():
    report = model_isomorphic(liar_cycle_model(4), pr_box())
    assert report.isomorphic
    # reading x1 = x2 as "a2 correlated with b1" and x4 = !x1 as
    # "a2 anticorrelated with b2"
    usual_map = (("x1", "a2"), ("x2", "b1"), ("x3", "a1"), ("x4", "b2"))
    identity = tuple((f"x{i}", ((0, 0), (1, 1))) for i in range(1, 5))
    assert any(
        w.measurement_map == usual_map and w.outcome_maps == identity
        for w in report.witnesses
    )


def test_witnesses_carry_supports_onto_supports():
    liar, pr = liar_cycle_model(4), pr_box()
    report = model_isomorphic(liar, pr)
    for w in report.witnesses:
        for ci, ctx in enumerate(liar.scenario.contexts):
            image = tuple(sorted(w.measurement(m) for m in ctx))
            cj = pr.scenario.context_index(image)
            assert {w.apply(s) for s in liar.support(ci)} == set(pr.support(cj))
    with pytest.raises(FormulaError):
        report.witnesses[0].measurement("zz")


def test_liar_three_is_the_specker_triangle_up_to_one_flip():
    report = model_isomorphic(liar_cycle_model(3), specker_triangle())
    assert report.isomorphic
    flip = ((0, 1), (1, 0))
    keep = ((0, 0), (1, 1))
    identity_names = (("x1", "x1"), ("x2", "x2"), ("x3", "x3"))
    assert any(
        w.measurement_map == identity_names
        and w.outcome_maps == (("x1", keep), ("x2", flip), ("x3", keep))
        for w in report.witnesses
    )


def test_non_isomorphic_pairs():
    assert not model_isomorphic(pr_box(), liar_cycle_model(3)).isomorphic
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    assert not model_isomorphic(pr_box(), bell).isomorphic
    assert not model_isomorphic(liar_cycle_model(4), liar_cycle_model(5)).isomorphic


def oracle_isomorphisms(first, second):
    """Every isomorphism by brute force, as (measurement map, outcome maps)
    pairs: each ordering of the second model's measurements as the images
    of the first's, in declared order, then each choice of one ordering of
    the second's outcomes per measurement as the images of the first's. The
    cover and the supports are compared as sets of Sections."""
    sa, sb = first.scenario, second.scenario
    if (len(sa.measurements), len(sa.outcomes)) != (len(sb.measurements), len(sb.outcomes)):
        return []
    cover_b = {frozenset(c) for c in sb.contexts}
    found = []
    for images in permutations(sb.measurements):
        name = dict(zip(sa.measurements, images))
        if {frozenset(name[m] for m in c) for c in sa.contexts} != cover_b:
            continue
        for orderings in product(permutations(sb.outcomes), repeat=len(sa.measurements)):
            value = {m: dict(zip(sa.outcomes, o)) for m, o in zip(sa.measurements, orderings)}
            mapped = {
                frozenset(
                    Section.of((name[m], value[m][o]) for m, o in s.as_dict().items())
                    for s in first.support(ci)
                )
                for ci in range(len(sa.contexts))
            }
            if mapped == {second.support_set(cj) for cj in range(len(sb.contexts))}:
                found.append((
                    tuple(name.items()),
                    tuple((m, tuple(sorted(value[m].items()))) for m in sa.measurements),
                ))
    return found


def shuffled_copy(model, rng):
    """The model with its measurements renamed and redeclared in a random
    order, each measurement's outcomes permuted, and its contexts
    reordered."""
    scn = model.scenario
    names = list(scn.measurements)
    rng.shuffle(names)
    name = {m: f"y{k}" for k, m in enumerate(names)}
    value = {m: dict(zip(scn.outcomes, rng.sample(scn.outcomes, len(scn.outcomes)))) for m in names}
    order = list(range(len(scn.contexts)))
    rng.shuffle(order)
    copy = Scenario(
        tuple(name[m] for m in names),
        tuple(tuple(name[m] for m in scn.contexts[ci]) for ci in order),
        scn.outcomes,
    )
    return EmpiricalModel(
        copy,
        tuple(
            tuple(Section.of((name[m], value[m][o]) for m, o in s.as_dict().items()) for s in model.support(ci))
            for ci in order
        ),
    )


def pasch(contexts):
    """Even parity on each of four three-measurement contexts over
    p1..p6."""
    names = tuple(f"p{i}" for i in range(1, 7))
    scn = Scenario(names, tuple(tuple(f"p{i}" for i in c) for c in contexts), (0, 1))
    even = [v for v in product((0, 1), repeat=3) if sum(v) % 2 == 0]
    return EmpiricalModel.from_values(scn, [even] * len(contexts))


def oracle_pairs():
    """Named model pairs; the random models have at most four measurements."""
    rng = random.Random(11)
    small = random_models(13, 5)
    pairs = [
        ("pr-box", pr_box(), pr_box()),
        ("liar-4/pr-box", liar_cycle_model(4), pr_box()),
        ("specker", specker_triangle(), specker_triangle()),
        ("liar-3/specker", liar_cycle_model(3), specker_triangle()),
    ]
    pairs += [(f"liar-{n}", liar_cycle_model(n), liar_cycle_model(n)) for n in (3, 4, 5)]
    # two covers with the same pairs of measurements sharing a context, so
    # only the contexts themselves tell the identity map from an isomorphism
    pairs.append((
        "pasch",
        pasch(((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))),
        pasch(((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))),
    ))
    pairs += [(f"random-{k}/copy", m, shuffled_copy(m, rng)) for k, m in enumerate(small[:12])]
    pairs += [(f"random-{k}/next", a, b) for k, (a, b) in enumerate(zip(small, small[1:]))]
    return pairs


ORACLE_PAIRS = oracle_pairs()


@pytest.mark.parametrize("first, second", [p[1:] for p in ORACLE_PAIRS], ids=[p[0] for p in ORACLE_PAIRS])
def test_isomorphism_search_matches_the_brute_force_oracle(first, second):
    report = model_isomorphic(first, second)
    found = [(w.measurement_map, w.outcome_maps) for w in report.witnesses]
    assert found == oracle_isomorphisms(first, second)
    assert report.isomorphic == bool(found)


def test_isomorphism_search_budget():
    with pytest.raises(BudgetExceededError):
        model_isomorphic(liar_cycle_model(4), pr_box(), budget=3)


# ---------------------------------------------------------------------------
# the Specker triangle


def drop_context(model: EmpiricalModel, ci: int) -> EmpiricalModel:
    scn = model.scenario
    contexts = tuple(c for i, c in enumerate(scn.contexts) if i != ci)
    supports = tuple(s for i, s in enumerate(model.supports) if i != ci)
    return EmpiricalModel(Scenario(scn.measurements, contexts, scn.outcomes), supports)


def test_specker_triangle_contextuality_is_tight():
    model = specker_triangle()
    assert classify_contextuality(model).strongly_contextual
    for ci in range(3):
        sub = drop_context(model, ci)
        report = classify_contextuality(sub)
        assert not report.logically_contextual
        assert report.global_section is not None
