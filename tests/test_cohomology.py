"""Cech machinery: coboundaries against the functional definition, obstruction
verdicts against the independent connecting-homomorphism formulation, and the
witnessing families against the compatibility conditions they certify."""

import random

import pytest

from contextuality import (
    DisconnectedCoverError,
    EmpiricalModel,
    FormalLinearCombination,
    INTEGERS,
    ObstructionSolver,
    RingError,
    RingSpec,
    Scenario,
    Section,
    SectionNotSupportedError,
    SignallingError,
    Simplex,
    Cochain,
    analyze,
    build_nerve,
    check_no_signalling,
    classify_cohomological,
    classify_contextuality,
    coboundary,
    coboundary_matrix,
    cochain_basis,
    connecting_hom_check,
    liar_cycle_model,
    linear_decomposition,
    parse_model,
    print_model,
)
from contextuality.cohomology import (
    coboundary_entries,
    cochain_to_vector,
    vector_to_cochain,
)

import contextuality.cohomology as cohomology_module
from _obstruction_oracle import check_forest_rows, oracle_flags, reference_degree0_rows
from _random_models import random_contextual_models, random_models, tseitin_model
from conftest import (
    ALL4,
    BIPARTITE,
    CORR,
    bipartite_model,
    groetzsch_colouring,
    hardy_model,
    mycielski_colouring,
    pr_box,
    shifted_colouring,
    with_sections,
)

Z2 = RingSpec(2)
Z3 = RingSpec(3)
Z4 = RingSpec(4)
Z6 = RingSpec(6)


def matmul(ring, a_rows, b_rows):
    if not a_rows or not b_rows:
        return []
    out = []
    for row in a_rows:
        out.append(
            [
                ring.canon(sum(x * y for x, y in zip(row, col)))
                for col in zip(*b_rows)
            ]
        )
    return out


# ---------------------------------------------------------------------------
# formal linear combinations


def test_combination_canonical_form():
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    t = BIPARTITE.section(("a1", "b1"), (1, 1))
    c = FormalLinearCombination(Z3, ("a1", "b1"), ((t, 1), (s, 2), (t, 2)))
    assert c.weights == ((s, 2),)  # t merged to 0 and dropped, s first
    assert c.coefficient(s) == 2
    assert c.coefficient(t) == 0
    assert c.total() == 2
    assert str(c) == "2*[a1=0,b1=0]"
    assert str(FormalLinearCombination.zero(Z3, ("a1", "b1"))) == "0"


def test_combination_algebra():
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    t = BIPARTITE.section(("a1", "b1"), (1, 1))
    u = FormalLinearCombination.unit(Z3, s)
    v = FormalLinearCombination.unit(Z3, t)
    assert (u + v).coefficient(s) == 1
    assert (u - u).weights == ()
    assert u.scale(2).coefficient(s) == 2
    assert (u + v).total() == 2


def test_combination_restrict_pushforward():
    # sections with the same restriction pool their weights
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    t = BIPARTITE.section(("a1", "b1"), (0, 1))
    c = FormalLinearCombination(Z3, ("a1", "b1"), ((s, 1), (t, 2)))
    r = c.restrict(("a1",))
    assert r.context == ("a1",)
    assert r.coefficient(Section.of({"a1": 0})) == 0  # 1 + 2 = 0 mod 3
    assert r.total() == c.total()


def test_combination_validation():
    s = BIPARTITE.section(("a1", "b1"), (0, 0))
    with pytest.raises(RingError):
        FormalLinearCombination(Z2, ("a1", "b2"), ((s, 1),))
    u = FormalLinearCombination.unit(Z2, s)
    w = FormalLinearCombination.unit(Z2, BIPARTITE.section(("a1", "b2"), (0, 0)))
    with pytest.raises(RingError):
        u + w


# ---------------------------------------------------------------------------
# cochains and coboundaries


def test_cochain_vector_round_trip():
    model = bipartite_model(CORR, ALL4, ALL4, ALL4)
    basis = cochain_basis(model, 0)
    assert len(basis) == 14
    rng = random.Random(3)
    vec = [rng.randrange(2) for _ in range(len(basis))]
    cochain = vector_to_cochain(Z2, basis, vec)
    assert cochain_to_vector(basis, cochain) == vec


def test_coboundary_matrix_matches_functional_form(corpus_models):
    # the corpus covers and the liar cycle overlap each context with
    # several others; ghz-mermin also has 2-simplices, so degree one is
    # checked there
    rng = random.Random(5)
    models = (
        pr_box(),
        hardy_model(),
        bipartite_model(CORR, ALL4, ALL4, ALL4),
        corpus_models["ghz-mermin"],
        corpus_models["peres-mermin-square"],
        liar_cycle_model(8),
    )
    degree_one = 0
    for model in models:
        nerve = build_nerve(model.scenario, 2)
        for q in range(len(nerve) - 1):
            degree_one += q == 1
            for ring in (Z2, Z3, Z6):
                lower = cochain_basis(model, q)
                upper = cochain_basis(model, q + 1)
                matrix = coboundary_matrix(model, q, ring)
                assert matrix.nrows == len(upper) and matrix.ncols == len(lower)
                for _ in range(4):
                    vec = [rng.randrange(ring.modulus) for _ in range(len(lower))]
                    functional = coboundary(model, vector_to_cochain(ring, lower, vec))
                    via_matrix = [
                        ring.canon(sum(a * x for a, x in zip(row, vec)))
                        for row in matrix.rows()
                    ]
                    assert cochain_to_vector(upper, functional) == via_matrix
    assert degree_one == 1


def test_coboundary_squares_to_zero_on_corpus(corpus_models):
    for model in corpus_models.values():
        nerve = build_nerve(model.scenario, 2)
        for ring in (Z2, Z3, Z6):
            d0 = coboundary_matrix(model, 0, ring, nerve)
            d1 = coboundary_matrix(model, 1, ring, nerve)
            for row in matmul(ring, d1.rows(), d0.rows()):
                assert all(x == 0 for x in row)


def test_functional_coboundary_squares_to_zero(corpus_models):
    # the Mermin-style cover has triples of contexts through a common
    # measurement, so degree two is populated there
    model = corpus_models["ghz-mermin"]
    basis = cochain_basis(model, 0)
    rng = random.Random(11)
    for ring in (Z2, Z6):
        vec = [rng.randrange(ring.modulus) for _ in range(len(basis))]
        dd = coboundary(model, coboundary(model, vector_to_cochain(ring, basis, vec)))
        assert dd.degree == 2
        assert dd.components  # the square being zero should not be vacuous
        assert all(c.weights == () for c in dd.components)


# ---------------------------------------------------------------------------
# obstructions


def test_solver_dimensions():
    solver = ObstructionSolver(pr_box(), Z2)
    assert solver.unknowns == 8
    assert solver.compatibility_rows == 8
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    solver = ObstructionSolver(bell, Z2)
    assert solver.unknowns == 14
    assert solver.compatibility_rows == 8


def check_family(model, ring, ctx, s0, family):
    scn = model.scenario
    c0 = scn.context_index(ctx)
    # the fixed context carries exactly the unit combination at s0
    assert family[c0].weights == ((s0, 1),)
    # weights restrict consistently over every overlap, and connectedness
    # then forces every total to be 1
    for i, ci in enumerate(scn.contexts):
        assert family[i].total() == 1
        for j in range(i + 1, len(scn.contexts)):
            overlap = scn.sorted_measurements(set(ci) & set(scn.contexts[j]))
            if overlap:
                assert family[i].restrict(overlap) == family[j].restrict(overlap)


def test_vanishing_family_is_a_compatibility_certificate():
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    for ring in (Z2, INTEGERS):
        solver = ObstructionSolver(bell, ring)
        for ci, ctx in enumerate(bell.scenario.contexts):
            for s in bell.support(ci):
                family = solver.family(ctx, s)
                assert family is not None
                check_family(bell, ring, ctx, s, family)


def test_hardy_obstructions_all_vanish_over_the_integers():
    # logical contextuality the integral obstruction cannot see
    hardy = hardy_model()
    assert classify_contextuality(hardy).logically_contextual
    report = classify_cohomological(hardy, INTEGERS)
    assert not report.clc
    assert not report.csc
    solver = ObstructionSolver(hardy, INTEGERS)
    s0 = BIPARTITE.section(("a1", "b1"), (0, 0))
    family = solver.family(("a1", "b1"), s0)
    check_family(hardy, INTEGERS, ("a1", "b1"), s0, family)


def test_pr_box_obstructions_never_vanish():
    for ring in (Z2, INTEGERS):
        report = classify_cohomological(pr_box(), ring)
        assert report.clc and report.csc
        assert report.vanishes == (False,) * 8
    solver = ObstructionSolver(pr_box(), Z2)
    assert solver.family(("a1", "b1"), BIPARTITE.section(("a1", "b1"), (0, 0))) is None


def test_corpus_strong_cohomological_verdicts(corpus_models):
    for name in ("pr-box", "ghz-mermin", "specker-triangle", "peres-mermin-square"):
        report = classify_cohomological(corpus_models[name], Z2)
        assert report.csc, name


def test_non_contextual_model_has_no_obstructions():
    bell = bipartite_model(CORR, ALL4, ALL4, ALL4)
    for ring in (Z2, Z3, INTEGERS):
        report = classify_cohomological(bell, ring)
        assert not report.clc


def test_unsupported_section_rejected():
    solver = ObstructionSolver(pr_box(), Z2)
    bad = BIPARTITE.section(("a1", "b1"), (0, 1))
    with pytest.raises(SectionNotSupportedError):
        solver.vanishes(("a1", "b1"), bad)
    with pytest.raises(SectionNotSupportedError):
        connecting_hom_check(pr_box(), ("a1", "b1"), bad, Z2)


def test_disconnected_cover_rejected():
    scn = Scenario(("a", "b", "c", "d"), (("a", "b"), ("c", "d")), (0, 1))
    model_supports = (
        (scn.section(("a", "b"), (0, 0)),),
        (scn.section(("c", "d"), (0, 0)),),
    )
    from contextuality import EmpiricalModel

    model = EmpiricalModel(scn, model_supports)
    with pytest.raises(DisconnectedCoverError):
        ObstructionSolver(model, Z2)
    with pytest.raises(DisconnectedCoverError):
        connecting_hom_check(model, ("a", "b"), model.support(0)[0], Z2)


def test_solver_reuses_context_decompositions():
    solver = ObstructionSolver(pr_box(), Z2)
    for s in pr_box().support(0):
        solver.vanishes(("a1", "b1"), s)
    assert len(solver._decompositions) == 1


def test_analyze_builds_one_degree0_complex_per_model(corpus_documents, monkeypatch):
    # four rings (Z is added by the pipeline) share one degree-0 basis and
    # one set of coboundary rows; the document is re-parsed so that its
    # model arrives without a complex
    built = []

    class Counted(cohomology_module._Degree0Complex):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(cohomology_module, "_Degree0Complex", Counted)
    doc = parse_model(print_model(corpus_documents["ghz-mermin"]))
    report = analyze(doc, rings=(Z2, Z4, Z6))
    assert [entry.ring for entry in report.rings] == [Z2, Z4, Z6, INTEGERS]
    assert len(built) == 1


def reorder_declarations(model):
    """The same model with its measurements and outcomes declared in reverse
    order, which changes every lexicographic numbering."""
    scn = model.scenario
    return EmpiricalModel(
        Scenario(scn.measurements[::-1], scn.contexts, scn.outcomes[::-1]), model.supports
    )


def test_degree0_complex_matches_the_reference_construction(corpus_models):
    models = list(corpus_models.values())
    models += [reorder_declarations(model) for model in corpus_models.values()]
    models += random_models(60, seed=20261018) + random_contextual_models(30, seed=20261019)
    models += [groetzsch_colouring(3), mycielski_colouring(5, 3)]
    models.append(reorder_declarations(mycielski_colouring(4, 3)))
    # the complex keeps the rows of delta0 of the pairs on a spanning forest
    # of each overlap's pairs; every dropped row is a sum of kept ones
    dropped = 0
    for model in models:
        basis, m, rows = reference_degree0_rows(model)
        complex_ = cohomology_module._Degree0Complex(model)
        assert complex_.compatibility_rows == m
        check_forest_rows(model, complex_)
        dropped += m - complex_.forest_rows
        # the complex numbers the supports' outcome tuples in the reference
        # basis order, and the solver reads each position's section from
        # the model's support
        contexts = range(len(model.scenario.contexts))
        assert complex_.offsets == basis.offsets
        assert tuple(map(model.support_values, contexts)) == basis.values
        assert tuple(map(model.support, contexts)) == basis.sections
        cover = tuple(Simplex((ci,), ctx) for ci, ctx in enumerate(model.scenario.contexts))
        assert basis.simplices == cover
    assert dropped > 0


def test_complex_of_an_unvalidated_model_checks_e2():
    # construction did not check E2, so the complex does: a non-signalling
    # model gets its validated twin's rows, and a signalling one raises with
    # the witness of check_no_signalling
    base = groetzsch_colouring(3)
    unchecked = EmpiricalModel(base.scenario, base.supports, validate=False)
    build = cohomology_module._Degree0Complex
    assert build(unchecked).rows == build(base).rows
    supports = list(base.supports)
    supports[0] = tuple(s for s, v in zip(base.support(0), base.support_values(0)) if v[0] != 0)
    signalling = EmpiricalModel(base.scenario, tuple(supports), validate=False)
    w = check_no_signalling(signalling).witness
    with pytest.raises(SignallingError) as err:
        build(signalling)
    assert (err.value.contexts, err.value.section) == ((w.context_a, w.context_b), w.section)


def per_ring_reference(model, ring):
    """The flag of every section, from an elimination over the ring itself:
    s0 at C0 vanishes exactly when some x has delta0*x = 0 and restricts to
    the unit vector at s0 on C0's basis positions."""
    basis = cochain_basis(model, 0)
    delta = coboundary_matrix(model, 0, ring).rows()
    width = len(basis)
    flags = []
    for ci in range(len(model.scenario.contexts)):
        positions = range(basis.offsets[ci], basis.offsets[ci + 1])
        pick = [[int(j == k) for j in range(width)] for k in positions]
        solver = linear_decomposition(ring, delta + pick, width)
        for k in range(len(positions)):
            rhs = [0] * len(delta) + [int(i == k) for i in range(len(positions))]
            flags.append(solver.solve(rhs) is not None)
    return tuple(flags), width, len(delta)


def check_family_by_coboundary(model, ring, entries, ci, s0, family, basis=None):
    """delta0 of the family is zero, and its component at C0 is the unit
    combination at s0."""
    if basis is None:
        basis = cochain_basis(model, 0)
    vec = cochain_to_vector(basis, Cochain(ring, 0, family))
    image = {}
    for row, col, sign in entries:
        image[row] = image.get(row, 0) + sign * vec[col]
    assert all(ring.canon(x) == 0 for x in image.values())
    assert family[ci].weights == ((s0, 1),)


def test_shared_integer_kernel_matches_per_ring_elimination(corpus_models):
    # every ring's verdicts come from the one integer form; both references
    # eliminate over the ring itself: a dense solve per context, and the
    # oracle's echelon of each context's kernel parts
    models = list(corpus_models.values()) + [groetzsch_colouring(3)]
    models += random_models(25, seed=20240818) + random_contextual_models(20, seed=20240824)
    rings = tuple(RingSpec(n) for n in (2, 3, 4, 6, 8, 9, 12)) + (INTEGERS,)
    non_vanishing = dict.fromkeys(rings, 0)
    for model in models:
        basis = cochain_basis(model, 0)
        entries = list(coboundary_entries(basis, cochain_basis(model, 1)))
        for ring in rings:
            report = classify_cohomological(model, ring)
            expected = per_ring_reference(model, ring)
            assert (report.vanishes, report.unknowns, report.compatibility_rows) == expected
            assert report.vanishes == oracle_flags(model, ring)
            solver = ObstructionSolver(model, ring)
            for ci, ctx, s, vanishes in with_sections(model, report.vanishes):
                family = solver.family(ctx, s)
                assert (family is not None) == vanishes
                if family is not None:
                    check_family_by_coboundary(model, ring, entries, ci, s, family)
            non_vanishing[ring] += report.vanishes.count(False)
    assert all(non_vanishing.values()), non_vanishing

    # at colouring scale with obstructions that do not vanish: the dense
    # reference solves one dense system per context, too slow for 860
    # unknowns, so the oracle alone checks every flag, and the coboundary
    # check covers the edge v0-v1, where all 8 non-vanishing sections lie
    model = shifted_colouring(5, 4)
    basis = cochain_basis(model, 0)
    entries = list(coboundary_entries(basis, cochain_basis(model, 1)))
    edge = model.scenario.context_index(("v0", "v1"))
    for ring in rings:
        report = classify_cohomological(model, ring)
        assert report.vanishes == oracle_flags(model, ring)
        assert len(report.vanishes) == 860 and report.vanishes.count(False) == 8
        flags = with_sections(model, report.vanishes)
        assert {ctx for _, ctx, _, vanishes in flags if not vanishes} == {("v0", "v1")}
        solver = ObstructionSolver(model, ring)
        for ci, ctx, s, vanishes in flags:
            if ci == edge:
                family = solver.family(ctx, s)
                assert (family is not None) == vanishes
                if family is not None:
                    check_family_by_coboundary(model, ring, entries, edge, s, family)


def test_forest_rows_decide_what_the_full_coboundary_does(corpus_models):
    # the complex keeps only the rows of delta0 on a spanning forest of each
    # overlap's pairs; its verdicts, unit pivots and compatibility count must
    # be those of the full delta0, which the oracle eliminates over each
    # ring, and its families must pass the full delta0. A family is a
    # cochain over every context, so at colouring scale only one seeded
    # section per ring has its family built and checked
    models = list(corpus_models.values())
    models += [mycielski_colouring(order, colours) for order in (4, 5, 6) for colours in (3, 4)]
    models += [shifted_colouring(5, 4), tseitin_model(30, seed=1)]
    models += random_models(60, seed=7) + random_contextual_models(40, seed=7)
    rings = (Z2, Z4, Z6, INTEGERS)
    rng = random.Random(20261019)
    fewer_rows = non_vanishing = 0
    for model in models:
        complex_ = cohomology_module._degree0_complex(model)
        basis, m, _ = reference_degree0_rows(model)
        assert complex_.compatibility_rows == m
        assert complex_.unit_pivots
        fewer_rows += complex_.forest_rows < m
        entries = list(coboundary_entries(basis, cochain_basis(model, 1)))
        for ring in rings:
            report = classify_cohomological(model, ring)
            assert report.vanishes == oracle_flags(model, ring)
            assert report.compatibility_rows == m
            non_vanishing += report.vanishes.count(False)
            solver = ObstructionSolver(model, ring)
            flags = with_sections(model, report.vanishes)
            if len(flags) > 200:
                flags = [rng.choice(flags)]
            for ci, ctx, s, vanishes in flags:
                family = solver.family(ctx, s)
                assert (family is not None) == vanishes
                if vanishes:
                    check_family_by_coboundary(model, ring, entries, ci, s, family, basis)
    assert fewer_rows >= 8 and non_vanishing > 0


def test_finite_rings_fall_back_to_their_own_elimination(corpus_models, monkeypatch):
    # an integer form with a pivot other than 1 cannot serve Z_n (no known
    # model has one); forcing that report makes each finite ring eliminate
    # [delta0^T | I] itself, once per model and ring however many solvers
    # read it, and the verdicts must not change
    rings = (Z2, Z3, Z4, Z6, RingSpec(8), RingSpec(12))
    models = list(corpus_models.values()) + [groetzsch_colouring(3)]
    models += random_models(60, seed=7) + random_contextual_models(10, seed=20240824)
    shared = [[classify_cohomological(model, ring).vanishes for ring in rings] for model in models]
    eliminated = []
    eliminate = cohomology_module._Degree0Complex._eliminate
    integral = cohomology_module._Degree0Complex._integral

    def counted(self, ring):
        eliminated.append(ring)
        return eliminate(self, ring)

    monkeypatch.setattr(cohomology_module._Degree0Complex, "_eliminate", counted)
    monkeypatch.setattr(
        cohomology_module._Degree0Complex,
        "_integral",
        property(lambda self: (integral.__get__(self)[0], False)),
    )
    for model, expected in zip(models, shared):
        forced = EmpiricalModel(model.scenario, model.supports)
        entries = list(coboundary_entries(cochain_basis(forced, 0), cochain_basis(forced, 1)))
        eliminated.clear()
        for ring, flags in zip(rings, expected):
            report = classify_cohomological(forced, ring)
            assert report.vanishes == flags
            solver = ObstructionSolver(forced, ring)
            for ci, ctx, s, flag in with_sections(forced, flags):
                family = solver.family(ctx, s)
                assert (family is not None) == flag
                if flag:
                    check_family_by_coboundary(forced, ring, entries, ci, s, family)
        assert not cohomology_module._degree0_complex(forced).unit_pivots
        assert eliminated == [INTEGERS, *rings]


def test_analyze_eliminates_the_degree0_rows_once(corpus_documents, monkeypatch):
    # Z2, Z4, Z6 and Z all read the one integer elimination of
    # [delta0^T | I] and the one integer block form of every context; each
    # Z_n adds one Howell form of that form's pivot rows. Documents are
    # re-parsed so that no model arrives with its complex already built
    calls = []
    original = cohomology_module.echelon
    eliminate = cohomology_module._Degree0Complex._eliminate

    def recording(ring, rows, head):
        calls.append(ring)
        return original(ring, rows, head)

    def counted(self, ring):
        calls.append(("eliminate", ring))
        return eliminate(self, ring)

    monkeypatch.setattr(cohomology_module, "echelon", recording)
    monkeypatch.setattr(cohomology_module._Degree0Complex, "_eliminate", counted)
    for name, doc in corpus_documents.items():
        doc = parse_model(print_model(doc))
        calls.clear()
        analyze(doc, rings=(Z2, Z4, Z6))
        assert calls == [("eliminate", INTEGERS), INTEGERS, INTEGERS, Z2, Z4, Z6], name


def test_a_point_query_echelons_the_rows_outside_its_context(corpus_models, monkeypatch):
    # every query at one context reads one echelon form over the asked ring
    # of the complex's rows (D_j | e_j) at the basis positions j outside
    # that context, in reversed order, and no integer elimination
    base = corpus_models["ks-18"]
    for ring in (Z4, INTEGERS):
        model = EmpiricalModel(base.scenario, base.supports)
        solver = ObstructionSolver(model, ring)
        complex_ = cohomology_module._degree0_complex(model)
        m, lo, hi = complex_.forest_rows, *complex_.offsets[3:5]
        calls = []
        original = cohomology_module.echelon
        eliminate = cohomology_module._Degree0Complex._eliminate

        def recording(over, rows, head):
            rows = list(rows)
            calls.append((over, head, [k - m for row in rows for k in row if k >= head]))
            return original(over, rows, head)

        def counted(self, over):
            calls.append(("eliminate", over))
            return eliminate(self, over)

        monkeypatch.setattr(cohomology_module, "echelon", recording)
        monkeypatch.setattr(cohomology_module._Degree0Complex, "_eliminate", counted)
        for s in model.support(3):
            solver.vanishes(model.scenario.contexts[3], s)
            solver.family(model.scenario.contexts[3], s)
        outside = [j for j in reversed(range(complex_.offsets[-1])) if not lo <= j < hi]
        assert calls == [(ring, m, outside)]
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# agreement with the connecting homomorphism, functoriality in the ring


def test_connecting_hom_agrees_on_fixed_models(corpus_models):
    # the Groetzsch 3-colouring (120 sections) is the one model at colouring
    # scale; the oracle takes milliseconds per section there, so it runs over
    # Z3 and Z only
    every_ring = (Z2, Z3, Z4, Z6, INTEGERS)
    cases = [
        (pr_box(), every_ring),
        (hardy_model(), every_ring),
        (bipartite_model(CORR, ALL4, ALL4, ALL4), every_ring),
        (corpus_models["specker-triangle"], every_ring),
        (groetzsch_colouring(3), (Z3, INTEGERS)),
    ]
    for model, rings in cases:
        for ring in rings:
            solver = ObstructionSolver(model, ring)
            flags = classify_cohomological(model, ring).vanishes
            for _, ctx, s, flag in with_sections(model, flags):
                vanishes = solver.vanishes(ctx, s)
                assert flag == vanishes
                assert vanishes == connecting_hom_check(model, ctx, s, ring)
                family = solver.family(ctx, s)
                assert (family is not None) == vanishes
                if family is not None:
                    check_family(model, ring, ctx, s, family)


def test_connecting_hom_agrees_on_random_models():
    # the contextual stream is AvN by construction, so both verdicts occur
    models = random_models(25, seed=20240818) + random_contextual_models(20, seed=20240824)
    non_vanishing = dict.fromkeys((Z2, Z4, Z6, INTEGERS), 0)
    for model in models:
        for ring in non_vanishing:
            solver = ObstructionSolver(model, ring)
            flags = classify_cohomological(model, ring).vanishes
            for _, ctx, s, flag in with_sections(model, flags):
                vanishes = solver.vanishes(ctx, s)
                assert flag == vanishes
                assert vanishes == connecting_hom_check(model, ctx, s, ring)
                non_vanishing[ring] += not vanishes
    assert all(non_vanishing[r] for r in (Z4, Z6, INTEGERS)), non_vanishing


def test_vanishing_families_certify_random_models():
    # every vanishing verdict over composite rings and Z carries a family
    # that passes the compatibility check
    checked = 0
    models = random_models(25, seed=20240818) + random_contextual_models(20, seed=20240824)
    non_vanishing = dict.fromkeys((Z4, Z6, INTEGERS), 0)
    for model in models:
        for ring in non_vanishing:
            solver = ObstructionSolver(model, ring)
            for ci, ctx in enumerate(model.scenario.contexts):
                for s in model.support(ci):
                    family = solver.family(ctx, s)
                    assert (family is not None) == solver.vanishes(ctx, s)
                    if family is not None:
                        check_family(model, ring, ctx, s, family)
                        checked += 1
                    else:
                        non_vanishing[ring] += 1
    assert checked
    assert all(non_vanishing.values()), non_vanishing


def kochen_specker_style(contexts):
    """Supports with exactly one outcome 1 per context."""
    scn = Scenario(tuple(sorted(set().union(*contexts))), contexts, (0, 1))
    return EmpiricalModel(
        scn,
        tuple(
            tuple(scn.section(ctx, [int(i == j) for i in range(len(ctx))]) for j in range(len(ctx)))
            for ctx in contexts
        ),
    )


def test_composite_moduli_need_the_howell_annihilator_rows():
    # In the first model, over Z6 and Z10, an echelon of each context's
    # kernel parts over the ring itself (the fallback's and the oracle's
    # route) meets a pivot 2 whose annihilator row 3*row (5*row) combines
    # with a later pivot 2 into a unit pivot; without those rows the
    # obstruction of m2=1,m5=0,m6=0 looks non-vanishing, although it
    # vanishes over Z2 and over Z3, and so over Z6 by the Chinese remainder
    # theorem. In the second, the integer form at (m0, m1, m2, m3) holds
    # the row 2*[m1=1] - [m0=1]. Mod an even n, reducing m3=1 through it
    # leaves (n/2)*[m0=1], which only its annihilator row (n/2)*row clears,
    # although the obstruction vanishes over Z and so over every Z_n.
    contexts = (("m1", "m4", "m5"), ("m1", "m2", "m3"), ("m2", "m5", "m6"), ("m0", "m5"), ("m3", "m4"))
    model = kochen_specker_style(contexts)
    ctx, s0 = contexts[2], Section.of({"m2": 1, "m5": 0, "m6": 0})
    assert ObstructionSolver(model, Z2).vanishes(ctx, s0)
    assert ObstructionSolver(model, Z3).vanishes(ctx, s0)
    cases = [(model, ctx, s0, (Z6, RingSpec(10)))]
    contexts = (("m1", "m2", "m4"), ("m2", "m3", "m5"), ("m0", "m1", "m4", "m5"), ("m0", "m1", "m2", "m3"))
    ctx, s0 = contexts[3], Section.of({"m0": 0, "m1": 0, "m2": 0, "m3": 1})
    cases.append((kochen_specker_style(contexts), ctx, s0, (Z4, Z6, RingSpec(8), RingSpec(10))))
    for model, ctx, s0, rings in cases:
        for ring in rings:
            solver = ObstructionSolver(model, ring)
            for ci, c in enumerate(model.scenario.contexts):
                for s in model.support(ci):
                    assert solver.vanishes(c, s) == connecting_hom_check(model, c, s, ring)
            assert solver.vanishes(ctx, s0)
            assert classify_cohomological(model, ring).vanishes == oracle_flags(model, ring)
            check_family(model, ring, ctx, s0, solver.family(ctx, s0))


def monotone_under_hom(model, source, target):
    """The sections that vanish over the source ring but not over the
    target, its quotient: a homomorphism maps witnessing families to
    witnessing families, so there should be none."""
    above = ObstructionSolver(model, source)
    below = ObstructionSolver(model, target)
    return [
        (ctx, s)
        for ci, ctx in enumerate(model.scenario.contexts)
        for s in model.support(ci)
        if above.vanishes(ctx, s) and not below.vanishes(ctx, s)
    ]


def test_vanishing_is_monotone_under_ring_homs(corpus_models):
    quotients = [(INTEGERS, Z2), (INTEGERS, Z3), (Z6, Z2), (Z6, Z3)]
    models = [pr_box(), hardy_model(), corpus_models["specker-triangle"]]
    models += random_models(15, seed=20240819)
    for model in models:
        for source, target in quotients:
            counterexamples = monotone_under_hom(model, source, target)
            assert not counterexamples, (source, target, counterexamples)
