"""Pauli group algebra checked against explicit 2^n matrices, and the AvN
triple conditions checked against the verdicts of the linear-theory engine."""

from itertools import product

import numpy as np
import pytest

from contextuality import (
    GHZ_TRIPLE,
    PauliError,
    PauliOperator,
    RingSpec,
    check_vector_rank,
    classify_contextuality,
    generate_subgroup,
    ghz_model,
    is_avn,
    is_avn_triple,
    parse_triple,
    pauli_multiply,
    theory_of_subgroup,
    triple_model,
    triple_scenario,
)

Z2 = RingSpec(2)

_MAT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def op_matrix(op):
    m = np.eye(1, dtype=complex)
    for p in op.letters:
        m = np.kron(m, _MAT[p])
    return (1j ** op.phase) * m


# ---------------------------------------------------------------------------
# group algebra


def test_single_letter_products_match_matrices():
    for a in "IXYZ":
        for b in "IXYZ":
            p = PauliOperator(0, (a,))
            q = PauliOperator(0, (b,))
            assert np.array_equal(
                op_matrix(pauli_multiply(p, q)), op_matrix(p) @ op_matrix(q)
            )


def test_two_site_products_match_matrices():
    ops = [
        PauliOperator(phase, letters)
        for phase in range(4)
        for letters in product("IXYZ", repeat=2)
    ]
    for p in ops[::7]:
        for q in ops[::5]:
            assert np.array_equal(
                op_matrix(p * q), op_matrix(p) @ op_matrix(q)
            )


def test_commutation_matches_matrices():
    for la in product("IXYZ", repeat=2):
        for lb in product("IXYZ", repeat=2):
            p, q = PauliOperator(0, la), PauliOperator(0, lb)
            mp, mq = op_matrix(p), op_matrix(q)
            assert p.commutes_with(q) == np.array_equal(mp @ mq, mq @ mp)


def test_ghz_triple_multiplies_to_minus_xxx():
    e, f, g = GHZ_TRIPLE
    assert e * f * g == PauliOperator.parse("-XXX")


def test_parse_print_round_trip():
    for phase in range(4):
        for letters in product("IXYZ", repeat=2):
            op = PauliOperator(phase, letters)
            assert PauliOperator.parse(str(op)) == op
    assert str(PauliOperator.parse("+iX")) == "+iX"
    assert str(PauliOperator.parse("-iXY")) == "-iXY"
    assert PauliOperator.parse(" XZ ").letters == ("X", "Z")


def test_parse_rejects_malformed_text():
    for text in ("", "W", "2X", "+i", "X Y", "ii", "X-"):
        with pytest.raises(PauliError):
            PauliOperator.parse(text)


def test_operator_basics():
    op = PauliOperator.parse("XY")
    assert op.arity == 2
    assert not op.is_identity
    assert op.negate().phase == 2
    assert PauliOperator(0, ("I", "I")).is_identity
    assert PauliOperator(4, ("X",)).phase == 0
    with pytest.raises(PauliError):
        PauliOperator(0, ())
    with pytest.raises(PauliError):
        PauliOperator(0, ("Q",))
    with pytest.raises(PauliError):
        pauli_multiply(PauliOperator(0, ("X",)), PauliOperator(0, ("X", "X")))
    with pytest.raises(PauliError):
        PauliOperator(0, ("X",)).commutes_with(PauliOperator(0, ("X", "X")))


def test_check_vectors():
    assert PauliOperator.parse("XY").check_vector() == (1, 1, 0, 1)
    assert PauliOperator.parse("ZI").check_vector() == (0, 0, 1, 0)
    assert check_vector_rank(GHZ_TRIPLE) == 3
    assert check_vector_rank([PauliOperator.parse("X"), PauliOperator.parse("X")]) == 1
    assert check_vector_rank([]) == 0


# ---------------------------------------------------------------------------
# subgroups


def test_ghz_subgroup_is_the_eight_element_stabiliser():
    subgroup = generate_subgroup(GHZ_TRIPLE)
    assert len(subgroup) == 8
    assert PauliOperator.parse("-XXX") in subgroup
    assert PauliOperator.parse("ZZI") in subgroup
    elements = set(subgroup)
    for a in subgroup:
        assert a.phase in (0, 2)
        for b in subgroup:
            assert a * b in elements
    # the common +1 eigenvector of XYY, YXY, YYX, -XXX is |000> - |111>
    v = np.zeros(8, dtype=complex)
    v[0], v[7] = 1, -1
    for op in subgroup:
        assert np.allclose(op_matrix(op) @ v, v)


def test_generate_subgroup_rejects_anticommuting_generators():
    with pytest.raises(PauliError):
        generate_subgroup([PauliOperator.parse("X"), PauliOperator.parse("Z")])
    with pytest.raises(PauliError):
        generate_subgroup([])


def test_ghz_theory_is_the_four_parity_equations():
    scenario = triple_scenario(*GHZ_TRIPLE)
    theory = theory_of_subgroup(generate_subgroup(GHZ_TRIPLE), scenario)
    assert sorted(str(eq) for eq in theory.equations) == [
        "X1 + X2 + X3 = 1 (mod 2)",
        "X1 + Y2 + Y3 = 0 (mod 2)",
        "Y1 + X2 + Y3 = 0 (mod 2)",
        "Y1 + Y2 + X3 = 0 (mod 2)",
    ]
    # ZZI, ZIZ, IZZ measure nothing in this scenario and impose no equations


def test_theory_of_subgroup_rejects_imaginary_phases():
    scenario = triple_scenario(*GHZ_TRIPLE)
    with pytest.raises(PauliError):
        theory_of_subgroup([PauliOperator(1, ("X", "I", "I"))], scenario)


# ---------------------------------------------------------------------------
# triples and their models


def test_ghz_triple_diagnostics():
    diag = is_avn_triple(*GHZ_TRIPLE)
    assert diag.avn
    assert diag.real_phases and diag.commuting and diag.a1_holds
    assert diag.a2_count == 1
    assert diag.failed_conditions() == ()


def test_failed_conditions_name_the_failures():
    x, y, z = (PauliOperator.parse(p * 3) for p in "XYZ")
    diag = is_avn_triple(x, y, z)
    assert not diag.avn
    failures = diag.failed_conditions()
    assert any("do not commute" in f for f in failures)
    assert any("fewer than two equal letters" in f for f in failures)

    diag = is_avn_triple(PauliOperator.parse("-XYY"), *GHZ_TRIPLE[1:])
    assert not diag.real_phases
    assert any("+1" in f for f in diag.failed_conditions())

    xyy, yxy = GHZ_TRIPLE[:2]
    diag = is_avn_triple(xyy, yxy, xyy)
    assert diag.a2_count == 2 and not diag.a2_holds
    assert any("even number of sites" in f for f in diag.failed_conditions())


def test_parse_triple():
    assert parse_triple("XYY, YXY, YYX") == GHZ_TRIPLE
    with pytest.raises(PauliError):
        parse_triple("XYY,YXY")
    with pytest.raises(PauliError):
        parse_triple("XY,XY,X")


def test_triple_scenario_shape():
    scn = triple_scenario(*GHZ_TRIPLE)
    assert scn.measurements == ("X1", "Y1", "X2", "Y2", "X3", "Y3")
    assert len(scn.contexts) == 8
    assert scn.outcomes == (0, 1)
    assert ("X1", "X2", "X3") in scn.contexts
    assert ("X1", "Y2", "Y3") in scn.contexts


def test_ghz_model_supports_carry_the_parities():
    model = ghz_model()
    sizes = [len(s) for s in model.supports]
    assert sorted(sizes) == [4, 4, 4, 4, 8, 8, 8, 8]
    for ci, ctx in enumerate(model.scenario.contexts):
        letters = "".join(m[0] for m in ctx)
        for s in model.support(ci):
            total = sum(s.values_on(ctx)) % 2
            if letters == "XXX":
                assert total == 1
            elif letters in ("XYY", "YXY", "YYX"):
                assert total == 0


def test_triple_model_rejects_phases():
    e, f, g = GHZ_TRIPLE
    with pytest.raises(PauliError):
        triple_model(e.negate(), f, g)


def test_no_two_site_avn_triples():
    # at two sites the commutation requirements force the e = g != f count
    # even, so the letter conditions can never all hold
    ops = [PauliOperator(0, letters) for letters in product("IXYZ", repeat=2)]
    assert not any(
        is_avn_triple(e, f, g).avn for e, f, g in product(ops, repeat=3)
    )


def test_avn_triples_imply_avn_models_exhaustively():
    # every three-site X/Y triple passing the letter conditions must produce
    # a model whose parity theory is unsolvable over Z_2
    ops = [PauliOperator(0, letters) for letters in product("XY", repeat=3)]
    confirmed = 0
    for e, f, g in product(ops, repeat=3):
        diag = is_avn_triple(e, f, g)
        if not diag.avn:
            continue
        model = triple_model(e, f, g)
        assert is_avn(model, Z2).avn, (str(e), str(f), str(g))
        confirmed += 1
    assert confirmed >= 6  # the GHZ triple and its relabellings at least


def test_ghz_model_is_avn_and_strongly_contextual():
    model = ghz_model()
    assert is_avn(model, Z2).avn
    assert classify_contextuality(model).strongly_contextual
