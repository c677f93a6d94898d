"""Exact linear algebra: echelon forms, solves and kernels checked against
brute-force enumeration over finite rings and against minors over Z."""

import random
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    INTEGERS,
    RingError,
    RingMatrix,
    RingSpec,
    UnsupportedRingError,
    linear_decomposition,
)
from contextuality.rings import _combine, _subtract, dense, echelon, sparse


def mat_vec(ring, a, x):
    return [ring.canon(sum(aij * xj for aij, xj in zip(row, x))) for row in a]


def brute_span(n, rows, width):
    """Every Z_n-combination of the rows, one row at a time."""
    out = {(0,) * width}
    for row in rows:
        out = {tuple((x + k * y) % n for x, y in zip(u, row)) for u in out for k in range(n)}
    return out


def echelon_of(ring, rows, head):
    """Echelon form of dense rows."""
    return echelon(ring, [sparse(row) for row in rows], head)


def enumerate_span(n, form, width):
    """The sums of c_i*h_i with 0 <= c_i < n/p_i over the echelon rows."""
    span = [(0,) * width]
    for c, row in form.rows.items():
        h = dense(row, width)
        span = [
            tuple((x + k * y) % n for x, y in zip(u, h))
            for u in span
            for k in range(n // h[c])
        ]
    return span


def brute_force_solve(modulus, rows, rhs):
    """Reference solver: try every candidate vector. Only for finite rings
    and small column counts."""
    ncols = len(rows[0]) if rows else 0
    assert modulus**ncols <= 2**20
    for cand in product(range(modulus), repeat=ncols):
        if all(
            sum(a * x for a, x in zip(row, cand)) % modulus == b % modulus
            for row, b in zip(rows, rhs)
        ):
            return list(cand)
    return None


def exact_det(m):
    """Fraction-free (Bareiss) integer determinant."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# ring specs and homomorphisms


def test_ring_spec_parse_and_str():
    assert RingSpec.parse("z") == INTEGERS
    assert RingSpec.parse("Z2") == RingSpec(2)
    assert RingSpec.parse(" z12 ") == RingSpec(12)
    assert str(RingSpec(3)) == "Z3"
    assert str(INTEGERS) == "Z"
    with pytest.raises(UnsupportedRingError):
        RingSpec.parse("gf4")


def test_ring_spec_parse_rejects_digits_int_cannot_read():
    # str.isdigit accepts a superscript two and a circled one, which int()
    # refuses, and int() refuses more digits than its limit
    for text in ("z\u00b2", "z\u2460", "z" + "9" * 5000):
        with pytest.raises(UnsupportedRingError, match="unrecognised ring"):
            RingSpec.parse(text)


def test_ring_spec_rejects_bad_moduli():
    with pytest.raises(RingError):
        RingSpec(1)
    with pytest.raises(RingError):
        RingSpec(True)


def test_field_detection():
    assert RingSpec(2).is_field and RingSpec(5).is_field and RingSpec(13).is_field
    assert not RingSpec(4).is_field
    assert not RingSpec(6).is_field
    assert not INTEGERS.is_field


def test_canonical_arithmetic():
    z5 = RingSpec(5)
    assert z5.canon(-1) == 4
    assert z5.add(3, 4) == 2
    assert z5.mul(3, 4) == 2
    assert z5.neg(0) == 0
    assert INTEGERS.canon(-7) == -7
    assert list(z5.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(UnsupportedRingError):
        INTEGERS.elements()


@given(
    n=st.sampled_from([2, 3, 4, 6, 12]),
    rows=st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=2,
        max_size=3,
    ),
    x=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_hom_commutes_with_matrix_action(n, rows, x):
    # h(A.x) == h(A).h(x) for the quotient Z -> Z_n, which reduces each
    # entry to its canonical representative
    h = RingSpec(n).canon
    lhs = tuple(map(h, mat_vec(INTEGERS, rows, x)))
    hx = list(map(h, x))
    ha = [list(map(h, row)) for row in rows]
    rhs = tuple(mat_vec(RingSpec(n), ha, hx))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# echelon forms


@given(
    n=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=100, deadline=None)
def test_echelon_span_matches_brute_force(n, seed):
    rng = random.Random(seed)
    nrows, width = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[rng.randrange(n) for _ in range(width)] for _ in range(nrows)]
    form = echelon_of(RingSpec(n), rows, width)
    pivots = list(form.rows)
    assert pivots == sorted(pivots)
    for c, h in form.rows.items():
        assert n % h[c] == 0
        assert min(h) == c  # the row is zero before its pivot
    listed = enumerate_span(n, form, width)
    assert len(listed) == prod(n // h[c] for c, h in form.rows.items())
    assert set(listed) == brute_span(n, rows, width)
    assert len(set(listed)) == len(listed)


@given(
    n=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=100, deadline=None)
def test_echelon_reduce_decides_membership(n, seed):
    rng = random.Random(seed)
    nrows, width = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[rng.randrange(n) for _ in range(width)] for _ in range(nrows)]
    head = rng.randint(0, width)
    form = echelon_of(RingSpec(n), rows, head)
    span = brute_span(n, rows, width)
    heads = {v[:head] for v in span}
    for cand in product(range(n), repeat=head):
        v = list(cand) + [0] * (width - head)
        rest = form.reduce(sparse(v))
        assert (rest is not None) == (cand in heads)
        if rest is not None:
            rest = dense(rest, width)
            # what was taken off v lies in the span and clears its head
            assert not any(rest[:head])
            assert tuple((a - b) % n for a, b in zip(v, rest)) in span


def _minor_gcd(rows, r):
    """gcd of the r x r minors: an invariant of the lattice the rows span."""
    width = len(rows[0])
    g = 0
    for rs in combinations(range(len(rows)), r):
        for cs in combinations(range(width), r):
            g = gcd(g, exact_det([[rows[i][j] for j in cs] for i in rs]))
    return g


@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_integer_echelon_shape_and_lattice(a):
    form = echelon_of(INTEGERS, a, 3)
    assert form.kernel == []  # the head covers every column: zero rows drop out
    for c, row in form.rows.items():
        assert row[c] > 0
        assert min(row) == c
    # the input rows reduce to zero, so they lie in the echelon lattice; the
    # echelon rows are independent, and equal rank and equal minor gcds make
    # the two lattices equal
    for row in a:
        assert form.reduce(sparse(row)) == {}
    h = [dense(row, 3) for row in form.rows.values()]
    rank = len(h)
    assert _minor_gcd(a, rank + 1) == 0
    if rank:
        assert _minor_gcd(a, rank) == _minor_gcd(h, rank)


@given(
    modulus=st.sampled_from([None, 2, 3, 4, 6, 8, 9, 12]),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=100, deadline=None)
def test_echelon_stores_only_nonzero_canonical_entries(modulus, seed):
    rng = random.Random(seed)
    ring = RingSpec(modulus)
    nrows, width = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-12, 12) for _ in range(width)] for _ in range(nrows)]
    head = rng.randint(0, width)
    form = echelon_of(ring, rows, head)
    rests = [form.reduce(sparse(row)) for row in rows]
    for row in list(form.rows.values()) + form.kernel + rests:
        assert all(0 <= j < width for j in row)
        assert all(x != 0 and ring.contains_canonical(x) for x in row.values())


@given(
    modulus=st.sampled_from([None, 2, 3, 4, 6, 8, 9, 12]),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=200, deadline=None)
def test_subtract_in_place_matches_combine(modulus, seed):
    # the in-place row update leaves the same entries, in the same key
    # order, as the copying combination it replaced in `echelon`
    rng = random.Random(seed)
    ring = RingSpec(modulus)

    def row():
        keys = rng.sample(range(8), rng.randint(0, 8))
        return {j: x for j in keys if (x := ring.canon(rng.randint(-12, 12)))}

    v, h = row(), row()
    q = rng.choice([x for x in range(-5, 6) if ring.canon(x)])
    expected = _combine(modulus, 1, v, -q, h)
    _subtract(modulus, v, q, h)
    assert list(v.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# solving: brute-force oracle over finite rings


@given(
    n=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_solve_matches_brute_force(n, nrows, ncols, seed):
    rng = random.Random(seed)
    ring = RingSpec(n)
    rows = [[rng.randrange(n) for _ in range(ncols)] for _ in range(nrows)]
    rhs = tuple(rng.randrange(n) for _ in range(nrows))
    solution = linear_decomposition(ring, rows, ncols).solve(list(rhs))
    reference = brute_force_solve(n, rows, rhs)
    assert (solution is not None) == (reference is not None)
    if solution is not None:
        assert tuple(mat_vec(ring, rows, solution)) == rhs


def test_integer_solve_known_cases():
    ring = INTEGERS
    # 2x = 3 has no integer solution although it has one over the rationals
    assert linear_decomposition(ring, [[2]]).solve([3]) is None
    x = linear_decomposition(ring, [[2, 3]]).solve([1])
    assert x is not None
    assert 2 * x[0] + 3 * x[1] == 1


@given(
    nrows=st.integers(1, 3),
    ncols=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100)
def test_integer_solve_consistent_with_construction(nrows, ncols, seed):
    # build b = A.x for a random integer x, so the system is solvable by
    # construction; the solver must agree and return an exact solution
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
    x = [rng.randint(-5, 5) for _ in range(ncols)]
    rhs = tuple(mat_vec(INTEGERS, rows, x))
    solution = linear_decomposition(INTEGERS, rows, ncols).solve(list(rhs))
    assert solution is not None
    assert tuple(mat_vec(INTEGERS, rows, solution)) == rhs


def test_field_kernel_basis_spans_solution_set():
    p = 3
    rows = [[1, 2, 0, 1], [2, 1, 1, 0]]
    basis = linear_decomposition(RingSpec(p), rows).kernel()
    assert len(basis) == 4 - len(echelon_of(RingSpec(p), rows, 4).rows)
    for vec in basis:
        assert all(v % p == 0 for v in mat_vec(RingSpec(p), rows, vec))
    spanned = set()
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0, 0, 0, 0]
        for c, vec in zip(coeffs, basis):
            v = [(a + c * b) % p for a, b in zip(v, vec)]
        spanned.add(tuple(v))
    reference = {
        cand
        for cand in product(range(p), repeat=4)
        if all(sum(a * x for a, x in zip(row, cand)) % p == 0 for row in rows)
    }
    assert spanned == reference


@given(
    n=st.sampled_from([4, 6, 8, 9, 12]),
    nrows=st.integers(1, 3),
    ncols=st.integers(1, 3),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=100, deadline=None)
def test_modular_kernel_generators_generate_solution_module(n, nrows, ncols, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(n) for _ in range(ncols)] for _ in range(nrows)]
    ring = RingSpec(n)
    gens = linear_decomposition(ring, rows, ncols).kernel()
    for g in gens:
        assert all(v == 0 for v in mat_vec(ring, rows, g))
    spanned = brute_span(n, gens, ncols)
    reference = {
        cand
        for cand in product(range(n), repeat=ncols)
        if all(sum(a * x for a, x in zip(row, cand)) % n == 0 for row in rows)
    }
    assert spanned == reference


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_integer_kernel_is_a_lattice_basis(a):
    # the integer solutions of A*x = 0 form a saturated lattice of rank
    # ncols - rank(A); solutions whose maximal minors have gcd 1 are
    # independent and span it
    basis = linear_decomposition(INTEGERS, a, 3).kernel()
    for k in basis:
        assert mat_vec(INTEGERS, a, k) == [0] * len(a)
    assert len(basis) == 3 - len(echelon_of(INTEGERS, a, 3).rows)
    if basis:
        assert _minor_gcd(basis, len(basis)) == 1


def test_decomposition_reuse_across_right_hand_sides():
    ring = RingSpec(2)
    rows = [[1, 1, 0], [0, 1, 1]]
    dec = linear_decomposition(ring, rows)
    assert dec.solve([0, 0]) is not None
    assert dec.solve([1, 1]) is not None
    full = [rhs for rhs in product(range(2), repeat=2) if dec.solve(list(rhs))]
    assert len(full) == 4  # rank 2: every rhs reachable


def test_ring_matrix_validation():
    with pytest.raises(RingError):
        RingMatrix(RingSpec(3), 1, 2, (0, 5))  # 5 not canonical mod 3
    with pytest.raises(RingError):
        RingMatrix(INTEGERS, 2, 2, (1, 2, 3))  # wrong entry count
    with pytest.raises(RingError, match="matrix entries must be canonical for the ring"):
        RingMatrix(RingSpec(4), 1, 2, (-1, 0))
    with pytest.raises(RingError, match="matrix entries must be canonical for the ring"):
        RingMatrix(RingSpec(4), 1, 1, (4,))
    # every integer is canonical over Z; empty matrices pass
    RingMatrix(INTEGERS, 1, 3, (-7, 0, 12))
    RingMatrix(RingSpec(3), 0, 2, ())
    assert RingMatrix(RingSpec(3), 1, 3, (0, 1, 2)).entries == (0, 1, 2)
