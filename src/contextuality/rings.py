"""Exact linear algebra over the integers and the modular rings Z_n.

All arithmetic is arbitrary-precision integer arithmetic. One routine,
`echelon`, brings sparse rows (dicts from column to nonzero canonical
entry) to echelon form by extended-gcd row operations: Hermite form over
Z, and over Z_n the Howell form, whose pivots divide n and which answers
membership in the row module by plain reduction. Every step touches only
stored entries, so its cost follows the nonzeros, not the width. Solving
A*x = b, kernels, AvN certificates, affine spans and cohomology
obstructions are all built on it; dense callers convert at their boundary
with `sparse` and `dense`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import RingError, UnsupportedRingError

Matrix = list[list[int]]
Row = dict[int, int]  # column -> nonzero canonical entry


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ring of integers (modulus None) or the integers modulo n >= 2."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None:
            if not isinstance(self.modulus, int) or isinstance(self.modulus, bool):
                raise RingError(f"modulus must be an integer, got {self.modulus!r}")
            if self.modulus < 2:
                raise RingError(f"modulus must be at least 2, got {self.modulus}")

    @property
    def is_integers(self) -> bool:
        return self.modulus is None

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    @property
    def is_field(self) -> bool:
        return self.modulus is not None and _is_prime(self.modulus)

    def canon(self, x: int) -> int:
        """Canonical representative: x itself over Z, x mod n over Z_n."""
        return x if self.modulus is None else x % self.modulus

    def add(self, x: int, y: int) -> int:
        return self.canon(x + y)

    def mul(self, x: int, y: int) -> int:
        return self.canon(x * y)

    def neg(self, x: int) -> int:
        return self.canon(-x)

    def elements(self) -> range:
        if self.modulus is None:
            raise UnsupportedRingError("cannot enumerate the integers")
        return range(self.modulus)

    def contains_canonical(self, x: int) -> bool:
        """Whether x is already a canonical representative."""
        if self.modulus is None:
            return True
        return 0 <= x < self.modulus

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z{self.modulus}"

    @classmethod
    def parse(cls, text: str) -> "RingSpec":
        t = text.strip().lower()
        if t == "z":
            return cls()
        if t.startswith("z") and t[1:].isdigit():
            return cls(int(t[1:]))
        raise UnsupportedRingError(f"unrecognised ring {text!r}; expected 'z' or 'zN'")


INTEGERS = RingSpec()


@dataclass(frozen=True)
class RingMatrix:
    """An immutable matrix with entries in canonical form for its ring."""

    ring: RingSpec
    nrows: int
    ncols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise RingError("matrix dimensions must be non-negative")
        if len(self.entries) != self.nrows * self.ncols:
            raise RingError(
                f"expected {self.nrows * self.ncols} entries, got {len(self.entries)}"
            )
        n, xs = self.ring.modulus, self.entries
        if n is not None and xs and (min(xs) < 0 or max(xs) >= n):
            raise RingError("matrix entries must be canonical for the ring")

    def rows(self) -> Matrix:
        n = self.ncols
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(self.nrows)]


# ---------------------------------------------------------------------------
# echelon form on sparse rows


def sparse(row: list[int] | tuple[int, ...]) -> Row:
    """The nonzero entries of a dense row, keyed by column; `echelon` and
    `reduce` make them canonical."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: Row, width: int, offset: int = 0) -> list[int]:
    """Columns offset..offset+width-1 of a sparse row whose keys all lie
    there, as a list."""
    out = [0] * width
    for j, x in row.items():
        out[j - offset] = x
    return out


def _combine(n: int | None, a: int, u: Row, b: int, v: Row) -> Row:
    """a*u + b*v, reduced mod n unless n is None (over Z), without zeros."""
    if a == 1:
        w = dict(u)
    elif n is None:
        w = {k: a * x for k, x in u.items()} if a else {}
    else:
        w = {k: y for k, x in u.items() if (y := a * x % n)}
    for k, y in v.items():
        x = w.get(k, 0) + b * y
        if n is not None:
            x %= n
        if x:
            w[k] = x
        else:
            w.pop(k, None)
    return w


def _subtract(n: int | None, v: Row, q: int, h: Row) -> None:
    """v -= q*h in place for nonzero q, reduced mod n unless n is None
    (over Z), without zeros."""
    get = v.get
    if n is None:
        for k, y in h.items():
            x = get(k, 0) - q * y
            if x:
                v[k] = x
            else:
                del v[k]  # q*y != 0, so v held k
        return
    for k, y in h.items():
        x = (get(k, 0) - q * y) % n
        if x:
            v[k] = x
        else:
            v.pop(k, None)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _normalise(n: int | None, v: Row, c: int) -> Row:
    """v times a unit of the ring such that v[c] is positive over Z and
    equal to gcd(v[c], n) over Z_n."""
    x = v[c]
    if n is None:
        return v if x > 0 else {k: -y for k, y in v.items()}
    g = gcd(x, n)
    if g == x:
        return v
    # u*x = g (mod n) for any u = (x/g)^-1 (mod n/g); pick one that is a unit mod n
    u = pow(x // g, -1, n // g)
    while gcd(u, n) != 1:
        u += n // g
    return {k: u * y % n for k, y in v.items()}


class Echelon:
    """A row module in echelon form on its first `head` columns.

    Rows are sparse: a dict from column to entry holding only the nonzero
    canonical entries, so every operation costs the stored keys, not the
    width. `rows` maps each pivot column, in increasing order, to the row
    whose smallest key below `head` is that column; nothing is reduced
    above a pivot. Over Z the pivots are positive (Hermite form without
    back-reduction). Over Z_n each pivot divides n and the form is a weak
    Howell form (a Howell form without the reduction above pivots): every
    element of the module that is zero on the columns before c is a
    combination of the rows with pivots at c or later and of `kernel`, the
    nonzero rows whose head reduced to zero. That makes `reduce` a
    membership test. With the head covering every column, the sums of
    c_i*h_i with 0 <= c_i < n/p_i over the rows h_i with pivots p_i list
    the module, each element once.
    """

    def __init__(self, ring: RingSpec, head: int, rows: dict[int, Row], kernel: list[Row]):
        self.ring = ring
        self.head = head
        self.rows = rows
        self.kernel = kernel

    def reduce(self, v: Row) -> Row | None:
        """v minus a combination of the rows that is zero on the head, or
        None when no combination of the module clears v's head."""
        n = self.ring.modulus
        w = {k: y for k, x in v.items() if (y := self.ring.canon(x))}
        while w:
            c = min(w)
            if c >= self.head:
                break
            h = self.rows.get(c)
            x = w[c]
            if h is None or x % h[c]:
                return None
            _subtract(n, w, x // h[c], h)
        return w


def echelon(ring: RingSpec, rows: Iterable[Row], head: int) -> Echelon:
    """Echelon form of the span of sparse rows on its first `head` columns.

    A row's pivot is its smallest key below `head`. Two rows meeting at a
    pivot are replaced by an extended-gcd combination, which keeps the
    span. Over Z_n a new pivot row is scaled by a unit so its pivot p
    divides n, and its annihilator (n/p)*row, zero at the pivot, joins the
    rows still to process: that gives the Howell property. The row being
    reduced is always a fresh dict that nothing else holds, so a multiple
    of a pivot row is subtracted from it in place.
    """
    n = ring.modulus
    pivots: dict[int, Row] = {}
    kernel: list[Row] = []
    if n is None:
        todo = [{k: x for k, x in row.items() if x} for row in rows]
    else:
        todo = [{k: y for k, x in row.items() if (y := x % n)} for row in rows]
    todo.reverse()
    while todo:
        v = todo.pop()
        while v:
            c = min(v)
            if c >= head:
                kernel.append(v)
                break
            h = pivots.get(c)
            x = v[c]
            if h is not None and x % h[c] == 0:
                _subtract(n, v, x // h[c], h)
                continue
            if h is None:
                h, v = _normalise(n, v, c), None
            else:
                g, s, t = _xgcd(h[c], x)
                h, v = _combine(n, s, h, t, v), _combine(n, h[c] // g, v, -(x // g), h)
            pivots[c] = h
            if n is not None and h[c] != 1:
                m = n // h[c]
                todo.append({k: y for k, x in h.items() if (y := m * x % n)})
    return Echelon(ring, head, dict(sorted(pivots.items())), kernel)


class LinearSolver:
    """A*x = b over the ring for any number of right-hand sides.

    Holds the echelon form of the sparse rows [A^T | I] on their first m
    columns (m rows of A), built from A's nonzeros: b = A*x exactly when
    (b | 0) reduces to a zero head, and then the tail left over is -x. The
    rows whose head reduced to zero carry the solutions of A*x = 0 in their
    tails.
    """

    def __init__(self, ring: RingSpec, a: Matrix, ncols: int):
        self.ring = ring
        self.m = len(a)
        self.ncols = ncols
        rows: list[Row] = [{} for _ in range(ncols)]
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if x:
                    rows[j][i] = x
        for j, row in enumerate(rows):
            row[self.m + j] = 1
        self.form = echelon(ring, rows, self.m)

    def solve(self, b: list[int]) -> list[int] | None:
        rest = self.form.reduce(sparse(b))
        if rest is None:
            return None
        return [self.ring.canon(-x) for x in dense(rest, self.ncols, self.m)]

    def kernel(self) -> list[list[int]]:
        """Generators of the solutions of A*x = 0 (a basis over Z and Z_p)."""
        return [dense(row, self.ncols, self.m) for row in self.form.kernel]


def linear_decomposition(ring: RingSpec, a: Matrix, ncols: int | None = None) -> LinearSolver:
    """A reusable solver for A*x = b over the ring, one echelon form per matrix."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    return LinearSolver(ring, a, ncols)
