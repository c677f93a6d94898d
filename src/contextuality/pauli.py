"""The Pauli n-group and the parity theories of its abelian subgroups.

Elements are letter strings over {I, X, Y, Z} with a global phase i^k. Only
two facts about the algebra matter here: the single-letter multiplication
table, and that two elements commute iff the number of sites where both
letters differ and neither is I is even. Everything else (AvN triples,
stabiliser subgroups, their parity equations) is built on those.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import PauliError
from .model import EmpiricalModel
from .rings import RingSpec, echelon, sparse
from .scenario import Scenario
from .theory import Theory, equations_on_cover, model_of_theory

LETTERS = "IXYZ"

# (p, q) -> (phase exponent of i, letter) with p*q = i^k * letter
_SINGLE: dict[tuple[str, str], tuple[int, str]] = {}
for _p in LETTERS:
    _SINGLE[("I", _p)] = (0, _p)
    _SINGLE[(_p, "I")] = (0, _p)
    _SINGLE[(_p, _p)] = (0, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _SINGLE[(_a, _b)] = (1, _c)
    _SINGLE[(_b, _a)] = (3, _c)

_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
_PARSE = re.compile(r"^([+-]?)(i?)([IXYZ]+)$")


@dataclass(frozen=True)
class PauliOperator:
    """An element of the Pauli n-group: i^phase times a letter string."""

    phase: int
    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)
        if not self.letters:
            raise PauliError("an operator needs at least one site")
        for p in self.letters:
            if p not in LETTERS:
                raise PauliError(f"unknown Pauli letter {p!r}")

    @classmethod
    def parse(cls, text: str) -> "PauliOperator":
        m = _PARSE.match(text.strip())
        if m is None:
            raise PauliError(
                f"cannot parse {text!r}: expected an optional sign, an "
                "optional i, then letters from IXYZ"
            )
        sign, imaginary, letters = m.groups()
        phase = (2 if sign == "-" else 0) + (1 if imaginary else 0)
        return cls(phase, tuple(letters))

    @property
    def arity(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return self.phase == 0 and all(p == "I" for p in self.letters)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return pauli_multiply(self, other)

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.phase + 2, self.letters)

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.arity != other.arity:
            raise PauliError(
                f"arity mismatch: {self.arity} against {other.arity}"
            )
        differing = sum(
            1
            for p, q in zip(self.letters, other.letters)
            if p != "I" and q != "I" and p != q
        )
        return differing % 2 == 0

    def check_vector(self) -> tuple[int, ...]:
        """The symplectic representation over Z_2: (x-part | z-part), with
        X -> (1|0), Z -> (0|1), Y -> (1|1). Phases are discarded."""
        x_part = tuple(1 if p in ("X", "Y") else 0 for p in self.letters)
        z_part = tuple(1 if p in ("Z", "Y") else 0 for p in self.letters)
        return x_part + z_part

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase] + "".join(self.letters)


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    if p.arity != q.arity:
        raise PauliError(f"arity mismatch: {p.arity} against {q.arity}")
    phase = p.phase + q.phase
    letters = []
    for a, b in zip(p.letters, q.letters):
        k, c = _SINGLE[(a, b)]
        phase += k
        letters.append(c)
    return PauliOperator(phase, tuple(letters))


def check_vector_rank(operators: list[PauliOperator] | tuple[PauliOperator, ...]) -> int:
    """Rank over Z_2 of the operators' check vectors. Full rank for a triple
    means the common stabilised subspace has dimension 2^(n-3)."""
    vectors = [op.check_vector() for op in operators]
    width = len(vectors[0]) if vectors else 0
    return len(echelon(RingSpec(2), map(sparse, vectors), width).rows)


# ---------------------------------------------------------------------------
# AvN triples


@dataclass(frozen=True)
class TripleDiagnostics:
    """Every condition in the AvN triple definition, checked separately.

    a2_count is the number of sites with e_i = g_i != f_i and none of the
    three equal to I; the condition needs it odd.
    """

    real_phases: bool
    commuting: bool
    noncommuting_pair: tuple[int, int] | None
    a1_holds: bool
    a1_failing_site: int | None  # 1-based
    a2_count: int
    a2_holds: bool
    avn: bool

    def failed_conditions(self) -> tuple[str, ...]:
        failed = []
        if not self.real_phases:
            failed.append("global phases must be +1")
        if not self.commuting:
            i, j = self.noncommuting_pair
            names = ("e", "f", "g")
            failed.append(f"{names[i]} and {names[j]} do not commute")
        if not self.a1_holds:
            failed.append(
                f"fewer than two equal letters at site {self.a1_failing_site}"
            )
        if not self.a2_holds:
            failed.append(
                f"even number of sites with e = g != f away from I "
                f"({self.a2_count})"
            )
        return tuple(failed)


def is_avn_triple(e: PauliOperator, f: PauliOperator, g: PauliOperator) -> TripleDiagnostics:
    """Check the AvN triple conditions: phases +1, pairwise commutation,
    at least two equal letters per site (A1), and an odd number of sites
    where e and g agree and differ from f with no I involved (A2)."""
    if not (e.arity == f.arity == g.arity):
        raise PauliError("the three operators must share an arity")
    real_phases = e.phase == 0 and f.phase == 0 and g.phase == 0

    noncommuting = None
    ops = (e, f, g)
    for i in range(3):
        for j in range(i + 1, 3):
            if noncommuting is None and not ops[i].commutes_with(ops[j]):
                noncommuting = (i, j)
    commuting = noncommuting is None

    a1_failing = None
    for site, (a, b, c) in enumerate(zip(e.letters, f.letters, g.letters), start=1):
        if a != b and b != c and a != c:
            a1_failing = site
            break
    a1_holds = a1_failing is None

    a2_count = sum(
        1
        for a, b, c in zip(e.letters, f.letters, g.letters)
        if a == c and a != b and a != "I" and b != "I"
    )
    a2_holds = a2_count % 2 == 1

    return TripleDiagnostics(
        real_phases,
        commuting,
        noncommuting,
        a1_holds,
        a1_failing,
        a2_count,
        a2_holds,
        real_phases and commuting and a1_holds and a2_holds,
    )


def parse_triple(text: str) -> tuple[PauliOperator, PauliOperator, PauliOperator]:
    """Three comma-separated operators, e.g. "XYY,YXY,YYX"."""
    parts = [p for p in (t.strip() for t in text.split(",")) if p]
    if len(parts) != 3:
        raise PauliError(f"expected three comma-separated operators, got {len(parts)}")
    e, f, g = (PauliOperator.parse(p) for p in parts)
    if not (e.arity == f.arity == g.arity):
        raise PauliError("the three operators must share an arity")
    return e, f, g


# ---------------------------------------------------------------------------
# subgroups and their theories


def generate_subgroup(generators: list[PauliOperator] | tuple[PauliOperator, ...]) -> tuple[PauliOperator, ...]:
    """The subgroup generated by pairwise-commuting elements, in a canonical
    order (letters first, then phase). Anticommuting generators would make
    the subgroup non-abelian and its joint eigenspaces empty, so they are
    rejected."""
    gens = list(generators)
    if not gens:
        raise PauliError("need at least one generator")
    arity = gens[0].arity
    for g in gens:
        if g.arity != arity:
            raise PauliError("generators must share an arity")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not gens[i].commutes_with(gens[j]):
                raise PauliError(
                    f"generators {gens[i]} and {gens[j]} do not commute"
                )
    identity = PauliOperator(0, ("I",) * arity)
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in elements:
                    elements.add(b)
                    nxt.append(b)
        frontier = nxt
    letter_key = {p: i for i, p in enumerate(LETTERS)}
    return tuple(
        sorted(
            elements,
            key=lambda op: (tuple(letter_key[p] for p in op.letters), op.phase),
        )
    )


def theory_of_subgroup(
    elements: list[PauliOperator] | tuple[PauliOperator, ...],
    scenario: Scenario,
) -> Theory:
    """Parity equations imposed by stabilising operators, read over Z_2.

    An element with letters P_1..P_n constrains the measurements named by
    its non-identity letters (X3 for an X at site 3, and so on): their sum
    is 0 when the phase is +1 and 1 when it is -1. Imaginary phases cannot
    stabilise anything. An equation lands on every cover context containing
    its variables; elements whose variables are not all in the scenario, or
    fit no context, impose nothing on the model and are skipped.
    """
    ring = RingSpec(2)
    equations = []
    for op in elements:
        if op.phase in (1, 3):
            raise PauliError(
                f"{op} has an imaginary global phase and stabilises no state"
            )
        variables = {
            f"{p}{i}": 1 for i, p in enumerate(op.letters, start=1) if p != "I"
        }
        if variables:
            equations.extend(
                equations_on_cover(ring, scenario, variables, 0 if op.phase == 0 else 1)
            )
    return Theory(ring, tuple(equations))


GHZ_TRIPLE = (
    PauliOperator.parse("XYY"),
    PauliOperator.parse("YXY"),
    PauliOperator.parse("YYX"),
)


def triple_scenario(e: PauliOperator, f: PauliOperator, g: PauliOperator) -> Scenario:
    """The measurement scenario a triple acts on: per site, the non-identity
    letters the triple uses there; contexts pick one measurement per site."""
    if not (e.arity == f.arity == g.arity):
        raise PauliError("the three operators must share an arity")
    per_site = []
    for i in range(e.arity):
        letters = []
        for op in (e, f, g):
            p = op.letters[i]
            if p != "I" and p not in letters:
                letters.append(p)
        per_site.append([f"{p}{i + 1}" for p in sorted(letters)])
    sites = [s for s in per_site if s]
    if not sites:
        raise PauliError("the triple measures nothing")
    measurements = tuple(m for site in sites for m in site)
    contexts = tuple(product(*sites))
    return Scenario(measurements, contexts, (0, 1))


def ghz_model() -> EmpiricalModel:
    """The parity model of the tripartite GHZ state under X/Y measurements.

    Supports are the solution sets of the stabiliser's parity equations:
    even parity for the three XYY-type contexts, odd for XXX.
    """
    return triple_model(*GHZ_TRIPLE)


def triple_model(e: PauliOperator, f: PauliOperator, g: PauliOperator) -> EmpiricalModel:
    """The maximal model satisfying the parity theory of the subgroup the
    triple generates, over the scenario of the triple's own measurements."""
    for op in (e, f, g):
        if op.phase != 0:
            raise PauliError(f"{op} must have global phase +1")
    scenario = triple_scenario(e, f, g)
    subgroup = generate_subgroup([e, f, g])
    theory = theory_of_subgroup(subgroup, scenario)
    return model_of_theory(theory, scenario)
