"""Linear equations over a ring, fibred over contexts.

The theory of a model is the set of equations every supported section of a
context satisfies. The set itself is infinite, but the pairs (a, b) with
a.s = b for all s in S(C) form a module: the kernel of the matrix whose rows
are [s | -1]. A generating set of that kernel determines the same solution
set, so consistency questions (AvN) reduce to finite linear systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateModelError,
    OutcomeCoercionError,
    RingError,
    ScenarioError,
    UnsupportedRingError,
)
from .model import EmpiricalModel
from .rings import (
    RingSpec,
    Row,
    dense,
    echelon,
    sparse,
)
from .scenario import Scenario, Section


@dataclass(frozen=True)
class LinearEquation:
    """Sum over the context of coefficient(m) * s(m) equals the constant."""

    ring: RingSpec
    context: tuple[str, ...]
    coefficients: tuple[int, ...]
    constant: int

    def __post_init__(self):
        if len(self.coefficients) != len(self.context):
            raise RingError(
                f"{len(self.coefficients)} coefficients for a context of "
                f"{len(self.context)} measurements"
            )
        if len(set(self.context)) != len(self.context):
            raise RingError(f"repeated measurement in context {self.context}")
        object.__setattr__(
            self, "coefficients", tuple(self.ring.canon(c) for c in self.coefficients)
        )
        object.__setattr__(self, "constant", self.ring.canon(self.constant))

    def coefficient(self, measurement: str) -> int:
        if measurement in self.context:
            return self.coefficients[self.context.index(measurement)]
        return 0

    def __str__(self) -> str:
        return _equation_text(self.ring, self.context, self.coefficients, self.constant)


def _equation_text(
    ring: RingSpec, context: tuple[str, ...], coefficients: Iterable[int], constant: int
) -> str:
    """The text of an equation whose coefficients and constant are canonical."""
    terms = [m if a == 1 else f"{a}*{m}" for m, a in zip(context, coefficients) if a]
    suffix = f" (mod {ring.modulus})" if ring.is_finite else ""
    return f"{' + '.join(terms) if terms else '0'} = {constant}{suffix}"


def satisfies(section: Section, equation: LinearEquation) -> bool:
    """Section satisfies the equation, reading outcomes as ring elements."""
    ring = equation.ring
    total = 0
    for m, a in zip(equation.context, equation.coefficients):
        total = ring.add(total, ring.mul(a, ring.canon(section[m])))
    return total == ring.canon(equation.constant)


@dataclass(frozen=True)
class Theory:
    ring: RingSpec
    equations: tuple[LinearEquation, ...]

    def __post_init__(self):
        deduped = []
        seen = set()
        for eq in self.equations:
            if eq.ring != self.ring:
                raise RingError(f"equation over {eq.ring} in a theory over {self.ring}")
            if eq not in seen:
                seen.add(eq)
                deduped.append(eq)
        object.__setattr__(self, "equations", tuple(deduped))

    def __len__(self) -> int:
        return len(self.equations)


def equations_on_cover(
    ring: RingSpec,
    scenario: Scenario,
    coefficients: Mapping[str, int],
    constant: int,
) -> tuple[LinearEquation, ...]:
    """The equation sum of coefficients[m]*m = constant on every cover
    context, in cover order, that contains its measurements with nonzero
    coefficient; an all-zero equation lands on every context. Empty when
    no context contains them jointly or one is not in the scenario."""
    names = [m for m, a in coefficients.items() if ring.canon(a)]
    landing = set(range(len(scenario.contexts)))
    try:
        for m in names:
            landing.intersection_update(scenario.contexts_containing(m))
    except ScenarioError:
        return ()
    return tuple(
        LinearEquation(ring, ctx, tuple(coefficients.get(m, 0) for m in ctx), constant)
        for ctx in map(scenario.contexts.__getitem__, sorted(landing))
    )


def outcome_embedding(ring: RingSpec, outcomes: Iterable[int]) -> dict[int, int]:
    """Identify the outcome alphabet with ring elements via canonical
    reduction; the identification must be injective or equations lose
    information about which outcome occurred."""
    mapping = {}
    images = set()
    for o in outcomes:
        image = ring.canon(o)
        if image in images:
            raise OutcomeCoercionError(
                f"outcomes do not embed injectively into {ring}: "
                f"{o} collides at {image}"
            )
        images.add(image)
        mapping[o] = image
    return mapping


def _kernel_generators(
    ring: RingSpec,
    width: int,
    values: Iterable[tuple[int, ...]],
    embedding: Mapping[int, int],
) -> list[list[int]]:
    """Generators (a_1..a_width, b) of the kernel of the matrix A with one
    row [v_1..v_width, -1] per outcome tuple v in context order: the tails
    of the echelon rows of [A^T | I] whose head reduced to zero."""
    embedded = [[embedding[o] for o in v] for v in values]
    m = len(embedded)
    rows = [{i: x for i, v in enumerate(embedded) if (x := v[j])} for j in range(width)]
    rows.append(dict.fromkeys(range(m), ring.canon(-1)))
    for j, row in enumerate(rows):
        row[m + j] = 1
    return [dense(row, width + 1, m) for row in echelon(ring, rows, m).kernel]


def _equations(
    ring: RingSpec, context: tuple[str, ...], generators: Iterable[Sequence[int]]
) -> tuple[LinearEquation, ...]:
    return tuple(LinearEquation(ring, context, tuple(gen[:-1]), gen[-1]) for gen in generators)


def theory_of_sections(
    ring: RingSpec,
    context: tuple[str, ...],
    sections: Iterable[Section],
    embedding: Mapping[int, int] | None = None,
) -> tuple[LinearEquation, ...]:
    """Generators of all equations over the context satisfied by every
    section: the kernel of the matrix with one row [s(m_1)..s(m_k), -1]
    per section, unknowns (a_1..a_k, b)."""
    if not ring.is_finite:
        raise UnsupportedRingError(
            "theories need a finite coefficient ring matching the outcomes"
        )
    values = [s.values_on(context) for s in sections]
    if embedding is None:
        embedding = outcome_embedding(ring, sorted({o for v in values for o in v}))
    return _equations(ring, context, _kernel_generators(ring, len(context), values, embedding))


def _support_kernels(
    model: EmpiricalModel, ring: RingSpec
) -> tuple[dict[int, int], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The outcome embedding and, per cover context, the kernel generators
    (a_1..a_k, b) of its support, from the stored outcome tuples. Contexts
    with equal supports (the same outcome tuples) share one kernel, and a
    generator repeated within a kernel is kept once, as `Theory` keeps an
    equation once."""
    if not ring.is_finite:
        raise UnsupportedRingError(
            "theory of a model needs a finite ring; the outcome alphabet "
            "must embed into it"
        )
    embedding = outcome_embedding(ring, model.scenario.outcomes)
    kernels: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    per_context = []
    for ci, ctx in enumerate(model.scenario.contexts):
        key = (len(ctx), model.support_values(ci))
        generators = kernels.get(key)
        if generators is None:
            found = _kernel_generators(ring, *key, embedding)
            generators = kernels[key] = tuple(dict.fromkeys(map(tuple, found)))
        per_context.append(generators)
    return embedding, tuple(per_context)


def _theory(
    ring: RingSpec, scenario: Scenario, kernels: Iterable[tuple[tuple[int, ...], ...]]
) -> Theory:
    """The theory whose equations are each context's kernel generators,
    labelled with its own measurements, in cover order."""
    return Theory(
        ring,
        tuple(
            eq
            for ctx, generators in zip(scenario.contexts, kernels)
            for eq in _equations(ring, ctx, generators)
        ),
    )


def theory_of_model(model: EmpiricalModel, ring: RingSpec) -> Theory:
    """Per-context kernel generators, one batch per cover context, from the
    stored outcome tuples of each support. Contexts with equal supports
    (the same outcome tuples) share one kernel, and each labels its
    equations with its own measurements."""
    return _theory(ring, model.scenario, _support_kernels(model, ring)[1])


def _solution_values(
    theory: Theory, context: tuple[str, ...], alphabet: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Outcome tuples over the context, in the alphabet's product order,
    satisfying every equation whose context is contained in it. Each
    equation is checked by the positions of its nonzero coefficients."""
    where = {m: k for k, m in enumerate(context)}
    checks = [
        (tuple((where[m], a) for m, a in zip(eq.context, eq.coefficients) if a), eq.constant)
        for eq in theory.equations
        if all(m in where for m in eq.context)
    ]
    canon = theory.ring.canon
    return [
        v
        for v in product(alphabet, repeat=len(context))
        if all(canon(sum(a * v[k] for k, a in terms)) == b for terms, b in checks)
    ]


def solutions(
    theory: Theory,
    context: Iterable[str],
    alphabet: Iterable[int] | None = None,
) -> tuple[Section, ...]:
    """Sections over the context satisfying every equation whose context is
    contained in it. The alphabet defaults to the ring's canonical elements."""
    ring = theory.ring
    ctx = tuple(context)
    if alphabet is None:
        if not ring.is_finite:
            raise UnsupportedRingError("cannot enumerate sections over an infinite ring")
        alphabet = tuple(ring.elements())
    return tuple(
        Section.of(zip(ctx, v)) for v in _solution_values(theory, ctx, tuple(alphabet))
    )


def model_of_theory(theory: Theory, scenario: Scenario) -> EmpiricalModel:
    """Largest model with the given theory: per-context solution sets.

    A context left without solutions is an inconsistency in the theory
    itself, reported as a degenerate model rather than silently dropped.
    """
    if not theory.ring.is_finite:
        raise UnsupportedRingError("materialising a theory needs a finite ring")
    outcome_embedding(theory.ring, scenario.outcomes)
    supports = []
    for ctx in scenario.contexts:
        found = _solution_values(theory, ctx, scenario.outcomes)
        if not found:
            raise DegenerateModelError(
                f"theory admits no section over context {ctx}", context=ctx
            )
        supports.append(found)
    return EmpiricalModel.from_values(scenario, supports)


# ---------------------------------------------------------------------------
# AvN decisions


@dataclass(frozen=True)
class AvnReport:
    """Consistency verdict for the global theory system.

    avn means unsolvable: no assignment X -> R satisfies every generator
    (and, with `fixed`, extends that section). Exactly one certificate is
    present. A solvable system carries a satisfying global assignment, read
    off the Howell form of the augmented system [A | b] by back
    substitution with the free unknowns set to 0. An unsolvable one carries
    the pivot rows of that Howell form as `howell_rows`: sparse rows over
    the declared measurements with the constant b at key
    len(measurements), whose last row has no key but b.

    The report keeps each context's kernel generators; `theory` is built
    from them when first read.
    """

    ring: RingSpec
    avn: bool
    solution: Section | None
    fixed: Section | None
    model: EmpiricalModel = field(repr=False)
    kernels: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    # a function of the fields above, so left out of equality and hashing
    howell_rows: tuple[Row, ...] | None = field(repr=False, compare=False)

    @cached_property
    def theory(self) -> Theory:
        return _theory(self.ring, self.model.scenario, self.kernels)

    def equation_texts(self) -> list[str]:
        """str() of each equation of `theory`, in order, written from the
        kernels without building it. `theory` drops no equation: contexts
        differ, and each kernel holds a generator once."""
        return [
            _equation_text(self.ring, ctx, gen[:-1], gen[-1])
            for ctx, generators in zip(self.model.scenario.contexts, self.kernels)
            for gen in generators
        ]


def _decide(model: EmpiricalModel, ring: RingSpec, s0: Section | None = None) -> AvnReport:
    """Verdict, solution and certificate from one Howell form of [A | b].

    The rows are each context's kernel generators over the declared
    measurements, in cover order, then, for s0, one row m = s0(m) per
    measurement of its domain in declared order. Over Z_n the system is
    unsolvable exactly when some y has y*A = 0 and y*b != 0 (Z_n is
    self-injective), and the Howell property puts such a row (0 | y*b)
    among the form's rows: a pivot in the b column. Without one, back
    substitution from the last pivot solves the form. A row with pivot p
    at column c needs p*x_c = r, where r is its constant minus its terms
    in the unknowns already fixed, and p divides r: (n/p)*row is zero at
    c, so it is a combination of later rows, which x satisfies, hence
    (n/p)*r = 0.
    """
    embedding, kernels = _support_kernels(model, ring)
    n = ring.modulus
    scenario = model.scenario
    measurements = scenario.measurements
    width = len(measurements)
    index = scenario.measurement_index
    rows = []
    for ctx, generators in zip(scenario.contexts, kernels):
        columns = list(map(index, ctx))
        for gen in generators:
            row = {c: a for c, a in zip(columns, gen) if a}
            row[width] = gen[-1]
            rows.append(row)
    if s0 is not None:
        values = s0.as_dict()
        for m in scenario.sorted_measurements(values):
            rows.append({index(m): 1, width: embedding[values[m]]})
    form = echelon(ring, rows, width + 1)
    if width in form.rows:
        avn, solution, howell_rows = True, None, tuple(form.rows.values())
    else:
        x = [0] * width
        for c, row in reversed(form.rows.items()):
            r = row.get(width, 0) - sum(a * x[j] for j, a in row.items() if c < j < width)
            x[c] = r % n // row[c]
        avn, solution, howell_rows = False, Section.of(zip(measurements, x)), None
    return AvnReport(ring, avn, solution, s0, model, kernels, howell_rows)


def is_avn(model: EmpiricalModel, ring: RingSpec) -> AvnReport:
    """All-vs-Nothing over the ring: the model's theory has no global solution."""
    return _decide(model, ring)


def is_avn_at(model: EmpiricalModel, s0: Section, ring: RingSpec) -> AvnReport:
    """AvN relative to a section: no theory solution extends s0."""
    model.context_of_section(s0)
    return _decide(model, ring, s0)


# ---------------------------------------------------------------------------
# affine closures


def affine_span(ring: RingSpec, vectors: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Closure of a set of R-vectors under affine combinations.

    The affine span of v0, v1, ... is v0 plus the submodule generated by
    the differences v - v0. Over Z_n the Howell form of the differences
    lists that submodule directly: every sum of c_i*h_i with
    0 <= c_i < n/p_i over its rows h_i with pivots p_i, each element once.
    With `affine_closure_model` this is the reference oracle for
    SC(Aff_R e) <=> AvN_R(e); the analysis pipeline lists no spans.
    """
    if not ring.is_finite:
        raise UnsupportedRingError("affine spans over the integers may be infinite")
    vecs = [tuple(ring.canon(x) for x in v) for v in vectors]
    if not vecs:
        return frozenset()
    n, v0 = ring.modulus, vecs[0]
    form = echelon(ring, [sparse([x - y for x, y in zip(v, v0)]) for v in vecs[1:]], len(v0))
    span = [v0]
    for c, row in form.rows.items():
        h = dense(row, len(v0))
        span = [
            tuple((x + k * y) % n for x, y in zip(u, h))
            for u in span
            for k in range(n // h[c])
        ]
    return frozenset(span)


def affine_closure_model(model: EmpiricalModel, ring: RingSpec) -> EmpiricalModel:
    """Per-context affine closure over the ring.

    The closed supports take values anywhere in the ring, so the returned
    model lives over the same cover with the sorted canonical residues that
    occur in the closed supports as its outcome alphabet; no support admits
    any other value, so a larger alphabet would change no verdict. Closure
    commutes with restriction, which is what keeps the result
    no-signalling.

    This is the reference oracle for SC(Aff_R e) <=> AvN_R(e). Over Z_n the
    affine span v0 + M of a support is the solution set v0 + Ann(Ann(M))
    of the context's theory, because Z_n is a finite Frobenius ring and
    every submodule of Z_n^k is its own double annihilator (Wood, "Duality
    for modules over finite rings and applications to coding theory",
    Amer. J. Math. 121, 1999). So the closure is strongly contextual
    exactly when `is_avn` holds, and `analyze` reports that verdict
    without listing the closure, whose size is the product of n/p_i over
    the Howell pivots p_i of each context.
    """
    if not ring.is_finite:
        raise UnsupportedRingError("affine closure over the integers may be infinite")
    embedding = outcome_embedding(ring, model.scenario.outcomes).__getitem__
    spans = [
        affine_span(ring, {tuple(map(embedding, v)) for v in model.support_values(ci)})
        for ci in range(len(model.scenario.contexts))
    ]
    scenario = Scenario(
        model.scenario.measurements,
        model.scenario.contexts,
        tuple(sorted({x for span in spans for v in span for x in v})),
    )
    return EmpiricalModel.from_values(scenario, spans)
