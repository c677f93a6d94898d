"""Propositional readings of models: bounds on how many context-local
propositions can hold at once, and the liar-style models whose constraints
realise those violations.

Outcome 0 is read as true and 1 as false throughout; this matches reading
an equation x = 0 as the assertion of x.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, permutations, product
from typing import Iterable, Mapping, Union

from .errors import BudgetExceededError, DegenerateModelError, FormulaError
from .model import EmpiricalModel, ProbabilityTable
from .scenario import Scenario, Section

# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Not, And, Or, Iff]


def variables(formula: Formula) -> frozenset[str]:
    if isinstance(formula, Var):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return variables(formula.operand)
    return variables(formula.left) | variables(formula.right)


def evaluate(formula: Formula, env: Mapping[str, bool]) -> bool:
    if isinstance(formula, Var):
        try:
            return env[formula.name]
        except KeyError:
            raise FormulaError(f"no value for variable {formula.name!r}") from None
    if isinstance(formula, Not):
        return not evaluate(formula.operand, env)
    if isinstance(formula, And):
        return evaluate(formula.left, env) and evaluate(formula.right, env)
    if isinstance(formula, Or):
        return evaluate(formula.left, env) or evaluate(formula.right, env)
    return evaluate(formula.left, env) == evaluate(formula.right, env)


_TOKENS = (
    ("<->", "IFF"),
    ("↔", "IFF"),
    ("¬", "NOT"),
    ("!", "NOT"),
    ("∧", "AND"),
    ("&", "AND"),
    ("∨", "OR"),
    ("|", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for literal, kind in _TOKENS:
            if text.startswith(literal, i):
                tokens.append((kind, literal, i))
                i += len(literal)
                break
        else:
            if ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("NAME", text[i:j], i))
                i = j
            else:
                raise FormulaError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    """Precedence: negation binds tightest, then conjunction, disjunction,
    biconditional; binary connectives associate to the left."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            where = f"position {tok[2]}" if tok else "end of input"
            raise FormulaError(f"expected {kind} at {where} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        formula = self.iff()
        tok = self.peek()
        if tok is not None:
            raise FormulaError(
                f"unexpected {tok[1]!r} at position {tok[2]} in {self.text!r}"
            )
        return formula

    def iff(self) -> Formula:
        left = self.disjunction()
        while (tok := self.peek()) and tok[0] == "IFF":
            self.pos += 1
            left = Iff(left, self.disjunction())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while (tok := self.peek()) and tok[0] == "OR":
            self.pos += 1
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while (tok := self.peek()) and tok[0] == "AND":
            self.pos += 1
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        tok = self.peek()
        if tok and tok[0] == "NOT":
            self.pos += 1
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError(f"unexpected end of input in {self.text!r}")
        if tok[0] == "NAME":
            self.pos += 1
            return Var(tok[1])
        if tok[0] == "LPAREN":
            self.pos += 1
            inner = self.iff()
            self.take("RPAREN")
            return inner
        raise FormulaError(
            f"unexpected {tok[1]!r} at position {tok[2]} in {self.text!r}"
        )


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


_PRECEDENCE = {Iff: 0, Or: 1, And: 2, Not: 3, Var: 4}


def format_formula(formula: Formula) -> str:
    # a subformula is parenthesized when its own level is below the minimum
    # its position requires; right operands require one more than the left,
    # which is what makes the connectives reparse left-associatively
    def render(f: Formula, min_level: int) -> str:
        level = _PRECEDENCE[type(f)]
        if isinstance(f, Var):
            return f.name
        if isinstance(f, Not):
            text = "¬" + render(f.operand, level)
        else:
            symbol = {Iff: " ↔ ", Or: " ∨ ", And: " ∧ "}[type(f)]
            text = render(f.left, level) + symbol + render(f.right, level + 1)
        return f"({text})" if level < min_level else text

    return render(formula, 0)


# ---------------------------------------------------------------------------
# propositions and the satisfiability bound


def truth(outcome: int) -> bool:
    """The truth convention: outcome 0 is true."""
    return outcome == 0


def section_environment(section: Section) -> dict[str, bool]:
    return {m: truth(o) for m, o in section.as_dict().items()}


def holds_in(section: Section, formula: Formula) -> bool:
    return evaluate(formula, section_environment(section))


@dataclass(frozen=True)
class Proposition:
    """A formula asserted within one context, optionally with the empirical
    probability of the event it describes."""

    context: tuple[str, ...]
    formula: Formula
    probability: Fraction | None = None

    def __post_init__(self):
        free = variables(self.formula)
        if not free <= set(self.context):
            raise FormulaError(
                f"formula mentions {sorted(free - set(self.context))} outside "
                f"context {self.context}"
            )
        if self.probability is not None:
            p = Fraction(self.probability)
            if not 0 <= p <= 1:
                raise FormulaError(f"probability {p} outside [0, 1]")
            object.__setattr__(self, "probability", p)


def proposition_probability(table: ProbabilityTable, context: Iterable[str], formula: Formula) -> Fraction:
    """Probability of the event the formula describes, under the table's
    distribution on the context."""
    ci = table.scenario.context_index(context)
    ctx = table.scenario.contexts[ci]
    total = Fraction(0)
    for values, p in zip(table.row_values(ci), table.row_weights(ci)):
        if evaluate(formula, {m: truth(o) for m, o in zip(ctx, values)}):
            total += p
    return total


@dataclass(frozen=True)
class SatisfiabilityBound:
    """At most proposition_count - 1 of jointly unsatisfiable propositions
    can hold, so their probabilities sum to at most that bound. A satisfiable
    family supports no bound, and the report says so explicitly."""

    jointly_satisfiable: bool
    witness: tuple[tuple[str, bool], ...] | None
    proposition_count: int
    sum_probabilities: Fraction
    bound: int | None
    violation: Fraction | None

    def describe(self) -> str:
        if self.jointly_satisfiable:
            return (
                "the propositions are jointly satisfiable; no bound follows "
                f"(sum of probabilities {self.sum_probabilities})"
            )
        return (
            f"jointly unsatisfiable: sum {self.sum_probabilities} against "
            f"bound {self.bound}, violation {self.violation}"
        )


def logical_bell_bound(propositions: Iterable[Proposition]) -> SatisfiabilityBound:
    """Exact satisfiability of the conjunction plus the probabilistic bound.

    Satisfiability is decided by brute force over the free variables (up to
    2^20 assignments), with truth values chosen independently per variable;
    context structure does not matter for the conjunction.
    """
    props = tuple(propositions)
    if not props:
        raise FormulaError("need at least one proposition")
    for prop in props:
        if prop.probability is None:
            raise FormulaError(
                f"proposition over {prop.context} carries no probability"
            )
    names: list[str] = []
    for prop in props:
        for m in prop.context:
            if m in variables(prop.formula) and m not in names:
                names.append(m)
    if 2 ** len(names) > 2**20:
        raise BudgetExceededError(
            f"{len(names)} variables exceed the exhaustive search bound"
        )
    witness = None
    for values in product((True, False), repeat=len(names)):
        env = dict(zip(names, values))
        if all(evaluate(p.formula, env) for p in props):
            witness = tuple(sorted(env.items()))
            break
    total = sum((p.probability for p in props), Fraction(0))
    if witness is not None:
        return SatisfiabilityBound(True, witness, len(props), total, None, None)
    bound = len(props) - 1
    violation = max(Fraction(0), total - bound)
    return SatisfiabilityBound(False, None, len(props), total, bound, violation)


def chsh_propositions(table: ProbabilityTable) -> tuple[Proposition, ...]:
    """The correlated/anticorrelated reading of a two-measurement-per-context
    table: equivalence of the two measurements on every context except the
    last, inequivalence there, each with its probability under the table."""
    scenario = table.scenario
    for ctx in scenario.contexts:
        if len(ctx) != 2:
            raise FormulaError(
                f"context {ctx} does not have exactly two measurements"
            )
    props = []
    last = len(scenario.contexts) - 1
    for ci, ctx in enumerate(scenario.contexts):
        a, b = ctx
        body = Iff(Var(a), Not(Var(b))) if ci == last else Iff(Var(a), Var(b))
        props.append(
            Proposition(ctx, body, proposition_probability(table, ctx, body))
        )
    return tuple(props)


# ---------------------------------------------------------------------------
# liar cycles and the Specker triangle


@dataclass(frozen=True)
class LiarCycle:
    """x1 asserts x2, ..., x_{N-1} asserts x_N, and x_N denies x1."""

    length: int

    def __post_init__(self):
        if self.length < 1:
            raise FormulaError(f"cycle length must be positive, got {self.length}")


def _pair_model(
    measurements: tuple[str, ...],
    constraints: list[tuple[str, str, bool]],
) -> EmpiricalModel:
    """Model from equality/inequality constraints on pairs; constraints on
    the same underlying context are intersected."""
    supports: dict[frozenset, set[tuple[int, ...]]] = {}
    for a, b, anti in constraints:
        key = frozenset((a, b))
        # an assertion allows equal outcomes and a denial differing ones, in
        # either order of the pair; a measurement never differs from itself
        if a == b:
            allowed = set() if anti else {(0,), (1,)}
        else:
            allowed = {(0, 1), (1, 0)} if anti else {(0, 0), (1, 1)}
        supports[key] = supports.get(key, allowed) & allowed
    contexts = tuple(tuple(m for m in measurements if m in key) for key in supports)
    scenario = Scenario(measurements, contexts, (0, 1))
    for ctx, values in zip(contexts, supports.values()):
        if not values:
            raise DegenerateModelError(
                f"contradictory constraints on context {ctx}", context=ctx
            )
    return EmpiricalModel.from_values(scenario, supports.values())


def liar_cycle_model(cycle: LiarCycle | int) -> EmpiricalModel:
    """The possibilistic model of a liar cycle: consecutive assertions force
    equal outcomes, the closing denial forces differing ones. Below length
    three the constraints collapse onto a single context and contradict
    each other outright, which is reported as degeneracy."""
    n = cycle.length if isinstance(cycle, LiarCycle) else LiarCycle(cycle).length
    names = tuple(f"x{i}" for i in range(1, n + 1))
    constraints = [(a, b, False) for a, b in zip(names, names[1:])]
    constraints.append((names[-1], names[0], True))
    return _pair_model(names, constraints)


def specker_triangle() -> EmpiricalModel:
    """Three pairwise contexts, every pair forced to disagree."""
    names = ("x1", "x2", "x3")
    constraints = [
        (names[0], names[1], True),
        (names[1], names[2], True),
        (names[2], names[0], True),
    ]
    return _pair_model(names, constraints)


# ---------------------------------------------------------------------------
# isomorphism of models


@dataclass(frozen=True)
class IsomorphismWitness:
    """A measurement bijection plus one outcome bijection per measurement,
    mapping the first model's supports exactly onto the second's."""

    measurement_map: tuple[tuple[str, str], ...]
    outcome_maps: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]

    def measurement(self, name: str) -> str:
        for a, b in self.measurement_map:
            if a == name:
                return b
        raise FormulaError(f"{name!r} is not in the witness domain")

    def apply(self, section: Section) -> Section:
        perms = {m: dict(pairs) for m, pairs in self.outcome_maps}
        return Section.of(
            (self.measurement(m), perms[m][o]) for m, o in section.as_dict().items()
        )


@dataclass(frozen=True)
class IsomorphismReport:
    isomorphic: bool
    witnesses: tuple[IsomorphismWitness, ...]


def _shape(model: EmpiricalModel) -> tuple:
    scn = model.scenario
    contexts = sorted(len(c) for c in scn.contexts)
    supports = sorted(len(model.support_values(ci)) for ci in range(len(contexts)))
    return len(scn.measurements), len(scn.outcomes), contexts, supports


def _meetings(scenario: Scenario) -> dict[str, Counter]:
    """Per measurement, the number of contexts it shares with each
    measurement, itself included."""
    meetings = {}
    for m in scenario.measurements:
        shared = [scenario.contexts[ci] for ci in scenario.contexts_containing(m)]
        meetings[m] = Counter(x for ctx in shared for x in ctx)
    return meetings


def model_isomorphic(
    first: EmpiricalModel,
    second: EmpiricalModel,
    budget: int = 1_000_000,
) -> IsomorphismReport:
    """Search for all isomorphisms: bijections of measurements preserving
    the cover, with per-measurement outcome bijections carrying supports
    exactly onto supports. Deterministic order: measurements are assigned
    in the first model's declaration order, targets tried in the second's;
    then each measurement's outcome bijections, in the order of
    `permutations(second.outcomes)`.
    """
    sa, sb = first.scenario, second.scenario
    if _shape(first) != _shape(second):
        return IsomorphismReport(False, ())
    measurements = sa.measurements
    targets = {frozenset(c): cj for cj, c in enumerate(sb.contexts)}
    meets_a, meets_b = _meetings(sa), _meetings(sb)
    # each context is checked once, when its last measurement is assigned;
    # a stored context follows the declared order, so that is ctx[-1]
    closing: list[list[int]] = [[] for _ in measurements]
    for ci, ctx in enumerate(sa.contexts):
        closing[sa.measurement_index(ctx[-1])].append(ci)
    mapping: dict[str, str] = {}
    perms: dict[str, dict[int, int]] = {}
    witnesses: list[IsomorphismWitness] = []
    nodes = count(1)

    def check(ci: int) -> tuple:
        """Context ci's outcome tuples, its (position, measurement) columns
        in the order of its image, and the image's outcome tuples."""
        ctx = sa.contexts[ci]
        image = targets[frozenset(map(mapping.get, ctx))]
        order = sb.measurement_index
        columns = sorted(enumerate(ctx), key=lambda col: order(mapping[col[1]]))
        return first.support_values(ci), columns, set(second.support_values(image))

    def assign_perms(idx: int, checks: list[list[tuple]]) -> None:
        if next(nodes) > budget:
            raise BudgetExceededError(f"isomorphism search exceeded {budget} nodes")
        if idx == len(measurements):
            witnesses.append(
                IsomorphismWitness(
                    tuple((m, mapping[m]) for m in measurements),
                    tuple(
                        (m, tuple(sorted(perms[m].items()))) for m in measurements
                    ),
                )
            )
            return
        m = measurements[idx]
        for images in permutations(sb.outcomes):
            perms[m] = dict(zip(sa.outcomes, images))
            if all(
                {tuple(perms[x][v[k]] for k, x in columns) for v in values} == image
                for values, columns, image in checks[idx]
            ):
                assign_perms(idx + 1, checks)
        del perms[m]

    def assign(idx: int) -> None:
        if next(nodes) > budget:
            raise BudgetExceededError(f"isomorphism search exceeded {budget} nodes")
        if idx == len(measurements):
            assign_perms(0, [[check(ci) for ci in cis] for cis in closing])
            return
        m = measurements[idx]
        for candidate in sb.measurements:
            if candidate in mapping.values():
                continue
            mapping[m] = candidate
            # the target shares as many contexts with each earlier target as
            # m does with its preimage; with itself, that is the degree
            if all(
                meets_a[m][x] == meets_b[candidate][mapping[x]]
                for x in measurements[: idx + 1]
            ) and all(
                frozenset(map(mapping.get, sa.contexts[ci])) in targets
                for ci in closing[idx]
            ):
                assign(idx + 1)
            del mapping[m]

    assign(0)
    return IsomorphismReport(bool(witnesses), tuple(witnesses))
