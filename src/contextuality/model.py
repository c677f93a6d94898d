"""Possibilistic empirical models over measurement scenarios.

A model assigns each cover context a non-empty set of supported sections
(E1) such that supports agree on overlaps (E2, no-signalling). Compatible
families of supported sections glue to global assignments, which is what the
contextuality classification searches for: a section is logically contextual
when no global assignment consistent with every context extends it, and the
model is strongly contextual when no global assignment exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Collection, Iterable, Mapping

from .errors import (
    EmptySupportError,
    ModelError,
    NormalisationError,
    SectionNotSupportedError,
    SelfCheckError,
    SignallingError,
)
from .scenario import Scenario, Section, projection, sections_over

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True, init=False, repr=False)
class EmpiricalModel:
    """Supports S(C) for each cover context, E1 and E2 enforced on entry.

    The stored form of a support is its outcome tuples in context order,
    without repeats and in lexicographic order (`support_values`); every
    solver and every restriction inside the library reads those tuples.
    `Section`s are the API boundary: `EmpiricalModel(scenario, supports)`
    reads the given sections into outcome tuples, as `from_values` (which
    parsing and theories use) takes them, and a context's sections are
    built the first time `support`, `supports` or `support_set` reads them.
    Two models are equal when their scenarios and supports are, and the
    model is immutable.

    E2 runs in one place, `check_no_signalling`, at most once per model,
    and the model keeps its verdict. Construction raises SignallingError
    on a false verdict, and so does the degree-0 complex of a model built
    with validate=False, which skips E1/E2 for diagnostic use (for example
    feeding a deliberately signalling table to check_no_signalling).
    """

    scenario: Scenario
    _values: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(
        self,
        scenario: Scenario,
        supports: Iterable[Iterable[Section]],
        validate: bool = True,
    ):
        supports = tuple(supports)
        _check_count(scenario, supports)
        alphabet = set(scenario.outcomes)
        given = [set(_context_values(c, sup, alphabet)) for c, sup in zip(scenario.contexts, supports)]
        self._store(scenario, given, validate)

    @classmethod
    def from_values(
        cls, scenario: Scenario, values: Iterable[Iterable[tuple[int, ...]]]
    ) -> "EmpiricalModel":
        """The model whose support at each context holds the given outcome
        tuples, in context order; repeats and order do not matter. E1 and
        E2 are checked; sections are built only when read."""
        values = tuple(map(tuple, values))
        _check_count(scenario, values)
        alphabet = set(scenario.outcomes)
        for ctx, rows in zip(scenario.contexts, values):
            # one pass over the widths and one over the outcomes; the rows
            # are scanned one by one only to name the first offence
            widths = set(map(len, rows))
            if widths - {len(ctx)} or not alphabet.issuperset(chain.from_iterable(rows)):
                for v in rows:
                    if len(v) != len(ctx):
                        raise ModelError(
                            f"outcome tuple {v} does not have one outcome per "
                            f"measurement of context {ctx}"
                        )
                    if not alphabet.issuperset(v):
                        raise ModelError(f"outcome tuple {v} uses outcome outside the alphabet")
        return cls._of_checked_values(scenario, values)

    @classmethod
    def _of_checked_values(
        cls, scenario: Scenario, values: Iterable[Iterable[tuple[int, ...]]]
    ) -> "EmpiricalModel":
        """`from_values` for one collection of outcome tuples per context,
        each already known to have one outcome of the alphabet per
        measurement; E1 and E2 are checked."""
        model = cls.__new__(cls)
        model._store(scenario, map(set, values), True)
        return model

    def _store(self, scenario: Scenario, given, validate: bool) -> None:
        """Sort each context's distinct outcome tuples and run E1 and E2."""
        object.__setattr__(self, "scenario", scenario)
        key = _lexicographic_key(scenario.outcomes)
        object.__setattr__(self, "_lexicographic", key)
        object.__setattr__(self, "_values", tuple(tuple(sorted(vs, key=key)) for vs in given))
        # per context, its sections and its positions by outcome tuple, each
        # built when first read
        object.__setattr__(self, "_sections", [None] * len(scenario.contexts))
        object.__setattr__(self, "_positions", [None] * len(scenario.contexts))
        object.__setattr__(self, "_restriction_cache", {})
        # the E2 verdict, kept by `check_no_signalling` when it first runs
        object.__setattr__(self, "_no_signalling", None)
        if validate:
            for ctx, vs in zip(scenario.contexts, self._values):
                if not vs:
                    raise EmptySupportError(f"context {ctx} has empty support (E1)")
            _require_no_signalling(self)

    def __repr__(self) -> str:
        return f"EmpiricalModel(scenario={self.scenario!r}, supports={self.supports!r})"

    # -- access ---------------------------------------------------------------

    @property
    def supports(self) -> tuple[tuple[Section, ...], ...]:
        return tuple(map(self.support, range(len(self._values))))

    def support(self, index: int) -> tuple[Section, ...]:
        found = self._sections[index]
        if found is None:
            found = self._sections[index] = sections_over(
                self.scenario.contexts[index], self._values[index]
            )
        return found

    def support_set(self, index: int) -> frozenset[Section]:
        return frozenset(self.support(index))

    def support_values(self, index: int) -> tuple[tuple[int, ...], ...]:
        """S(C_index) as outcome tuples in context order, aligned with
        `support(index)`."""
        return self._values[index]

    def support_position(self, index: int, section: Section) -> int | None:
        """Position of the section in `support(index)`, or None when it is
        not a supported section over that context."""
        positions = self._positions[index]
        if positions is None:
            positions = self._positions[index] = {
                v: k for k, v in enumerate(self._values[index])
            }
        ctx = self.scenario.contexts[index]
        assignment = section.as_dict()
        if len(assignment) != len(ctx):
            return None
        return positions.get(tuple(map(assignment.get, ctx)))

    def restricted_support(self, index: int, subset: Iterable[str]) -> tuple[Section, ...]:
        """Image of S(C_index) under restriction to the subset, ordered
        lexicographically. For subsets beneath the cover this is S(U) by E2."""
        return self._restriction(index, subset)[0]

    def restricted_values(self, index: int, subset: Iterable[str]) -> tuple[tuple[int, ...], ...]:
        """`restricted_support(index, subset)` as outcome tuples in declared
        measurement order, aligned with it."""
        return self._restriction(index, subset)[1]

    def _restriction(self, index: int, subset: Iterable[str]):
        scn = self.scenario
        sub = scn.sorted_measurements(subset)
        cache = self._restriction_cache
        found = cache.get((index, sub))
        if found is None:
            ctx = scn.contexts[index]
            if sub == ctx:
                found = self.support(index), self._values[index]
            else:
                where = {m: k for k, m in enumerate(ctx)}
                if not all(m in where for m in sub):
                    raise ModelError(f"{sub} is not beneath context {ctx}")
                project = projection([where[m] for m in sub])
                image = sorted(set(map(project, self._values[index])), key=self._lexicographic)
                found = sections_over(sub, image), tuple(image)
            cache[(index, sub)] = found
        return found

    def context_of_section(self, s: Section) -> int:
        """Index of the cover context equal to the section's domain; the
        section must be supported there."""
        idx = self.scenario.context_index(s.domain)
        if self.support_position(idx, s) is None:
            raise SectionNotSupportedError(
                f"{s} is not in the support of {self.scenario.contexts[idx]}"
            )
        return idx


def _lexicographic_key(outcomes: tuple[int, ...]):
    """The sort key of outcome tuples in lexicographic order under the
    declared alphabet; None when the alphabet is declared in increasing
    order, as tuples then already sort that way."""
    if outcomes == tuple(sorted(outcomes)):
        return None
    position = {o: i for i, o in enumerate(outcomes)}

    def key(v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(position.__getitem__, v))

    return key


def _context_values(context: tuple[str, ...], sections: Iterable[Section], alphabet: set[int]):
    """The outcome tuple in context order of each section, read in order; a
    section over another domain or with an outcome outside the alphabet
    raises. Both constructors read their sections through this."""
    # items are label-sorted: the domain is the context exactly when the
    # labels match, and `in_context_order` reorders the outcomes
    labels = tuple(sorted(context))
    in_context_order = projection([labels.index(m) for m in context])
    label, outcome = itemgetter(0), itemgetter(1)
    for s in sections:
        if tuple(map(label, s.items)) != labels:
            raise ModelError(f"{s} is not a section over {context}")
        v = in_context_order(tuple(map(outcome, s.items)))
        if not alphabet.issuperset(v):
            raise ModelError(f"section {s} uses outcome outside the alphabet")
        yield v


def _check_count(scenario: Scenario, supports: tuple) -> None:
    if len(supports) != len(scenario.contexts):
        raise ModelError(f"expected {len(scenario.contexts)} supports, got {len(supports)}")


@dataclass(frozen=True)
class SignallingWitness:
    context_a: tuple[str, ...]
    context_b: tuple[str, ...]
    section: Section
    present_in: str  # which context's restriction contains the section


@dataclass(frozen=True)
class NoSignallingVerdict:
    holds: bool
    witness: SignallingWitness | None = None


def check_no_signalling(model: EmpiricalModel) -> NoSignallingVerdict:
    """Support-level E2; a false verdict carries the first context pair,
    i < j in cover order, whose supports disagree on their overlap, and the
    first overlap section in lexicographic order that only one side's
    restriction contains. The check runs once per model, whether at
    construction or here, and the model keeps its verdict."""
    verdict = model._no_signalling
    if verdict is None:
        witness = _signalling_witness(model)
        verdict = NoSignallingVerdict(witness is None, witness)
        object.__setattr__(model, "_no_signalling", verdict)
    return verdict


def _require_no_signalling(model: EmpiricalModel) -> None:
    witness = check_no_signalling(model).witness
    if witness is not None:
        raise SignallingError(
            f"supports of {witness.context_a} and {witness.context_b} disagree "
            f"on overlap section {witness.section} (E2)",
            contexts=(witness.context_a, witness.context_b),
            section=witness.section,
        )


def _signalling_witness(model: EmpiricalModel) -> SignallingWitness | None:
    """The witness of `check_no_signalling`, or None.

    Each context's support is projected once onto each of its overlaps
    (the incidences of the scenario's overlap index), and only the pairs on
    the index's forest are compared. A pair off the forest joins two
    contexts that earlier forest pairs with the same overlap already join,
    and agreeing on an overlap is transitive, so the first pair that
    disagrees is a forest pair."""
    contexts = model.scenario.contexts
    index = model.scenario.overlap_index
    values = model._values
    seen = [set(map(project, values[c])) for c, _, project in index.incidences]
    for i, j, overlap, left, right, _ in index.forest:
        if seen[left] != seen[right]:
            t = min(seen[left] ^ seen[right], key=model._lexicographic)
            side = "first" if t in seen[left] else "second"
            return SignallingWitness(contexts[i], contexts[j], sections_over(overlap, [t])[0], side)
    return None


def _overlap_images(model: EmpiricalModel) -> list[list[tuple[int, ...]]]:
    """Each context's outcome tuples projected onto each of its overlaps,
    aligned with the incidences of the scenario's overlap index. A
    signalling model raises SignallingError."""
    _require_no_signalling(model)
    values = model._values
    return [
        list(map(project, values[c]))
        for c, _, project in model.scenario.overlap_index.incidences
    ]


# ---------------------------------------------------------------------------
# probability tables


@dataclass(frozen=True, init=False)
class ProbabilityTable:
    """Exact-rational distributions, one per cover context.

    The stored form of a row is its outcome tuples in context order, in
    lexicographic order, each with its weight (`row_values`,
    `row_weights`); zero entries are dropped. `rows` (sections with their
    weights) and `marginal` are views built from it when read.

    Construction rejects a negative weight and a section given twice in a
    row, whatever the weights; with validate=True each row must also sum
    to one and the marginals of any two contexts must agree exactly on
    their overlap. A table is immutable, and two tables are equal when
    their scenarios and rows are.
    """

    scenario: Scenario
    _values: tuple[tuple[tuple[int, ...], ...], ...]
    _weights: tuple[tuple[Fraction, ...], ...]

    def __init__(
        self,
        scenario: Scenario,
        rows: Iterable[Iterable[tuple[Section, Fraction]]],
        validate: bool = True,
    ):
        rows = tuple(rows)
        if len(rows) != len(scenario.contexts):
            raise ModelError(f"expected {len(scenario.contexts)} rows, got {len(rows)}")
        alphabet = set(scenario.outcomes)
        # each entry is converted and checked before the next is read
        checked = []
        for ctx, row in zip(scenario.contexts, map(tuple, rows)):
            values = _context_values(ctx, (s for s, _ in row), alphabet)
            checked.append(_checked_entries(ctx, zip(values, (Fraction(p) for _, p in row))))
        self._store(scenario, [vs for vs, _ in checked], [ws for _, ws in checked], validate)

    @classmethod
    def _of_checked_values(
        cls,
        scenario: Scenario,
        values: list[list[tuple[int, ...]]],
        weights: list[list[Fraction]],
        validate: bool = True,
    ) -> "ProbabilityTable":
        """The table of one list of outcome tuples per context, in context
        order, with aligned weights; each tuple is already known to hold one
        outcome of the alphabet per measurement."""
        table = cls.__new__(cls)
        table._store(scenario, values, weights, validate)
        return table

    def _store(self, scenario: Scenario, values, weights, validate: bool) -> None:
        """Check each row for negative weights and repeats, in one pass over
        the row and entry by entry only to name the first offence; drop
        zero entries, sort each row, and check the sums and the marginals.

        The checks add integers: every weight is scaled to the common
        denominator of the table's weights."""
        object.__setattr__(self, "scenario", scenario)
        denominator = lcm(*{w.denominator for ws in weights for w in ws})
        scaled = [[w.numerator * (denominator // w.denominator) for w in ws] for ws in weights]
        for ctx, vs, ws, ns in zip(scenario.contexts, values, weights, scaled):
            if len(set(vs)) != len(vs) or (ns and min(ns) < 0):
                _checked_entries(ctx, zip(vs, ws))
        key = _lexicographic_key(scenario.outcomes)
        sort_key = itemgetter(0) if key is None else lambda entry: key(entry[0])
        kept = [
            sorted(filter(itemgetter(2), zip(vs, ws, ns)), key=sort_key)
            for vs, ws, ns in zip(values, weights, scaled)
        ]
        object.__setattr__(self, "_values", tuple(tuple(map(itemgetter(0), row)) for row in kept))
        object.__setattr__(self, "_weights", tuple(tuple(map(itemgetter(1), row)) for row in kept))
        if validate:
            scaled = [list(map(itemgetter(2), row)) for row in kept]
            for ctx, ns in zip(scenario.contexts, scaled):
                total = sum(ns)
                if total != denominator:
                    raise NormalisationError(
                        f"row for {ctx} sums to {Fraction(total, denominator)}, not 1"
                    )
            self._check_marginals(scaled)

    def _check_marginals(self, scaled: list[list[int]]) -> None:
        """The first context pair, i < j in cover order, whose marginals on
        their overlap differ raises SignallingError, with the first
        differing overlap section in the order of its text; `scaled` holds
        the weights over a common denominator. Each context's row is
        projected once onto each of its overlaps (the incidences of the
        scenario's overlap index), and, as in E2, equal marginals are
        transitive, so only the forest pairs are compared."""
        scn = self.scenario
        index = scn.overlap_index
        marginals = []
        for c, _, project in index.incidences:
            marginal: dict[tuple[int, ...], int] = {}
            for v, n in zip(self._values[c], scaled[c]):
                t = project(v)
                marginal[t] = marginal.get(t, 0) + n
            marginals.append(marginal)
        for i, j, overlap, left, right, _ in index.forest:
            mi, mj = marginals[left], marginals[right]
            if mi != mj:
                differing = [t for t in mi.keys() | mj.keys() if mi.get(t) != mj.get(t)]
                bad = min(sections_over(overlap, differing), key=str)
                raise SignallingError(
                    f"distributions of {scn.contexts[i]} and {scn.contexts[j]} "
                    f"have different marginals at {bad}",
                    contexts=(scn.contexts[i], scn.contexts[j]),
                    section=bad,
                )

    def __repr__(self) -> str:
        return f"ProbabilityTable(scenario={self.scenario!r}, rows={self.rows!r})"

    # -- access ---------------------------------------------------------------

    @cached_property
    def rows(self) -> tuple[tuple[tuple[Section, Fraction], ...], ...]:
        """Each context's (section, weight) entries with positive weight,
        sections in lexicographic order."""
        return tuple(
            tuple(zip(sections_over(ctx, vs), ws))
            for ctx, vs, ws in zip(self.scenario.contexts, self._values, self._weights)
        )

    @cached_property
    def _support(self) -> EmpiricalModel:
        return EmpiricalModel._of_checked_values(self.scenario, self._values)

    def row_values(self, index: int) -> tuple[tuple[int, ...], ...]:
        """The outcome tuples of row `index` in context order, aligned with
        `rows[index]`."""
        return self._values[index]

    def row_weights(self, index: int) -> tuple[Fraction, ...]:
        """The weights of row `index`, aligned with `row_values(index)`."""
        return self._weights[index]

    def marginal(self, index: int, subset: tuple[str, ...]) -> dict[Section, Fraction]:
        out: dict[Section, Fraction] = {}
        for s, p in self.rows[index]:
            t = s.restrict(subset)
            out[t] = out.get(t, Fraction(0)) + p
        return out

    @classmethod
    def from_mappings(
        cls,
        scenario: Scenario,
        mappings: Iterable[Mapping[Section, Fraction]],
        validate: bool = True,
    ) -> "ProbabilityTable":
        rows = tuple(tuple(m.items()) for m in mappings)
        return cls(scenario, rows, validate)

    @classmethod
    def uniform(cls, model: EmpiricalModel, validate: bool = True) -> "ProbabilityTable":
        """Uniform weight on each support row. May legitimately fail marginal
        validation: possibilistic no-signalling does not force it."""
        values = [model.support_values(ci) for ci in range(len(model.scenario.contexts))]
        weights = [[Fraction(1, len(vs))] * len(vs) for vs in values]
        return cls._of_checked_values(model.scenario, values, weights, validate)


def _checked_entries(context: tuple[str, ...], entries):
    """The outcome tuples and the weights of a row's (outcome tuple,
    weight) entries, read in order; the first entry whose weight is
    negative or whose section an earlier entry gave raises."""
    values, weights, seen = [], [], set()
    for v, w in entries:
        if w < 0:
            raise NormalisationError(f"negative probability {w} at {sections_over(context, [v])[0]}")
        if v in seen:
            raise ModelError(f"duplicate section {sections_over(context, [v])[0]} in row for {context}")
        seen.add(v)
        values.append(v)
        weights.append(w)
    return values, weights


def support_of_probability_table(table: ProbabilityTable) -> EmpiricalModel:
    """Forget the weights: supported sections are exactly those with p > 0.
    The model is built once per table, from its outcome tuples."""
    return table._support


# ---------------------------------------------------------------------------
# global-section search

class _Restrictor:
    """Depth-first search for the first global section.

    An assignment holds one outcome per measurement, in declared order.
    The search assigns measurements in that order and tries outcomes in
    alphabet order, so it meets global sections in lexicographic order and
    the first one it finds is the canonical witness. Each outcome tried is
    one node; a search whose nodes have reached the budget stops,
    incomplete, before trying another. After assigning a measurement, each
    context containing it must admit the outcomes assigned so far at its
    measurements as a prefix of a supported section: a check pairs an
    itemgetter over those columns with the context's set of supported
    prefixes (bare outcomes for a prefix of length one).
    `tests/_reference_search.py` is the same search as a plain recursion.
    """

    def __init__(self, model: EmpiricalModel):
        scn = model.scenario
        self.outcomes = scn.outcomes
        position = {m: k for k, m in enumerate(scn.measurements)}
        # per context, its measurements' positions in the assignment; the
        # context is in declared order, so its supported prefixes are the
        # prefixes of its outcome tuples
        self.columns = [[position[m] for m in ctx] for ctx in scn.contexts]
        self.checks: list[list] = [[] for _ in scn.measurements]
        for ci, columns in enumerate(self.columns):
            rows = model.support_values(ci)
            self.checks[columns[0]].append((itemgetter(columns[0]), {v[0] for v in rows}))
            for t in range(2, len(columns) + 1):
                self.checks[columns[t - 1]].append(
                    (itemgetter(*columns[:t]), {v[:t] for v in rows})
                )

    def first(
        self, fixed: Mapping[int, int], budget: int
    ) -> tuple[tuple[int, ...] | None, int, bool]:
        """Returns (the first global section or None, nodes visited, search
        completed). The measurement at each position in `fixed` takes only
        its outcome there."""
        checks = self.checks
        k = len(checks)
        candidates = [(fixed[d],) if d in fixed else self.outcomes for d in range(k)]
        values = [None] * k
        # per depth, the position in its candidates of the next outcome to try
        tried = [0] * k
        nodes = 0
        depth = 0
        while depth >= 0:
            options = candidates[depth]
            i = tried[depth]
            if i == len(options):
                tried[depth] = 0
                depth -= 1
                continue
            if nodes >= budget:
                return None, nodes, False
            nodes += 1
            tried[depth] = i + 1
            values[depth] = options[i]
            for get, supported in checks[depth]:
                if get(values) not in supported:
                    break
            else:
                depth += 1
                if depth == k:
                    return tuple(values), nodes, True
        return None, nodes, True


@dataclass(frozen=True)
class ContextualityReport:
    """Per-section extension flags plus the aggregate LC/SC verdicts.

    `extends` holds one flag per supported section, context by context in
    cover order and in support order within a context, aligned with the
    model's `support_values`; None marks a section undecided at the budget.

    logically_contextual: some supported section extends to no compatible
    family. strongly_contextual: no global section at all (equivalently all
    sections fail). None marks verdicts undecided at the search budget.
    """

    extends: tuple[bool | None, ...]
    logically_contextual: bool | None
    strongly_contextual: bool | None
    global_section: Section | None
    nodes_used: int
    budget: int

    @property
    def decided(self) -> bool:
        return (
            self.logically_contextual is not None
            and self.strongly_contextual is not None
            and None not in self.extends
        )


def classify_contextuality(
    model: EmpiricalModel, budget: int = DEFAULT_SEARCH_BUDGET
) -> ContextualityReport:
    """Classify a model as non-contextual / logically / strongly contextual.

    A section extends iff some global section restricts to it, since
    compatible families glue. Searches run in lexicographic order, so the
    witnessing global section is the first one; every global section found
    settles all the sections it restricts to, which then need no search of
    their own. Budget exhaustion yields an explicit undecided status, never
    a silent answer.
    """
    return _classify(model, budget)


def _classify(
    model: EmpiricalModel,
    budget: int,
    strongly: bool = False,
    non_extending: Collection[int] = (),
) -> ContextualityReport:
    """The search of `classify_contextuality`, told what is already known.

    `strongly` says the model has no global section: then nothing is
    searched and every section is non-extending. `non_extending` holds the
    positions, in the order of the report's flags, of sections known to
    extend to no global section; they take no search of their own. A global
    section found that restricts to one of them contradicts what was known
    and raises `SelfCheckError`.
    """
    scn = model.scenario
    if strongly:
        return ContextualityReport(
            extends=(False,) * sum(map(len, model._values)),
            logically_contextual=True,
            strongly_contextual=True,
            global_section=None,
            nodes_used=0,
            budget=budget,
        )
    engine = _Restrictor(model)
    found, nodes, complete = engine.first({}, budget)
    used = nodes
    if found is not None:
        sc: bool | None = False
    elif complete:
        sc = True
    else:
        sc = None

    # per context, the outcome tuples of the sections known to extend: the
    # restrictions of every global section found so far
    extending: list[set[tuple[int, ...]]] = [set() for _ in scn.contexts]
    restrictions = [projection(columns) for columns in engine.columns]

    def settle(g: tuple[int, ...]) -> None:
        for known, restrict in zip(extending, restrictions):
            known.add(restrict(g))

    witness = None
    if found is not None:
        settle(found)
        witness = sections_over(scn.measurements, [found])[0]
    extends: list[bool | None] = []
    for ci, ctx in enumerate(scn.contexts):
        for v in model.support_values(ci):
            known_to_fail = len(extends) in non_extending
            if v in extending[ci]:
                if known_to_fail:
                    raise SelfCheckError(
                        f"{Section.of(zip(ctx, v))} at {ctx} is known to extend to no "
                        "global section, but the search found one"
                    )
                extends.append(True)
                continue
            if sc is True or known_to_fail:
                # no global section at all, or none through this section
                extends.append(False)
                continue
            fixed = dict(zip(engine.columns[ci], v))
            found, nodes, complete = engine.first(fixed, max(budget - used, 0))
            used += nodes
            if found is not None:
                settle(found)
                extends.append(True)
            else:
                extends.append(False if complete else None)

    if False in extends:
        lc: bool | None = True
    elif None not in extends:
        lc = False
    else:
        lc = None

    if sc is None and None not in extends and True not in extends:
        # every section failed, decided: there can be no global section
        sc = True
    if sc is True and True in extends:
        raise SelfCheckError("global search found nothing but a section extends")

    return ContextualityReport(
        extends=tuple(extends),
        logically_contextual=lc,
        strongly_contextual=sc,
        global_section=witness,
        nodes_used=used,
        budget=budget,
    )
