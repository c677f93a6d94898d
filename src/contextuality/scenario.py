"""Measurement scenarios: a finite set of measurements, an antichain cover of
maximal contexts, and a shared finite outcome alphabet.

Sections are outcome assignments over a subset of measurements; they are the
events of the sheaf E(U) = O^U. Restriction of sections is the only structure
map, and every deterministic enumeration in the library is lexicographic
under the declared measurement and outcome orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .errors import ScenarioError, SectionDomainError


@dataclass(frozen=True, order=True)
class Section:
    """A section over a finite set of measurements: assignment m -> outcome.

    Stored canonically as label-sorted pairs, so equality and hashing are
    order-insensitive.
    """

    items: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, assignment: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Section":
        pairs = tuple(assignment.items()) if isinstance(assignment, Mapping) else tuple(assignment)
        labels = [m for m, _ in pairs]
        if len(set(labels)) != len(labels):
            raise SectionDomainError(f"duplicate measurement in section: {labels}")
        return cls(tuple(sorted(pairs)))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(m for m, _ in self.items)

    def __getitem__(self, measurement: str) -> int:
        for m, o in self.items:
            if m == measurement:
                return o
        raise SectionDomainError(f"measurement {measurement!r} outside section domain")

    def restrict(self, subset: Iterable[str]) -> "Section":
        target = frozenset(subset)
        missing = target - self.domain
        if missing:
            raise SectionDomainError(
                f"cannot restrict to {sorted(target)}: {sorted(missing)} outside domain"
            )
        return Section(tuple((m, o) for m, o in self.items if m in target))

    def values_on(self, order: Iterable[str]) -> tuple[int, ...]:
        """Outcome tuple in the given measurement order."""
        return tuple(self[m] for m in order)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def __str__(self) -> str:
        return ",".join(f"{m}={o}" for m, o in self.items)


EMPTY_SECTION = Section(())


@dataclass(frozen=True)
class Scenario:
    """A measurement scenario <X, M, O>.

    measurements: declared order of the labels in X.
    contexts: the cover M, an antichain of subsets whose union is X; each
        stored sorted by declared measurement order, cover order as declared.
    outcomes: the shared alphabet O, declared order, integers.
    """

    measurements: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        if not self.measurements:
            raise ScenarioError("at least one measurement required")
        if any(not isinstance(m, str) or not m for m in self.measurements):
            raise ScenarioError("measurement labels must be non-empty strings")
        if len(set(self.measurements)) != len(self.measurements):
            raise ScenarioError("duplicate measurement labels")
        if not self.outcomes:
            raise ScenarioError("outcome alphabet must be non-empty")
        if any(not isinstance(o, int) or isinstance(o, bool) for o in self.outcomes):
            raise ScenarioError("outcomes must be integers")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ScenarioError("duplicate outcomes")
        if not self.contexts:
            raise ScenarioError("cover must contain at least one context")
        order = {m: i for i, m in enumerate(self.measurements)}
        normalised = []
        for c in self.contexts:
            if not c:
                raise ScenarioError("empty context in cover")
            if len(set(c)) != len(c):
                raise ScenarioError(f"duplicate measurement in context {c}")
            unknown = [m for m in c if m not in order]
            if unknown:
                raise ScenarioError(f"context {c} uses undeclared measurements {unknown}")
            normalised.append(tuple(sorted(c, key=order.__getitem__)))
        object.__setattr__(self, "contexts", tuple(normalised))
        covered = set().union(*(set(c) for c in self.contexts))
        missing = [m for m in self.measurements if m not in covered]
        if missing:
            raise ScenarioError(f"cover does not reach measurements {missing}")
        sets = [set(c) for c in self.contexts]
        for i in range(len(sets)):
            for j in range(len(sets)):
                if i != j and sets[i] <= sets[j]:
                    kind = "duplicates" if sets[i] == sets[j] else "is contained in"
                    raise ScenarioError(
                        f"cover is not an antichain: context {self.contexts[i]} "
                        f"{kind} context {self.contexts[j]}"
                    )

    # -- ordering helpers ---------------------------------------------------

    def measurement_index(self, label: str) -> int:
        try:
            return self.measurements.index(label)
        except ValueError:
            raise ScenarioError(f"unknown measurement {label!r}") from None

    def sorted_measurements(self, subset: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(subset, key=self.measurement_index))

    def context_index(self, context: Iterable[str]) -> int:
        target = self.sorted_measurements(context)
        try:
            return self.contexts.index(target)
        except ValueError:
            raise ScenarioError(f"{target} is not a cover context") from None

    def section(self, context: Iterable[str], values: Iterable[int]) -> Section:
        ms = self.sorted_measurements(context)
        vals = tuple(values)
        if len(vals) != len(ms):
            raise ScenarioError(f"expected {len(ms)} outcomes for {ms}, got {len(vals)}")
        for v in vals:
            if v not in self.outcomes:
                raise ScenarioError(f"outcome {v} outside the declared alphabet")
        return Section.of(zip(ms, vals))


def sections_of(scenario: Scenario, subset: Iterable[str]) -> tuple[Section, ...]:
    """All sections over the subset, in lexicographic order: measurements in
    declared order, outcome tuples in declared outcome order."""
    ms = scenario.sorted_measurements(subset)
    if len(set(subset)) != len(ms):
        raise ScenarioError(f"duplicate measurements in {tuple(subset)}")
    return tuple(Section.of(zip(ms, vals)) for vals in product(scenario.outcomes, repeat=len(ms)))


@dataclass(frozen=True)
class Simplex:
    """A q-simplex of the nerve: q+1 cover contexts, strictly increasing by
    cover index, with non-empty common intersection."""

    contexts: tuple[int, ...]
    intersection: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.contexts) - 1


def build_nerve(scenario: Scenario, max_dimension: int | None = None) -> tuple[tuple[Simplex, ...], ...]:
    """The nerve of the cover up to the requested dimension, one tuple of
    simplices per dimension, each dimension in lexicographic index order.

    Strictly increasing tuples only (the alternating reduction of the full
    simplicial structure); extending a tuple can only shrink the
    intersection, so a simplex is extended only by the later contexts that
    contain one of its intersection's measurements.
    """
    n = len(scenario.contexts)
    limit = n - 1 if max_dimension is None else min(max_dimension, n - 1)
    if limit < 0:
        return ()
    sets = [set(c) for c in scenario.contexts]
    containing: dict[str, list[int]] = {}
    for i, ctx in enumerate(scenario.contexts):
        for m in ctx:
            containing.setdefault(m, []).append(i)
    levels: list[tuple[Simplex, ...]] = []
    current = [Simplex((i,), scenario.contexts[i]) for i in range(n)]
    levels.append(tuple(current))
    for _ in range(limit):
        nxt = []
        for sigma in current:
            last = sigma.contexts[-1]
            extras = {j for m in sigma.intersection for j in containing[m] if j > last}
            for extra in sorted(extras):
                common = tuple(m for m in sigma.intersection if m in sets[extra])
                nxt.append(Simplex(sigma.contexts + (extra,), common))
        if not nxt:
            break
        levels.append(tuple(nxt))
        current = nxt
    return tuple(levels)


def connected_components(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """Partition of cover indices under the overlap relation, each component
    sorted, components ordered by smallest member."""
    n = len(scenario.contexts)
    sets = [set(c) for c in scenario.contexts]
    seen: set[int] = set()
    components = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            for j in range(n):
                if j not in comp and sets[i] & sets[j]:
                    stack.append(j)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return tuple(components)


def is_connected(scenario: Scenario) -> bool:
    return len(connected_components(scenario)) == 1
