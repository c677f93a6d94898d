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
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

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
        kept = tuple((m, o) for m, o in self.items if m in target)
        if len(kept) != len(target):
            missing = target - self.domain
            raise SectionDomainError(
                f"cannot restrict to {sorted(target)}: {sorted(missing)} outside domain"
            )
        return Section(kept)

    def values_on(self, order: Iterable[str]) -> tuple[int, ...]:
        """Outcome tuple in the given measurement order."""
        return tuple(self[m] for m in order)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def __str__(self) -> str:
        return ",".join(f"{m}={o}" for m, o in self.items)


def projection(positions: list[int]):
    """Restriction on outcome tuples: the map taking a tuple to its entries
    at the given positions, as a tuple."""
    if not positions:
        return lambda v: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda v: (v[p],)
    return itemgetter(*positions)


def sections_over(measurements: tuple[str, ...], rows) -> tuple[Section, ...]:
    """Sections over the measurements with the given outcome tuples (in the
    measurements' order), unchecked."""
    order = sorted(range(len(measurements)), key=measurements.__getitem__)
    labels = [measurements[k] for k in order]
    return tuple(Section(tuple(zip(labels, [v[k] for k in order]))) for v in rows)


@dataclass(frozen=True)
class Scenario:
    """A measurement scenario <X, M, O>.

    measurements: declared order of the labels in X.
    contexts: the cover M, an antichain of subsets whose union is X; each
        stored sorted by declared measurement order, cover order as declared.
    outcomes: the shared alphabet O, declared order, integers.

    Construction also indexes the cover once: each measurement's position
    in the declared order, the contexts containing each measurement, for
    each context the other contexts it overlaps, and the overlapping pairs
    with their overlaps.
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
        containing: dict[str, list[int]] = {}
        for i, ctx in enumerate(self.contexts):
            for m in ctx:
                containing.setdefault(m, []).append(i)
        missing = [m for m in self.measurements if m not in containing]
        if missing:
            raise ScenarioError(f"cover does not reach measurements {missing}")
        # a context can only lie inside a context it overlaps, so checking
        # each context's neighbours in cover order finds the first violation
        sets = [set(c) for c in self.contexts]
        neighbours = []
        overlaps = []
        for i, ctx in enumerate(self.contexts):
            near = sorted({j for m in ctx for j in containing[m]} - {i})
            for j in near:
                if sets[i] <= sets[j]:
                    kind = "duplicates" if sets[i] == sets[j] else "is contained in"
                    raise ScenarioError(
                        f"cover is not an antichain: context {self.contexts[i]} "
                        f"{kind} context {self.contexts[j]}"
                    )
                if j > i:
                    overlaps.append((i, j, tuple(m for m in ctx if m in sets[j])))
            neighbours.append(tuple(near))
        object.__setattr__(self, "_position", order)
        object.__setattr__(self, "_containing", {m: tuple(c) for m, c in containing.items()})
        object.__setattr__(self, "_neighbours", tuple(neighbours))
        object.__setattr__(self, "_overlaps", tuple(overlaps))
        object.__setattr__(
            self, "_context_index", {c: i for i, c in enumerate(self.contexts)}
        )

    # -- ordering helpers ---------------------------------------------------

    def measurement_index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise ScenarioError(f"unknown measurement {label!r}") from None

    def sorted_measurements(self, subset: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(subset, key=self.measurement_index))

    def context_index(self, context: Iterable[str]) -> int:
        target = self.sorted_measurements(context)
        try:
            return self._context_index[target]
        except KeyError:
            raise ScenarioError(f"{target} is not a cover context") from None

    def contexts_containing(self, label: str) -> tuple[int, ...]:
        """Cover indices of the contexts that contain the measurement, in
        cover order."""
        try:
            return self._containing[label]
        except KeyError:
            raise ScenarioError(f"unknown measurement {label!r}") from None

    def neighbours(self, index: int) -> tuple[int, ...]:
        """Cover indices of the other contexts that share a measurement with
        context `index`, in cover order."""
        return self._neighbours[index]

    def overlaps(self) -> Iterator[tuple[int, int, tuple[str, ...]]]:
        """The pairs (i, j), i < j, of contexts that share a measurement, in
        lexicographic order, each with its overlap in declared order. The
        list is computed once, at construction."""
        yield from self._overlaps

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
    containing = scenario.contexts_containing
    levels: list[tuple[Simplex, ...]] = []
    current = [Simplex((i,), scenario.contexts[i]) for i in range(n)]
    levels.append(tuple(current))
    for _ in range(limit):
        nxt = []
        for sigma in current:
            last = sigma.contexts[-1]
            extras = {j for m in sigma.intersection for j in containing(m) if j > last}
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
    seen: set[int] = set()
    components = []
    for start in range(len(scenario.contexts)):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        while stack:
            for j in scenario.neighbours(stack.pop()):
                if j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return tuple(components)


def is_connected(scenario: Scenario) -> bool:
    return len(connected_components(scenario)) == 1
