"""Measurement scenarios: a finite set of measurements, an antichain cover of
maximal contexts, and a shared finite outcome alphabet.

Sections are outcome assignments over a subset of measurements; they are the
events of the sheaf E(U) = O^U. Restriction of sections is the only structure
map, and every deterministic enumeration in the library is lexicographic
under the declared measurement and outcome orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Mapping

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
        return itemgetter(slice(p, p + 1))
    return itemgetter(*positions)


def sections_over(measurements: tuple[str, ...], rows) -> tuple[Section, ...]:
    """Sections over the measurements with the given outcome tuples (in the
    measurements' order), unchecked."""
    order = sorted(range(len(measurements)), key=measurements.__getitem__)
    labels = [measurements[k] for k in order]
    return tuple(Section(tuple(zip(labels, [v[k] for k in order]))) for v in rows)


def section_template(measurements: tuple[str, ...]) -> str:
    """The `str.format` template that writes an outcome tuple over the
    measurements as `str(Section)` of that section, without building it:
    the labels sorted and their braces escaped, with the field {k} for the
    outcome at position k."""
    return ",".join(
        measurements[k].replace("{", "{{").replace("}", "}}") + f"={{{k}}}"
        for k in sorted(range(len(measurements)), key=measurements.__getitem__)
    )


@dataclass(frozen=True)
class OverlapIndex:
    """The overlaps of a cover, indexed once, when the scenario is built;
    E2, the degree-0 complex and the connectivity check all read it.

    forest: one record (i, j, overlap, left, right, group) per pair of
        contexts i < j on a spanning forest of the pairs whose overlap is
        exactly U, for each U, in lexicographic order. `overlap` is
        U = C_i & C_j in declared order; `left` and `right` number the
        incidences (C_i, U) and (C_j, U); `group` numbers U, in order of
        first appearance. The pairs are walked in lexicographic order and
        a union-find per U keeps a pair when it joins two trees, so the
        first pair of each U is always kept.
    incidences: one record (context, positions, project) per incidence: the
        positions of U in the context and the projection of the context's
        outcome tuples onto U (`projection(positions)`).
    group_pairs: the number of pairs with each overlap U.
    size: the number of contexts.

    Agreeing on U is transitive, so two contexts joined by a path of forest
    pairs with overlap U agree on U when every pair on the path does; the
    pairs off the forest add nothing to E2 or to ker delta0.
    """

    forest: tuple[tuple[int, int, tuple[str, ...], int, int, int], ...]
    incidences: tuple[tuple[int, tuple[int, ...], Callable], ...]
    group_pairs: tuple[int, ...]
    size: int

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The cover's connected components under the overlap relation,
        each sorted, ordered by smallest member: a union-find over the
        forest pairs, which join whatever all pairs join."""
        # each root is the smallest context of its tree
        linked = list(range(self.size))
        for pair in self.forest:
            a, b = _find(linked, pair[0]), _find(linked, pair[1])
            if a < b:
                linked[b] = a
            elif b < a:
                linked[a] = b
        components: dict[int, list[int]] = {}
        for i, root in enumerate(linked):
            if root != i:
                root = _find(linked, root)
            components.setdefault(root, []).append(i)
        return tuple(map(tuple, components.values()))


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find array, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _overlap_index(contexts: tuple[tuple[str, ...], ...], at: dict) -> OverlapIndex:
    """The overlap index of an antichain cover; `at` maps each measurement
    to its (context, position) incidences in cover order. Raises
    ScenarioError for the first context, in cover order, that lies inside
    another, the first such other context in cover order."""
    forest = []
    incidences = []
    groups: dict[tuple[str, ...], int] = {}
    members: list[dict[int, int]] = []  # per U, each context's incidence
    group_pairs: list[int] = []
    trees: list[int] = []  # union-find over incidences, one tree per U
    nested = []
    # one projection per tuple of positions, shared by the incidences
    shared: dict[tuple[int, ...], Callable] = {}
    for i, ctx in enumerate(contexts):
        # the later contexts meeting C_i, each with the positions of the
        # overlap in C_i and in it, interleaved
        hits: dict[int, tuple[int, ...]] = {}
        for k, m in enumerate(ctx):
            for j, kj in at[m]:
                if j > i:
                    found = hits.get(j)
                    hits[j] = (k, kj) if found is None else found + (k, kj)
        for j in sorted(hits):
            found = hits[j]
            if len(found) == 2:
                k, kj = found
                here, there = (k,), (kj,)
                overlap = (ctx[k],)
            else:
                here, there = found[::2], found[1::2]
                overlap = tuple(map(ctx.__getitem__, here))
            if len(here) == len(ctx):
                nested.append((i, j))
            if len(there) == len(contexts[j]):
                nested.append((j, i))
            group = groups.get(overlap)
            if group is None:
                group = groups[overlap] = len(members)
                members.append({})
                group_pairs.append(0)
            group_pairs[group] += 1
            known = members[group]
            left = known.get(i)
            if left is None:
                left = known[i] = len(incidences)
                project = shared.get(here)
                if project is None:
                    project = shared[here] = projection(here)
                incidences.append((i, here, project))
                trees.append(left)
            right = known.get(j)
            if right is None:
                right = known[j] = len(incidences)
                project = shared.get(there)
                if project is None:
                    project = shared[there] = projection(there)
                incidences.append((j, there, project))
                trees.append(right)
            a, b = _find(trees, left), _find(trees, right)
            if a != b:
                trees[b] = a
                forest.append((i, j, overlap, left, right, group))
    if nested:
        a, b = min(nested)
        kind = "duplicates" if set(contexts[a]) == set(contexts[b]) else "is contained in"
        raise ScenarioError(
            f"cover is not an antichain: context {contexts[a]} {kind} context {contexts[b]}"
        )
    return OverlapIndex(tuple(forest), tuple(incidences), tuple(group_pairs), len(contexts))


@dataclass(frozen=True)
class Scenario:
    """A measurement scenario <X, M, O>.

    measurements: declared order of the labels in X.
    contexts: the cover M, an antichain of subsets whose union is X; each
        stored sorted by declared measurement order, cover order as declared.
    outcomes: the shared alphabet O, declared order, integers.

    Construction also indexes the cover once: each measurement's position
    in the declared order, its contexts with its position in each, and the
    overlap index (`overlap_index`, an `OverlapIndex`): each overlap U with
    its positions in every context containing it, a spanning forest of the
    pairs of contexts with overlap U, and the cover's connected
    components, read off that forest.
    The antichain check reads the same pass: a context lies inside another
    exactly when their overlap is all of it.
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
        measurements = self.measurements
        order = {m: i for i, m in enumerate(measurements)}
        contexts = self.contexts
        # the contexts are checked in one pass, and one by one only to name
        # the first offence
        sets = list(map(set, contexts))
        if not (
            all(contexts)
            and list(map(len, sets)) == list(map(len, contexts))
            and order.keys() >= set().union(*sets)
        ):
            for c in contexts:
                if not c:
                    raise ScenarioError("empty context in cover")
                if len(set(c)) != len(c):
                    raise ScenarioError(f"duplicate measurement in context {c}")
                unknown = [m for m in c if m not in order]
                if unknown:
                    raise ScenarioError(f"context {c} uses undeclared measurements {unknown}")
        contexts = tuple(map(tuple, map(partial(sorted, key=order.__getitem__), contexts)))
        object.__setattr__(self, "contexts", contexts)
        at: dict[str, list[tuple[int, int]]] = {m: [] for m in measurements}
        for i, ctx in enumerate(contexts):
            for k, m in enumerate(ctx):
                at[m].append((i, k))
        if not all(at.values()):
            missing = [m for m in measurements if not at[m]]
            raise ScenarioError(f"cover does not reach measurements {missing}")
        object.__setattr__(self, "_position", order)
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "overlap_index", _overlap_index(contexts, at))
        object.__setattr__(self, "_context_index", {c: i for i, c in enumerate(contexts)})

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
            found = self._at[label]
        except KeyError:
            raise ScenarioError(f"unknown measurement {label!r}") from None
        return tuple(i for i, _ in found)

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
    sorted, components ordered by smallest member; read off the overlap
    index."""
    return scenario.overlap_index.components


def is_connected(scenario: Scenario) -> bool:
    return len(connected_components(scenario)) == 1
