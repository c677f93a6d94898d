"""Cech cohomology of the free R-module presheaf over a model's supports.

Everything is finite: a q-cochain assigns to each q-simplex of the nerve a
formal R-linear combination of sections over the simplex's intersection, so
cochain groups have canonical finite bases and the coboundary is a matrix.
The obstruction attached to a local section asks for a compatible family of
combinations extending it; that is a linear system over the coefficient
ring, solvable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .errors import (
    DisconnectedCoverError,
    RingError,
    SectionNotSupportedError,
    SelfCheckError,
)
from .model import EmpiricalModel, _overlap_images
from .rings import (
    INTEGERS,
    Echelon,
    RingMatrix,
    RingSpec,
    Row,
    echelon,
    linear_decomposition,
)
from .scenario import (
    Section,
    Simplex,
    build_nerve,
    connected_components,
    projection,
)

# ---------------------------------------------------------------------------
# formal linear combinations and cochains


@dataclass(frozen=True)
class FormalLinearCombination:
    """An element of the free R-module on sections over a fixed context.

    Weights are kept canonical: reduced into the ring, zero weights dropped,
    sections ordered by their value tuples on the context.
    """

    ring: RingSpec
    context: tuple[str, ...]
    weights: tuple[tuple[Section, int], ...]

    def __post_init__(self):
        merged: dict[Section, int] = {}
        for section, w in self.weights:
            if section.domain != set(self.context):
                raise RingError(
                    f"section over {tuple(sorted(section.domain))} in a "
                    f"combination over {self.context}"
                )
            merged[section] = self.ring.add(merged.get(section, 0), w)
        kept = [(s, w) for s, w in merged.items() if w != 0]
        kept.sort(key=lambda pair: pair[0].values_on(self.context))
        object.__setattr__(self, "weights", tuple(kept))

    @classmethod
    def unit(cls, ring: RingSpec, section: Section, context: tuple[str, ...] | None = None):
        if context is None:
            context = tuple(sorted(section.domain))
        return cls(ring, context, ((section, 1),))

    @classmethod
    def zero(cls, ring: RingSpec, context: tuple[str, ...]):
        return cls(ring, context, ())

    def coefficient(self, section: Section) -> int:
        for s, w in self.weights:
            if s == section:
                return w
        return 0

    def total(self) -> int:
        acc = 0
        for _, w in self.weights:
            acc = self.ring.add(acc, w)
        return acc

    def restrict(self, subset: Iterable[str]) -> "FormalLinearCombination":
        """Pushforward along restriction of sections: weights of sections
        with the same restriction add up."""
        sub = tuple(m for m in self.context if m in set(subset))
        return FormalLinearCombination(
            self.ring, sub, tuple((s.restrict(sub), w) for s, w in self.weights)
        )

    def scale(self, c: int) -> "FormalLinearCombination":
        return FormalLinearCombination(
            self.ring, self.context, tuple((s, self.ring.mul(c, w)) for s, w in self.weights)
        )

    def __add__(self, other: "FormalLinearCombination") -> "FormalLinearCombination":
        if self.ring != other.ring or set(self.context) != set(other.context):
            raise RingError("cannot add combinations over different contexts or rings")
        return FormalLinearCombination(
            self.ring, self.context, self.weights + tuple(
                (s, w) for s, w in other.weights
            )
        )

    def __sub__(self, other: "FormalLinearCombination") -> "FormalLinearCombination":
        return self + other.scale(-1)

    def __str__(self) -> str:
        if not self.weights:
            return "0"
        parts = []
        for s, w in self.weights:
            prefix = "" if w == 1 else f"{w}*"
            parts.append(f"{prefix}[{s}]")
        return " + ".join(parts)


@dataclass(frozen=True)
class Cochain:
    """One combination per q-simplex, aligned with the nerve's canonical order."""

    ring: RingSpec
    degree: int
    components: tuple[FormalLinearCombination, ...]


@dataclass(frozen=True)
class CochainBasis:
    """Canonical basis of the q-cochain group: pairs of a simplex and a
    section over its intersection, simplices in nerve order, sections in
    lexicographic order.

    The sections of simplex si are also given as outcome tuples over its
    intersection (`values[si]`), and occupy the positions from
    `offsets[si]` up to `offsets[si + 1]`.
    """

    degree: int
    simplices: tuple[Simplex, ...]
    sections: tuple[tuple[Section, ...], ...]  # aligned with simplices
    values: tuple[tuple[tuple[int, ...], ...], ...]  # aligned with sections
    offsets: tuple[int, ...]  # one more than simplices

    def __len__(self) -> int:
        return self.offsets[-1]

    @cached_property
    def entries(self) -> tuple[tuple[int, Section], ...]:
        return tuple((si, s) for si, secs in enumerate(self.sections) for s in secs)

    @cached_property
    def index(self) -> Mapping[tuple[int, Section], int]:
        return {entry: k for k, entry in enumerate(self.entries)}


def simplex_sections(model: EmpiricalModel, sigma: Simplex) -> tuple[Section, ...]:
    """S at the simplex's intersection; the intersection lies beneath any of
    its contexts, so this is a restriction image and context choice does not
    matter."""
    return model.restricted_support(sigma.contexts[0], sigma.intersection)


def cochain_basis(model: EmpiricalModel, q: int, nerve=None) -> CochainBasis:
    """The canonical q-cochain basis, built from the nerve and the model's
    restrictions. This is the reference construction in every degree: the
    obstruction solvers number their degree-0 positions and build the rows
    of delta0 straight from the supports (`_Degree0Complex`), and are
    checked against it."""
    if nerve is None:
        nerve = build_nerve(model.scenario, q)
    simplices = nerve[q] if q < len(nerve) else ()
    sections = tuple(simplex_sections(model, sigma) for sigma in simplices)
    values = tuple(
        model.restricted_values(sigma.contexts[0], sigma.intersection) for sigma in simplices
    )
    offsets = [0]
    for secs in sections:
        offsets.append(offsets[-1] + len(secs))
    return CochainBasis(q, simplices, sections, values, tuple(offsets))


def cochain_to_vector(basis: CochainBasis, cochain: Cochain) -> list[int]:
    if cochain.degree != basis.degree:
        raise RingError(
            f"degree {cochain.degree} cochain against a degree {basis.degree} basis"
        )
    vec = [0] * len(basis)
    for si, comp in enumerate(cochain.components):
        for s, w in comp.weights:
            vec[basis.index[(si, s)]] = w
    return vec


def vector_to_cochain(
    ring: RingSpec, basis: CochainBasis, vector: Iterable[int]
) -> Cochain:
    vec = list(vector)
    components = []
    for si, sigma in enumerate(basis.simplices):
        weights = zip(basis.sections[si], vec[basis.offsets[si] : basis.offsets[si + 1]])
        components.append(FormalLinearCombination(ring, sigma.intersection, tuple(weights)))
    return Cochain(ring, basis.degree, tuple(components))


def coboundary(model: EmpiricalModel, cochain: Cochain, nerve=None) -> Cochain:
    """Alternating sum of restrictions: the q+1 component at a simplex is
    the sum over deleted vertices j of (-1)^j times the component at the
    j-th face, pushed forward to the smaller intersection."""
    q = cochain.degree
    if nerve is None:
        nerve = build_nerve(model.scenario, q + 1)
    ring = cochain.ring
    face_index = {sigma.contexts: i for i, sigma in enumerate(nerve[q])} if q < len(nerve) else {}
    upper = nerve[q + 1] if q + 1 < len(nerve) else ()
    components = []
    for tau in upper:
        acc = FormalLinearCombination.zero(ring, tau.intersection)
        for j in range(tau.dimension + 1):
            face_contexts = tau.contexts[:j] + tau.contexts[j + 1 :]
            part = cochain.components[face_index[face_contexts]].restrict(tau.intersection)
            acc = acc + (part if j % 2 == 0 else part.scale(-1))
        components.append(acc)
    return Cochain(ring, q + 1, tuple(components))


def coboundary_entries(
    lower: CochainBasis, upper: CochainBasis
) -> Iterator[tuple[int, int, int]]:
    """The nonzeros (row, column, +-1) of the coboundary from the q-basis
    `lower` to the (q+1)-basis `upper`. Each position comes once: a row's
    simplex and a column's simplex fix the deleted vertex, and the column's
    section fixes the row's section by restriction, a projection of its
    outcome tuple.

    This is the reference construction of the coboundary, used by
    `coboundary_matrix` and the connecting-homomorphism check; the
    obstruction solvers build the same rows of delta0 for the pairs on a
    spanning forest of each overlap's pairs, in the same order, from the
    projections of the scenario's overlap index (`_Degree0Complex`)."""
    face_index = {sigma.contexts: i for i, sigma in enumerate(lower.simplices)}
    for ti, tau in enumerate(upper.simplices):
        start = upper.offsets[ti]
        rows = {v: start + k for k, v in enumerate(upper.values[ti])}
        for j in range(tau.dimension + 1):
            si = face_index[tau.contexts[:j] + tau.contexts[j + 1 :]]
            sign = 1 if j % 2 == 0 else -1
            where = {m: k for k, m in enumerate(lower.simplices[si].intersection)}
            project = projection([where[m] for m in tau.intersection])
            col = lower.offsets[si]
            for v in lower.values[si]:
                yield rows[project(v)], col, sign
                col += 1


def coboundary_matrix(
    model: EmpiricalModel, q: int, ring: RingSpec, nerve=None
) -> RingMatrix:
    """Matrix of the degree-q coboundary in the canonical bases; rows are
    indexed by the (q+1)-basis, columns by the q-basis."""
    if nerve is None:
        nerve = build_nerve(model.scenario, q + 1)
    lower = cochain_basis(model, q, nerve)
    upper = cochain_basis(model, q + 1, nerve)
    entries = [0] * (len(upper) * len(lower))
    for row, col, sign in coboundary_entries(lower, upper):
        entries[row * len(lower) + col] = ring.canon(sign)
    return RingMatrix(ring, len(upper), len(lower), tuple(entries))


# ---------------------------------------------------------------------------
# obstructions


def _require_connected(model: EmpiricalModel) -> None:
    components = connected_components(model.scenario)
    if len(components) > 1:
        named = [
            tuple(model.scenario.contexts[i] for i in comp) for comp in components
        ]
        raise DisconnectedCoverError(
            "the cover is disconnected, so obstructions are only defined per "
            f"component; components: {named}"
        )


class _Degree0Complex:
    """The ring-independent part of a model's obstruction systems, built
    once per model by `_degree0_complex`: the offsets of each context's
    positions in the 0-cochain basis, the sparse rows [D^T | I] for the
    rows D of delta0 kept below (row j holds column j of D below key
    m = `forest_rows` and a 1 at tail key m + j), the context owning each
    basis position, and the number of 1-cochain basis positions of the
    whole nerve (`compatibility_rows`). It builds no section, no basis
    and no nerve: a position's section is read from `model.support`.

    D holds the rows of delta0 of the pairs on the spanning forest of the
    scenario's overlap index, in nerve order: each such pair (i, j) with
    overlap U numbers U's image in lexicographic order after the pairs
    before it, and gives context i's positions -1 and context j's +1 in the
    row of their projection, as `coboundary_entries` does on the reference
    bases. Each support is projected once onto each of its overlaps, and
    the projections are shared by the pairs with that overlap. The rows of
    a pair off the forest telescope along the forest path between its
    contexts: row(i, k, u) = row(i, j, u) + row(j, k, u) for pairs with
    overlap U, and row(j, i, u) = -row(i, j, u). So D and delta0 span the
    same rows over Z, and x*D^T = 0 exactly when x*delta0^T = 0, over Z
    and mod every n: K = ker delta0 and every K_n are the same for D, and
    what follows holds for D as it stands.

    The rows are eliminated once per model over Z: a unimodular U, recorded
    in the tails, with U*D^T = [H; 0], whose kernel rows generate K. Each
    generator's part at each context, at its basis positions, is one row;
    parts at different contexts share no column, so their one echelon
    (`form`) is block diagonal and holds every context's form of pi_C(K).
    `classify_cohomological` reads every verdict off its pivots;
    `ObstructionSolver` reads only the rows and eliminates them over its
    own ring.

    When every pivot of H is 1, mod n U stays invertible and the rows of H
    stay independent (each has a 1 where the rows after it are zero), so
    x*D^T = 0 mod n makes x a combination of the kernel rows of U:
    K_n = K mod n. Then pi_C(K_n) is spanned by the integer parts reduced
    mod n, and so by the integer form's pivot rows reduced mod n, its other
    rows having reduced to zero. Their Howell form is the Z_n form.
    Otherwise each finite ring eliminates the rows itself.
    """

    def __init__(self, model: EmpiricalModel):
        _require_connected(model)
        scenario = model.scenario
        values = model._values
        offsets = [0]
        for vs in values:
            offsets.append(offsets[-1] + len(vs))
        self.offsets = tuple(offsets)
        index = scenario.overlap_index
        images = _overlap_images(model)
        # each overlap's image numbered in lexicographic order, from the
        # first pair with that overlap, which is on the forest
        key = model._lexicographic
        numbers: list[dict | None] = [None] * len(index.group_pairs)
        m = 0
        for _, _, _, left, _, group in index.forest:
            number = numbers[group]
            if number is None:
                image = sorted(set(images[left]), key=key)
                number = numbers[group] = {v: k for k, v in enumerate(image)}
            m += len(number)
        self.forest_rows = m
        # every pair with an overlap has that overlap's image
        self.compatibility_rows = sum(len(n) * c for n, c in zip(numbers, index.group_pairs))
        rows = self.rows = [{m + k: 1} for k in range(offsets[-1])]
        m = 0
        for i, j, _, left, right, group in index.forest:
            number = numbers[group]
            for row, v in zip(rows[offsets[i] : offsets[i + 1]], images[left]):
                row[m + number[v]] = -1
            for row, v in zip(rows[offsets[j] : offsets[j + 1]], images[right]):
                row[m + number[v]] = 1
            m += len(number)
        self.owner = [ci for ci, vs in enumerate(values) for _ in vs]

    def _eliminate(self, ring: RingSpec) -> tuple[list[Row], bool]:
        """Generators of ker delta0 over the ring, indexed by basis position,
        and whether every pivot is 1. The rows are eliminated from the last
        basis position to the first, which was measured to cut fill-in: the
        pivot rows hold 307 nonzeros instead of 1,039 on the Groetzsch
        3-colouring, and 6,716 instead of 119,630 on M6 with 4 colours."""
        m = self.forest_rows
        form = echelon(ring, reversed(self.rows), m)
        kernel = [{k - m: x for k, x in row.items()} for row in form.kernel]
        return kernel, all(h[c] == 1 for c, h in form.rows.items())

    @cached_property
    def _integral(self) -> tuple[list[Row], bool]:
        return self._eliminate(INTEGERS)

    @property
    def unit_pivots(self) -> bool:
        """Whether every pivot of the integer form is 1."""
        return self._integral[1]

    def _parts(self, kernel: list[Row]) -> list[Row]:
        """Each generator's part at every context, in generator order."""
        owner = self.owner
        parts = []
        for k in kernel:
            split: dict[int, Row] = {}
            for j, x in k.items():
                split.setdefault(owner[j], {})[j] = x
            parts.extend(split.values())
        return parts

    @cached_property
    def _form(self) -> Echelon:
        """The integer block form of the generators' parts."""
        return echelon(INTEGERS, self._parts(self._integral[0]), self.offsets[-1])

    def form(self, ring: RingSpec) -> Echelon:
        """The ring's echelon form of the generators' parts at every
        context. The integer form is kept."""
        if ring.is_finite and not self.unit_pivots:
            return echelon(ring, self._parts(self._eliminate(ring)[0]), self.offsets[-1])
        if ring.is_integers:
            return self._form
        return echelon(ring, self._form.rows.values(), self.offsets[-1])


def _degree0_complex(model: EmpiricalModel) -> _Degree0Complex:
    """The model's degree-0 complex, built on first use and then kept on the
    model, which is immutable, as its restrictions are."""
    found = model.__dict__.get("_degree0_complex")
    if found is None:
        found = _Degree0Complex(model)
        object.__setattr__(model, "_degree0_complex", found)
    return found


class ObstructionSolver:
    """Decides vanishing of the obstruction of local sections, one model and
    one ring at a time.

    The class of a section s0 at context C0 vanishes exactly when some
    0-cochain x in K = ker(delta0) over the ring has the unit combination
    at s0 as its component at C0 (weight 1 at s0, 0 elsewhere at C0); x is
    then the compatible family. Over the rows (D_j | e_j) of the model's
    `_Degree0Complex`, D_j the column of D at basis position j, that asks
    whether D_s0 is a combination of the columns D_j with j outside C0.
    So the solver brings the rows of every position outside C0 to echelon
    form on D's columns over its own ring, in reversed order as the
    complex's integer elimination does, once per context asked about.
    Over Z_n it is a Howell form, so reduction decides membership. The
    row of s0 reduces to a zero head exactly when the obstruction
    vanishes, and what it leaves is (0 | x) with x = e_s0 - sum c_j*e_j
    and D*x = 0: the family itself. D has the kernel of delta0, as the
    complex's docstring shows.

    One solver asked about many contexts eliminates once per context, so
    its cost grows with the contexts asked about: the first section of
    each of the 71 contexts of M5 with 4 colours over Z2 took 1.245 s on
    a 2-core host, against 0.047 s for a solver that read the shared
    integer kernel of delta0. `classify_cohomological` is the route for
    every section (about 0.04 s there for all 852).
    """

    def __init__(self, model: EmpiricalModel, ring: RingSpec):
        self.model = model
        self.ring = ring
        self._complex = _degree0_complex(model)
        self._decompositions: dict[int, Echelon] = {}

    def _decomposition(self, ci: int) -> Echelon:
        form = self._decompositions.get(ci)
        if form is None:
            lo, hi = self._complex.offsets[ci : ci + 2]
            rows = self._complex.rows
            outside = chain(reversed(rows[hi:]), reversed(rows[:lo]))
            form = echelon(self.ring, outside, self._complex.forest_rows)
            self._decompositions[ci] = form
        return form

    def weights(self, context: Iterable[str], s0: Section) -> Row | None:
        """The nonzero weights of the witnessing compatible family, keyed by
        0-cochain basis position, or None when the obstruction does not
        vanish."""
        ci = self.model.scenario.context_index(context)
        position = self.model.support_position(ci, s0)
        if position is None:
            raise SectionNotSupportedError(
                f"{s0} is not supported at context {self.model.scenario.contexts[ci]}"
            )
        complex_ = self._complex
        tail = self._decomposition(ci).reduce(complex_.rows[complex_.offsets[ci] + position])
        if tail is None:
            return None
        m = complex_.forest_rows
        return {k - m: x for k, x in tail.items()}

    def vanishes(self, context: Iterable[str], s0: Section) -> bool:
        return self.weights(context, s0) is not None

    def family(
        self, context: Iterable[str], s0: Section
    ) -> tuple[FormalLinearCombination, ...] | None:
        """The witnessing compatible family, one combination per context, or
        None when the obstruction does not vanish."""
        weights = self.weights(context, s0)
        if weights is None:
            return None
        offsets = self._complex.offsets
        return tuple(
            FormalLinearCombination(
                self.ring,
                ctx,
                tuple(
                    (s, w)
                    for k, s in enumerate(self.model.support(ci), offsets[ci])
                    if (w := weights.get(k))
                ),
            )
            for ci, ctx in enumerate(self.model.scenario.contexts)
        )

    @property
    def unknowns(self) -> int:
        return self._complex.offsets[-1]

    @property
    def compatibility_rows(self) -> int:
        return self._complex.compatibility_rows


@dataclass(frozen=True)
class ObstructionReport:
    """Vanishing verdicts for every supported section.

    `vanishes` holds one flag per supported section, context by context in
    cover order and in support order within a context, aligned with the
    model's `support_values`.

    clc: some section has non-vanishing obstruction (a cohomological witness
    of logical contextuality). csc: every section does (the cohomological
    strengthening of strong contextuality).
    """

    ring: RingSpec
    vanishes: tuple[bool, ...]
    clc: bool
    csc: bool
    unknowns: int
    compatibility_rows: int


def classify_cohomological(model: EmpiricalModel, ring: RingSpec) -> ObstructionReport:
    """Every section's verdict from the ring's one form of every context:
    none vanishes without a pivot 1 at its position, all do where every
    pivot of their context is 1, and otherwise one reduction decides."""
    complex_ = _degree0_complex(model)
    form = complex_.form(ring)
    vanishes: list[bool] = []
    for lo, hi in zip(complex_.offsets, complex_.offsets[1:]):
        units = [(h := form.rows.get(j)) is not None and h[j] == 1 for j in range(lo, hi)]
        every = all(units)
        vanishes += (every or u and form.reduce({j: 1}) is not None for j, u in enumerate(units, lo))
    return ObstructionReport(
        ring,
        tuple(vanishes),
        False in vanishes,
        True not in vanishes,
        complex_.offsets[-1],
        complex_.compatibility_rows,
    )


# ---------------------------------------------------------------------------
# the connecting-homomorphism formulation, kept as an independent check


def connecting_hom_check(
    model: EmpiricalModel, context: Iterable[str], s0: Section, ring: RingSpec
) -> bool:
    """Vanishing via the image of the connecting homomorphism.

    Lift s0 to a 0-cochain of the full presheaf, take its coboundary z (a
    cocycle of the subpresheaf of combinations vanishing on the fixed
    context), and ask whether z is a coboundary within that subpresheaf.
    Must agree with the compatible-family formulation everywhere.
    """
    _require_connected(model)
    scenario = model.scenario
    c0 = scenario.context_index(context)
    c0_set = set(scenario.contexts[c0])
    if s0 not in model.support_set(c0):
        raise SectionNotSupportedError(
            f"{s0} is not supported at context {scenario.contexts[c0]}"
        )
    nerve = build_nerve(scenario, 1)
    basis = cochain_basis(model, 0, nerve)
    width = len(basis)

    # canonical lift: the fixed section at C0; on overlapping contexts the
    # first supported section agreeing with s0 on the overlap; anywhere else
    # the first supported section
    lift: list[Section] = []
    for ci, ctx in enumerate(scenario.contexts):
        if ci == c0:
            lift.append(s0)
            continue
        overlap = scenario.sorted_measurements(set(ctx) & c0_set)
        if overlap:
            target = s0.restrict(overlap)
            chosen = None
            for s in model.support(ci):
                if s.restrict(overlap) == target:
                    chosen = s
                    break
            if chosen is None:
                raise SelfCheckError(
                    f"no section at {ctx} agrees with {s0} on {overlap}; "
                    "the model cannot be flasque beneath the cover"
                )
            lift.append(chosen)
        else:
            lift.append(model.support(ci)[0])

    omega = Cochain(
        ring,
        0,
        tuple(
            FormalLinearCombination.unit(ring, s, scenario.contexts[ci])
            for ci, s in enumerate(lift)
        ),
    )
    z = coboundary(model, omega, nerve)

    rows: list[list[int]] = []
    rhs: list[int] = []

    # theta lives in the subpresheaf: it vanishes identically at C0 and its
    # pushforward to the overlap with C0 vanishes elsewhere (total weight
    # zero where the overlap is empty)
    for s in model.support(c0):
        row = [0] * width
        row[basis.index[(c0, s)]] = 1
        rows.append(row)
        rhs.append(0)
    for ci, ctx in enumerate(scenario.contexts):
        if ci == c0:
            continue
        overlap = scenario.sorted_measurements(set(ctx) & c0_set)
        if overlap:
            for t in model.restricted_support(ci, overlap):
                row = [0] * width
                for s in model.support(ci):
                    if s.restrict(overlap) == t:
                        row[basis.index[(ci, s)]] = 1
                rows.append(row)
                rhs.append(0)
        else:
            row = [0] * width
            for s in model.support(ci):
                row[basis.index[(ci, s)]] = 1
            rows.append(row)
            rhs.append(0)

    # delta theta = z
    delta = coboundary_matrix(model, 0, ring, nerve)
    one_basis = cochain_basis(model, 1, nerve)
    z_vec = cochain_to_vector(one_basis, z)
    for row, b in zip(delta.rows(), z_vec):
        rows.append(list(row))
        rhs.append(b)

    dec = linear_decomposition(ring, rows, width)
    return dec.solve(rhs) is not None
