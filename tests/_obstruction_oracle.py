"""Obstruction verdicts by each ring's own elimination, as an oracle for the
shared integer form.

`classify_cohomological` reads every ring's verdicts from one integer
echelon per model: over Z_n it takes the Howell form of that echelon's
pivot rows reduced mod n, which relies on ker delta0 over Z_n being the
integer kernel reduced mod n. This oracle takes the longer route that
needs no such argument. It builds [delta0^T | I] from the reference bases
(`cochain_basis`, `coboundary_entries`) and eliminates it over the ring
itself. It splits each kernel generator into its per-context parts and
brings each context's parts to echelon form over the ring. Then it reduces
every unit vector through its context's form. Only `rings.echelon` is
shared with the library route.
"""

from __future__ import annotations

from contextuality import EmpiricalModel, RingSpec, cochain_basis
from contextuality.cohomology import coboundary_entries
from contextuality.rings import echelon


def reference_degree0_rows(model: EmpiricalModel):
    """The 0-cochain basis, the number m of 1-cochain basis positions and
    the rows [delta0^T | I] read off the reference bases: column j of
    delta0 in `coboundary_entries` order, then a 1 at tail key m + j."""
    basis = cochain_basis(model, 0)
    upper = cochain_basis(model, 1)
    m = len(upper)
    rows = [{m + j: 1} for j in range(len(basis))]
    for i, j, sign in coboundary_entries(basis, upper):
        rows[j][i] = sign
    return basis, m, rows


def oracle_flags(model: EmpiricalModel, ring: RingSpec) -> tuple[bool, ...]:
    """Whether each supported section's obstruction vanishes over the ring,
    context by context in support order."""
    basis, m, rows = reference_degree0_rows(model)
    offsets = basis.offsets
    owner = [si for si in range(len(offsets) - 1) for _ in range(offsets[si], offsets[si + 1])]
    kernel = echelon(ring, reversed(rows), m).kernel
    parts: list[list[dict[int, int]]] = [[] for _ in range(len(offsets) - 1)]
    for g, row in enumerate(kernel):
        split: dict[int, dict[int, int]] = {}
        for k, x in row.items():
            si = owner[k - m]
            split.setdefault(si, {})[k - m - offsets[si]] = x
        for si, part in split.items():
            part[offsets[si + 1] - offsets[si] + g] = 1
            parts[si].append(part)
    flags = []
    for si, context_parts in enumerate(parts):
        size = offsets[si + 1] - offsets[si]
        form = echelon(ring, context_parts, size)
        flags.extend(form.reduce({j: 1}) is not None for j in range(size))
    return tuple(flags)
