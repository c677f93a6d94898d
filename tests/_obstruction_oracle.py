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
from contextuality.cohomology import _Degree0Complex, coboundary_entries
from contextuality.rings import echelon

from conftest import nerve_pairs


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


def check_forest_rows(model: EmpiricalModel, complex_: _Degree0Complex) -> None:
    """The degree-0 complex's rows against the full delta0 of the reference
    bases. Each row j ends in a 1 at tail key `forest_rows + j`. The rows of
    delta0 it holds, block by block, are the reference blocks of the pairs
    on the overlap index's forest, in nerve order. The forest pairs with
    each overlap U span every component of the pairs with that overlap
    without a cycle. Every other pair's block is the sum of the forest
    blocks along the forest path between its two contexts, each taken with
    the sign of the direction it is walked in. The pairs are those of the
    reference nerve, not the overlap index's."""
    basis = cochain_basis(model, 0)
    upper = cochain_basis(model, 1)
    pairs = nerve_pairs(model.scenario)
    assert [sigma.contexts for sigma in upper.simplices] == [pair[:2] for pair in pairs]
    # delta0 as rows over the 0-cochain positions, from both constructions
    reference = [{} for _ in range(len(upper))]
    for row, col, sign in coboundary_entries(basis, upper):
        reference[row][col] = sign
    head = complex_.forest_rows
    mine = [{} for _ in range(head)]
    for j, row in enumerate(complex_.rows):
        assert [k for k in row if k >= head] == [head + j] and row[head + j] == 1
        for k, x in row.items():
            if k < head:
                mine[k][j] = x

    def block(p):
        return reference[upper.offsets[p] : upper.offsets[p + 1]]

    index = model.scenario.overlap_index
    records = [(i, j, overlap) for i, j, overlap, *_ in index.forest]
    on_forest = set(records)
    forest = [p for p, pair in enumerate(pairs) if pair in on_forest]
    # each forest record is a nerve pair with its overlap, in nerve order
    assert [pairs[p] for p in forest] == records
    assert sum(len(block(p)) for p in forest) == head
    at = 0
    for p in forest:
        size = len(block(p))
        assert mine[at : at + size] == block(p)
        at += size

    # per overlap, the forest as an adjacency map, and the reference blocks
    # of the pairs that are not on it
    trees: dict[tuple, dict[int, list[tuple[int, int]]]] = {}
    for p, pair in enumerate(pairs):
        i, j, overlap = pair
        adjacent = trees.setdefault(overlap, {})
        if pair in on_forest:
            adjacent.setdefault(i, []).append((j, p))
            adjacent.setdefault(j, []).append((i, p))
    for p, pair in enumerate(pairs):
        if pair in on_forest:
            continue
        i, j, overlap = pair
        adjacent = trees[overlap]
        # the forest path from i to j, as (pair, sign) steps
        paths = {i: []}
        todo = [i]
        while todo:
            a = todo.pop()
            for b, q in adjacent.get(a, ()):
                if b not in paths:
                    paths[b] = paths[a] + [(q, 1 if a < b else -1)]
                    todo.append(b)
        assert j in paths, f"pair {(i, j)} is not joined by the forest on {overlap}"
        total = [{} for _ in block(p)]
        for q, sign in paths[j]:
            for acc, row in zip(total, block(q)):
                for col, x in row.items():
                    acc[col] = acc.get(col, 0) + sign * x
        assert [{c: x for c, x in acc.items() if x} for acc in total] == block(p)
    for overlap, adjacent in trees.items():
        # no cycle: a forest on n contexts with c trees has n - c edges
        edges = sum(map(len, adjacent.values())) // 2
        seen, trees_found = set(), 0
        for start in adjacent:
            if start not in seen:
                trees_found += 1
                todo = [start]
                while todo:
                    a = todo.pop()
                    if a not in seen:
                        seen.add(a)
                        todo.extend(b for b, _ in adjacent[a])
        assert edges == len(seen) - trees_found


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
