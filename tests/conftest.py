from fractions import Fraction

import pytest

from contextuality import (
    EmpiricalModel,
    ProbabilityTable,
    Scenario,
    build_nerve,
    corpus,
    corpus_names,
    materialize,
)

BIPARTITE = Scenario(
    ("a1", "a2", "b1", "b2"),
    (("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")),
    (0, 1),
)

CORR = ((0, 0), (1, 1))
ANTI = ((0, 1), (1, 0))
ALL4 = ((0, 0), (0, 1), (1, 0), (1, 1))


def bipartite_model(*rows) -> EmpiricalModel:
    supports = tuple(
        tuple(BIPARTITE.section(ctx, vals) for vals in row)
        for ctx, row in zip(BIPARTITE.contexts, rows)
    )
    return EmpiricalModel(BIPARTITE, supports)


def pr_box() -> EmpiricalModel:
    return bipartite_model(CORR, CORR, CORR, ANTI)


def hardy_model() -> EmpiricalModel:
    return bipartite_model(
        ALL4,
        ((0, 1), (1, 0), (1, 1)),
        ((0, 1), (1, 0), (1, 1)),
        ((0, 0), (0, 1), (1, 0)),
    )


def bell_table() -> ProbabilityTable:
    def row(ctx, ps):
        return {
            BIPARTITE.section(ctx, v): Fraction(p)
            for v, p in zip(ALL4, ps)
            if Fraction(p) != 0
        }

    return ProbabilityTable.from_mappings(
        BIPARTITE,
        (
            row(("a1", "b1"), ("1/2", 0, 0, "1/2")),
            row(("a1", "b2"), ("3/8", "1/8", "1/8", "3/8")),
            row(("a2", "b1"), ("3/8", "1/8", "1/8", "3/8")),
            row(("a2", "b2"), ("1/8", "3/8", "3/8", "1/8")),
        ),
    )


def nerve_pairs(scenario):
    """(i, j, overlap) for every pair of contexts i < j that share a
    measurement, in lexicographic order, with the overlap in declared
    order: the 1-simplices of the reference nerve, which the overlap index
    does not build."""
    levels = build_nerve(scenario, 1)
    return [(*sigma.contexts, sigma.intersection) for sigma in levels[1]] if len(levels) > 1 else []


def relabelled(model: EmpiricalModel, labels) -> EmpiricalModel:
    """The same supports over measurements renamed in declared order."""
    scn = model.scenario
    rename = dict(zip(scn.measurements, labels))
    scenario = Scenario(
        tuple(labels),
        tuple(tuple(map(rename.__getitem__, ctx)) for ctx in scn.contexts),
        scn.outcomes,
    )
    return EmpiricalModel.from_values(
        scenario, (model.support_values(ci) for ci in range(len(scn.contexts)))
    )


def with_sections(model, flags):
    """Each per-section flag of a report as (context index, context, section,
    flag), its section read from `model.support(ci)` in flag order."""
    sections = [(ci, c, s) for ci, c in enumerate(model.scenario.contexts) for s in model.support(ci)]
    return [(*where, flag) for where, flag in zip(sections, flags, strict=True)]


# colouring scale
def mycielski_colouring(order, colours):
    """Proper colourings of the Mycielski graph M_order (M3 = C5, M4 =
    Groetzsch), triangle-free with chromatic number `order`: one context per
    edge, supported on the pairs of distinct colours."""
    n, edges = 2, [(0, 1)]
    for _ in range(order - 2):
        shadow = [(a, n + b) for a, b in edges] + [(b, n + a) for a, b in edges]
        apex = [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, edges + shadow + apex
    names = tuple(f"v{i}" for i in range(n))
    contexts = tuple((names[a], names[b]) for a, b in sorted(map(sorted, edges)))
    scn = Scenario(names, contexts, tuple(range(colours)))
    return EmpiricalModel(
        scn,
        tuple(
            tuple(
                scn.section(ctx, (x, y))
                for x in range(colours)
                for y in range(colours)
                if x != y
            )
            for ctx in contexts
        ),
    )


def shifted_colouring(order, colours):
    """`mycielski_colouring(order, colours)` plus a measurement w and two
    contexts, (v0, w) supported on w = v0 + 1 and (v1, w) on w = v1 (mod
    colours): together they ask v1 = v0 + 1 of the colouring, which some of
    its sections at the edge v0-v1 cannot meet, so their obstructions do
    not vanish."""
    base = mycielski_colouring(order, colours)
    scn = base.scenario
    shifted = Scenario(
        scn.measurements + ("w",),
        scn.contexts + (("v0", "w"), ("v1", "w")),
        scn.outcomes,
    )
    values = [base.support_values(ci) for ci in range(len(scn.contexts))]
    values.append([(x, (x + 1) % colours) for x in range(colours)])
    values.append([(x, x) for x in range(colours)])
    return EmpiricalModel.from_values(shifted, values)


def groetzsch_colouring(colours):
    """Proper colourings of the Groetzsch graph M4: 11 vertices, 20 edges."""
    return mycielski_colouring(4, colours)


@pytest.fixture(scope="session")
def corpus_documents():
    return {name: corpus(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def corpus_models(corpus_documents):
    return {name: materialize(doc) for name, doc in corpus_documents.items()}
