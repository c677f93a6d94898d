from fractions import Fraction

import pytest

from contextuality import (
    EmpiricalModel,
    ProbabilityTable,
    Scenario,
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


# colouring scale: the Groetzsch graph, 11 vertices and 20 edges
GROETZSCH_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]  # the 5-cycle
    + [(i, 5 + j) for j in range(5) for i in ((j + 1) % 5, (j + 4) % 5)]  # shadows
    + [(5 + j, 10) for j in range(5)]  # apex
)


def groetzsch_colouring(colours):
    """Proper colourings of the Groetzsch graph: one context per edge,
    supported on the pairs of distinct colours."""
    names = tuple(f"v{i}" for i in range(11))
    contexts = tuple((names[a], names[b]) for a, b in sorted(map(sorted, GROETZSCH_EDGES)))
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


@pytest.fixture(scope="session")
def corpus_documents():
    return {name: corpus(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def corpus_models(corpus_documents):
    return {name: materialize(doc) for name, doc in corpus_documents.items()}
