"""Seeded inputs, operations and expected verdicts of the benchmark workloads.

Every input starts as a canonical document (a shipped corpus entry or the
output of a generator below) and is then relabelled by the workload seed:
measurements get seeded new names. The seed also orders each pass and
picks the section of each point query. Renaming keeps the declared
measurement order, the cover order and the outcome order, so the library
does the same arithmetic for every seed and every verdict stays the one
stored in expected.json. Reflecting outcomes as well would also keep the
verdicts, but it reorders supports and changed the cost of one
`analyze` on the Groetzsch colouring by up to 20% between seeds.

The CLI only ever sees document files written with `print_model`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from contextuality import (
    CORPUS_NAMES,
    EmpiricalModel,
    Scenario,
    Section,
    corpus,
    default_rings,
    document_from_equations,
    document_from_model,
    liar_cycle_model,
    materialize,
    parse_model,
    print_model,
)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "sparse-covers", "composite-moduli", "point-queries")
LIAR_LENGTHS = (8, 16, 24, 32, 40, 48)
# sparse-covers also analyzes these short cycles (a few ms each), which
# brings it to 15 operations, for the reason given under composite-moduli
SHORT_LIARS = (6, 10, 12, 14, 18, 20, 22)
# point queries ask about every ceil(C / QUERY_CONTEXTS)-th context of a model
QUERY_CONTEXTS = 6


# ---------------------------------------------------------------------------
# generators of canonical documents


def liar_cycle(length: int, seed: int):
    """Liar cycle of the given length as an explicit-supports document."""
    doc = document_from_model(liar_cycle_model(length), name=f"liar-{length}")
    return relabel(doc, seed)


def mycielski_graph(order: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of the Mycielski graph M_order (M2 = K2,
    M3 = C5, M4 = Groetzsch): triangle-free with chromatic number `order`."""
    n, edges = 2, [(0, 1)]
    for _ in range(order - 2):
        shadow = [(a, n + b) for a, b in edges] + [(b, n + a) for a, b in edges]
        apex = [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, edges + shadow + apex
    return n, sorted(tuple(sorted(e)) for e in edges)


def colouring(order: int, colours: int, seed: int):
    """Proper-colouring model of M_order: one context per edge, supported
    on the pairs of distinct colours. Strongly contextual iff the graph
    needs more than `colours` colours."""
    n, edges = mycielski_graph(order)
    names = tuple(f"v{i}" for i in range(n))
    contexts = tuple((names[a], names[b]) for a, b in edges)
    supports = tuple(
        tuple(
            Section.of(((ctx[0], x), (ctx[1], y)))
            for x in range(colours)
            for y in range(colours)
            if x != y
        )
        for ctx in contexts
    )
    model = EmpiricalModel(Scenario(names, contexts, tuple(range(colours))), supports)
    doc = document_from_model(model, name=f"mycielski-{order}-{colours}col")
    return relabel(doc, seed)


def one_context_theory(modulus: int, seed: int):
    """Three measurements in a single context, constrained by a+b+c = 0."""
    scenario = Scenario(("a", "b", "c"), (("a", "b", "c"),), tuple(range(modulus)))
    doc = document_from_equations(
        scenario, modulus, [({"a": 1, "b": 1, "c": 1}, 0)],
        name=f"one-context-z{modulus}",
    )
    return relabel(doc, seed)


def pair_triangle_theory(modulus: int, seed: int):
    """Three pairwise contexts with x1-x2 = x2-x3 = x1-x3 = 1: each context
    is satisfiable, the triangle is not (All-vs-Nothing over Z_modulus)."""
    names = ("x1", "x2", "x3")
    scenario = Scenario(names, (names[:2], names[1:], (names[0], names[2])), tuple(range(modulus)))
    doc = document_from_equations(
        scenario,
        modulus,
        [({"x1": 1, "x2": -1}, 1), ({"x2": 1, "x3": -1}, 1), ({"x1": 1, "x3": -1}, 1)],
        name=f"pair-triangle-z{modulus}",
    )
    return relabel(doc, seed)


def disconnected_pr_box(seed: int):
    """Two disjoint copies of the PR box. Kept out of the timed workloads:
    `analyze` exits 1 on it (DisconnectedCoverError), a known defect."""
    pr = materialize(corpus("pr-box"))
    names = pr.scenario.measurements + tuple(m + "'" for m in pr.scenario.measurements)
    prime = {m: m + "'" for m in pr.scenario.measurements}
    contexts = pr.scenario.contexts + tuple(tuple(prime[m] for m in c) for c in pr.scenario.contexts)
    copies = tuple(
        tuple(Section.of((prime[m], o) for m, o in s.items) for s in sup) for sup in pr.supports
    )
    model = EmpiricalModel(Scenario(names, contexts, (0, 1)), pr.supports + copies)
    return relabel(document_from_model(model, name="pr-box-twice"), seed)


# ---------------------------------------------------------------------------
# seeded relabelling


@dataclass(frozen=True)
class Relabelling:
    """Seeded new names for a document's measurements."""

    rename: dict[str, str]

    def context(self, context) -> str:
        return ",".join(self.rename[m] for m in context)

    def section(self, section: Section) -> str:
        return ",".join(f"{self.rename[m]}={o}" for m, o in section.items)


def relabel(doc, seed: int):
    """(canonical document, relabelled document text, relabelling)."""
    data = json.loads(print_model(doc))
    names = data["scenario"]["measurements"]
    if "liar_cycle" in data:
        # the payload fixes the scenario, labels included
        return doc, print_model(doc), Relabelling({m: m for m in names})
    numbers = random.Random(f"{seed}/{doc.name}").sample(range(len(names)), len(names))
    rename = {m: f"m{numbers[i]}" for i, m in enumerate(names)}
    scenario = data["scenario"]
    scenario["measurements"] = [rename[m] for m in names]
    scenario["contexts"] = [[rename[m] for m in c] for c in scenario["contexts"]]
    if "supports" in data:
        data["supports"] = [[{rename[m]: o for m, o in s.items()} for s in row] for row in data["supports"]]
    elif "probabilities" in data:
        data["probabilities"] = [
            [{"section": {rename[m]: o for m, o in e["section"].items()}, "p": e["p"]} for e in row]
            for row in data["probabilities"]
        ]
    elif "theory" in data:
        for eq in data["theory"]["equations"]:
            eq["coefficients"] = {rename[m]: a for m, a in eq["coefficients"].items()}
    else:
        raise ValueError(f"cannot relabel a {doc.payload_kind} document")
    return doc, print_model(parse_model(json.dumps(data))), Relabelling(rename)


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Operation:
    """One CLI command. `doc` names the document file, `argv` follows it."""

    key: str
    command: str
    doc: str
    argv: tuple[str, ...]
    expected: object


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def sparse_documents(seed: int) -> list:
    return [liar_cycle(n, seed) for n in LIAR_LENGTHS] + [colouring(4, 3, seed)]


def corpus_documents(seed: int) -> list:
    return [relabel(corpus(name), seed) for name in CORPUS_NAMES]


def _analyze(doc, ring: str | None, expected: dict) -> Operation:
    name = doc.name if ring is None else f"{doc.name} {ring}"
    argv = ("--json",) if ring is None else ("--json", "--ring", ring)
    return Operation(f"analyze {name}", "analyze", doc.name, argv, expected["analyze"][name])


def _queries(doc, lab: Relabelling, rng: random.Random, expected: dict) -> list[Operation]:
    """One seeded section per picked context: obstruction over Z2 and Z, and
    AvN at the section over the document's own ring."""
    model = materialize(doc)
    avn_ring = str(default_rings(doc)[0]).lower()
    contexts = model.scenario.contexts
    step = -(-len(contexts) // QUERY_CONTEXTS)
    ops = []
    for ci in range(0, len(contexts), step):
        j = rng.randrange(len(model.support(ci)))
        s = model.support(ci)[j]
        where = (f"--context={lab.context(contexts[ci])}", f"--section={lab.section(s)}")
        at = f"--at={lab.section(s)}"
        for kind, ring, argv in (
            ("obstruction", "z2", where + ("--ring", "z2", "--json")),
            ("obstruction", "z", where + ("--ring", "z", "--json")),
            ("avn", avn_ring, ("--ring", avn_ring, at, "--json")),
        ):
            bit = expected[kind][doc.name][ring][str(ci)][j]
            key = f"{kind} {doc.name} {ring} context {ci} section {j}"
            ops.append(Operation(key, kind, doc.name, argv, bit == "1"))
    return ops


def build(workload: str, seed: int) -> tuple[dict[str, str], list[Operation]]:
    """The workload's document texts by file stem, and its operations."""
    expected = load_expected()
    if workload == "corpus":
        docs = corpus_documents(seed)
        ops = [_analyze(d, None, expected) for d, _, _ in docs]
    elif workload == "sparse-covers":
        docs = sparse_documents(seed) + [relabel(corpus("ghz-mermin"), seed)]
        docs += [liar_cycle(n, seed) for n in SHORT_LIARS]
        ops = [
            _analyze(d, str(default_rings(d)[0]).lower(), expected) for d, _, _ in docs
        ]
    elif workload == "composite-moduli":
        # 15 operations of distinct cost: p50 lies 7.5 and p90 13.5 operations
        # into a sorted pass, so each falls in the middle of one operation's
        # samples instead of between the slowest of one and fastest of the next
        small = ("pr-box", "bell", "hardy", "specker-triangle", "liar-4")
        shipped = {name: relabel(corpus(name), seed) for name in ("box-25",) + small}
        theories = [
            one_context_theory(4, seed),
            pair_triangle_theory(4, seed),
            pair_triangle_theory(6, seed),
        ]
        liar = liar_cycle(8, seed)
        docs = list(shipped.values()) + theories + [liar]
        ops = [_analyze(shipped[n][0], "z4", expected) for n in ("box-25",) + small]
        ops += [_analyze(shipped[n][0], "z6", expected) for n in small]
        ops += [_analyze(d, f"z{d.modulus}", expected) for d, _, _ in theories]
        ops.append(_analyze(liar[0], "z6", expected))
    elif workload == "point-queries":
        docs = corpus_documents(seed) + sparse_documents(seed)
        rng = random.Random(f"{seed}/sections")
        ops = [op for d, _, lab in docs for op in _queries(d, lab, rng, expected)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {d.name: text for d, text, _ in docs}, ops
