"""Tests of the benchmark itself: expected verdicts against independent
oracles, seeded generation, and metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import sys
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from contextuality import (  # noqa: E402
    CORPUS_NAMES,
    EmpiricalModel,
    RingSpec,
    Scenario,
    affine_closure_model,
    connected_components,
    connecting_hom_check,
    corpus,
    default_rings,
    materialize,
    parse_model,
    print_model,
)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = workloads.load_expected()


# ---------------------------------------------------------------------------
# oracle: exact count of global assignments by variable elimination


def count_global(model: EmpiricalModel, fixed=None) -> int:
    """Global assignments restricting into every support (and to `fixed`
    where it is defined), counted by summing variables out of 0/1 tables."""
    outcomes = model.scenario.outcomes
    pinned = dict(fixed.items) if fixed is not None else {}
    domain = {m: (pinned[m],) if m in pinned else outcomes for m in model.scenario.measurements}
    factors = []
    for ctx, support in zip(model.scenario.contexts, model.supports):
        table = {s.values_on(ctx): 1 for s in support if all(s[m] == pinned.get(m, s[m]) for m in ctx)}
        factors.append((ctx, table))
    remaining = set(model.scenario.measurements)
    while remaining:
        def width(v):
            return len(set().union(*(set(sc) for sc, _ in factors if v in sc)))

        v = min(sorted(remaining), key=width)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted(set().union(*(set(sc) for sc, _ in touching)) - {v}))
        table = {}
        for values in product(*(domain[m] for m in scope)):
            env = dict(zip(scope, values))
            total = 0
            for o in domain[v]:
                env[v] = o
                term = 1
                for sc, tab in touching:
                    term *= tab.get(tuple(env[m] for m in sc), 0)
                    if not term:
                        break
                total += term
            if total:
                table[values] = total
        factors.append((scope, table))
        remaining.remove(v)
    result = 1
    for _, table in factors:
        result *= table.get((), 0)
    return result


def brute_force_global(model: EmpiricalModel) -> int:
    scn = model.scenario
    supports = [{s.values_on(ctx) for s in sup} for ctx, sup in zip(scn.contexts, model.supports)]
    index = {m: i for i, m in enumerate(scn.measurements)}
    positions = [tuple(index[m] for m in ctx) for ctx in scn.contexts]
    return sum(
        all(tuple(x[i] for i in pos) in sup for pos, sup in zip(positions, supports))
        for x in product(scn.outcomes, repeat=len(scn.measurements))
    )


def lc_sc(model: EmpiricalModel) -> tuple[bool, bool]:
    sc = count_global(model) == 0
    lc = any(count_global(model, s) == 0 for sup in model.supports for s in sup)
    return lc, sc


def components(model: EmpiricalModel) -> list[EmpiricalModel]:
    scn = model.scenario
    parts = []
    for comp in connected_components(scn):
        contexts = tuple(scn.contexts[i] for i in comp)
        names = tuple(m for m in scn.measurements if any(m in c for c in contexts))
        parts.append(
            EmpiricalModel(Scenario(names, contexts, scn.outcomes), tuple(model.supports[i] for i in comp))
        )
    return parts


def non_vanishing(model: EmpiricalModel, ring: RingSpec) -> int:
    return sum(
        not connecting_hom_check(part, ctx, s, ring)
        for part in components(model)
        for ctx, sup in zip(part.scenario.contexts, part.supports)
        for s in sup
    )


# ---------------------------------------------------------------------------
# canonical documents behind every expected entry


def canonical_documents() -> dict:
    docs = {name: corpus(name) for name in CORPUS_NAMES}
    lengths = workloads.LIAR_LENGTHS + workloads.SHORT_LIARS
    generated = [workloads.liar_cycle(n, 0) for n in lengths]
    generated += [
        workloads.colouring(4, 3, 0),
        workloads.one_context_theory(4, 0),
        workloads.pair_triangle_theory(4, 0),
        workloads.pair_triangle_theory(6, 0),
        workloads.disconnected_pr_box(0),
    ]
    docs.update({doc.name: doc for doc, _, _ in generated})
    return docs


DOCS = canonical_documents()


def test_counting_oracle_matches_brute_force():
    for name, doc in DOCS.items():
        model = materialize(doc)
        if len(model.scenario.outcomes) ** len(model.scenario.measurements) <= 1 << 12:
            assert count_global(model) == brute_force_global(model), name


@pytest.mark.parametrize("key", sorted(EXPECTED["analyze"]))
def test_expected_analyze_verdicts_match_oracles(key):
    name, _, ring_text = key.partition(" ")
    doc = DOCS[name]
    model = materialize(doc)
    expected = EXPECTED["analyze"][key]
    assert (expected["lc"], expected["sc"]) == lc_sc(model)
    rings = [RingSpec.parse(ring_text)] if ring_text else list(default_rings(doc))
    assert sorted(expected["rings"]) == sorted({str(r) for r in rings} | {"Z"})
    for ring in rings + [RingSpec()]:
        entry = expected["rings"][str(ring)]
        count = non_vanishing(model, ring)
        sections = sum(map(len, model.supports))
        assert entry["non_vanishing"] == count, ring
        assert (entry["clc"], entry["csc"]) == (count > 0, count == sections), ring
        if ring.is_integers:
            assert entry["avn"] is None and entry["aff_sc"] is None
            continue
        aff_sc = count_global(affine_closure_model(model, ring)) == 0
        assert entry["aff_sc"] == aff_sc, ring
        if ring.is_field:
            assert entry["avn"] == aff_sc, ring
        elif entry["avn"]:
            assert aff_sc, ring


@pytest.mark.parametrize("kind", ["obstruction", "avn"])
def test_expected_query_verdicts_match_oracles(kind):
    for name, by_ring in EXPECTED[kind].items():
        model = materialize(DOCS[name])
        for ring_text, by_context in by_ring.items():
            ring = RingSpec.parse(ring_text)
            closed = affine_closure_model(model, ring) if kind == "avn" else None
            for ci, bits in by_context.items():
                ctx = model.scenario.contexts[int(ci)]
                support = model.support(int(ci))
                assert len(bits) == len(support)
                for s, bit in zip(support, bits):
                    if kind == "obstruction":
                        truth = connecting_hom_check(model, ctx, s, ring)
                    else:
                        assert ring.is_field
                        truth = count_global(closed, s) == 0
                    assert bit == "01"[truth], (name, ring_text, ci, s)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_seeded(workload):
    texts, ops = workloads.build(workload, 7)
    again, ops_again = workloads.build(workload, 7)
    other, _ = workloads.build(workload, 8)
    assert texts == again and ops == ops_again
    assert any(other[stem] != text for stem, text in texts.items())
    for text in texts.values():
        assert print_model(parse_model(text)) == text
    assert ops and all(op.doc in texts for op in ops)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_documents_keep_their_verdicts(seed, tmp_path):
    from contextuality.cli import main

    verdicts: dict = {}
    texts, ops = workloads.build("corpus", seed)
    for stem, text in texts.items():
        (tmp_path / f"{stem}.json").write_text(text, encoding="utf-8")
    manifest = [dict(key=op.key, command=op.command, doc=op.doc, argv=op.argv, expected=op.expected) for op in ops]
    loop = run.Loop(manifest, seed, tmp_path)
    step = run.cli_step(main, loop, verdicts)
    assert all(step(op) is not None for op in manifest)
    tracer = tracing.Tracer()
    traced = run.traced_step(tracer, loop, verdicts)
    assert all(traced(op) is not None for op in manifest)


def test_metric_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    predicted = [m for p in design["predictions"] for m in p["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in spec["per_layer"])
