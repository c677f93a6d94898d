"""Per-layer spans and counts, recorded from outside the library.

The traced run replays each CLI operation through the public function of
each module and opens a span around every call into a layer. Spans (name,
start, end, parent, operation id) and counts stay in memory and are written
out when the run ends. A span's self time is its duration minus the time
its child spans cover.

Each operation has up to two root spans:

- `cli.main` does what the CLI command does, split at module boundaries.
  Its duration is the traced operation time, compared against the
  untraced one for `trace.overhead_frac`.
- `replay` runs the stages of `analyze` one public call at a time
  (materialise, no-signalling, search, AvN, affine closure, obstructions)
  to time and count them separately. Inside it, `rings.replay` rebuilds
  each obstruction system from `cochain_basis` and `coboundary_matrix`
  and solves it with `linear_decomposition`, to time the ring layer on
  its own. Its verdicts must equal the cohomology ones.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from contextuality import (
    DEFAULT_SEARCH_BUDGET,
    INTEGERS,
    ObstructionSolver,
    RingSpec,
    Section,
    affine_closure_model,
    analyze,
    build_nerve,
    check_no_signalling,
    classify_contextuality,
    coboundary_matrix,
    cochain_basis,
    default_rings,
    document_hash,
    is_avn,
    is_avn_at,
    linear_decomposition,
    materialize,
    parse_model,
    render_json,
)
from contextuality.cli import build_parser

FAMILIES = ("z", "zp", "zn")
# spans whose mean self time per call is reported as <layer>.<stage>_ms
TIMED = (
    "documents.parse",
    "documents.materialize",
    "documents.hash",
    "scenario.nerve",
    "model.no_signalling",
    "model.classify",
    "model.classify_affine",
    "theory.avn",
    "theory.avn_at",
    "theory.affine",
    "analysis.analyze",
    "analysis.render",
)
# the same, once per ring family: <layer>.<stage>_ms.<family>
TIMED_BY_FAMILY = (
    "cohomology.setup",
    "cohomology.first_query",
    "cohomology.repeat_query",
    "rings.decompose",
    "rings.solve",
)
# counts reported as their mean over the calls that recorded them
COUNTED = (
    ("scenario.nerve_edges", "count"),
    ("model.search_nodes", "count"),
    ("model.affine_search_nodes", "count"),
    ("theory.equations", "count"),
    ("theory.affine_sections", "count"),
    ("cohomology.unknowns", "count"),
    ("cohomology.compat_rows", "count"),
    ("cohomology.queries", "count"),
    ("analysis.self_ms", "ms"),
)
COUNTED_BY_FAMILY = ("rings.matrix_cells",)
DERIVED = (
    ("theory.affine_growth", "ratio"),
    ("cohomology.decomposition_reuse", "ratio"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def _timed_metric(span: str, family: str | None = None) -> str:
    return f"{span}_ms" if family is None else f"{span}_ms.{family}"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [(_timed_metric(s), "ms") for s in TIMED]
    names += [(_timed_metric(s, f), "ms") for s in TIMED_BY_FAMILY for f in FAMILIES]
    names += list(COUNTED)
    names += [(f"{c}.{f}", "count") for c in COUNTED_BY_FAMILY for f in FAMILIES]
    return names + list(DERIVED)


def family(ring: RingSpec) -> str:
    if ring.is_integers:
        return "z"
    return "zp" if ring.is_field else "zn"


class ReplayMismatch(Exception):
    """Two replays of one operation reached different verdicts."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, float, int]] = []
        self.op = 0
        self.last_root: Span | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), 0.0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()
            if parent is None and name == "cli.main":
                self.last_root = record

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.op))

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")
            for name, value, op in self.counts:
                out.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")

    def metrics(self, untraced_p50: float, traced_p50: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; the p50s are of calibrated operation times."""
        own_by_name: dict[str, list[float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            own_by_name.setdefault(s.name, []).append(own * 1000)
        counts: dict[str, list[float]] = {}
        for name, value, _ in self.counts:
            counts.setdefault(name, []).append(value)

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        out = {}
        for s in TIMED:
            out[_timed_metric(s)] = (mean(own_by_name.get(s)), "ms")
        for s in TIMED_BY_FAMILY:
            for f in FAMILIES:
                out[_timed_metric(s, f)] = (mean(own_by_name.get(f"{s}.{f}")), "ms")
        for name, unit in COUNTED:
            out[name] = (mean(counts.get(name)), unit)
        for c in COUNTED_BY_FAMILY:
            for f in FAMILIES:
                out[f"{c}.{f}"] = (mean(counts.get(f"{c}.{f}")), "count")
        inputs = sum(counts.get("theory.input_sections", ()))
        closed = sum(counts.get("theory.affine_sections", ()))
        queries = sum(counts.get("cohomology.queries", ()))
        decompositions = sum(counts.get("cohomology.decompositions", ()))
        out["theory.affine_growth"] = (closed / inputs if inputs else 0.0, "ratio")
        out["cohomology.decomposition_reuse"] = (
            (queries - decompositions) / queries if queries else 0.0,
            "ratio",
        )
        out["cli.self_ms"] = (mean(own_by_name.get("cli.main")), "ms")
        out["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1, "ratio")
        return out


# ---------------------------------------------------------------------------
# replays, one per CLI command; each returns the verdicts of its `cli.main`
# root, after checking that the layer replays agree with them


def _read(tr: Tracer, argv: list[str]):
    with tr.span("cli.parse"):
        args = build_parser().parse_args(argv)
    with tr.span("documents.parse"):
        with open(args.file, encoding="utf-8") as f:
            doc = parse_model(f.read())
    return args, doc


def _section(text: str) -> Section:
    return Section.of((m, int(o)) for m, _, o in (p.partition("=") for p in text.split(",")))


def analyze_verdicts(report: dict) -> dict:
    """The verdicts the benchmark checks, from `analyze --json` output."""
    return {
        "lc": report["logically_contextual"],
        "sc": report["strongly_contextual"],
        "rings": {
            r["ring"]: {k: r[k] for k in ("avn", "aff_sc", "clc", "csc", "non_vanishing")}
            for r in report["rings"]
        },
    }


def _rings(tr: Tracer, model, ring: RingSpec, nerve, picks) -> int:
    """Non-vanishing count over the picked (context index, sections)."""
    fam = family(ring)
    basis = cochain_basis(model, 0, nerve)
    compat = [list(row) for row in coboundary_matrix(model, 0, ring, nerve).rows()]
    width = len(basis)
    non_vanishing = 0
    for ci, sections in picks:
        support = model.support(ci)
        rows = [list(row) for row in compat]
        for s in support:
            row = [0] * width
            row[basis.index[(ci, s)]] = 1
            rows.append(row)
        tr.count(f"rings.matrix_cells.{fam}", len(rows) * width)
        with tr.span(f"rings.decompose.{fam}"):
            dec = linear_decomposition(ring, rows, width)
        for s0 in sections:
            rhs = [0] * len(compat) + [1 if s == s0 else 0 for s in support]
            with tr.span(f"rings.solve.{fam}"):
                solution = dec.solve(rhs)
            non_vanishing += solution is None
    return non_vanishing


def _nerve(tr: Tracer, model):
    with tr.span("scenario.nerve"):
        nerve = build_nerve(model.scenario, 1)
    tr.count("scenario.nerve_edges", len(nerve[1]) if len(nerve) > 1 else 0)
    return nerve


def _solver(tr: Tracer, model, ring: RingSpec) -> ObstructionSolver:
    with tr.span(f"cohomology.setup.{family(ring)}"):
        solver = ObstructionSolver(model, ring)
    tr.count("cohomology.unknowns", solver.unknowns)
    tr.count("cohomology.compat_rows", solver.compatibility_rows)
    return solver


def _obstructions(tr: Tracer, model, ring: RingSpec) -> dict:
    fam = family(ring)
    nerve = _nerve(tr, model)
    solver = _solver(tr, model, ring)
    non_vanishing = queries = 0
    for ci, ctx in enumerate(model.scenario.contexts):
        for k, s in enumerate(model.support(ci)):
            stage = "first_query" if k == 0 else "repeat_query"
            with tr.span(f"cohomology.{stage}.{fam}"):
                vanishes = solver.vanishes(ctx, s)
            non_vanishing += not vanishes
            queries += 1
    tr.count("cohomology.queries", queries)
    tr.count("cohomology.decompositions", len(model.scenario.contexts))
    picks = list(enumerate(model.supports))
    with tr.span("rings.replay"):
        replayed = _rings(tr, model, ring, nerve, picks)
    if replayed != non_vanishing:
        raise ReplayMismatch(
            f"over {ring}: {non_vanishing} non-vanishing obstructions from the "
            f"solver, {replayed} from the ring-layer replay"
        )
    return {"clc": non_vanishing > 0, "csc": non_vanishing == queries, "non_vanishing": non_vanishing}


def _stages(tr: Tracer, doc, requested) -> dict:
    budget = DEFAULT_SEARCH_BUDGET
    with tr.span("documents.materialize"):
        model = materialize(doc)
    with tr.span("documents.hash"):
        document_hash(doc)
    with tr.span("model.no_signalling"):
        check_no_signalling(model)
    with tr.span("model.classify"):
        cls = classify_contextuality(model, budget=budget)
    tr.count("model.search_nodes", cls.nodes_used)
    rings = {}
    for ring in dict.fromkeys(requested + (INTEGERS,)):
        entry = {"avn": None, "aff_sc": None}
        if ring.is_finite:
            with tr.span("theory.avn"):
                avn = is_avn(model, ring)
            tr.count("theory.equations", len(avn.theory.equations))
            with tr.span("theory.affine"):
                closed = affine_closure_model(model, ring)
            tr.count("theory.input_sections", sum(map(len, model.supports)))
            tr.count("theory.affine_sections", sum(map(len, closed.supports)))
            with tr.span("model.classify_affine"):
                aff = classify_contextuality(closed, budget=budget)
            tr.count("model.affine_search_nodes", aff.nodes_used)
            entry = {"avn": avn.avn, "aff_sc": aff.strongly_contextual}
        entry.update(_obstructions(tr, model, ring))
        rings[str(ring)] = entry
    return {"lc": cls.logically_contextual, "sc": cls.strongly_contextual, "rings": rings}


def replay_analyze(tr: Tracer, argv: list[str]) -> dict:
    with tr.span("cli.main"):
        args, doc = _read(tr, argv)
        rings = tuple(RingSpec.parse(r) for r in args.ring) if args.ring else None
        with tr.span("analysis.analyze") as whole:
            report = analyze(doc, rings=rings, budget=DEFAULT_SEARCH_BUDGET)
        with tr.span("analysis.render"):
            text = render_json(report)
    stages = sum(t.seconds for t in report.timings)
    tr.count("analysis.self_ms", (whole.end - whole.start - stages) * 1000)
    verdicts = analyze_verdicts(json.loads(text))
    with tr.span("replay"):
        replayed = _stages(tr, doc, rings if rings is not None else default_rings(doc))
    if replayed != verdicts:
        raise ReplayMismatch(f"stage replay {replayed} != analyze {verdicts}")
    return verdicts


def replay_obstruction(tr: Tracer, argv: list[str]) -> bool:
    with tr.span("cli.main"):
        args, doc = _read(tr, argv)
        with tr.span("documents.materialize"):
            model = materialize(doc)
        ring = RingSpec.parse(args.ring)
        context = tuple(args.context.split(","))
        section = _section(args.section)
        solver = _solver(tr, model, ring)
        with tr.span(f"cohomology.first_query.{family(ring)}"):
            components = solver.family(context, section)
        json.dumps(
            {
                "vanishes": components is not None,
                "family": None if components is None else [str(c) for c in components],
            }
        )
    tr.count("cohomology.queries", 1)
    tr.count("cohomology.decompositions", 1)
    with tr.span("replay"):
        nerve = _nerve(tr, model)
        ci = model.scenario.context_index(context)
        with tr.span("rings.replay"):
            replayed = _rings(tr, model, ring, nerve, [(ci, [section])])
    vanishes = components is not None
    if vanishes != (replayed == 0):
        raise ReplayMismatch(f"solver says vanishes={vanishes}, ring-layer replay disagrees")
    return vanishes


def replay_avn(tr: Tracer, argv: list[str]) -> bool:
    with tr.span("cli.main"):
        args, doc = _read(tr, argv)
        with tr.span("documents.materialize"):
            model = materialize(doc)
        ring = RingSpec.parse(args.ring)
        with tr.span("theory.avn_at"):
            report = is_avn_at(model, _section(args.at), ring)
        json.dumps({"avn": report.avn, "equations": [str(eq) for eq in report.theory.equations]})
    tr.count("theory.equations", len(report.theory.equations))
    return report.avn


REPLAYS = {"analyze": replay_analyze, "obstruction": replay_obstruction, "avn": replay_avn}
