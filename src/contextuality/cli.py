"""Command-line interface.

Exit codes: 0 for a completed run (whatever the verdicts), 1 for any input
problem (unreadable file, malformed document, unknown ring, bad section)
or unwritable output file, 2 when the library's own hierarchy self-check
fails, which would mean the implementation contradicts itself on the given
model.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import analyze, render_json, render_text
from .bundle import export_bundle_dot
from .cohomology import ObstructionSolver
from .corpus import corpus_names, corpus_text
from .documents import (
    canonical_json,
    document_from_triple,
    materialize,
    parse_model,
    print_model,
)
from .errors import ContextualityError, DocumentError, SelfCheckError
from .model import DEFAULT_SEARCH_BUDGET
from .pauli import is_avn_triple, generate_subgroup, parse_triple, triple_model, triple_scenario
from .rings import RingSpec, dense
from .scenario import Section, section_template
from .theory import is_avn, is_avn_at

BUDGET_VARIABLE = "CONTEXTUALITY_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_document(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DocumentError(f"cannot read {path}: {reason}") from None
    return parse_model(text)


def _parse_section_text(text: str) -> Section:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DocumentError(
                f"bad section fragment {part!r}; expected measurement=outcome"
            )
        m, _, o = part.partition("=")
        try:
            pairs.append((m.strip(), int(o)))
        except ValueError:
            raise DocumentError(f"outcome {o!r} is not an integer") from None
    if not pairs:
        raise DocumentError("empty section")
    return Section.of(pairs)


def _parse_context_text(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise DocumentError("empty context")
    return labels


def _resolve_budget(value: int | None) -> int:
    if value is not None:
        if value <= 0:
            raise DocumentError("budget must be positive")
        return value
    env = os.environ.get(BUDGET_VARIABLE)
    if env is not None:
        try:
            parsed = int(env)
        except ValueError:
            raise DocumentError(
                f"{BUDGET_VARIABLE}={env!r} is not an integer"
            ) from None
        if parsed <= 0:
            raise DocumentError(f"{BUDGET_VARIABLE} must be positive")
        return parsed
    return DEFAULT_SEARCH_BUDGET


def _cmd_analyze(args) -> int:
    doc = _read_document(args.file)
    rings = tuple(RingSpec.parse(r) for r in args.ring) if args.ring else None
    report = analyze(doc, rings=rings, budget=_resolve_budget(args.budget))
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return 0


def _family_texts(model, weights: dict[int, int]) -> list[str]:
    """str() of each context's combination in the compatible family with
    these weights by 0-cochain basis position, written from the supports'
    outcome tuples with one section template per context: terms ordered by
    their outcome tuples, as `FormalLinearCombination` orders them, and "0"
    for a context without weight."""
    texts = []
    start = 0
    for ci, ctx in enumerate(model.scenario.contexts):
        values = model.support_values(ci)
        terms = sorted((v, w) for k, v in enumerate(values, start) if (w := weights.get(k)))
        start += len(values)
        if not terms:
            texts.append("0")
            continue
        text = section_template(ctx).format
        texts.append(
            " + ".join(f"[{text(*v)}]" if w == 1 else f"{w}*[{text(*v)}]" for v, w in terms)
        )
    return texts


def _cmd_obstruction(args) -> int:
    doc = _read_document(args.file)
    model = materialize(doc)
    ring = RingSpec.parse(args.ring)
    context = _parse_context_text(args.context)
    section = _parse_section_text(args.section)
    solver = ObstructionSolver(model, ring)
    weights = solver.weights(context, section)
    family = None if weights is None else _family_texts(model, weights)
    if args.json:
        payload = {
            "context": list(context),
            "section": str(section),
            "ring": str(ring),
            "vanishes": family is not None,
            "family": (
                {" ".join(ctx): text for ctx, text in zip(model.scenario.contexts, family)}
                if family is not None
                else None
            ),
            "system": {
                "unknowns": solver.unknowns,
                "compatibility_rows": solver.compatibility_rows,
            },
        }
        sys.stdout.write(canonical_json(payload) + "\n")
        return 0
    word = "vanishes" if family is not None else "does not vanish"
    sys.stdout.write(
        f"obstruction of {section} at ({', '.join(context)}) over {ring}: {word}\n"
    )
    if family is not None:
        sys.stdout.write("compatible family of coefficients:\n")
        for ctx, text in zip(model.scenario.contexts, family):
            sys.stdout.write(f"  ({', '.join(ctx)}): {text}\n")
    return 0


def _cmd_avn(args) -> int:
    doc = _read_document(args.file)
    model = materialize(doc)
    ring = RingSpec.parse(args.ring)
    if args.at is not None:
        report = is_avn_at(model, _parse_section_text(args.at), ring)
    else:
        report = is_avn(model, ring)
    equations = report.equation_texts()
    if args.json:
        payload = {
            "ring": str(ring),
            "avn": report.avn,
            "at": str(report.fixed) if report.fixed is not None else None,
            "equations": equations,
            "solution": str(report.solution) if report.solution else None,
        }
        sys.stdout.write(canonical_json(payload) + "\n")
        return 0
    scope = f" fixing {report.fixed}" if report.fixed is not None else ""
    verdict = "yes" if report.avn else "no"
    sys.stdout.write(f"All-vs-Nothing over {ring}{scope}: {verdict}\n")
    sys.stdout.write(f"theory generators ({len(equations)}):\n")
    for text in equations:
        sys.stdout.write(f"  {text}\n")
    if report.solution is not None:
        sys.stdout.write(f"solution: {report.solution}\n")
    else:
        sys.stdout.write("no solution; reduced system:\n")
        width = len(model.scenario.measurements)
        for row in report.howell_rows:
            *coefficients, b = dense(row, width + 1)
            sys.stdout.write(f"  {coefficients} = {b}\n")
    return 0


def _cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_names():
            sys.stdout.write(name + "\n")
        return 0
    if args.name is None:
        raise _UsageError("corpus show needs an entry name")
    sys.stdout.write(corpus_text(args.name))
    return 0


def _cmd_bundle(args) -> int:
    doc = _read_document(args.file)
    dot = export_bundle_dot(materialize(doc))
    if args.output is None or args.output == "-":
        sys.stdout.write(dot)
    else:
        try:
            Path(args.output).write_text(dot, encoding="utf-8")
        except OSError as exc:
            raise ContextualityError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    return 0


def _cmd_stabiliser(args) -> int:
    e, f, g = parse_triple(args.triple)
    diagnosis = is_avn_triple(e, f, g)
    if args.emit_model:
        model = triple_model(e, f, g)
        doc = document_from_triple(
            (e, f, g), model.scenario, name=f"triple {e},{f},{g}"
        )
        sys.stdout.write(print_model(doc))
        return 0
    if args.json:
        payload = {
            "triple": [str(e), str(f), str(g)],
            "avn_triple": diagnosis.avn,
            "real_phases": diagnosis.real_phases,
            "commuting": diagnosis.commuting,
            "a1": diagnosis.a1_holds,
            "a2": diagnosis.a2_holds,
            "a2_count": diagnosis.a2_count,
            "failed": list(diagnosis.failed_conditions()),
            "subgroup_order": len(generate_subgroup((e, f, g)))
            if diagnosis.commuting
            else None,
        }
        sys.stdout.write(canonical_json(payload) + "\n")
        return 0
    verdict = "yes" if diagnosis.avn else "no"
    sys.stdout.write(f"AvN triple: {verdict}\n")
    if diagnosis.avn:
        subgroup = generate_subgroup((e, f, g))
        sys.stdout.write(f"generated subgroup order: {len(subgroup)}\n")
        scenario = triple_scenario(e, f, g)
        sys.stdout.write(
            f"scenario: {len(scenario.measurements)} measurements, "
            f"{len(scenario.contexts)} contexts\n"
        )
    else:
        for reason in diagnosis.failed_conditions():
            sys.stdout.write(f"  {reason}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contextuality",
        description="classify contextuality of empirical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full classification of a model document")
    p.add_argument("file", help="document path, or - for stdin")
    p.add_argument(
        "--ring",
        action="append",
        metavar="R",
        help="coefficient ring, z or zN; repeatable (default: the document's own)",
    )
    p.add_argument("--budget", type=int, help="search node budget of the LC/SC search")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("obstruction", help="vanishing of one section's obstruction")
    p.add_argument("file")
    p.add_argument("--context", required=True, metavar="C", help="e.g. a1,b1")
    p.add_argument("--section", required=True, metavar="S", help="e.g. a1=0,b1=0")
    p.add_argument("--ring", required=True, metavar="R", help="z or zN")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_obstruction)

    p = sub.add_parser("avn", help="All-vs-Nothing verdict over a finite ring")
    p.add_argument("file")
    p.add_argument("--ring", required=True, metavar="R")
    p.add_argument("--at", metavar="S", help="fix a supported section, e.g. a1=0,b1=0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_avn)

    p = sub.add_parser("corpus", help="list or show built-in models")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(run=_cmd_corpus)

    p = sub.add_parser("bundle", help="DOT rendering of the bundle picture")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="PATH", help="output path (default stdout)")
    p.set_defaults(run=_cmd_bundle)

    p = sub.add_parser("stabiliser", help="AvN triple diagnostics")
    p.add_argument("--triple", required=True, metavar="T", help='e.g. "XYY,YXY,YYX"')
    p.add_argument("--emit-model", action="store_true", help="print the model document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_stabiliser)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command. Repeated calls in one process share one parser: it
    holds no per-call state, since `prog` is fixed and the help width is
    read when help is printed."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except SelfCheckError as exc:
        sys.stderr.write(f"self-check failure: {exc}\n")
        return 2
    except (_UsageError, ContextualityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
