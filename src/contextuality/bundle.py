"""DOT rendering of a model's bundle picture.

The base carries one vertex per measurement and one edge per co-measurable
pair; above each measurement sits its fibre of outcomes, and two fibre
vertices are joined exactly when the pair of outcomes is supported jointly.
Contexts with more than two measurements cannot be drawn as base edges, so
they are emitted as annotations and only their pairwise traces appear.
Output is deterministic: declaration order for measurements and outcomes,
lexicographic order elsewhere.
"""

from __future__ import annotations

from .model import EmpiricalModel


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_bundle_dot(model: EmpiricalModel) -> str:
    scn = model.scenario
    index = {m: i for i, m in enumerate(scn.measurements)}

    # each co-measurable pair, in declared order as contexts store their
    # measurements, with the first context that contains it
    containing: dict[tuple[str, str], int] = {}
    for ci, ctx in enumerate(scn.contexts):
        for i, a in enumerate(ctx):
            for b in ctx[i + 1 :]:
                containing.setdefault((a, b), ci)
    pairs = sorted(containing, key=lambda p: (index[p[0]], index[p[1]]))

    lines = ["graph bundle {"]
    wide = [ctx for ctx in scn.contexts if len(ctx) > 2]
    for ctx in wide:
        lines.append(
            f"  // context {{{', '.join(ctx)}}} has more than two measurements; "
            "only its pairwise traces are drawn"
        )
    lines.append("  node [fontsize=10];")

    lines.append("  subgraph cluster_base {")
    lines.append('    label="base";')
    lines.append("    node [shape=plaintext];")
    for m in scn.measurements:
        lines.append(f"    {_quote('base/' + m)} [label={_quote(m)}];")
    for a, b in pairs:
        lines.append(f"    {_quote('base/' + a)} -- {_quote('base/' + b)};")
    lines.append("  }")

    lines.append("  subgraph cluster_fibres {")
    lines.append('    label="outcome fibres";')
    lines.append("    node [shape=circle];")
    for m in scn.measurements:
        for o in scn.outcomes:
            lines.append(f"    {_quote(f'{m}:{o}')} [label={_quote(f'{m}:{o}')}];")
    for pair in pairs:
        # the pair is in declared order, as are its outcome tuples
        a, b = pair
        for x, y in model.restricted_values(containing[pair], pair):
            lines.append(f"    {_quote(f'{a}:{x}')} -- {_quote(f'{b}:{y}')};")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
