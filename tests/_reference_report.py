"""The JSON object of an analysis report, built as a plain dict, as the
reference for `render_json`, which writes the same object from templates.

The non-extending sections are read through `Section`s (`with_sections`),
so the reference shares neither the section templates nor the block writer
with the renderer. `reference_json` is the text `render_json` must print.
"""

import json

from conftest import with_sections


def reference_report(report) -> dict:
    cls = report.classification
    flags = with_sections(report.model, cls.extends)
    return {
        "name": report.name,
        "sha256": report.sha256,
        "payload": report.payload_kind,
        "measurements": list(report.model.scenario.measurements),
        "contexts": [list(c) for c in report.model.scenario.contexts],
        "no_signalling": report.no_signalling,
        "logically_contextual": cls.logically_contextual,
        "strongly_contextual": cls.strongly_contextual,
        "global_section": str(cls.global_section) if cls.global_section else None,
        "non_extending": [
            {"context": list(ctx), "section": str(s)}
            for _, ctx, s, extends in flags
            if extends is False
        ],
        "rings": [
            {
                "ring": str(entry.ring),
                "avn": entry.avn,
                "avn_skipped": entry.avn_skipped,
                "avn_solution": (
                    str(entry.avn_report.solution)
                    if entry.avn_report and entry.avn_report.solution is not None
                    else None
                ),
                "aff_sc": entry.avn,
                "aff_skipped": entry.avn_skipped,
                "clc": entry.obstructions.clc,
                "csc": entry.obstructions.csc,
                "non_vanishing": entry.obstructions.vanishes.count(False),
                "sections": len(entry.obstructions.vanishes),
                "system": {
                    "unknowns": entry.obstructions.unknowns,
                    "compatibility_rows": entry.obstructions.compatibility_rows,
                },
            }
            for entry in report.rings
        ],
        "budget": report.budget,
        "decided_by": {"lc": report.lc_decided_by, "sc": report.sc_decided_by},
        "nodes": cls.nodes_used,
        "timings": {t.stage: t.seconds for t in report.timings},
        "hierarchy": "ok",
    }


def reference_json(report) -> str:
    """The text of the reference object, as `analyze --json` prints it."""
    return json.dumps(reference_report(report), indent=2, sort_keys=True) + "\n"
