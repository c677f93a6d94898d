"""Golden digests of command-line outputs.

    PYTHONPATH=src python3 tests/golden.py [PATH]

runs every command below in-process through `contextuality.cli.main` and
writes, to PATH (default tests/golden.json next to this file), one entry
per command: the first 16 hex digits of the sha256 of its exit code,
stdout and stderr. `analyze` reports lose their timings first, the
`timings` key of `--json` and the `timings:` line of the text, since they
change from run to run.

The commands:
- at every supported section of every corpus entry: `obstruction` over
  Z2, Z3, Z4, Z6 and Z, and `avn --at` over Z2 and Z3, in text and JSON;
  `analyze` of every entry in text and JSON, and `bundle` of every entry;
- every operation of the four benchmark workloads at seed 1
  (`bench/workloads.py`, imported read-only);
- `analyze`, in text and JSON, of the liar-cycle payload documents of
  lengths 3, 5 and 6, and of the Pauli-triple document that
  `stabiliser --triple XYY,YXY,YYX --emit-model` prints;
- `analyze` of signalling documents, which exits 1 and names the first
  pair that disagrees: supports documents (random covers, and Groetzsch
  colourings with one perturbed support, whose vertices lie in three to
  five edge contexts) and probabilities documents (perturbed mixtures).

`test_golden.py` regenerates the digests and names every key that
differs. A change that alters an output on purpose regenerates the file
and says which keys changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden.json"
SEED = 1
SIGNALLING_DOCUMENTS = 20
LIAR_LENGTHS = (3, 5, 6)

_TIMINGS = re.compile(r',\n  "timings": \{[^}]*\}|^timings: .*\n', re.MULTILINE)


def digest(code: int, out: str, err: str) -> str:
    data = f"{code}\0{out}\0{err}".encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "analyze":
        text = _TIMINGS.sub("", text)
    return digest(code, text, err.getvalue())


def corpus_commands(lib):
    """(key, document stem, arguments after the file) of the corpus
    commands; the document stem is the corpus name."""
    for name in lib.corpus_names():
        model = lib.materialize(lib.corpus(name))
        yield f"bundle {name}", name, []
        for fmt in ("text", "json"):
            flag = ["--json"] if fmt == "json" else []
            yield f"analyze {name} {fmt}", name, flag
            for ci, ctx in enumerate(model.scenario.contexts):
                for j, s in enumerate(model.support(ci)):
                    where = [f"--context={','.join(ctx)}", f"--section={s}"]
                    for ring in ("z2", "z3", "z4", "z6", "z"):
                        yield f"obstruction {name} {ring} {ci} {j} {fmt}", name, [*where, "--ring", ring, *flag]
                    for ring in ("z2", "z3"):
                        yield f"avn {name} {ring} {ci} {j} {fmt}", name, ["--ring", ring, f"--at={s}", *flag]


def payload_texts(lib, main):
    """Key stem and text of the liar-cycle and Pauli-triple payload
    documents."""
    for n in LIAR_LENGTHS:
        yield f"liar-cycle-{n}", lib.print_model(lib.document_from_liar_cycle(n, name=f"liar-{n}"))
    out = io.StringIO()
    with redirect_stdout(out):
        main(["stabiliser", "--triple", "XYY,YXY,YYX", "--emit-model"])
    yield "ghz-triple", out.getvalue()


def signalling_texts(lib):
    """Key and text of each signalling document: supports first, then
    probabilities."""
    from test_model import perturbed_colourings, signalling_tables
    from test_probability_tables import document_text, mixture_rows, perturb, random_scenario

    models = signalling_tables(SIGNALLING_DOCUMENTS // 2, seed=SEED)
    models += perturbed_colourings(SIGNALLING_DOCUMENTS - len(models), seed=SEED)
    for k, model in enumerate(models):
        doc = lib.document_from_model(model, name=f"signalling-{k}")
        yield f"signalling supports {k}", lib.print_model(doc)
    rng = random.Random(SEED)
    found = 0
    while found < SIGNALLING_DOCUMENTS:
        scenario = random_scenario(rng)
        text = document_text(rng, scenario, perturb(rng, scenario, mixture_rows(rng, scenario)))
        try:
            lib.parse_model(text)
        except lib.SignallingError:
            yield f"signalling probabilities {found}", text
            found += 1


def digests() -> dict[str, str]:
    """The digest of every command, by key."""
    import contextuality as lib
    from contextuality.cli import main

    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, build

    found: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)

        def write(stem: str, text: str) -> str:
            path = where / f"{stem}.json"
            path.write_text(text, encoding="utf-8")
            return str(path)

        paths = {name: write(name, lib.corpus_text(name)) for name in lib.corpus_names()}
        for key, stem, argv in corpus_commands(lib):
            command, _, _ = key.partition(" ")
            found[key] = run(main, [command, paths[stem], *argv])
        for workload in WORKLOADS:
            texts, operations = build(workload, SEED)
            paths = {stem: write(f"{workload}-{stem}", text) for stem, text in texts.items()}
            for op in operations:
                found[f"{workload}: {op.key}"] = run(main, [op.command, paths[op.doc], *op.argv])
        for stem, text in payload_texts(lib, main):
            path = write(stem, text)
            for fmt, flag in (("text", []), ("json", ["--json"])):
                found[f"analyze {stem} {fmt}"] = run(main, ["analyze", path, *flag])
        for key, text in signalling_texts(lib):
            found[key] = run(main, ["analyze", write("signalling", text)])
    return found


def main(argv: list[str]) -> int:
    target = Path(argv[0]) if argv else GOLDEN
    target.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
