"""Set-up step of the benchmark: import the library from this checkout's
source tree, generate one workload's documents for a seed, check that each
round-trips through `parse_model` and `print_model` byte for byte, and
write the documents plus the operation list to a directory.

    python3 bench/make_inputs.py --workload corpus --seed 1 --out DIR

`run.py` runs this in a fresh process several times and reports the median
wall time as `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_source_tree():
    """Import `contextuality` from ROOT/src, refusing any other copy."""
    package = ROOT / "src" / "contextuality"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no library source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import contextuality

    if Path(contextuality.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported contextuality from {contextuality.__file__}, not {package}")
    return contextuality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    lib = use_source_tree()
    from workloads import build

    texts, ops = build(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    for stem, text in texts.items():
        if lib.print_model(lib.parse_model(text)) != text:
            raise SystemExit(f"{stem}: parse_model then print_model changed the document")
        (args.out / f"{stem}.json").write_text(text, encoding="utf-8")
    manifest = [
        {"key": op.key, "command": op.command, "doc": op.doc, "argv": op.argv, "expected": op.expected}
        for op in ops
    ]
    (args.out / "operations.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
