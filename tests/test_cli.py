"""Command-line behaviour: exit codes, output shapes, environment handling.

Everything goes through main(argv) in-process; stdout and stderr are
captured with capsys, documents are written to tmp_path.
"""

from __future__ import annotations

import io
import json

import pytest

from contextuality import (
    ContextualityError,
    ObstructionSolver,
    RingSpec,
    SelfCheckError,
    corpus_names,
    corpus_text,
    document_from_model,
    ghz_model,
    materialize,
    parse_model,
    print_model,
)
from contextuality.cli import BUDGET_VARIABLE, main
import contextuality.cli as cli_module


@pytest.fixture
def pr_path(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(corpus_text("pr-box"), encoding="utf-8")
    return str(path)


@pytest.fixture
def hardy_path(tmp_path):
    path = tmp_path / "hardy.json"
    path.write_text(corpus_text("hardy"), encoding="utf-8")
    return str(path)


def test_analyze_text_output(pr_path, capsys):
    assert main(["analyze", pr_path]) == 0
    out = capsys.readouterr().out
    assert "no-signalling: yes" in out
    assert "hierarchy self-check: passed" in out
    assert "ring Z2:" in out


def test_analyze_json_output(pr_path, capsys):
    assert main(["analyze", pr_path, "--json", "--ring", "z2", "--ring", "z3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "pr-box"
    assert payload["hierarchy"] == "ok"
    by_ring = {entry["ring"]: entry for entry in payload["rings"]}
    assert set(by_ring) == {"Z2", "Z3", "Z"}
    assert by_ring["Z2"]["avn"] is True


def test_analyze_reads_stdin(pr_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(corpus_text("pr-box")))
    assert main(["analyze", "-"]) == 0
    assert "strongly contextual (SC): yes" in capsys.readouterr().out


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot read" in err


def test_malformed_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_ring_is_an_input_error(pr_path, capsys):
    assert main(["analyze", pr_path, "--ring", "q7"]) == 1
    assert "unrecognised ring" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["corpus", "delete"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli_module.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli_module, "_PARSER", None, raising=False)
    monkeypatch.setattr(cli_module, "build_parser", counted)
    for _ in range(3):
        assert main(["corpus", "list"]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.split() == list(corpus_names()) * 3


def test_repeated_calls_share_no_state(pr_path, capsys):
    assert main(["analyze", pr_path, "--json", "--ring", "z4", "--ring", "z6"]) == 0
    rings = [entry["ring"] for entry in json.loads(capsys.readouterr().out)["rings"]]
    assert rings == ["Z4", "Z6", "Z"]
    assert main(["analyze", pr_path, "--json"]) == 0
    rings = [entry["ring"] for entry in json.loads(capsys.readouterr().out)["rings"]]
    assert rings == ["Z2", "Z"]

    assert main(["analyze"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["corpus", "show", "pr-box"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (corpus_text("pr-box"), "")


def test_self_check_failure_exits_two(pr_path, capsys, monkeypatch):
    def explode(doc, rings=None, budget=None):
        raise SelfCheckError("hierarchy violation: forced")

    monkeypatch.setattr(cli_module, "analyze", explode)
    assert main(["analyze", pr_path]) == 2
    assert "self-check failure" in capsys.readouterr().err


def test_budget_flag_must_be_positive(pr_path, capsys):
    assert main(["analyze", pr_path, "--budget", "-3"]) == 1
    assert "positive" in capsys.readouterr().err


def test_budget_environment_variable(pr_path, capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_VARIABLE, "nope")
    assert main(["analyze", pr_path]) == 1
    assert "not an integer" in capsys.readouterr().err

    monkeypatch.setenv(BUDGET_VARIABLE, "0")
    assert main(["analyze", pr_path]) == 1
    assert "positive" in capsys.readouterr().err

    monkeypatch.setenv(BUDGET_VARIABLE, "50000")
    assert main(["analyze", pr_path]) == 0
    capsys.readouterr()


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert tuple(out.split()) == corpus_names()


def test_corpus_show_round_trips(capsys):
    assert main(["corpus", "show", "ghz-mermin"]) == 0
    assert capsys.readouterr().out == corpus_text("ghz-mermin")


def test_corpus_show_errors(capsys):
    assert main(["corpus", "show"]) == 1
    assert "needs an entry name" in capsys.readouterr().err
    assert main(["corpus", "show", "nonesuch"]) == 1
    assert "error:" in capsys.readouterr().err


def test_avn_text_and_json(pr_path, capsys):
    assert main(["avn", pr_path, "--ring", "z2"]) == 0
    out = capsys.readouterr().out
    assert "All-vs-Nothing over Z2: yes" in out
    assert "theory generators (4):" in out

    assert main(["avn", pr_path, "--ring", "z2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avn"] is True
    assert payload["solution"] is None
    assert len(payload["equations"]) == 4


def test_avn_at_unsupported_section(pr_path, capsys):
    assert main(["avn", pr_path, "--ring", "z2", "--at", "a1=0,b1=1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_avn_bad_section_text(pr_path, capsys):
    assert main(["avn", pr_path, "--ring", "z2", "--at", "a1:0"]) == 1
    assert "bad section fragment" in capsys.readouterr().err


UNSOLVABLE_TEXTS = {
    ("pr-box", "z2", None): """\
All-vs-Nothing over Z2: yes
theory generators (4):
  a1 + b1 = 0 (mod 2)
  a1 + b2 = 0 (mod 2)
  a2 + b1 = 0 (mod 2)
  a2 + b2 = 1 (mod 2)
no solution; reduced system:
  [1, 0, 1, 0] = 0
  [0, 1, 1, 0] = 0
  [0, 0, 1, 1] = 0
  [0, 0, 0, 0] = 1
""",
    ("ghz-mermin", "z2", None): """\
All-vs-Nothing over Z2: yes
theory generators (4):
  X1 + X2 + X3 = 1 (mod 2)
  X1 + Y2 + Y3 = 0 (mod 2)
  Y1 + X2 + Y3 = 0 (mod 2)
  Y1 + Y2 + X3 = 0 (mod 2)
no solution; reduced system:
  [1, 0, 1, 0, 1, 0] = 1
  [0, 1, 1, 0, 0, 1] = 0
  [0, 0, 1, 1, 1, 1] = 1
  [0, 0, 0, 0, 0, 0] = 1
""",
    ("box-25", "z3", None): """\
All-vs-Nothing over Z3: yes
theory generators (8):
  2*a0 + b0 = 0 (mod 3)
  2*a0 + b0 = 0 (mod 3)
  2*a0 + 2*b1 + 2*c0 = 1 (mod 3)
  2*a0 + 2*b1 + 2*c1 = 1 (mod 3)
  2*a1 + c0 = 0 (mod 3)
  2*a1 + 2*b0 + 2*c1 = 1 (mod 3)
  2*a1 + c0 = 0 (mod 3)
  2*a1 + 2*b1 + 2*c1 = 1 (mod 3)
no solution; reduced system:
  [1, 0, 2, 0, 0, 0] = 0
  [0, 1, 0, 0, 2, 0] = 0
  [0, 0, 1, 1, 1, 0] = 2
  [0, 0, 0, 1, 0, 2] = 0
  [0, 0, 0, 0, 1, 2] = 0
  [0, 0, 0, 0, 0, 0] = 1
""",
    ("pr-box", "z2", "a1=0,b1=0"): """\
All-vs-Nothing over Z2 fixing a1=0,b1=0: yes
theory generators (4):
  a1 + b1 = 0 (mod 2)
  a1 + b2 = 0 (mod 2)
  a2 + b1 = 0 (mod 2)
  a2 + b2 = 1 (mod 2)
no solution; reduced system:
  [1, 0, 1, 0] = 0
  [0, 1, 1, 0] = 0
  [0, 0, 1, 1] = 0
  [0, 0, 0, 1] = 0
  [0, 0, 0, 0] = 1
""",
}


@pytest.mark.parametrize("name, ring, at", sorted(UNSOLVABLE_TEXTS, key=str))
def test_avn_text_prints_the_unsolvable_certificate(name, ring, at, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(corpus_text(name), encoding="utf-8")
    argv = ["avn", str(path), "--ring", ring] + ([] if at is None else [f"--at={at}"])
    assert main(argv) == 0
    assert capsys.readouterr().out == UNSOLVABLE_TEXTS[name, ring, at]


def test_analyze_text_counts_the_reduced_rows(pr_path, capsys):
    assert main(["analyze", pr_path, "--ring", "z2"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert "".join(line for line in lines if not line.startswith("timings: ")) == """\
pr-box  (sha256 9caa9b10b232)
scenario: 4 measurements, 4 contexts, alphabet {0, 1}; payload supports
no-signalling: yes
logically contextual (LC): yes (AvN over Z2)
  non-extending: a1=0,b1=0 at (a1, b1), a1=1,b1=1 at (a1, b1), a1=0,b2=0 at (a1, b2), \
a1=1,b2=1 at (a1, b2) and 4 more
strongly contextual (SC): yes (AvN over Z2)
ring Z2:
  AvN: yes (unsolvable; 4 reduced rows)
  SC of affine closure: yes
  obstructions: 8 of 8 non-vanishing (system 8 unknowns, 8 compatibility rows); CLC yes, CSC yes
ring Z:
  AvN: skipped (All-vs-Nothing needs a finite ring)
  SC of affine closure: skipped (All-vs-Nothing needs a finite ring)
  obstructions: 8 of 8 non-vanishing (system 8 unknowns, 8 compatibility rows); CLC yes, CSC yes
hierarchy self-check: passed
search nodes: 0 (budget 2000000)
"""


def test_obstruction_vanishing_family(hardy_path, capsys):
    argv = [
        "obstruction", hardy_path,
        "--context", "a1,b1", "--section", "a1=0,b1=0", "--ring", "z",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "over Z: vanishes" in out
    assert "compatible family of coefficients:" in out

    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vanishes"] is True
    assert payload["family"] is not None
    assert payload["system"]["unknowns"] > 0


def test_obstruction_non_vanishing(pr_path, capsys):
    argv = [
        "obstruction", pr_path,
        "--context", "a1,b1", "--section", "a1=0,b1=0", "--ring", "z2",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "does not vanish" in out
    assert "compatible family" not in out


@pytest.mark.parametrize(
    "context, section",
    [
        ("a1,b1", "a1=0,b1=1"),
        ("b1,a1", "a1=0,b1=1"),
        ("a1,a2", "a1=0,a2=0"),
        ("a1,b3", "a1=0,b3=0"),
    ],
)
def test_obstruction_query_errors_exit_one(pr_path, context, section, capsys):
    # a section outside its context's support, and a context outside the
    # cover, each end in the library's own message and no traceback
    solver = ObstructionSolver(materialize(parse_model(corpus_text("pr-box"))), RingSpec(2))
    with pytest.raises(ContextualityError) as raised:
        solver.vanishes(context.split(","), cli_module._parse_section_text(section))
    argv = ["obstruction", pr_path, "--context", context, "--section", section, "--ring", "z2"]
    for extra in ([], ["--json"]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {raised.value}\n")


def _avn_text_equations(out: str) -> list[str]:
    """The equations that `avn` lists in text mode, after their count."""
    lines = out.splitlines()
    head = next(k for k, line in enumerate(lines) if line.startswith("theory generators ("))
    count = int(lines[head].removeprefix("theory generators (").removesuffix("):"))
    listed = lines[head + 1 : head + 1 + count]
    assert all(line.startswith("  ") for line in listed)
    assert head + 1 + count == len(lines) or not lines[head + 1 + count].startswith("  ")
    return [line[2:] for line in listed]


def test_avn_at_text_lists_the_json_equations(tmp_path, capsys):
    seen = set()
    for name in corpus_names():
        path = tmp_path / f"{name}.json"
        path.write_text(corpus_text(name), encoding="utf-8")
        model = materialize(parse_model(corpus_text(name)))
        for ring in ("z2", "z3"):
            for ci in range(len(model.scenario.contexts)):
                at = ",".join(f"{m}={o}" for m, o in model.support(ci)[0].items)
                argv = ["avn", str(path), "--ring", ring, f"--at={at}"]
                assert main(argv + ["--json"]) == 0
                payload = json.loads(capsys.readouterr().out)
                assert main(argv) == 0
                assert _avn_text_equations(capsys.readouterr().out) == payload["equations"]
                seen.add((payload["avn"], payload["solution"] is None))
    assert seen == {(True, True), (False, False)}


def test_bundle_to_stdout_and_file(pr_path, tmp_path, capsys):
    assert main(["bundle", pr_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph bundle {")

    target = tmp_path / "pr.dot"
    assert main(["bundle", pr_path, "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


def test_stabiliser_verdicts(capsys):
    assert main(["stabiliser", "--triple", "XYY,YXY,YYX"]) == 0
    out = capsys.readouterr().out
    assert "AvN triple: yes" in out
    assert "generated subgroup order: 8" in out

    assert main(["stabiliser", "--triple", "XXX,YYY,ZZZ"]) == 0
    out = capsys.readouterr().out
    assert "AvN triple: no" in out
    assert "do not commute" in out


def test_stabiliser_json(capsys):
    assert main(["stabiliser", "--triple", "XYY,YXY,YYX", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avn_triple"] is True
    assert payload["a2_count"] == 1
    assert payload["subgroup_order"] == 8
    assert payload["failed"] == []


def test_stabiliser_emit_model_is_a_document(capsys):
    assert main(["stabiliser", "--triple", "XYY,YXY,YYX", "--emit-model"]) == 0
    doc = parse_model(capsys.readouterr().out)
    model = materialize(doc)
    assert sorted(len(s) for s in model.supports) == [4, 4, 4, 4, 8, 8, 8, 8]


def test_stabiliser_emitted_document_analyses_as_the_ghz_model(tmp_path, capsys):
    assert main(["stabiliser", "--triple", "XYY,YXY,YYX", "--emit-model"]) == 0
    triple = tmp_path / "triple.json"
    triple.write_text(capsys.readouterr().out, encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(print_model(document_from_model(ghz_model())), encoding="utf-8")
    assert main(["analyze", str(triple)]) == 0
    assert "strongly contextual (SC): yes (AvN over Z2)\n" in capsys.readouterr().out
    reports = []
    for path in (triple, model):
        assert main(["analyze", str(path), "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [entry["ring"] for entry in reports[0]["rings"]] == ["Z2", "Z"]
    # the payload, its name and its hash, and the timings are all that differ
    for report in reports:
        for key in ("name", "payload", "sha256", "timings"):
            del report[key]
    assert reports[0] == reports[1]


def test_triple_document_with_another_scenario_is_an_input_error(tmp_path, capsys):
    assert main(["stabiliser", "--triple", "XYY,YXY,YYX", "--emit-model"]) == 0
    document = json.loads(capsys.readouterr().out)
    document["scenario"] = {"measurements": ["a", "b"], "contexts": [["a", "b"]], "outcomes": [0, 1]}
    path = tmp_path / "mismatched.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: $.scenario: declared scenario does not match the Pauli triple\n"
    )


def test_stabiliser_malformed_triple(capsys):
    assert main(["stabiliser", "--triple", "XY"]) == 1
    assert "error:" in capsys.readouterr().err


def test_document_missing_a_field_is_an_input_error(tmp_path, capsys):
    document = json.loads(corpus_text("pr-box"))
    del document["scenario"]["outcomes"]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: $.scenario: missing field 'outcomes'\n"


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_documents_the_reader_cannot_decode_are_input_errors(tmp_path, capsys):
    name = json.loads(corpus_text("pr-box"))
    name["name"] = "\ud800"
    label = json.loads(corpus_text("pr-box"))
    label["scenario"]["measurements"][1] = "\ud800"
    cases = {
        "deep": ("[" * 100_000 + "]" * 100_000, "error: invalid JSON: maximum recursion depth exceeded"),
        "name": (json.dumps(name), "error: $.name: a string with a lone surrogate"),
        "label": (json.dumps(label), "error: $.scenario.measurements[1]: a string with a lone surrogate"),
    }
    for stem, (text, expected) in cases.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert one_error_line(capsys).startswith(expected)


def test_a_key_that_utf8_cannot_encode_is_an_input_error(tmp_path, capsys):
    # a lone surrogate as a key, at each site that writes a member path
    top = json.loads(corpus_text("pr-box"))
    top["\ud800"] = 0
    scenario = json.loads(corpus_text("pr-box"))
    scenario["scenario"]["\ud800"] = 0
    section = json.loads(corpus_text("pr-box"))
    section["supports"][0][0]["\ud800"] = 0
    coefficient = json.loads(corpus_text("ghz-mermin"))
    coefficient["theory"]["equations"][0]["coefficients"]["\ud800"] = 1
    cases = {
        "top": (top, "error: $.\\ud800: unknown field '\\ud800'\n"),
        "scenario": (scenario, "error: $.scenario.\\ud800: unknown field '\\ud800'\n"),
        "section": (section, "error: $.supports[0][0].\\ud800: '\\ud800' is not a measurement"),
        "coefficient": (coefficient, "error: $.theory.equations[0].coefficients.\\ud800: '\\ud800' is not"),
    }
    for stem, (document, expected) in cases.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert one_error_line(capsys).startswith(expected), stem


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff")
    assert main(["analyze", str(path)]) == 1
    assert one_error_line(capsys) == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize("ring", ["z\u00b2", "z\u2460", "z" + "9" * 5000], ids=["superscript", "circled", "long"])
def test_a_ring_int_cannot_read_is_an_input_error(ring, pr_path, capsys):
    for argv in (
        ["analyze", pr_path, "--ring", ring],
        ["avn", pr_path, "--ring", ring],
        ["obstruction", pr_path, "--context", "a1,b1", "--section", "a1=0,b1=0", "--ring", ring],
    ):
        assert main(argv) == 1
        assert one_error_line(capsys).startswith("error: unrecognised ring"), argv


def test_bundle_into_a_missing_directory_is_an_output_error(pr_path, tmp_path, capsys):
    target = tmp_path / "missing" / "pr.dot"
    assert main(["bundle", pr_path, "-o", str(target)]) == 1
    assert one_error_line(capsys) == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()
