"""Command-line surface: subcommands, formats, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from ladderrep import (
    Segment,
    StandardModule,
    TableRow,
    TemperedParam,
    TemperedPiece,
    cli,
    is_zero,
    jsonio,
    render,
    sigma_table,
)
from ladderrep.cli import main
from ladderrep.render import render_table

from helpers import golden_data, golden_datum, reference_assemble, reference_sigmas, unipotent

DATUM = {"group": "Sp", "X": ["0", "1", "2"], "l": 1, "eta": 1}
BAD_ETA = {"group": "Sp", "X": ["0", "1", "2"], "l": 1, "eta": -1}
TWO_BLOCKS = {
    "group": "Sp",
    "blocks": [
        {"rho": {"id": "a", "d": 1, "parity": "integral"}, "X": ["0", "1", "2"], "l": 1, "eta": 1},
        {
            "rho": {"id": "b", "d": 2, "parity": "half-integral"},
            "X": ["1/2", "3/2", "5/2"],
            "l": 1,
            "eta": 1,
        },
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_inline(capsys):
    code, out, _ = run_cli(capsys, "validate", json.dumps(DATUM))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["rank"] == 4
    assert data["datum"]["blocks"][0]["X"] == ["0", "1", "2"]


def test_validate_file_and_expect_rank(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(DATUM))
    code, out, _ = run_cli(capsys, "validate", str(path), "--expect-rank", "4")
    assert code == 0
    code, _, err = run_cli(capsys, "validate", str(path), "--expect-rank", "5")
    assert code == 1 and "rank-mismatch" in err


def test_validate_bad_eta_names_clause(capsys):
    code, _, err = run_cli(capsys, "validate", json.dumps(BAD_ETA))
    assert code == 1
    assert "global-sign" in err


def _ladder(group, xs, l, eta):
    return {"group": group, "X": xs, "l": l, "eta": eta}


@pytest.mark.parametrize(
    "data, message",
    [
        (
            _ladder("Sp", ["0", "1", "1/2"], 0, -1),
            "[parity] block '1': exponent 1/2 lies outside the label's parity class",
        ),
        (_ladder("Sp", ["1", "0", "2"], 0, -1), "[ordering] block '1': exponents must strictly increase"),
        (_ladder("Sp", ["0", "1"], 2, -1), "[l-range] block '1': need 0 <= 2l <= t, got l=2, t=2"),
        (
            _ladder("Sp", ["-3", "0", "2"], 1, 1),
            "[pairing-positivity] block '1': x_1 + x_3 = -3 + 2 < 0",
        ),
        (
            _ladder("Sp", ["-5/2", "-3/2", "7/2"], 1, 1),
            "[middle-positivity] block '1': middle exponent x_2 = -3/2 < -1/2",
        ),
        (_ladder("Sp", ["-1/2", "3/2"], 0, -1), "[eta-forcing] block '1': eta is forced to +1 here"),
        (
            _ladder("Sp", ["-1", "4"], 1, 1),
            "[eta-forcing] block '1': eta is forced to -1 when 2l = t",
        ),
        (BAD_ETA, "[global-sign]: sign product over blocks is -1"),
        (
            _ladder("SOodd", ["0", "1", "2"], 1, 1),
            "[dimension]: total dimension 9 has the wrong parity for SOodd",
        ),
        (
            {"group": "Sp", "blocks": [TWO_BLOCKS["blocks"][0], TWO_BLOCKS["blocks"][0]]},
            "[duplicate-label]: labels must be distinct",
        ),
    ],
)
def test_validate_pins_each_clause_message(capsys, data, message):
    code, out, err = run_cli(capsys, "validate", json.dumps(data))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run_cli(capsys, "validate", str(path))[0] == 2
    assert run_cli(capsys, "validate", json.dumps({"group": "??"}))[0] == 2
    assert run_cli(capsys, "validate", str(tmp_path / "missing.json"))[0] == 2


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"group": "Sp", "X": ["0", "1", "2"], "l": 1, "eta": "\xff"}', "'utf-8' codec can't"),
        (b'{"group": "Sp", "X": [' + b"9" * 5000 + b'], "l": 0, "eta": 1}', "4300 digits"),
        (b"[" * 100_000, "JSON nested too deeply"),
    ],
    ids=["not-utf8", "integer-over-digit-limit", "nested-too-deeply"],
)
def test_undecodable_input_is_an_input_error(capsys, monkeypatch, tmp_path, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == "" and err.startswith("input error:") and message in err
    for errors in ("strict", "surrogateescape"):  # stdin under a UTF-8 and under a C locale
        stdin = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, "validate", "-")
        assert code == 2 and out == "" and err.startswith("input error:") and message in err


@pytest.mark.parametrize(
    "field, value",
    [("eta", 1.0), ("eta", True), ("l", True), ("X", None), ("X", "012")],
)
def test_validate_rejects_mistyped_fields(capsys, field, value):
    code, out, err = run_cli(capsys, "validate", json.dumps(dict(DATUM, **{field: value})))
    assert code == 2 and out == "" and err.startswith("input error:")


def test_validate_rejects_non_list_blocks(capsys):
    code, _, err = run_cli(capsys, "validate", json.dumps({"group": "Sp", "blocks": None}))
    assert code == 2 and "'blocks' must be a list" in err
    label = {"id": "1", "d": True, "parity": "integral"}
    block = {"rho": label, "X": ["0", "1", "2"], "l": 1, "eta": 1}
    assert run_cli(capsys, "validate", json.dumps({"group": "Sp", "blocks": [block]}))[0] == 2


def test_validate_rejects_non_canonical_fractions(capsys):
    # "2/2" and "4/2" name integers; only an odd numerator may stand over 2
    for x in (["0", "2/2", "4/2"], ["0", "1", "4/2"], ["0/2", "1", "2"]):
        code, out, err = run_cli(capsys, "validate", json.dumps(dict(DATUM, X=x)))
        assert code == 2 and out == "" and "bad fraction string" in err, x
    half = {"group": "SOodd", "X": ["1/2", "3/2"], "l": 1, "eta": -1}
    assert run_cli(capsys, "validate", json.dumps(half))[0] == 0


@pytest.mark.parametrize("x", ["1_0", "1_1/2", "\u0663", " 3 /2"])
def test_validate_rejects_non_ascii_decimal_exponents(capsys, x):
    # int() would read these as 10, 11/2, 3 and 3/2
    code, out, err = run_cli(capsys, "validate", json.dumps(dict(DATUM, X=["0", "1", x])))
    assert code == 2 and out == "" and err.startswith("input error:") and "bad fraction string" in err


@pytest.mark.parametrize("text", ["[1]", " [1]", "[]", '[{"group": "Sp"}]'])
def test_inline_json_array_is_not_a_path(capsys, tmp_path, text):
    code, out, err = run_cli(capsys, "validate", text)
    assert code == 2 and out == "" and err == "input error: datum: expected a JSON object\n"
    code, _, err = run_cli(capsys, "gl-det-formula", text)
    assert code == 2 and err == "input error: ladder: expected a JSON object\n"
    path = tmp_path / "list.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "det-formula", str(path))
    assert code == 2 and err == "input error: datum: expected a JSON object\n"


@pytest.mark.parametrize("ident", [None, True, 1, [], {}], ids=["null", "true", "1", "list", "object"])
def test_label_id_must_be_a_string(capsys, ident):
    # str() would read these as the labels "None", "True", "1", "[]" and "{}"
    label = {"id": ident, "d": 1, "parity": "integral"}
    block = {"rho": label, "X": ["0", "1", "2"], "l": 1, "eta": 1}
    code, out, err = run_cli(capsys, "validate", json.dumps({"group": "Sp", "blocks": [block]}))
    assert code == 2 and out == "" and err == "input error: label: id must be a string\n"
    ladder = {"rho": label, "segments": [["0", "0"], ["1", "1"]]}
    code, out, err = run_cli(capsys, "gl-det-formula", json.dumps(ladder))
    assert code == 2 and out == "" and err == "input error: label: id must be a string\n"
    block["rho"] = dict(label, id="1")
    assert run_cli(capsys, "validate", json.dumps({"group": "Sp", "blocks": [block]}))[0] == 0


@pytest.mark.parametrize("eta, expected", [("+", 0), ("+1", 0), ("-", 1), ("-1", 1)])
def test_validate_accepts_sign_strings(capsys, eta, expected):
    # eta -1 violates the global-sign clause for this X and l: a domain error
    assert run_cli(capsys, "validate", json.dumps(dict(DATUM, eta=eta)))[0] == expected


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DATUM)))
    code, out, _ = run_cli(capsys, "validate", "-")
    assert code == 0 and json.loads(out)["rank"] == 4


def test_graph_ascii_and_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", json.dumps(DATUM))
    assert code == 0 and out.splitlines()[1].startswith("x:")
    code, out, _ = run_cli(capsys, "graph", json.dumps(DATUM), "--format", "dot")
    assert code == 0 and out.startswith("digraph") and "->" in out


def test_graph_dot_escapes_the_label_id(capsys):
    label = 'a"b\\'
    rho = {"id": label, "d": 1, "parity": "integral"}
    datum = {"group": "Sp", "blocks": [{"rho": rho, "X": ["0", "1", "2"], "l": 1, "eta": 1}]}
    code, out, _ = run_cli(capsys, "graph", json.dumps(datum), "--format", "dot")
    assert code == 0
    header = out.splitlines()[0]
    assert header == 'digraph "a\\"b\\\\" {'
    # the quoted id is one DOT string that reads back to the label id
    quoted = re.fullmatch(r'digraph "((?:[^"\\]|\\.)*)" \{', header)
    assert quoted and re.sub(r"\\(.)", r"\1", quoted.group(1)) == label


def test_derivative_command(capsys):
    code, out, _ = run_cli(capsys, "derivative", json.dumps(DATUM), "--x", "0")
    assert code == 0
    data = json.loads(out)
    assert data["zero"] is False
    assert data["datum"]["blocks"][0]["X"] == ["-1", "1", "2"]
    code, out, _ = run_cli(capsys, "derivative", json.dumps(DATUM), "--x", "1")
    assert json.loads(out) == {"zero": True}
    for bad in ("abc", "1/3"):
        code, _, err = run_cli(capsys, "derivative", json.dumps(DATUM), "--x", bad)
        assert code == 2 and "--x" in err


def test_supp_command(capsys):
    code, out, _ = run_cli(capsys, "supp", json.dumps(DATUM))
    data = json.loads(out)
    assert data["exponents"]["1"] == ["-2", "-1", "-1", "0", "0", "1", "1", "2"]
    assert data["core"]["blocks"][0]["X"] == ["0"]


def test_jacquet_command_full_level(capsys):
    code, out, _ = run_cli(capsys, "jacquet", json.dumps(DATUM), "--k", "4")
    data = json.loads(out)
    assert len(data["terms"]) == 2
    assert all(t["datum"]["blocks"][0]["X"] == ["0"] for t in data["terms"])


def test_aubert_command(capsys):
    datum = {"group": "Sp", "X": ["0", "1", "4"], "l": 1, "eta": 1}
    code, out, _ = run_cli(capsys, "aubert", json.dumps(datum))
    data = json.loads(out)
    assert data["datum"]["blocks"][0]["X"] == ["-4", "-3", "0", "1", "2", "3", "4"]
    assert data["datum"]["blocks"][0]["l"] == 3
    segs = [(s["x"], s["y"]) for s in data["langlands"]["segments"]]
    assert segs == [("-4", "-4"), ("-3", "-3"), ("0", "-2")]


def test_det_formula_json(capsys):
    code, out, _ = run_cli(capsys, "det-formula", json.dumps(DATUM))
    data = json.loads(out)
    assert len(data["terms"]) == 6
    assert sorted({t["coefficient"] for t in data["terms"]}) == [-1, 1]


def test_det_formula_table_and_text(capsys):
    code, out, _ = run_cli(capsys, "det-formula", json.dumps(DATUM), "--format", "table")
    assert len(out.splitlines()) == 7  # header + six rows
    code, out, _ = run_cli(capsys, "det-formula", json.dumps(DATUM), "--format", "text")
    assert "Δ[0,-2]⋊π(1^+)" in out


def test_det_formula_table_matches_reference_rows(capsys, corpus, small_data):
    # the table prints every permutation tuple's surviving summands, as the
    # object-level reference assembles them, over the reference's tuples
    golden = [golden_datum(data) for data in golden_data()]
    two_blocks = empty_rows = 0
    for d in golden + corpus[::12] + small_data:
        rows = [
            TableRow(sigma, tuple(m for m in reference_assemble(d, sigma) if not is_zero(m)))
            for sigma in reference_sigmas(d)
        ]
        datum = json.dumps(jsonio.datum_to_json(d))
        code, out, err = run_cli(capsys, "det-formula", datum, "--format", "table")
        assert code == 0, err
        assert out == render_table(rows) + "\n"
        two_blocks += len(d.blocks) == 2
        empty_rows += sum(not row.summands for row in rows)
    assert two_blocks and empty_rows


def test_render_table_renders_each_distinct_module_once(monkeypatch):
    # sigma_table shares one module per distinct summand key
    rendered = []
    render_module = render.render_module

    def counting(m):
        rendered.append(m)
        return render_module(m)

    monkeypatch.setattr(render, "render_module", counting)
    for d in (unipotent(range(6), 1, 1), jsonio.datum_from_json(TWO_BLOCKS)):
        rendered.clear()
        rows = sigma_table(d)
        modules = [m for row in rows for m in row.summands]
        render_table(rows)
        assert len(modules) > len({id(m) for m in modules}) == len(rendered)


def test_det_formula_of_empty_data(capsys):
    # the empty SOodd datum has one empty tuple, whose summand is the trivial
    # module; the empty Sp datum has dimension 0, of the wrong parity for Sp
    empty = json.dumps({"group": "SOodd", "blocks": []})
    code, out, err = run_cli(capsys, "det-formula", empty, "--format", "table")
    assert (code, out, err) == (0, "sigma | sign | summands\n | +1 | 1\n", "")
    code, out, _ = run_cli(capsys, "det-formula", empty)
    trivial = {"segments": [], "tempered": {"group": "SOodd", "pieces": []}}
    assert (code, json.loads(out)) == (0, {"rank": 0, "terms": [{"coefficient": 1, "module": trivial}]})
    message = "error: [dimension]: total dimension 0 has the wrong parity for Sp\n"
    for flags in ([], ["--raw"], ["--format", "text"], ["--format", "table"]):
        got = run_cli(capsys, "det-formula", json.dumps({"group": "Sp", "blocks": []}), *flags)
        assert got == (1, "", message), flags


@pytest.mark.parametrize("flags", [[], ["--raw"]], ids=["projected", "raw"])
def test_det_formula_json_builds_no_module(capsys, monkeypatch, corpus, flags):
    # the JSON is written from the expansion's key rows
    def refuse(*args, **kwargs):
        raise AssertionError("an engine value built on the JSON path")

    for cls in (StandardModule, Segment, TemperedParam, TemperedPiece):
        monkeypatch.setattr(cls, "__init__", refuse)
    for datum in [jsonio.datum_to_json(d) for d in corpus[::6]] + [TWO_BLOCKS]:
        code, out, err = run_cli(capsys, "det-formula", json.dumps(datum), *flags)
        assert code == 0 and json.loads(out)["terms"], err


def test_det_formula_raw_flag(capsys):
    _, raw, _ = run_cli(capsys, "det-formula", json.dumps(DATUM), "--raw")
    assert len(json.loads(raw)["terms"]) == 7


def test_jacquet_raw_flag_and_text(capsys):
    _, merged, _ = run_cli(capsys, "jacquet", json.dumps(DATUM))
    _, raw, _ = run_cli(capsys, "jacquet", json.dumps(DATUM), "--raw")
    assert len(json.loads(raw)["terms"]) == sum(
        t["multiplicity"] for t in json.loads(merged)["terms"]
    )
    _, text, _ = run_cli(capsys, "supp", json.dumps(DATUM), "--format", "text")
    assert "core" in text


def test_label_choice_names_what_is_wrong(capsys):
    empty = json.dumps({"group": "SOodd", "blocks": []})  # a valid datum of rank 0
    two = json.dumps(TWO_BLOCKS)
    for datum, message in ((empty, "has no labels"), (two, "has several labels")):
        for argv in (["jacquet", datum], ["derivative", datum, "--x", "0"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "" and message in err, (argv, err)


def test_gl_det_formula(capsys):
    ladder = {"segments": [["0", "0"], ["1", "1"]]}
    code, out, _ = run_cli(capsys, "gl-det-formula", json.dumps(ladder))
    data = json.loads(out)
    assert len(data["terms"]) == 2
    objects = {"segments": [{"x": "0", "y": "0"}, {"x": "1", "y": "1"}]}
    assert run_cli(capsys, "gl-det-formula", json.dumps(objects))[1] == out


@pytest.mark.parametrize("segments", [5, [5], [["0"]]])
def test_gl_det_formula_rejects_bad_segments(capsys, segments):
    code, _, err = run_cli(capsys, "gl-det-formula", json.dumps({"segments": segments}))
    assert code == 2 and err.startswith("input error:")


def test_closed_pipe_is_an_output_error():
    # the output is far larger than a pipe's buffer, so writing fails once the reader is gone
    datum = json.dumps({"group": "SOodd", "X": ["0", "20"], "l": 1, "eta": -1})
    proc = subprocess.Popen(
        [sys.executable, "-m", "ladderrep.cli", "jacquet", datum],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == "output error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", ["validate", "det-formula"])
def test_full_disk_is_an_output_error(command):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ladderrep.cli", command, json.dumps(DATUM)],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.decode() == "output error: [Errno 28] No space left on device\n"


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert run_cli(capsys, "validate", json.dumps(DATUM)) == (
        3,
        "",
        "internal error: RuntimeError: boom\n",
    )


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "det-formula", json.dumps(DATUM))
    second = run_cli(capsys, "det-formula", json.dumps(DATUM))
    assert first == second


def test_byte_identical_across_hash_seeds(tmp_path):
    inputs = {
        "one-block": DATUM,
        "two-blocks": TWO_BLOCKS,
        "band": {"segments": [[str(i), str(i - 2)] for i in range(4)]},
    }
    for name, data in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    runs = [
        ("det-formula", name, flags)
        for name in ("one-block", "two-blocks")
        for flags in ([], ["--raw"], ["--format", "table"])
    ]
    runs += [
        ("jacquet", "one-block", []),
        ("jacquet", "one-block", ["--raw"]),
        ("jacquet", "two-blocks", ["--rho", "b"]),
        ("jacquet", "two-blocks", ["--rho", "a", "--raw"]),
        ("gl-det-formula", "band", []),
    ]
    for command, name, flags in runs:
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "ladderrep.cli", command, str(tmp_path / f"{name}.json"), *flags],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], (command, name, flags)
        if "table" in flags:
            assert len(outputs[0].splitlines()) > 2  # the header and the rows
        else:
            assert len(json.loads(outputs[0])["terms"]) > 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ladderrep.cli", "validate", json.dumps(DATUM)],
        capture_output=True,
    )
    assert proc.returncode == 0
