"""Command-line interface: payload correctness across formats, golden
strings, exit codes, the scan stream, and argument plumbing."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import stringymirror
from stringymirror import cli, exact_arith, face_epoly, orbifold, stringy, weights
from stringymirror.cli import main, render_bipoly, render_rational_t
from stringymirror.exact_arith import BiPoly, EFunction, RationalT, poly_strip
from stringymirror.errors import InconsistentCensus

from conftest import _ip_members


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json_k3(capsys):
    code, out, _ = run(["analyze", "1,5,12,18", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == 36
    assert payload["ip"] is True
    assert payload["transverse"] is True
    assert payload["milnor"] == "434"
    assert payload["psi"] == [1, 15, 19, 1]
    assert [4, 2, 10] in payload["census"]


def test_analyze_text_matches_json(capsys):
    code, text_out, _ = run(["analyze", "1,1,2,4,5"], capsys)
    assert code == 0
    assert "transverse: false" in text_out
    assert "ip: true" in text_out
    code, json_out, _ = run(["analyze", "1,1,2,4,5", "--format", "json"], capsys)
    payload = json.loads(json_out)
    assert payload["transverse"] is False and payload["ip"] is True
    assert payload["milnor"] is None


ANALYZE_SEPTIC_30 = """\
weights: 1 1 1 1 1 1 30
w: 36
d: 6
charges: ["1/36", "1/36", "1/36", "1/36", "1/36", "1/36", "5/6"]
well_formed: true
ip: false
transverse: false
census (size age count):
  0 0 1
  6 1 1
  6 2 1
  6 3 1
  6 4 1
  6 5 1
  7 1 5
  7 2 5
  7 3 5
  7 4 5
  7 5 5
  7 6 5
psi: 1 6 6 6 6 6 5
""" + "milnor: \n"  # no Milnor number: the vector is not transverse

ANALYZE_DEGREE_1806 = """\
weights: 1 42 258 602 903
w: 1806
d: 4
charges: ["1/1806", "1/43", "1/7", "1/3", "1/2"]
well_formed: true
ip: true
transverse: true
census (size age count):
  0 0 1
  2 1 51
  3 1 199
  3 2 199
  4 1 97
  4 2 658
  4 3 97
  5 1 1
  5 2 251
  5 3 251
  5 4 1
psi: 1 348 1108 348 1
milnor: 909720
"""


@pytest.mark.parametrize(
    "raw, expected",
    [("1,1,1,1,1,1,30", ANALYZE_SEPTIC_30), ("1,42,258,602,903", ANALYZE_DEGREE_1806)],
)
def test_analyze_large_degree_in_bounded_time(raw, expected, capsys):
    # the IP test never lists the degree-w monomials (750k of them for the
    # first vector), so both answers are immediate
    start = time.perf_counter()
    code, out, _ = run(["analyze", raw], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == expected


def test_analyze_rejects_malformed(capsys):
    code, _, err = run(["analyze", "2,2,4"], capsys)
    assert code == 2
    assert "error" in err
    assert run(["analyze", "1,x,3"], capsys)[0] == 2
    # the one empty-weights check, in WeightVector
    code, _, err = run(["analyze", "   "], capsys)
    assert code == 2
    assert err == "error: no weights supplied\n"


# ---------------------------------------------------------------------------
# stringy


def test_stringy_json_k3_golden(capsys):
    code, out, _ = run(["stringy", "1,5,12,18", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["e_str"] == "1 + u^2 + 20*u*v + v^2 + (u*v)^2"
    assert payload["stringy_polynomial"] is True
    assert payload["euler_str"] == "24"
    assert payload["euler_orb"] == "24"
    assert payload["hodge"] == [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    assert payload["mirror_check"] == "n/a"
    assert "note" not in payload


def test_stringy_json_roundtrips_to_identical_bytes(capsys):
    _, out, _ = run(["stringy", "1,5,12,18", "--format", "json"], capsys)
    rendered = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert rendered == out


def test_stringy_non_polynomial_reports_no_mirror(capsys):
    code, out, _ = run(["stringy", "1,1,2,4,5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stringy_polynomial"] is False
    assert payload["note"] == "no mirror"
    assert payload["untwisted_limit"] == "1092/5"
    assert payload["hodge"] is None
    assert isinstance(payload["e_str"], list)
    assert all({"u", "v", "rational"} <= set(t) for t in payload["e_str"])


def test_stringy_not_ip_exits_three(capsys):
    code, _, err = run(["stringy", "1,1,4"], capsys)
    assert code == 3
    assert "IP" in err


def test_stringy_per_l_flag(capsys):
    code, out, _ = run(
        ["stringy", "1,2,3", "--per-l", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["per_l"]) == {str(l) for l in range(6)}


def test_stringy_csv_same_numbers(capsys):
    _, out, _ = run(["stringy", "1,5,12,18", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1]
    record = dict(zip(header, data))
    assert record["euler_str"] == "24"
    assert record["weights"] == "1 5 12 18"
    assert record["stringy_polynomial"] == "true"


# ---------------------------------------------------------------------------
# orbifold


def test_orbifold_octic_golden(capsys):
    code, out, _ = run(["orbifold", "1,1,2,2,2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["e_str"] == (
        "1 + 86*u*v - u^3 - 2*u^2*v - 2*u*v^2 - v^3 + 86*(u*v)^2 + (u*v)^3"
    )
    assert payload["formal"] is False
    assert "101" not in payload["vafa_poincare"]
    assert "86*t*tbar" in payload["vafa_poincare"].replace("u*v", "t*tbar") or (
        "86" in payload["vafa_poincare"]
    )


def test_orbifold_formal_for_non_transverse(capsys):
    code, out, _ = run(["orbifold", "1,1,2,4,5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["formal"] is True
    assert "vafa_poincare" not in payload


def test_orbifold_assume_transverse_hits_internal_guard(capsys):
    code, _, err = run(
        ["orbifold", "1,1,2,4,5", "--assume-transverse"], capsys
    )
    assert code == 4
    assert "internal error" in err


def test_ip_oracle_inconsistency_is_internal_error(capsys, monkeypatch):
    # an oracle that always answers the all-ones point, which is already a
    # column of the LP: the guard must fire as exit 4, also under -O
    monkeypatch.setattr(
        weights,
        "_knapsack_min",
        lambda ws, *costs: [(sum(cost) - 1, (1,) * len(ws)) for cost in costs],
    )
    weights.record.cache_clear()
    code, _, err = run(["analyze", "1,1,1,1,1"], capsys)
    assert code == 4
    assert "internal error" in err and "already a column" in err


def test_ip_singular_start_basis_is_internal_error(capsys, monkeypatch):
    # an oracle whose answers all lie in one 2-plane through the all-ones
    # point: the hull step takes them, the LP's starting basis is singular,
    # and the guard must fire as exit 4, also under -O
    plane = [(2, 0, 1, 1, 1), (0, 2, 1, 1, 1), (1, 1, 2, 0, 1), (1, 1, 0, 2, 1)]
    calls = itertools.count()

    def oracle(ws, *costs):
        # every step asks once, for the minima of c and of -c: a new point
        # per call, the same one for both
        point = plane[next(calls) % len(plane)]
        return [(sum(cost) - 1, point) for cost in costs]

    monkeypatch.setattr(weights, "_knapsack_min", oracle)
    weights.record.cache_clear()
    code, _, err = run(["analyze", "1,1,1,1,1"], capsys)
    assert code == 4
    assert "internal error" in err and "singular basis" in err


def test_census_guard_is_internal_error(capsys, monkeypatch):
    # a census missing one element, or counting l = 0 twice: psi must raise
    # InconsistentCensus (exit 4), also under -O
    wv = weights.validate((1, 5, 12, 18))
    real = face_epoly.element_classes(wv)
    for bad in (real[:-1], real + real[:1]):
        monkeypatch.setattr(face_epoly, "element_classes", lambda wv, bad=bad: bad)
        with pytest.raises(InconsistentCensus):
            face_epoly.psi(wv)
        code, _, err = run(["analyze", "1,5,12,18"], capsys)
        assert code == 4
        assert "internal error" in err and "age census" in err


_SWAPPED_PER_L = """
import sys
if __debug__:
    sys.exit(99)  # the guard must fire with asserts compiled out
from stringymirror import cli, mirror_verify
real = mirror_verify._stringy
def swapped(rec):
    # the class of element 0 answers the next class's term: one per-element
    # identity fails while the global identity still holds
    half = real(rec)
    return half._replace(terms=half.terms[1:2] + half.terms[1:])
mirror_verify._stringy = swapped
sys.exit(cli.main(["mirror-check", "1,1,1,1,1"]))
"""


def test_verify_agreement_guard_fires_under_optimize():
    src = os.path.dirname(os.path.dirname(stringymirror.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SWAPPED_PER_L],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "internal error" in proc.stderr and "disagrees" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _close_stdout_after(argv, lines):
    """Run the CLI in a child whose reader takes ``lines`` lines of stdout
    and then closes the pipe, as ``| head`` does; stdout is block-buffered,
    as it is on a pipe by default.  The lines read, the exit code and
    stderr."""
    src = os.path.dirname(os.path.dirname(stringymirror.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "stringymirror.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return read, proc.returncode, err


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["scan", "--dim", "3", "--wmax", "66", "--format", "json"], 1),
        # analyze's few lines reach the pipe in one flush, after it closed
        (["analyze", "1,1,1,1,1"], 0),
    ],
)
def test_closed_stdout_ends_the_command_quietly(argv, lines):
    # the reader stops early, as ``| head -1`` does: exit 0 and no
    # traceback, neither from main nor from the flush at exit
    read, code, err = _close_stdout_after(argv, lines)
    assert all(json.loads(line)["weights"] for line in read)
    assert code == 0, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--dim", "4", "--wmax", "40"],
        ["scan", "--dim", "4", "--wmax", "40", "--format", "json"],
        # 1806 lines of per-element terms: more than a pipe buffer holds
        ["mirror-check", "--per-l", "1,42,258,602,903"],
    ],
    ids=["scan-csv", "scan-json", "mirror-check-per-l"],
)
def test_reader_leaving_after_one_line_ends_the_command_cleanly(argv):
    # the command is still writing when the reader closes the pipe, so a
    # later write fails: that must end it with exit 0 and nothing at all on
    # stderr
    [line], code, err = _close_stdout_after(argv, 1)
    assert line
    assert code == 0, err
    assert err == ""


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help_into_closed_stdout_ends_quietly(argv):
    # argparse prints the help inside main: its flush into a pipe the reader
    # already closed must end with exit 0 and nothing on stderr
    _, code, err = _close_stdout_after(argv, 0)
    assert code == 0, err
    assert err == ""


def test_internal_value_error_is_internal_error(capsys, monkeypatch):
    # a ValueError from the arithmetic kernel is a broken internal step,
    # not invalid input
    def short(*args):
        raise ValueError("need at least 9 series coefficients")

    monkeypatch.setattr(exact_arith, "series_quotient", short)
    weights.record.cache_clear()
    code, out, err = run(["stringy", "1,1,2,2,2"], capsys)
    assert code == 4
    assert out == ""
    assert "internal error" in err and "need at least" in err


def test_a_face_division_fault_is_internal_error(capsys):
    # a twisted class of the quintic's record put at age 0: E_J's division
    # by uv is not exact, and the guard ends the command with exit 4, also
    # under -O, and no traceback
    weights.record.cache_clear()
    try:
        rec = weights._classified(weights.record(weights.validate((1, 1, 1, 1, 1))))
        c = rec.classes
        rec.classes = (c[0], c[1]._replace(age=0)) + c[2:]
        code, out, err = run(["stringy", "1,1,1,1,1"], capsys)
    finally:
        weights.record.cache_clear()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "not exact" in err
    assert "Traceback" not in err


def _fractional_face_terms(real):
    return lambda classes, mask: {k: Fraction(c) for k, c in real(classes, mask).items()}


def _fractional_numerator(real):
    return lambda k: [Fraction(c) for c in real(k)]


def _fractional_clearing(real):
    def clear(P, c, w):
        Q, m = real(P, c, w)
        return [Fraction(x) for x in Q], m
    return clear


@pytest.mark.parametrize(
    "name, fault",
    [
        ("face_terms", _fractional_face_terms),
        ("_untwisted_numerator", _fractional_numerator),
        ("extend_cleared", _fractional_clearing),
    ],
)
def test_a_non_int_pipeline_coefficient_is_internal_error(capsys, monkeypatch, name, fault):
    # a polynomial of the stringy half with Fraction coefficients of the
    # same values: its int check ends the command with exit 4 and no
    # traceback, as every internal guard does
    monkeypatch.setattr(stringy, name, fault(getattr(stringy, name)))
    weights.record.cache_clear()
    try:
        code, out, err = run(["stringy", "1,1,2,4,5"], capsys)
    finally:
        weights.record.cache_clear()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "must be ints" in err
    assert "Traceback" not in err


def test_bad_weight_token_is_input_error(capsys):
    # a token other than an optional sign and ASCII digits, including the
    # ones int() alone would read (digit-group underscores, non-ASCII
    # digits), or one past int()'s digit limit, is turned into NotWellFormed
    # before any computation
    for raw in ("1,x,3", "1," + "9" * 5000, "1,1,1_0", "١,١,١", "1,٢,3"):
        code, _, err = run(["analyze", raw], capsys)
        assert code == 2
        assert err.startswith("error: weights must be integers")


# ---------------------------------------------------------------------------
# mirror-check


def test_mirror_check_octic(capsys):
    code, out, _ = run(["mirror-check", "1,1,2,2,2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mirror_check"] == "pass"
    assert payload["per_l_failures"] == []
    assert payload["hodge_pairs_match"] is True
    assert payload["euler_str"] == "168"
    assert payload["euler_orb"] == "-168"


def test_mirror_check_no_mirror_still_passes(capsys):
    code, out, _ = run(["mirror-check", "1,1,2,4,5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mirror_check"] == "pass"
    assert payload["note"] == "no mirror"


def test_mirror_check_per_l_detail(capsys):
    code, out, _ = run(
        ["mirror-check", "1,5,12,18", "--per-l", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["per_l"]) == 36
    assert all(entry["equal"] for entry in payload["per_l"].values())
    assert payload["per_l"]["0"]["stringy"] == payload["per_l"]["0"]["orbifold"]


def test_mirror_check_verifies_once(capsys, monkeypatch):
    calls = []
    real = cli.verify
    monkeypatch.setattr(cli, "verify", lambda wv: calls.append(wv) or real(wv))
    assert run(["mirror-check", "1,1,1,1,1", "--per-l"], capsys)[0] == 0
    assert len(calls) == 1


HIGH_DEGREE = "1,42,258,602,903"  # w = 1806, 33 element classes


def test_per_l_renders_once_per_element_class(capsys, monkeypatch):
    calls = []
    real = cli.render_efunction
    monkeypatch.setattr(cli, "render_efunction", lambda e: calls.append(e) or real(e))
    assert run(["mirror-check", "--per-l", HIGH_DEGREE], capsys)[0] == 0
    classes = weights.element_classes(weights.validate(map(int, HIGH_DEGREE.split(","))))
    assert len(classes) == 33
    # E_str once, then the stringy and orbifold sides once per class
    assert len(calls) <= 2 * len(classes) + 1


def test_orbifold_renders_only_the_orbifold_half(capsys, monkeypatch):
    # the row shows the orbifold total: no stringy E-function is rendered or
    # read into a Hodge table only to be replaced
    rendered, tables = [], []
    real_render, real_table = cli.render_efunction, cli.hodge_table
    monkeypatch.setattr(cli, "render_efunction", lambda e: rendered.append(e) or real_render(e))
    monkeypatch.setattr(cli, "hodge_table", lambda p, dim: tables.append(p) or real_table(p, dim))
    code, out, _ = run(["orbifold", "--per-l", "--format", "json", "1,1,1,1,1"], capsys)
    assert code == 0
    wv = weights.validate((1, 1, 1, 1, 1))
    assert len(rendered) == 1 + len(weights.element_classes(wv))
    assert len(tables) == 1
    half = orbifold._orbifold(weights.record(wv))
    assert rendered[0] is half.total
    assert all(e is term for e, term in zip(rendered[1:], half.terms))
    assert json.loads(out)["hodge"][1][1] == 101


# every arithmetic step of both halves runs on the kernel's triples: these
# build or combine RationalT and EFunction objects one at a time
OBJECT_ARITHMETIC = [
    (RationalT, "__init__"),
    (RationalT, "__mul__"),
    (RationalT, "mul_tpower"),
    (RationalT, "mul_poly"),
    (EFunction, "__init__"),
]


def test_cli_paths_do_no_object_arithmetic(capsys, monkeypatch):
    calls = []
    for cls, name in OBJECT_ARITHMETIC:
        real = getattr(cls, name)

        def spy(*args, _real=real, _name=f"{cls.__name__}.{name}"):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cls, name, spy)
    weights.record.cache_clear()  # so every half is built under the spies
    for command in ("stringy", "orbifold", "mirror-check"):
        for ws in ("1,1,1,1,1", "1,1,2,4,5", "1,2,3,10,15", HIGH_DEGREE):
            assert run([command, "--per-l", ws], capsys)[0] == 0
    assert run(["scan", "--dim", "3", "--wmax", "30", "--format", "json"], capsys)[0] == 0
    weights.record.cache_clear()
    assert calls == []


def test_per_l_equal_follows_the_failures_of_a_whole_class(capsys, monkeypatch):
    wv = weights.validate((1, 5, 12, 18))
    real = cli.verify
    members = [l for l, c in enumerate(weights.class_index(wv)) if c == 3]
    assert len(members) > 1

    def failing(wv):
        return dataclasses.replace(real(wv), per_l_failures=tuple(members))

    monkeypatch.setattr(cli, "verify", failing)
    code, out, _ = run(["mirror-check", "1,5,12,18", "--per-l", "--format", "json"], capsys)
    assert code == 0
    per_l = json.loads(out)["per_l"]
    assert sorted(int(l) for l, entry in per_l.items() if not entry["equal"]) == members
    assert len(per_l) == wv.w


def test_high_degree_stdout_matches_the_benchmark_reference(capsys):
    # the high_degree workload's stdout, byte for byte, against its digest
    # in the benchmark's output reference
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["scans"]["high_degree"]
    code, out, _ = run(["mirror-check", "--per-l", "--format", "json", HIGH_DEGREE], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_every_request_matches_the_benchmark_reference(capsys):
    # every vector_requests request (448 vectors x 4 commands x 3 formats)
    # in this one process, against the short digest (64 bits of sha256) of
    # its stdout in the benchmark's output reference: the bytes of every
    # printed form the E-function commands make, not only the scans'
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    digests = json.loads(reference.read_text())["requests"]
    assert len(digests) == 5376
    wrong = []
    for key, digest in digests.items():
        code, out, _ = run(key.split(" "), capsys)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest()[:16] != digest:
            wrong.append(key)
    assert wrong == []


def test_parser_reused_and_handlers_looked_up_per_call(capsys, monkeypatch):
    assert run(["analyze", "1,1,1,1,1"], capsys)[0] == 0
    parser = cli._parser
    assert parser is not None
    monkeypatch.setattr(cli, "_cmd_analyze", lambda args: print("patched") or 0)
    code, out, _ = run(["analyze", "1,1,1,1,1"], capsys)
    assert (code, out) == (0, "patched\n")
    assert cli._parser is parser
    # a parse error leaves the parser usable
    assert run(["analyze"], capsys)[0] == 2
    assert run(["stringy", "1,1,1,1,1", "--format", "json"], capsys)[0] == 0


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_includes_k3_row(capsys):
    code, out, _ = run(
        ["scan", "--dim", "3", "--wmax", "36", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    k3 = next(r for r in rows[1:] if r[0] == "1 5 12 18")
    record = dict(zip(header, k3))
    assert record["euler_str"] == "24"
    assert record["mirror_check"] == "pass"


def test_scan_json_includes_quintic_hodge(capsys):
    code, out, _ = run(
        ["scan", "--dim", "4", "--wmax", "10", "--format", "json"], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    quintic = next(r for r in rows if r["weights"] == [1, 1, 1, 1, 1])
    assert quintic["hodge"][1][1] == 101
    assert quintic["mirror_check"] == "pass"
    # lexicographic, deterministic ordering
    assert [r["weights"] for r in rows] == sorted(r["weights"] for r in rows)


def test_scan_skip_resumes(capsys, monkeypatch):
    base = ["scan", "--dim", "3", "--wmax", "20", "--format", "json"]
    # a row (and its verify call) is built only for an emitted vector
    seen = []
    real = cli.verify
    monkeypatch.setattr(
        cli, "verify", lambda wv: seen.append(list(wv.weights)) or real(wv)
    )

    def scan(extra):
        seen.clear()
        code, out, _ = run(base + extra, capsys)
        assert code == 0
        assert seen == [json.loads(line)["weights"] for line in out.splitlines()]
        return out

    full = scan([])
    tail = scan(["--skip", "2"])
    assert full.splitlines()[2:] == tail.splitlines()
    limited = scan(["--limit", "1"])
    assert limited.splitlines() == full.splitlines()[:1]
    window = scan(["--skip", "1", "--limit", "2"])
    assert window.splitlines() == full.splitlines()[1:3]
    # --limit 0 emits no rows: nothing in json, the header alone in csv/text
    assert scan(["--skip", "2", "--limit", "0"]) == ""
    for fmt in ("csv", "text"):
        seen.clear()
        code, out, _ = run(base[:-1] + [fmt, "--skip", "2", "--limit", "0"], capsys)
        assert code == 0
        assert out.splitlines() == [",".join(cli._ROW_FIELDS)]
        assert seen == []


@pytest.mark.parametrize("dim, wmax", [(1, 10), (2, 60), (3, 40), (4, 20), (5, 12), (6, 10)])
def test_prefix_scan_matches_the_per_candidate_route(dim, wmax):
    # the prefix walk, with its shared reach sets and gcds, yields the
    # well-formed IP vectors that one ip_property call per tuple finds, each
    # with its record seeded by both verdicts, as a fresh record fills them
    found = []
    for wv in weights.ip_vectors(dim, wmax):
        rec = weights.record(wv)
        fresh = weights._verdicts(weights.VectorRecord(wv))
        assert rec.ip is True and (rec.ip, rec.transverse) == (fresh.ip, fresh.transverse), wv
        found.append(wv)
    assert found == _ip_members(dim, wmax)


def _scan_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def k3_scan_stdout():
    """The stdout of ``scan --dim 3 --wmax 66``: all 95 K3 weight systems."""
    return _scan_stdout(["scan", "--dim", "3", "--wmax", "66"])


def test_k3_scan_stdout_matches_the_benchmark_reference(k3_scan_stdout):
    # the k3_scan workload's stdout, byte for byte, against its digest in
    # the benchmark's output reference
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["scans"]["k3_scan"]
    assert hashlib.sha256(k3_scan_stdout.encode()).hexdigest() == expected


def _rendered_terms(rendered):
    """{monomial: coefficient} of a polynomial printed by ``render_bipoly``."""
    terms = {}
    for token in rendered.replace(" - ", " + -").split(" + "):
        sign, token = (-1, token[1:]) if token.startswith("-") else (1, token)
        coeff, star, mono = token.partition("*")
        if not coeff.isdigit():
            coeff, mono = "1", token
        elif not star:
            mono = ""
        terms[mono] = sign * int(coeff)
    return terms


def _uv_exponents(mono):
    """(a, b) of a monomial u^a v^b as ``render_bipoly`` prints it."""
    if mono.startswith("(u*v)^"):
        return int(mono[6:]), int(mono[6:])
    exps = {"u": 0, "v": 0}
    for factor in filter(None, mono.split("*")):
        var, _, power = factor.partition("^")
        exps[var] = int(power or 1)
    return exps["u"], exps["v"]


def _t_exponent(mono):
    """k of a monomial t^k as ``render_rational_t`` prints it."""
    return int(mono.partition("^")[2] or 1) if mono else 0


# zeros, units and large magnitudes, either sign
COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(COEFFS, max_size=12))
@example([-1, 0, 1])
@example([0, 0, -(10**25), 1])
@example([0])
def test_rational_numerator_prints_back_to_its_coefficients(coeffs):
    rendered = render_rational_t(RationalT(coeffs))
    got = []
    if rendered != "0":
        shift, _, body = rendered.rpartition(" * ")
        start = _t_exponent(shift)
        for mono, c in _rendered_terms(body[1:-1]).items():
            k = start + _t_exponent(mono)
            got.extend([0] * (k + 1 - len(got)))
            got[k] = c
    assert got == poly_strip(list(coeffs))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFFS, max_size=12))
@example({(1, 0): -1, (0, 0): 1})
@example({(2, 2): -(10**25), (0, 3): 1, (0, 0): -1})
def test_bipoly_prints_back_to_its_coefficients(terms):
    rendered = render_bipoly(BiPoly(terms))
    got = {} if rendered == "0" else {
        _uv_exponents(mono): c for mono, c in _rendered_terms(rendered).items()
    }
    assert got == {key: c for key, c in terms.items() if c}


def test_k3_scan_rows_have_the_k3_hodge_numbers(k3_scan_stdout):
    # against the literature, not the second route: every K3 surface has
    # h11 = 20 and Euler number 24, so every row's E-polynomial is
    # 1 + u^2 + 20 uv + v^2 + (uv)^2
    rows = list(csv.DictReader(io.StringIO(k3_scan_stdout)))
    assert len(rows) == 95
    for row in rows:
        terms = _rendered_terms(row["e_str"])
        assert terms["u*v"] == 20, row
        assert sum(terms.values()) == 24 == int(row["euler_str"]), row


def test_cy4_scan_rows_satisfy_the_fourfold_hodge_relations():
    # against the literature: a Calabi-Yau fourfold has
    # chi = 6 (8 + h11 + h31 - h21) and h22 = 2 (22 + 2 h11 + 2 h31 - h21)
    # (Klemm-Lian-Roan-Yau, hep-th/9701023)
    out = _scan_stdout(["scan", "--dim", "5", "--wmax", "16", "--format", "json"])
    rows = [json.loads(line) for line in out.splitlines()]
    grids = [(row["hodge"], int(row["euler_str"])) for row in rows if row["stringy_polynomial"]]
    assert (len(rows), len(grids)) == (94, 62)
    for h, chi in grids:
        h11, h21, h31, h22 = h[1][1], h[2][1], h[3][1], h[2][2]
        assert chi == 6 * (8 + h11 + h31 - h21), h
        assert h22 == 2 * (22 + 2 * h11 + 2 * h31 - h21), h


def test_cy3_scan_stdout_is_pinned(capsys):
    code, out, _ = run(["scan", "--dim", "4", "--wmax", "24"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "9e3a7a40800aaecd"


def test_scan_holds_one_record(capsys):
    # a non-IP candidate builds no record, and each vector's record, with
    # the row built from it, is dropped before the next vector is emitted
    code, out, _ = run(["scan", "--dim", "4", "--wmax", "16", "--format", "json"], capsys)
    assert code == 0 and out
    assert weights.record.cache_info().currsize <= 1


def test_scan_empty_range(capsys):
    # no 4-tuple of positive weights sums below 4
    code, out, _ = run(
        ["scan", "--dim", "3", "--wmax", "3", "--format", "json"], capsys
    )
    assert code == 0
    assert out == ""
    code, out, _ = run(
        ["scan", "--dim", "3", "--wmax", "3", "--format", "csv"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1  # header only


def test_scan_bounds_checked(capsys):
    assert run(["scan", "--dim", "7", "--wmax", "10"], capsys)[0] == 2
    assert run(["scan", "--dim", "3", "--wmax", "500"], capsys)[0] == 2
    base = ["scan", "--dim", "3", "--wmax", "20"]
    for extra in (["--skip", "-2"], ["--limit", "-3"]):
        code, out, err = run(base + extra, capsys)
        assert code == 2
        assert out == ""
        assert extra[0] in err


# ---------------------------------------------------------------------------
# argument plumbing


def test_guard_override_still_exact(capsys):
    # the brackets are exact multisections, with no guard band to set
    code, out, _ = run(["stringy", "1,2,3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["e_str"] == "1 - u - v + u*v"
    assert payload["euler_str"] == "0"


def test_missing_subcommand_is_usage_error(capsys):
    assert run([], capsys)[0] == 2


def test_console_entry_point_exists():
    import stringymirror.cli as cli

    assert callable(cli.main)
