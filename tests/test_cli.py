"""Command-line interface: payload correctness across formats, golden
strings, exit codes, the scan stream, and the guard-band override."""

import csv
import io
import itertools
import json
import time

import pytest

from stringymirror import cli, face_epoly, stringy, weights
from stringymirror.cli import main
from stringymirror.errors import InconsistentCensus


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
    assert run(["analyze", "   "], capsys)[0] == 2


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
        weights, "_knapsack_min", lambda ws, cost: (sum(cost) - 1, (1,) * len(ws))
    )
    weights.ip_property.cache_clear()
    code, _, err = run(["analyze", "1,1,1,1,1"], capsys)
    assert code == 4
    assert "internal error" in err and "already a column" in err


def test_ip_singular_start_basis_is_internal_error(capsys, monkeypatch):
    # an oracle whose answers all lie in one 2-plane through the all-ones
    # point: the hull step takes them, the LP's starting basis is singular,
    # and the guard must fire as exit 4, also under -O
    plane = [(2, 0, 1, 1, 1), (0, 2, 1, 1, 1), (1, 1, 2, 0, 1), (1, 1, 0, 2, 1)]
    calls = itertools.count()

    def oracle(ws, cost):
        # every step asks twice (minimum of c and of -c): a new point per pair
        return sum(cost) - 1, plane[next(calls) // 2 % len(plane)]

    monkeypatch.setattr(weights, "_knapsack_min", oracle)
    weights.ip_property.cache_clear()
    code, _, err = run(["analyze", "1,1,1,1,1"], capsys)
    assert code == 4
    assert "internal error" in err and "singular basis" in err


def test_census_guard_is_internal_error(capsys, monkeypatch):
    # a census missing one element, or counting l = 0 twice: psi must raise
    # InconsistentCensus (exit 4), also under -O
    wv = weights.validate((1, 5, 12, 18))
    real = face_epoly._elements(wv)
    for bad in (real[:-1], real + real[:1]):
        monkeypatch.setattr(face_epoly, "_elements", lambda wv, bad=bad: bad)
        with pytest.raises(InconsistentCensus):
            face_epoly.psi(wv)
        code, _, err = run(["analyze", "1,5,12,18"], capsys)
        assert code == 4
        assert "internal error" in err and "age census" in err


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
# guard-band override and argument plumbing


def test_guard_override_still_exact(capsys, monkeypatch):
    monkeypatch.setenv("MIRROR_STRINGY_GUARD", "3")
    code, out, _ = run(["stringy", "1,2,3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["e_str"] == "1 - u - v + u*v"
    assert payload["euler_str"] == "0"


def test_guard_invalid_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("MIRROR_STRINGY_GUARD", "wide")
    code, _, err = run(["stringy", "1,1,2", "--format", "json"], capsys)
    assert code == 2
    assert "MIRROR_STRINGY_GUARD" in err
    # still rejected once the vector's results are cached
    monkeypatch.delenv("MIRROR_STRINGY_GUARD")
    assert run(["stringy", "1,1,2"], capsys)[0] == 0
    monkeypatch.setenv("MIRROR_STRINGY_GUARD", "wide")
    assert run(["stringy", "1,1,2"], capsys)[0] == 2


def test_guard_change_applies_to_cached_vector(capsys, monkeypatch):
    # J = {0, 1} of (1,2,3): one coin of order 1, so K = 1 + guard counts
    widths = []
    real = stringy.lattice_counts

    def spy(wv, J, K):
        if wv.weights == (1, 2, 3) and set(J) == {0, 1}:
            widths.append(K)
        return real(wv, J, K)

    monkeypatch.setattr(stringy, "lattice_counts", spy)
    for guard in ("5", "6"):
        monkeypatch.setenv("MIRROR_STRINGY_GUARD", guard)
        code, out, _ = run(["stringy", "1,2,3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["e_str"] == "1 - u - v + u*v"
    assert widths == [6, 7]


def test_missing_subcommand_is_usage_error(capsys):
    assert run([], capsys)[0] == 2


def test_console_entry_point_exists():
    import stringymirror.cli as cli

    assert callable(cli.main)
