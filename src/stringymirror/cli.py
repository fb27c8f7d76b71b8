"""Command-line interface.

Subcommands:

* ``analyze W``       weights, charges, census, IP/transversality, Milnor
* ``stringy W``       stringy E-function of the mirror (+ Hodge table)
* ``orbifold W``      orbifold E-function data of the hypersurface itself
* ``mirror-check W``  full mirror-duality verification report
* ``scan``            sweep all IP weight vectors of a given dimension

Weights are given as a comma- or space-separated list, e.g. ``1,5,12,18``.
Output formats: ``text`` (default), ``json`` (canonical: sorted keys, so a
load/dump round trip is byte-identical), ``csv``.

Exit codes: 0 success (including "no mirror exists" answers), 2 invalid
input, 3 IP-property precondition failed, 4 internal assertion failure
(reconstruction guard, pole, sign pattern, non-exact division).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import (
    DivisionNotExact,
    EmptyInput,
    InconsistentCensus,
    InconsistentLP,
    NegativeExponent,
    NonIntegerCoefficient,
    NonIntegerMilnor,
    NotIP,
    NotPolynomial,
    NotWellFormed,
    OutOfRange,
    PoleAtOne,
    ReconstructionFailure,
    SignPatternViolation,
    SubsetTooSmall,
)
from .exact_arith import BiPoly, RationalT
from .face_epoly import psi
from .mirror_verify import VerificationReport, verify
from .orbifold import mirror_orbifold_e, vafa_euler, vafa_poincare
from .stringy import EFunction, hodge_table, stringy_e, stringy_e_per_l, stringy_euler
from .weights import (
    WeightVector,
    census,
    ip_property,
    milnor_number,
    require_ip,
    transverse,
    validate,
)

INVALID_INPUT, NO_MIRROR, INTERNAL = 2, 3, 4

_INPUT_ERRORS = (EmptyInput, NotWellFormed, OutOfRange, ValueError)
_INTERNAL_ERRORS = (
    ReconstructionFailure,
    PoleAtOne,
    DivisionNotExact,
    SubsetTooSmall,
    NotPolynomial,
    SignPatternViolation,
    NonIntegerMilnor,
    NonIntegerCoefficient,
    NegativeExponent,
    InconsistentLP,
    InconsistentCensus,
    AssertionError,
)


# ---------------------------------------------------------------------------
# rendering


def render_bipoly(p: BiPoly) -> str:
    """Graded rendering; diagonal powers contract to (u*v)^k."""
    if p.is_zero():
        return "0"

    def monomial(a: int, b: int) -> str:
        if a == b:
            if a == 0:
                return ""
            return "u*v" if a == 1 else f"(u*v)^{a}"
        bits = []
        if a:
            bits.append("u" if a == 1 else f"u^{a}")
        if b:
            bits.append("v" if b == 1 else f"v^{b}")
        return "*".join(bits)

    out = ""
    for (a, b), c in p.sorted_terms():
        mono = monomial(a, b)
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def render_rational_t(r: RationalT) -> str:
    """Render num/den in t (t stands for the product u*v)."""
    if r.is_zero():
        return "0"

    def poly_str(coeffs) -> str:
        bits = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    bits.append(mono)
                elif c == -1:
                    bits.append(f"-{mono}")
                else:
                    bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    out = f"({poly_str(r.num)})"
    if r.shift:
        out = f"t^{r.shift} * " + out
    if r.den:
        den = " * ".join(
            f"(1 - t^{m})" + (f"^{e}" if e > 1 else "") for m, e in r.den
        )
        out += f" / ({den})"
    return out


def render_efunction(e: EFunction):
    """Polynomial string, or a structured list of non-polynomial terms."""
    if e.is_polynomial():
        return render_bipoly(e.to_bipoly())
    return [
        {"u": a, "v": b, "rational": render_rational_t(r)}
        for (a, b), r in sorted(e.terms.items())
    ]


def _hodge_grid(e: EFunction, dim: int) -> Optional[List[List[int]]]:
    if not e.is_polynomial():
        return None
    table = hodge_table(e.to_bipoly(), dim)
    return [list(row) for row in table.grid]


# ---------------------------------------------------------------------------
# payload builders (shared by text / json / csv so the formats agree)


def _parse_weights(raw: str) -> WeightVector:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise EmptyInput("no weights supplied")
    try:
        ints = [int(p) for p in parts]
    except ValueError:
        raise NotWellFormed(f"weights must be integers, got {raw!r}")
    return validate(ints)


def _analyze_payload(wv: WeightVector) -> Dict:
    cen = census(wv)
    tr = transverse(wv)
    payload = {
        "weights": list(wv.weights),
        "w": wv.w,
        "d": wv.d,
        "charges": [str(q) for q in wv.charges],
        "well_formed": True,
        "ip": ip_property(wv),
        "transverse": tr,
        "census": [
            [size, age, n] for (size, age), n in sorted(cen.items())
        ],
        "psi": list(psi(wv)),
        "milnor": str(milnor_number(wv)) if tr else None,
    }
    return payload


def _row_payload(wv: WeightVector, report: Optional[VerificationReport] = None) -> Dict:
    dim = wv.d - 1
    s = stringy_e(wv)
    poly = s.is_polynomial()
    mirror_check = "n/a"
    if report is not None:
        mirror_check = "pass" if report.passed else "fail"
    payload = {
        "weights": list(wv.weights),
        "w": wv.w,
        "ip": True,
        "transverse": transverse(wv),
        "stringy_polynomial": poly,
        "e_str": render_efunction(s),
        "hodge": _hodge_grid(s, dim),
        "euler_str": str(stringy_euler(wv)),
        "euler_orb": str(vafa_euler(wv)),
        "mirror_check": mirror_check,
        "untwisted_limit": str(stringy_e_per_l(wv, 0).value_at_one()),
    }
    if not poly:
        # not an error: the construction is still meaningful, there is just
        # no Calabi-Yau realizing these stringy Hodge data
        payload["note"] = "no mirror"
    return payload


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _csv_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and isinstance(value[0], int):
            return " ".join(map(str, value))
        return json.dumps(value, sort_keys=True)
    if value is None:
        return ""
    return str(value)


_ROW_FIELDS = (
    "weights",
    "w",
    "ip",
    "transverse",
    "stringy_polynomial",
    "e_str",
    "euler_str",
    "euler_orb",
    "mirror_check",
)


def _print_csv_rows(rows: Iterable[Dict]) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(_ROW_FIELDS)
    sys.stdout.flush()
    for row in rows:
        flat = dict(row)
        if not row["stringy_polynomial"]:
            flat["e_str"] = "non-polynomial"
        writer.writerow([_csv_scalar(flat[f]) for f in _ROW_FIELDS])
        sys.stdout.flush()


def _print_text_kv(payload: Dict, order: Tuple[str, ...]) -> None:
    for key in order:
        if key not in payload:
            continue
        value = payload[key]
        if key == "hodge" and value is not None:
            print("hodge:")
            for row in value:
                print("  " + " ".join(f"{x:>6}" for x in row))
            continue
        if key == "census":
            print("census (size age count):")
            for size, age, n in value:
                print(f"  {size} {age} {n}")
            continue
        if key == "e_str" and isinstance(value, list):
            print("e_str: non-polynomial")
            for term in value:
                print(f"  u^{term['u']} v^{term['v']} * {term['rational']}")
            continue
        print(f"{key}: {_csv_scalar(value)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    wv = _parse_weights(args.weights)
    payload = _analyze_payload(wv)
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        keys = sorted(payload)
        writer.writerow(keys)
        writer.writerow([_csv_scalar(payload[k]) for k in keys])
    else:
        _print_text_kv(
            payload,
            (
                "weights", "w", "d", "charges", "well_formed", "ip",
                "transverse", "census", "psi", "milnor",
            ),
        )
    return 0


def _cmd_stringy(args) -> int:
    wv = _parse_weights(args.weights)
    require_ip(wv)
    payload = _row_payload(wv)
    if args.per_l:
        payload["per_l"] = {
            str(l): render_efunction(stringy_e_per_l(wv, l)) for l in range(wv.w)
        }
    _emit_single(args, payload)
    return 0


def _cmd_orbifold(args) -> int:
    wv = _parse_weights(args.weights)
    require_ip(wv)
    tr = transverse(wv) if args.assume_transverse is None else args.assume_transverse
    orb = mirror_orbifold_e(wv)
    payload = _row_payload(wv)
    payload["e_str"] = render_efunction(orb.value)
    payload["hodge"] = _hodge_grid(orb.value, wv.d - 1)
    payload["formal"] = not tr
    if tr:
        payload["vafa_poincare"] = render_bipoly(vafa_poincare(wv))
    if args.per_l:
        payload["per_l"] = {
            str(l): render_efunction(term) for l, term in orb.per_l_terms.items()
        }
    _emit_single(args, payload)
    return 0


def _cmd_mirror_check(args) -> int:
    wv = _parse_weights(args.weights)
    require_ip(wv)
    report = verify(wv)
    payload = _row_payload(wv, report)
    payload["per_l_failures"] = list(report.per_l_failures)
    payload["hodge_pairs_match"] = report.hodge_pairs_match
    if args.per_l:
        orb_terms = mirror_orbifold_e(wv).per_l_terms
        payload["per_l"] = {
            str(l): {
                "stringy": render_efunction(stringy_e_per_l(wv, l)),
                "orbifold": render_efunction(orb_terms[l]),
                "equal": l not in report.per_l_failures,
            }
            for l in range(wv.w)
        }
    _emit_single(args, payload)
    return 0


def _emit_single(args, payload: Dict) -> None:
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv_rows([payload])
    else:
        order = _ROW_FIELDS + (
            "hodge", "untwisted_limit", "note", "formal", "vafa_poincare",
            "per_l_failures", "hodge_pairs_match",
        )
        _print_text_kv(payload, order)
        if "per_l" in payload:
            print("per_l:")
            for l in sorted(payload["per_l"], key=int):
                print(f"  l={l}: {payload['per_l'][l]}")


def _ascending_tuples(k: int, budget: int, start: int = 1) -> Iterator[Tuple[int, ...]]:
    """Non-decreasing k-tuples with entries >= start and sum <= budget, in
    lexicographic order."""
    if k == 0:
        yield ()
        return
    top = budget // k
    for v in range(start, top + 1):
        for rest in _ascending_tuples(k - 1, budget - v, v):
            yield (v,) + rest


def _ip_vectors(dim: int, wmax: int) -> Iterator[WeightVector]:
    for tup in _ascending_tuples(dim + 1, wmax):
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        if ip_property(wv):
            yield wv


def _cmd_scan(args) -> int:
    if not 1 <= args.dim <= 6:
        raise OutOfRange("scan supports --dim between 1 and 6")
    if not 1 <= args.wmax <= 400:
        raise OutOfRange("scan supports --wmax between 1 and 400")
    if args.skip < 0:
        raise OutOfRange("scan supports --skip >= 0")
    if args.limit is not None and args.limit < 0:
        raise OutOfRange("scan supports --limit >= 0")
    stop = None if args.limit is None else args.skip + args.limit
    # rows are built only for the vectors past --skip
    vectors = islice(_ip_vectors(args.dim, args.wmax), args.skip, stop)
    rows = (_row_payload(wv, verify(wv)) for wv in vectors)
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
            sys.stdout.flush()
    else:
        _print_csv_rows(rows)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringymirror",
        description="Exact stringy/orbifold E-functions of Calabi-Yau "
        "hypersurfaces in weighted projective space and their mirror duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_per_l=True):
        p.add_argument("weights", help="weight list, e.g. 1,5,12,18")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        if with_per_l:
            p.add_argument(
                "--per-l", action="store_true", dest="per_l",
                help="include the per-group-element decomposition",
            )

    p = sub.add_parser("analyze", help="combinatorial data of a weight vector")
    add_common(p, with_per_l=False)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("stringy", help="stringy E-function of the mirror")
    add_common(p)
    p.set_defaults(func=_cmd_stringy)

    p = sub.add_parser("orbifold", help="orbifold E-function of the hypersurface")
    add_common(p)
    p.add_argument(
        "--assume-transverse", dest="assume_transverse", action="store_const",
        const=True, default=None,
        help="treat the vector as transverse even if the built-in criterion says no",
    )
    p.set_defaults(func=_cmd_orbifold)

    p = sub.add_parser("mirror-check", help="verify the mirror-duality identity")
    add_common(p)
    p.set_defaults(func=_cmd_mirror_check)

    p = sub.add_parser("scan", help="sweep IP weight vectors by dimension")
    p.add_argument("--dim", type=int, required=True, help="projective dimension d")
    p.add_argument("--wmax", type=int, required=True, help="largest weight sum")
    p.add_argument("--skip", type=int, default=0, help="rows to skip (resume)")
    p.add_argument("--limit", type=int, default=None, help="stop after this many rows")
    p.add_argument("--format", choices=("text", "json", "csv"), default="csv")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotIP as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NO_MIRROR
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_INPUT
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
