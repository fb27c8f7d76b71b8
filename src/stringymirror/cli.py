"""Command-line interface.

Subcommands:

* ``analyze W``       weights, charges, census, IP/transversality, Milnor
* ``stringy W``       stringy E-function of the mirror (+ Hodge table)
* ``orbifold W``      orbifold E-function data of the hypersurface itself
* ``mirror-check W``  full mirror-duality verification report
* ``scan``            sweep all IP weight vectors of a given dimension

Weights are given as a comma- or space-separated list, e.g. ``1,5,12,18``.
Output formats: ``text`` (default) prints the payload in its key order,
``--per-l`` last; ``json`` is canonical (sorted keys, so a load/dump round
trip is byte-identical); ``csv`` holds a fixed set of row fields, without
the ``--per-l`` breakdown.

Exit codes: 0 success (including "no mirror exists" answers), 2 invalid
input, 3 IP-property precondition failed, 4 internal error: any other
package error (a failed guard: reconstruction, pole, sign pattern, non-exact
division, LP, census, sector exponents, verification) or a ValueError from
the library's own arithmetic.  A reader that closes stdout early, as
``head`` does, ends the command with exit code 0 and no further output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EmptyInput, NotIP, NotWellFormed, OutOfRange, StringyMirrorError
from .exact_arith import EFunction, hodge_table, render_bipoly, render_rational_t
from .face_epoly import psi
from .mirror_verify import VerificationReport, verify
from .orbifold import _orbifold, vafa_euler, vafa_poincare
from .stringy import _stringy
from .weights import (
    VectorRecord,
    WeightVector,
    _classified,
    census,
    ip_property,
    ip_record,
    ip_vectors,
    milnor_number,
    transverse,
    validate,
)

INVALID_INPUT, NO_MIRROR, INTERNAL = 2, 3, 4

# a weight token: an optional sign and ASCII digits (int() alone would also
# read digit-group underscores and non-ASCII digits)
_INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")

_INPUT_ERRORS = (EmptyInput, NotWellFormed, OutOfRange)
# caught after NotIP and the input errors: every other package error is a
# failed internal guard, and a ValueError comes from the library's own
# arithmetic, never from the input (``_parse_weights`` turns a bad token
# into NotWellFormed)
_INTERNAL_ERRORS = (StringyMirrorError, ValueError)


# ---------------------------------------------------------------------------
# rendering


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
    if not all(_INTEGER_TOKEN.fullmatch(p) for p in parts):
        raise NotWellFormed(f"weights must be integers, got {raw!r}")
    try:
        ints = [int(p) for p in parts]
    except ValueError:  # past int()'s digit limit
        raise NotWellFormed(f"weights must be integers, got {raw!r}")
    return validate(ints)


def _analyze_payload(wv: WeightVector) -> Dict:
    cen = census(wv)
    tr = transverse(wv)
    return {
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
        "milnor": str(milnor_number(wv, tr)) if tr else None,
    }


def _row_payload(
    rec: VectorRecord, shown: EFunction, report: Optional[VerificationReport] = None
) -> Dict:
    """The row of an IP vector's record: ``e_str`` and ``hodge`` render
    ``shown``, the E-function the command prints; ``report``, when given,
    supplies only the ``mirror_check`` verdict, and the rest comes from the
    record in every command: the stringy half (the class of l = 0 is its
    first term) and ``vafa_euler``.  The keys are in the order the text
    format prints them."""
    wv = rec.wv
    s = _stringy(rec)
    poly = s.total.is_polynomial()
    if report is None:
        mirror_check = "n/a"
    else:
        mirror_check = "pass" if report.passed else "fail"
    payload = {
        "weights": list(wv.weights),
        "w": wv.w,
        "ip": True,
        "transverse": transverse(wv),
        "stringy_polynomial": poly,
        "e_str": render_efunction(shown),
        "euler_str": str(s.total.value_at_one()),
        "euler_orb": str(vafa_euler(wv)),
        "mirror_check": mirror_check,
        "hodge": _hodge_grid(shown, wv.d - 1),
        "untwisted_limit": str(s.terms[0].value_at_one()),
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


def _print_csv_rows(rows: Iterable[Dict], fields: Tuple[str, ...] = _ROW_FIELDS) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(fields)
    sys.stdout.flush()
    for row in rows:
        flat = dict(row)
        if "e_str" in fields and not row["stringy_polynomial"]:
            flat["e_str"] = "non-polynomial"
        writer.writerow([_csv_scalar(flat[f]) for f in fields])
        sys.stdout.flush()


def _print_text_kv(payload: Dict) -> None:
    for key, value in payload.items():
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
        if key == "per_l":
            print("per_l:")
            for l, entry in value.items():
                print(f"  l={l}: {entry}")
            continue
        print(f"{key}: {_csv_scalar(value)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    wv = _parse_weights(args.weights)
    payload = _analyze_payload(wv)
    _emit_single(args, payload, tuple(sorted(payload)))
    return 0


def _cmd_stringy(args) -> int:
    rec = ip_record(_parse_weights(args.weights))
    s = _stringy(rec)
    payload = _row_payload(rec, s.total)
    if args.per_l:
        payload["per_l"] = _per_l(rec, [render_efunction(e) for e in s.terms])
    _emit_single(args, payload)
    return 0


def _cmd_orbifold(args) -> int:
    rec = ip_record(_parse_weights(args.weights))
    orb = _orbifold(rec)
    payload = _row_payload(rec, orb.total)
    tr = args.assume_transverse or payload["transverse"]
    payload["formal"] = not tr
    if tr:
        payload["vafa_poincare"] = render_bipoly(vafa_poincare(rec.wv))
    if args.per_l:
        payload["per_l"] = _per_l(rec, [render_efunction(e) for e in orb.terms])
    _emit_single(args, payload)
    return 0


def _cmd_mirror_check(args) -> int:
    rec = ip_record(_parse_weights(args.weights))
    report = verify(rec.wv)
    half = _stringy(rec)
    payload = _row_payload(rec, half.total, report)
    payload["per_l_failures"] = list(report.per_l_failures)
    payload["hodge_pairs_match"] = report.hodge_pairs_match
    if args.per_l:
        failures = set(report.per_l_failures)  # whole element classes
        # the halves' terms class by class, paired as ``verify`` pairs them
        pairs = zip(_classified(rec).classes, half.terms, _orbifold(rec).terms)
        payload["per_l"] = _per_l(rec, [
            {
                "stringy": render_efunction(s),
                "orbifold": render_efunction(o),
                "equal": c.first not in failures,
            }
            for c, s, o in pairs
        ])
    _emit_single(args, payload)
    return 0


def _per_l(rec: VectorRecord, rendered: Sequence[object]) -> Dict[str, object]:
    """The ``--per-l`` payload, in the order of l: a term depends on l only
    through its element class, so ``rendered`` holds one entry per class, in
    the order of the classes, and each entry is keyed by every l of the
    class."""
    return {str(l): rendered[c] for l, c in enumerate(_classified(rec).class_of)}


def _emit_single(args, payload: Dict, fields: Tuple[str, ...] = _ROW_FIELDS) -> None:
    """One payload in the chosen format; CSV holds only ``fields``."""
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv_rows([payload], fields)
    else:
        _print_text_kv(payload)


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
    vectors = islice(ip_vectors(args.dim, args.wmax), args.skip, stop)
    rows = (_row_payload(rec, _stringy(rec).total, verify(rec.wv))
            for rec in map(ip_record, vectors))
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

    p = sub.add_parser("stringy", help="stringy E-function of the mirror")
    add_common(p)

    p = sub.add_parser("orbifold", help="orbifold E-function of the hypersurface")
    add_common(p)
    p.add_argument(
        "--assume-transverse", dest="assume_transverse", action="store_const",
        const=True, default=None,
        help="treat the vector as transverse even if the built-in criterion says no",
    )

    p = sub.add_parser("mirror-check", help="verify the mirror-duality identity")
    add_common(p)

    p = sub.add_parser("scan", help="sweep IP weight vectors by dimension")
    p.add_argument("--dim", type=int, required=True, help="projective dimension d")
    p.add_argument("--wmax", type=int, required=True, help="largest weight sum")
    p.add_argument("--skip", type=int, default=0, help="rows to skip (resume)")
    p.add_argument("--limit", type=int, default=None, help="stop after this many rows")
    p.add_argument("--format", choices=("text", "json", "csv"), default="csv")

    return parser


# built by the first ``main`` call and reused by the later ones
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        # --help prints here, so its flush is guarded too
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            # the handler is looked up here, not stored in the parser, so a
            # rebound module global is seen by the next call
            code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped, as ``head`` does; devnull keeps the exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
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
