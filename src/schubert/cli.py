"""Command-line front end: ring queries, Euler characteristics, the filter
scan and the full classification replay.

Output goes to stdout, diagnostics to stderr.  ``--format`` selects plain
text (default), csv, or json; json renders every rational as
``{"num": "...", "den": "..."}`` with integer strings, and tables as arrays
of row objects.  The indented JSON of ``filter`` and ``replay`` is streamed
to stdout by one writer whose text equals ``json.dumps(doc, indent=2)``:
with an indent, ``json`` falls back to its pure-Python encoder, which is
slower than this writer.  Exit codes: 0 success, 2 usage error, 3 domain
error, 4 regression mismatch against the frozen tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .charclass import RankTwoData, rank_two_chern
from .chow import GrassmannRing
from .classify import (
    FILTER_RULES,
    G14,
    BundleType,
    CandidateRecord,
    ReplayMismatch,
    enumerate_candidates,
    fano_splitting_types,
    replay_proof,
    step1_matches,
    survivors,
)
from .hrr import chi_p3, euler_characteristic
from .partitions import partition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_MISMATCH = 4

# Largest ring dimension ``intersect`` accepts, a bound on the work of each
# product: a ring of dimension d has skew shapes of at most d cells to fill,
# and at d <= 64 at most 12870 basis classes (G(7,15)).
MAX_INTERSECT_DIMENSION = 64


# -- rendering helpers ---------------------------------------------------------


def _exact(value) -> int | Fraction:
    """``value`` itself when it is an int or a Fraction, else ``Fraction(value)``."""
    return value if type(value) is int or isinstance(value, Fraction) else Fraction(value)


def _frac_text(value) -> str:
    return str(_exact(value))


def _frac_json(value) -> dict:
    q = _exact(value)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _witness_json(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return _frac_json(value)
    if isinstance(value, (tuple, list)):
        return [_witness_json(v) for v in value]
    return str(value)


def _witness_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (int, Fraction)):
        return _frac_text(value)
    if isinstance(value, (tuple, list)):
        return "|".join(_witness_text(v) for v in value)
    return str(value)


def _print_json_indented(doc) -> None:
    """Write ``doc`` to stdout as ``print(json.dumps(doc, indent=2))`` would.

    One recursive pass streams the text fragment by fragment, so the whole
    document is never held as one string.  Only exact JSON values are
    accepted: dict with str keys, list, str, int, bool and None.  Anything
    else, a float or a Fraction included, raises TypeError.
    """
    write = sys.stdout.write

    def emit(value, newline: str) -> None:
        if isinstance(value, str):
            write(encode_basestring_ascii(value))
        elif value is None:
            write("null")
        elif value is True:
            write("true")
        elif value is False:
            write("false")
        elif isinstance(value, int):
            write(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                write("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON object key {key!r} is not a str")
                write(sep + encode_basestring_ascii(key) + ": ")
                emit(item, inner)
                sep = "," + inner
            write(newline + "}")
        elif isinstance(value, list):
            if not value:
                write("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                write(sep)
                emit(item, inner)
                sep = "," + inner
            write(newline + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not exact JSON")

    emit(doc, "\n")
    write("\n")


def _print_csv(columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    sys.stdout.write(buf.getvalue())


def _print_plain(columns: list[str], rows: list[dict]) -> None:
    table = [columns] + [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    for r in table:
        sys.stdout.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def _emit_scalar(value: Fraction, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_frac_json(value)))
    else:
        print(_frac_text(value))


# -- candidate record serialization ---------------------------------------------


def _record_row(rec: CandidateRecord) -> dict:
    row = {"e": rec.data.e, "a": rec.data.a, "b": rec.data.b}
    witness_bits = []
    for rule in FILTER_RULES:
        v = rec.verdict(rule)
        row[rule] = "" if v is None else ("pass" if v.passed else "fail")
        if v is not None:
            witness_bits.extend(f"{k}={_witness_text(val)}" for k, val in v.witness.items())
    row["status"] = rec.status
    row["detail"] = rec.detail
    row["witness"] = ";".join(witness_bits)
    return row


def _record_json(rec: CandidateRecord) -> dict:
    return {
        "e": rec.data.e,
        "a": rec.data.a,
        "b": rec.data.b,
        "status": rec.status,
        "detail": rec.detail,
        "verdicts": [
            {
                "rule": v.rule,
                "passed": v.passed,
                "witness": {k: _witness_json(val) for k, val in v.witness.items()},
                "citation": v.citation,
            }
            for v in rec.verdicts
        ],
    }


def _step_row(section: str, rec: CandidateRecord) -> dict:
    witness_bits = []
    for v in rec.verdicts:
        witness_bits.extend(f"{k}={_witness_text(val)}" for k, val in v.witness.items())
    return {
        "section": section,
        "e": rec.data.e,
        "a": rec.data.a,
        "b": rec.data.b,
        "action": rec.status,
        "outcome": rec.detail,
        "witness": ";".join(witness_bits),
    }


def _final_row(entry: BundleType) -> dict:
    return {
        "section": "final",
        "e": entry.data.e,
        "a": entry.data.a,
        "b": entry.data.b,
        "action": entry.kind,
        "outcome": entry.name,
        "witness": "",
    }


def _final_json(entry: BundleType) -> dict:
    return {
        "kind": entry.kind,
        "p": entry.split.p if entry.split else None,
        "q": entry.split.q if entry.split else None,
        "e": entry.data.e,
        "a": entry.data.a,
        "b": entry.data.b,
        "name": entry.name,
    }


# -- commands --------------------------------------------------------------------


def _parse_partition_list(text: str) -> list[tuple[int, ...]]:
    chunks = [c.strip() for c in text.split(";")]
    if not any(chunks):
        raise ValueError("empty class list")
    out = []
    for chunk in chunks:
        parts = [int(p) for p in chunk.split(",")]  # ValueError on malformed syntax
        out.append(partition(parts))  # ValueError when not weakly decreasing
    return out


def cmd_intersect(args) -> int:
    try:
        ring = GrassmannRing(args.k, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        indices = _parse_partition_list(args.classes)
    except ValueError as exc:
        print(f"error: malformed partition list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if ring.dimension > MAX_INTERSECT_DIMENSION:
        print(
            f"error: G({ring.k},{ring.n}) has dimension {ring.dimension}; intersect "
            f"supports dimension at most {MAX_INTERSECT_DIMENSION}",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    try:
        factors = [ring.sigma(la) for la in indices]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    # Degree-0 factors are the unit, and each other factor raises the degree,
    # so at most `dimension` products are made before the product vanishes.
    acc = None
    for la, factor in zip(indices, factors):
        if la:
            acc = factor if acc is None else acc * factor
            if not acc:
                break
    _emit_scalar((ring.one() if acc is None else acc).integrate(), args.format)
    return EXIT_OK


def cmd_chi(args) -> int:
    data = RankTwoData(args.e, args.a, args.b).twisted(args.twist)
    _emit_scalar(euler_characteristic(rank_two_chern(G14, data)), args.format)
    return EXIT_OK


def cmd_chi_p3(args) -> int:
    _emit_scalar(chi_p3(args.e, args.a, args.twist), args.format)
    return EXIT_OK


def cmd_splitting_types(args) -> int:
    try:
        types = fano_splitting_types(args.e, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps([{"p": t.p, "q": t.q} for t in types]))
    elif args.format == "csv":
        _print_csv(["p", "q"], [{"p": t.p, "q": t.q} for t in types])
    else:
        for t in types:
            print(f"({t.p},{t.q})")
    return EXIT_OK


FILTER_COLUMNS = ["e", "a", "b", *FILTER_RULES, "status", "detail", "witness"]


def cmd_filter(args) -> int:
    records = enumerate_candidates()
    if args.format == "json":
        _print_json_indented([_record_json(r) for r in records])
    else:
        rows = [_record_row(r) for r in records]
        if args.format == "csv":
            _print_csv(FILTER_COLUMNS, rows)
        else:
            _print_plain(FILTER_COLUMNS, rows)
    pre = len(survivors(records, "schwarzenberger"))
    post = len(survivors(records, "griffiths"))
    if not step1_matches(records):
        print("regression: candidate table differs from the frozen table", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"{pre} candidates pass the integrality filter; {post} survive", file=sys.stderr)
    return EXIT_OK


REPLAY_COLUMNS = ["section", "e", "a", "b", "action", "outcome", "witness"]


def cmd_replay(args) -> int:
    try:
        report = replay_proof()
    except ReplayMismatch as exc:
        print(f"regression at {exc.step}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.format == "json":
        doc = {
            "step1_table": [_record_json(r) for r in report.step1_table],
            "step2_results": [_record_json(r) for r in report.step2_results],
            "step3_table": [_record_json(r) for r in report.step3_table],
            "step4_results": [_record_json(r) for r in report.step4_results],
            "final_list": [_final_json(b) for b in report.final_list],
        }
        _print_json_indented(doc)
    else:
        rows = [_step_row("step1", r) for r in report.step1_table]
        rows += [_step_row("step2", r) for r in report.step2_results]
        rows += [_step_row("step3", r) for r in report.step3_table]
        rows += [_step_row("step4", r) for r in report.step4_results]
        rows += [_final_row(b) for b in report.final_list]
        if args.format == "csv":
            _print_csv(REPLAY_COLUMNS, rows)
        else:
            _print_plain(REPLAY_COLUMNS, rows)
    print("replay complete: all witnesses match; final list has "
          f"{len(report.final_list)} entries", file=sys.stderr)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Exact intersection theory on Grassmannians and the "
        "rank-two Fano bundle classification on G(1,4).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_format(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
        return p

    p = with_format(sub.add_parser(
        "intersect",
        help="integrate a product of Schubert classes",
        description="Integrate a product of Schubert classes on G(k, n). Rings of "
        f"dimension (k+1)(n-k) above {MAX_INTERSECT_DIMENSION} are refused with exit code 3, "
        "which bounds the work of each product. Degree-0 factors are skipped and the "
        "product stops once it vanishes, so a request makes at most (k+1)(n-k) products "
        "however many factors it lists.",
    ))
    p.add_argument("--k", type=int, required=True, help="planes of projective dimension k")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension n")
    p.add_argument("classes", help="partitions: parts ','-separated, factors ';'-separated, e.g. '2,1;3'")
    p.set_defaults(func=cmd_intersect)

    p = with_format(sub.add_parser("chi", help="Euler characteristic of rank-two data on G(1,4)"))
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=cmd_chi)

    p = with_format(sub.add_parser("chi-p3", help="Euler characteristic of restricted data on P^3"))
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=cmd_chi_p3)

    p = with_format(sub.add_parser("filter", help="scan and filter the candidate (e,a,b) table"))
    p.set_defaults(func=cmd_filter)

    p = with_format(sub.add_parser("replay", help="replay the full four-step classification"))
    p.set_defaults(func=cmd_replay)

    p = with_format(sub.add_parser("splitting-types", help="Fano splitting types on a line"))
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_splitting_types)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    sys.exit(main())
