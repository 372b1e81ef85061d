"""Command-line front end: ring queries, Euler characteristics, the filter
scan and the full classification replay.

Output goes to stdout, diagnostics to stderr.  ``--format`` selects plain
text (default), csv, or json; json renders every rational as
``{"num": "...", "den": "..."}`` with integer strings, and tables as arrays
of row objects.  The indented JSON of ``filter`` and ``replay`` is streamed
to stdout by one writer whose text equals ``json.dumps(doc, indent=2)``:
with an indent, ``json`` falls back to its pure-Python encoder, which is
slower than this writer.  Their csv and plain tables go through one table
printer, which streams csv row by row.  Exit codes: 0 success, 2 usage error,
3 domain error, 4 regression mismatch against the frozen tables; a reader
closing stdout early (``schubert replay | head``) ends it silently with 141,
as SIGPIPE would, in every format.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# Largest ring dimension ``intersect`` accepts, a bound on the work of each
# product: a ring of dimension d has skew shapes of at most d cells to fill,
# and at d <= 64 at most 12870 basis classes (G(7,15)).
MAX_INTERSECT_DIMENSION = 64

# Largest |e| and n ``splitting-types`` accepts; it prints about n/2 lines of
# (p, q) with |p|, |q| <= |e| + n, so this bounds its work.
MAX_SPLITTING_TYPES_N = 10_000

# Largest |e|, |a|, |b| and |twist| ``chi`` and ``chi-p3`` accept.  An answer
# is a polynomial of degree 6 in them, so at this bound it has about 40
# digits, far below the 4300 digits Python prints of one int.
MAX_CHI_ARGUMENT = 10**6


# -- rendering helpers ---------------------------------------------------------


def _frac_json(value: int | Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


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


def _print_table(fmt: str, columns: list[str], rows) -> None:
    """Write ``rows``, dicts keyed by ``columns``, to stdout as csv (streamed row
    by row) or as plain text (each column padded to its widest cell)."""
    cells = ([row[c] for c in columns] for row in rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return
    table = [columns, *([str(cell) for cell in r] for r in cells)]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    for r in table:
        sys.stdout.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def _emit_scalar(value: Fraction, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_frac_json(value)))
    else:
        print(value)


# -- candidate record serialization ---------------------------------------------


def _witness_string(rec: CandidateRecord) -> str:
    return ";".join(
        f"{k}={_witness_text(val)}" for v in rec.verdicts for k, val in v.witness.items()
    )


def _record_row(rec: CandidateRecord) -> dict:
    # the verdicts follow FILTER_RULES up to the first failure; later rules stay blank
    row = {"e": rec.data.e, "a": rec.data.a, "b": rec.data.b, **dict.fromkeys(FILTER_RULES, "")}
    for v in rec.verdicts:
        row[v.rule] = "pass" if v.passed else "fail"
    row["status"] = rec.status
    row["detail"] = rec.detail
    row["witness"] = _witness_string(rec)
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


REPLAY_COLUMNS = ["section", "e", "a", "b", "action", "outcome", "witness"]


def _replay_row(section: str, data: RankTwoData, action: str, outcome: str, witness: str = "") -> dict:
    return dict(zip(REPLAY_COLUMNS, (section, *data, action, outcome, witness)))


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


def _chi_arguments_too_large(command: str, values: dict[str, int]) -> bool:
    """Print the one-line refusal when an argument is above MAX_CHI_ARGUMENT."""
    if max(map(abs, values.values())) <= MAX_CHI_ARGUMENT:
        return False
    names = ", ".join(f"|{name}|" for name in values)
    print(f"error: {command} supports {names} at most {MAX_CHI_ARGUMENT}", file=sys.stderr)
    return True


def cmd_chi(args) -> int:
    if _chi_arguments_too_large("chi", {"e": args.e, "a": args.a, "b": args.b, "twist": args.twist}):
        return EXIT_DOMAIN
    data = RankTwoData(args.e, args.a, args.b).twisted(args.twist)
    _emit_scalar(euler_characteristic(rank_two_chern(G14, data)), args.format)
    return EXIT_OK


def cmd_chi_p3(args) -> int:
    if _chi_arguments_too_large("chi-p3", {"e": args.e, "a": args.a, "twist": args.twist}):
        return EXIT_DOMAIN
    _emit_scalar(chi_p3(args.e, args.a, args.twist), args.format)
    return EXIT_OK


def cmd_splitting_types(args) -> int:
    if max(abs(args.e), args.n) > MAX_SPLITTING_TYPES_N:
        print(f"error: splitting-types supports |e| and n at most {MAX_SPLITTING_TYPES_N}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        types = fano_splitting_types(args.e, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps([{"p": t.p, "q": t.q} for t in types]))
    elif args.format == "csv":
        _print_table("csv", ["p", "q"], ({"p": t.p, "q": t.q} for t in types))
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
        _print_table(args.format, FILTER_COLUMNS, (_record_row(r) for r in records))
    pre = len(survivors(records, "schwarzenberger"))
    post = len(survivors(records, "griffiths"))
    if not step1_matches(records):
        print("regression: candidate table differs from the frozen table", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"{pre} candidates pass the integrality filter; {post} survive", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        report = replay_proof()
    except ReplayMismatch as exc:
        print(f"regression at {exc.step}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    sections = (
        ("step1", "step1_table", report.step1_table),
        ("step2", "step2_results", report.step2_results),
        ("step3", "step3_table", report.step3_table),
        ("step4", "step4_results", report.step4_results),
    )
    if args.format == "json":
        doc = {key: [_record_json(r) for r in records] for _, key, records in sections}
        doc["final_list"] = [_final_json(b) for b in report.final_list]
        _print_json_indented(doc)
    else:
        rows = [_replay_row(s, r.data, r.status, r.detail, _witness_string(r))
                for s, _, records in sections for r in records]
        rows += [_replay_row("final", b.data, b.kind, b.name) for b in report.final_list]
        _print_table(args.format, REPLAY_COLUMNS, rows)
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

    p = with_format(sub.add_parser(
        "chi",
        help="Euler characteristic of rank-two data on G(1,4)",
        description="Euler characteristic of the rank-two data (e, a, b) on G(1,4), twisted by "
        f"--twist. |e|, |a|, |b| or |twist| above {MAX_CHI_ARGUMENT} is refused with exit code 3, "
        "which keeps every answer short.",
    ))
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=cmd_chi)

    p = with_format(sub.add_parser(
        "chi-p3",
        help="Euler characteristic of restricted data on P^3",
        description="Euler characteristic on P^3 of the rank-two data (e, a), twisted by --twist. "
        f"|e|, |a| or |twist| above {MAX_CHI_ARGUMENT} is refused with exit code 3, which keeps "
        "every answer short.",
    ))
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=cmd_chi_p3)

    p = with_format(sub.add_parser("filter", help="scan and filter the candidate (e,a,b) table"))
    p.set_defaults(func=cmd_filter)

    p = with_format(sub.add_parser("replay", help="replay the full four-step classification"))
    p.set_defaults(func=cmd_replay)

    p = with_format(sub.add_parser(
        "splitting-types",
        help="Fano splitting types on a line",
        description="List the splitting types (p, q), p + q = e, 2p + n + 1 - e > 0. |e| or n "
        f"above {MAX_SPLITTING_TYPES_N} is refused with exit code 3, bounding the output to n/2 "
        "short lines.",
    ))
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
    try:
        code = main()
        sys.stdout.flush()  # the last buffered block may meet a closed pipe too
    except BrokenPipeError:  # the reader has gone; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
