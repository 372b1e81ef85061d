"""Command-line front end: ring queries, Euler characteristics, the filter
scan and the full classification replay.

Output goes to stdout, diagnostics to stderr.  ``--format`` selects plain
text (default), csv, or json; json renders every rational as
``{"num": "...", "den": "..."}`` with integer strings, and tables as arrays
of row objects.  The indented JSON of ``filter`` and ``replay`` is streamed
to stdout with text equal to ``json.dumps(doc, indent=2)``: with an indent,
``json`` falls back to its pure-Python encoder, which is slower.  Each
document is a fixed frame of lists, and one list writer streams them, each
item in one write; no dict tree is built and no whole list is held as one
string.  A final-list entry is written by ``_final_json_text``.

A candidate record has one writer per format, ``_record_json_format`` and
``_record_csv_format`` (the csv line of ``_record_row``), and each writes a
``%``-format: the record's text with a ``%s`` slot for each of e, a, b and
each witness number, every other ``%`` doubled.  Within one render call a
record list is written from one format per record shape, each record as
``formats[shape] % values``.  A shape, ``_record_shape``, fixes every byte
but the slots: status, detail, and per verdict the rule, passed, citation
and witness keys, with each witness value keyed by its kind (bool, None, a
number, a tuple or list of keyed items, or any other value by its str).
Every record has a shape.  The formats live in a dict local to the call;
no rendered text outlives it.

The other csv and plain tables go through one table printer, which streams
csv row by row; each row is a sequence of cells in column order, read
straight off the record.

Exit codes: 0 success, 2 usage error (its message cut to its two ends,
since argparse quotes a bad argument in full), 3 domain error, 4 regression
mismatch against the frozen tables (one line, printed by ``main`` for every
command); a reader closing stdout early (``schubert replay | head``) ends it
silently with 141, as SIGPIPE would, in every format.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .charclass import RankTwoData
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
    step1_survivors,
)
from .hrr import chi_form, chi_p3
from .hrr import euler_characteristic  # unused here; the benchmark's tracer rebinds it by name in this module
from .partitions import fits, partition

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

# Longest usage-error message printed: argparse quotes a bad argument in full.
MAX_USAGE_MESSAGE = 200


# -- rendering helpers ---------------------------------------------------------


def _frac_json(value: int | Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _witness_text(value, slots: bool = False) -> str:
    """The text of a witness value in a csv or plain cell: bool and None in
    lower case, a tuple or list (a SplittingType too) its items joined by
    '|', anything else its str.  With ``slots``, as in a record's csv format:
    each number is a ``%s`` slot and every other ``%`` is doubled."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return "|".join([_witness_text(v, slots) for v in value])
    if not slots:
        return str(value)
    return "%s" if isinstance(value, (int, Fraction)) else str(value).replace("%", "%%")


def _write_json_list(items, text, newline: str) -> None:
    """Write ``items`` to stdout as ``json.dumps(indent=2)`` lays out a list at
    the indent of ``newline``: each item is ``text(item, inner)``, written with
    the separator before it in one write, so the list is never held whole."""
    if not items:
        sys.stdout.write("[]")
        return
    write = sys.stdout.write
    inner = newline + "  "
    sep = "[" + inner
    for item in items:
        write(sep + text(item, inner))
        sep = "," + inner
    write(newline + "]")


def _print_table(fmt: str, columns: list[str], rows) -> None:
    """Write ``rows``, sequences of cells in the order of ``columns``, to stdout as
    csv (streamed row by row) or as plain text (each column padded to its widest cell)."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return
    table = [columns, *([str(cell) for cell in r] for r in rows)]
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


def _record_row(rec: CandidateRecord) -> tuple:
    # the verdicts follow FILTER_RULES up to the first failure; later rules stay blank
    marks = ["pass" if v.passed else "fail" for v in rec.verdicts]
    return (*rec.data, *marks, *[""] * (len(FILTER_RULES) - len(marks)), rec.status, rec.detail,
            _witness_string(rec))


# -- candidate records, written from one format per shape ------------------------

_NUMBER_TYPES = frozenset((int, Fraction))


def _witness_key(value, numbers: list):
    """The key of a witness value in a record's shape, each number in it
    appended to ``numbers``: bool and None as themselves, a number (an int
    or a Fraction, a bool none) as the class Fraction, a tuple or list (a
    SplittingType too) as the tuple of its items' keys, and any other value
    as its str, which is all of it that the record's text holds."""
    if value is True or value is False or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        numbers.append(value)
        return Fraction
    if isinstance(value, (tuple, list)):
        if _NUMBER_TYPES.issuperset(map(type, value)):  # the items' keys in one step
            numbers += value
            return (Fraction,) * len(value)
        return tuple([_witness_key(v, numbers) for v in value])
    return str(value)


def _record_shape(rec: CandidateRecord):
    """The shape of ``rec`` and its numbers.

    The shape fixes every byte of the record's text but e, a, b and the
    witness numbers: status, detail, and per verdict its rule, passed,
    citation and witness keys, each key's ``_witness_key`` after them.  The
    numbers are e, a, b, then the witness numbers in order."""
    numbers = list(rec.data)
    shape = [rec.status, rec.detail]
    for v in rec.verdicts:
        witness = v.witness
        shape.append((v.rule, v.passed, v.citation, *witness))
        for value in witness.values():  # the common kinds inline, each other one keyed in full
            kind = type(value)
            if kind is int or kind is Fraction:
                numbers.append(value)
                shape.append(Fraction)
            elif value is True or value is False or value is None:
                shape.append(value)
            else:
                shape.append(_witness_key(value, numbers))
    return tuple(shape), numbers


def _json_string(text: str) -> str:
    """``text`` as a JSON string in a format: ASCII-escaped, ``%`` doubled."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _witness_json_format(value, newline: str) -> str:
    """A witness value as JSON text at the indent of ``newline``, in a
    format: bool and None as themselves, a number as ``{"num", "den"}`` with
    a ``%s`` slot for each, any tuple or list (a SplittingType too) as a
    list, anything else as its str."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, (int, Fraction)):
        return f'{{{inner}"num": "%s",{inner}"den": "%s"{newline}}}'
    if isinstance(value, (tuple, list)):
        if not value:
            return "[]"
        items = ("," + inner).join([_witness_json_format(v, inner) for v in value])
        return f"[{inner}{items}{newline}]"
    return _json_string(str(value))


def _record_json_format(rec: CandidateRecord, newline: str) -> str:
    """The format of ``rec``'s JSON object at the indent of ``newline``, laid
    out as ``json.dumps(indent=2)`` writes it: e, a, b, status, detail, then
    the verdicts, each an object of rule, passed, witness and citation.  It
    has a ``%s`` slot for each of e, a, b and for each witness number's
    numerator and denominator; every other ``%`` is doubled."""
    key = newline + "  "  # the record's keys
    item = key + "  "  # the verdict objects
    field = item + "  "  # their keys
    entry = field + "  "  # the witness keys
    verdicts = []
    for v in rec.verdicts:
        witness = ",".join([
            f"{entry}{_json_string(k)}: {_witness_json_format(val, entry)}"
            for k, val in v.witness.items()
        ])
        verdicts.append(
            f'{{{field}"rule": {_json_string(v.rule)},'
            f'{field}"passed": {"true" if v.passed else "false"},'
            f'{field}"witness": {"{" + witness + field + "}" if witness else "{}"},'
            f'{field}"citation": {_json_string(v.citation)}{item}}}'
        )
    verdict_list = "[" + item + ("," + item).join(verdicts) + key + "]" if verdicts else "[]"
    return (
        f'{{{key}"e": %s,{key}"a": %s,{key}"b": %s,'
        f'{key}"status": {_json_string(rec.status)},'
        f'{key}"detail": {_json_string(rec.detail)},'
        f'{key}"verdicts": {verdict_list}{newline}}}'
    )


def _json_values(numbers: list) -> tuple:
    """The slot values of a record's JSON format: e, a, b through
    ``int.__repr__`` (a Fraction or a float raises TypeError, a bool is 1 or
    0), then each witness number's numerator and denominator."""
    values = numbers[:3]
    if not (type(values[0]) is int and type(values[1]) is int and type(values[2]) is int):
        values = [*map(int.__repr__, values)]
    for n in numbers[3:]:
        values += n.as_integer_ratio()
    return tuple(values)


def _templated(build, values):
    """A render of records: each is written as its shape's format %
    ``values(numbers)``, the format built by ``build(rec)`` for the shape's
    first record.  The formats live as long as the render."""
    formats = {}

    def render(rec: CandidateRecord) -> str:
        shape, numbers = _record_shape(rec)
        fmt = formats.get(shape)
        if fmt is None:
            fmt = formats[shape] = build(rec)
        return fmt % values(numbers)

    return render


def _write_records_json(records, newline: str) -> None:
    """Write ``records`` as ``json.dumps(indent=2)`` lays out their list at
    the indent of ``newline``, each from its shape's format."""
    inner = newline + "  "
    render = _templated(lambda rec: _record_json_format(rec, inner), _json_values)
    _write_json_list(records, lambda rec, _: render(rec), newline)


def _csv_line_writer():
    """A csv writer of the tables' dialect whose ``writerow`` returns the line:
    it returns what its file's write returns, here ``str``'s."""
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n")


def _record_csv_format(rec: CandidateRecord) -> str:
    """The format of the csv line of ``_record_row(rec)``: a ``%s`` slot for
    each of e, a, b and each witness number, every other ``%`` doubled.
    csv quotes and escapes a cell by its literal text alone, as neither
    ``%s`` nor a number's text holds a character it quotes."""
    _, _, _, *marks, status, detail, _ = _record_row(rec)
    witness = ";".join(
        f"{k.replace('%', '%%')}={_witness_text(val, slots=True)}"
        for v in rec.verdicts for k, val in v.witness.items()
    )
    cells = ("%s", "%s", "%s", *marks, status.replace("%", "%%"), detail.replace("%", "%%"), witness)
    return _csv_line_writer().writerow(cells)


def _write_records_csv(records) -> None:
    """Write the ``filter`` csv table of ``records`` as ``_print_table("csv",
    FILTER_COLUMNS, map(_record_row, records))`` does, each row from its
    shape's format."""
    render = _templated(_record_csv_format, tuple)
    write = sys.stdout.write
    write(_csv_line_writer().writerow(FILTER_COLUMNS))
    for rec in records:
        write(render(rec))


REPLAY_COLUMNS = ["section", "e", "a", "b", "action", "outcome", "witness"]


def _final_json_text(entry: BundleType, newline: str) -> str:
    """The JSON object of a final-list entry at the indent of ``newline``, as
    ``json.dumps(indent=2)`` writes it: kind, p, q (null for the non-split
    entry), e, a, b, name."""
    key = newline + "  "
    p, q = map(int.__repr__, entry.split) if entry.split else ("null", "null")
    e, a, b = map(int.__repr__, entry.data)  # a Fraction raises TypeError
    return (
        f'{{{key}"kind": {encode_basestring_ascii(entry.kind)},{key}"p": {p},{key}"q": {q},'
        f'{key}"e": {e},{key}"a": {a},{key}"b": {b},'
        f'{key}"name": {encode_basestring_ascii(entry.name)}{newline}}}'
    )


# -- commands --------------------------------------------------------------------


def _parse_partition_list(text: str) -> list[tuple[int, ...]]:
    chunks = [c.strip() for c in text.split(";")]
    if not any(chunks):
        raise ValueError("empty class list")
    out = []
    for i, chunk in enumerate(chunks, 1):
        try:
            out.append(partition(int(p) for p in chunk.split(",")))
        except ValueError:  # name the factor by its position: its parts may be many or long
            raise ValueError(f"factor {i} is not a weakly decreasing list of non-negative integers") from None
    return out


def cmd_intersect(args) -> int:
    try:
        ring = GrassmannRing(args.k, args.n)
    except ValueError:  # k and n may have thousands of digits: print neither
        print("error: intersect needs 0 <= k < n", file=sys.stderr)
        return EXIT_USAGE
    try:
        indices = _parse_partition_list(args.classes)
    except ValueError as exc:
        print(f"error: malformed partition list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if ring.dimension > MAX_INTERSECT_DIMENSION:
        # k and n may have thousands of digits, their dimension twice as many
        print(f"error: intersect supports G(k,n) of dimension (k+1)(n-k) at most {MAX_INTERSECT_DIMENSION}",
              file=sys.stderr)
        return EXIT_DOMAIN
    outside = next((i for i, la in enumerate(indices, 1) if not fits(la, ring.box)), None)
    if outside is not None:
        print(f"error: factor {outside} does not fit in the {ring.box.rows}x{ring.box.cols} box "
              f"of G({args.k},{args.n})", file=sys.stderr)
        return EXIT_DOMAIN
    # Degree-0 factors are the unit, and each other factor raises the degree,
    # so at most `dimension` products are made before the product vanishes.
    # The last factor is paired with the product, not multiplied into it.
    *head, last = [ring.sigma(la) for la in indices if la] or [ring.one()]
    acc = None
    for factor in head:
        acc = factor if acc is None else acc * factor
        if not acc:
            break
    _emit_scalar(last.integrate() if acc is None else acc.pair(last), args.format)
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
    _emit_scalar(chi_form(G14)(RankTwoData(args.e, args.a, args.b).twisted(args.twist)), args.format)
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
        _print_table("csv", ["p", "q"], types)
    else:
        for t in types:
            print(f"({t.p},{t.q})")
    return EXIT_OK


FILTER_COLUMNS = ["e", "a", "b", *FILTER_RULES, "status", "detail", "witness"]


def cmd_filter(args) -> int:
    records = enumerate_candidates()
    if args.format == "json":
        _write_records_json(records, "\n")
        sys.stdout.write("\n")
    elif args.format == "csv":
        _write_records_csv(records)
    else:
        _print_table(args.format, FILTER_COLUMNS, map(_record_row, records))
    pre = step1_survivors(records)
    post = sum(r.status == "surviving" for r in pre)
    print(f"{len(pre)} candidates pass the integrality filter; {post} survive", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    report = replay_proof()
    sections = (
        ("step1", "step1_table", report.step1_table),
        ("step2", "step2_results", report.step2_results),
        ("step3", "step3_table", report.step3_table),
        ("step4", "step4_results", report.step4_results),
    )
    if args.format == "json":
        sep = "{"
        for _, key, records in sections:
            sys.stdout.write(f'{sep}\n  "{key}": ')
            _write_records_json(records, "\n  ")
            sep = ","
        sys.stdout.write(',\n  "final_list": ')
        _write_json_list(report.final_list, _final_json_text, "\n  ")
        sys.stdout.write("\n}\n")
    else:
        rows = [(s, *r.data, r.status, r.detail, _witness_string(r))
                for s, _, records in sections for r in records]
        rows += [("final", *b.data, b.kind, b.name, "") for b in report.final_list]
        _print_table(args.format, REPLAY_COLUMNS, rows)
    print("replay complete: all witnesses match; final list has "
          f"{len(report.final_list)} entries", file=sys.stderr)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep exit 2 and the usage line but
    cut the message, which quotes the bad argument, to its two ends; the
    sub-command parsers are made of the same class."""

    def error(self, message: str):
        if len(message) > MAX_USAGE_MESSAGE:
            half = MAX_USAGE_MESSAGE // 2
            message = f"{message[:half]} ... {message[-half:]}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        return args.func(args)
    except ReplayMismatch as exc:  # its text starts with the step it names
        print(f"regression at {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # the last buffered block may meet a closed pipe too
    except BrokenPipeError:  # the reader has gone; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
