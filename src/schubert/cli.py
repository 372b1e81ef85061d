"""Command-line front end: ring queries, Euler characteristics, the filter
scan and the full classification replay.

Output goes to stdout, diagnostics to stderr.  ``--format`` selects plain
text (default), csv, or json; json renders every rational as
``{"num": "...", "den": "..."}`` with integer strings, and tables as arrays
of row objects.  The indented JSON of ``filter`` and ``replay`` is streamed
to stdout with text equal to ``json.dumps(doc, indent=2)``: with an indent,
``json`` falls back to its pure-Python encoder, which is slower.  Each
document is a fixed frame of lists, streamed item by item; no dict tree is
built and no whole list is held as one string.  A final-list entry is
written by ``_final_json_text``.

A candidate record is written from ``%``-formats built from its shape, with
every literal ``%`` doubled: ``_record_json_format`` (bytes, a ``%d`` slot
per number), ``_record_csv_format`` (a ``filter`` csv line) and
``_witness_format`` (the witness cell of the plain tables and the ``replay``
csv).  ``_record_shape`` gives a record's shape, its status, detail and per
verdict the rule, passed, citation and (key, kind) pairs of the witness, and
its numbers, all ints: e, a, b, then each witness number as its reduced
(numerator, denominator) pair.  Every writer reads records as (key, numbers)
rows through one loop, ``_formatted``, which builds each format once per row
key, in a dict local to that loop; no rendered text outlives it.
A scan's records, the ``ScanRecords`` that ``enumerate_candidates`` returns,
are read as their own rows, made by the scan in ints: a key is the stop point
and the witness schema of each rule applied, which fix the record's shape,
and its formats are built from the record of its first row, so no other scan
record is built to be written.  Any other record's row is its
``_record_shape``, keyed by the shape.  JSON fills its slots with the
numbers, and every JSON list, of records or of final-list entries, is
written by ``_write_json_list``.  csv and the plain tables fill a format
derived per (format, witness denominators) (``_derived_format``) with e, a,
b and the numerators.

So ``_record_shape`` alone classifies a witness value, from a closed set of
kinds: True, False, None, an int or a Fraction, and a tuple of ints and
Fractions (a SplittingType too); any other raises TypeError, also where a
scan rule's schema holds it.  Every writer prints a coordinate e, a, b as
``int.__index__`` makes it an int: a Fraction or a float raises TypeError, a
bool is 1 or 0, so no ``%d`` slot truncates a number.

The other csv and plain tables go through one table printer, which streams
csv row by row; each row is a sequence of cells in column order, read off
the record's row, status and detail off its shape.

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
from operator import itemgetter
from types import SimpleNamespace

from .charclass import RankTwoData
from .chow import GrassmannRing
from .classify import (
    FILTER_RULES,
    G14,
    BundleType,
    CandidateRecord,
    ReplayMismatch,
    ScanRecords,
    enumerate_candidates,
    fano_splitting_types,
    replay_proof,
    scan_record,
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


def _write_json_list(texts, newline: str) -> None:
    """Write ``texts``, the JSON texts of a list's items at the indent of
    ``newline`` and two spaces, to stdout as ``json.dumps(indent=2)`` lays
    out the list at the indent of ``newline``: the separator, then the item,
    two writes per item (they cost less than one join), so the list is never
    held whole."""
    write = sys.stdout.write
    inner = newline + "  "
    first = sep = "[" + inner
    for text in texts:
        write(sep)
        write(text)
        sep = "," + inner
    write("[]" if sep is first else newline + "]")


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
        print(json.dumps({"num": str(value.numerator), "den": str(value.denominator)}))
    else:
        print(value)


# -- candidate records, written from one format per shape ------------------------

_NUMBER_TYPES = frozenset((int, Fraction))


def _record_shape(rec: CandidateRecord):
    """The shape of ``rec`` and its numbers; the one classifier of witness values.

    The shape fixes every byte of the record's text but e, a, b and the
    witness numbers: (status, detail, verdicts), each verdict its rule,
    passed, citation and the (key, kind) pair of each witness value.  The
    kind of True, False and None is the value itself, of an int or a
    Fraction the class Fraction, of a tuple of them a tuple of the class
    Fraction (never its length, or a 1-tuple would share a shape with True).
    Any other value raises TypeError.  The numbers are ints: e, a, b, made
    so by ``int.__index__`` (a Fraction or a float raises TypeError, a bool
    is 1 or 0, so no ``%d`` slot truncates one and every writer prints them
    alike), then each witness number's reduced (numerator, denominator)."""
    numbers = [*map(int.__index__, rec.data)]
    verdicts = []
    for v in rec.verdicts:
        kinds = []
        for key, value in v.witness.items():
            kind = type(value)
            if kind is int or kind is Fraction:
                numbers += value.as_integer_ratio()
                kinds.append((key, Fraction))
            elif value is True or value is False or value is None:
                kinds.append((key, value))
            elif isinstance(value, tuple) and _NUMBER_TYPES.issuperset(map(type, value)):
                for x in value:
                    numbers += x.as_integer_ratio()
                kinds.append((key, (Fraction,) * len(value)))
            else:
                raise TypeError(
                    f"witness {key!r} of rule {v.rule!r} is a {kind.__name__}: a witness is True, "
                    "False, None, an int, a Fraction or a tuple of ints and Fractions"
                )
        verdicts.append((v.rule, v.passed, v.citation, tuple(kinds)))
    return (rec.status, rec.detail, tuple(verdicts)), tuple(numbers)


def _json_string(text: str) -> str:
    """``text`` as a JSON string in a format: ASCII-escaped, ``%`` doubled."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _witness_json_format(kind, newline: str) -> str:
    """The JSON text of a witness of ``kind`` at the indent of ``newline``, in
    a format: True, False and None as themselves, a number as ``{"num",
    "den"}`` with a ``%d`` slot for each, a tuple as the list of its numbers."""
    inner = newline + "  "
    if kind is Fraction:
        return f'{{{inner}"num": "%d",{inner}"den": "%d"{newline}}}'
    if type(kind) is not tuple:
        return json.dumps(kind)
    number = f'{{{inner}  "num": "%d",{inner}  "den": "%d"{inner}}}'
    return f"[{inner}{(',' + inner).join([number] * len(kind))}{newline}]" if kind else "[]"


def _record_json_format(shape, newline: str) -> bytes:
    """The format of the JSON object of a record of ``shape`` at the indent
    of ``newline``, as ``json.dumps(indent=2)`` lays it out: e, a, b, status,
    detail, then the verdicts, each an object of rule, passed, witness and
    citation; a witness number's numerator and denominator get a slot each.
    Bytes, as ``%`` finds their slots by ``memchr`` and a str's by reading
    each character; the text is ASCII, so it decodes to the same text."""
    key = newline + "  "  # the record's keys
    item = key + "  "  # the verdict objects
    field = item + "  "  # their keys
    entry = field + "  "  # the witness keys
    verdicts = []
    for rule, passed, citation, witness in shape[2]:
        witness = ",".join([
            f"{entry}{_json_string(k)}: {_witness_json_format(kind, entry)}" for k, kind in witness
        ])
        verdicts.append(
            f'{{{field}"rule": {_json_string(rule)},'
            f'{field}"passed": {"true" if passed else "false"},'
            f'{field}"witness": {"{" + witness + field + "}" if witness else "{}"},'
            f'{field}"citation": {_json_string(citation)}{item}}}'
        )
    verdict_list = "[" + item + ("," + item).join(verdicts) + key + "]" if verdicts else "[]"
    return (
        f'{{{key}"e": %d,{key}"a": %d,{key}"b": %d,'
        f'{key}"status": {_json_string(shape[0])},'
        f'{key}"detail": {_json_string(shape[1])},'
        f'{key}"verdicts": {verdict_list}{newline}}}'
    ).encode()


def _formatted(records, build):
    """Each record as (``build(shape)`` of its shape, its numbers), made once
    per row key in ``built``, a dict of this loop's alone.  A scan's rows
    are its own, and a key's shape is that of the record built for its first
    row; any other record's row is its ``_record_shape``, keyed by the shape."""
    scan = type(records) is ScanRecords
    built = {}
    for row in records.rows if scan else map(_record_shape, records):
        made = built.get(row[0])
        if made is None:
            made = built[row[0]] = build(_record_shape(scan_record(row))[0] if scan else row[0])
        yield made, row[1]


def _write_records_json(records, newline: str) -> None:
    """Write ``records`` as ``json.dumps(indent=2)`` lays out their list at
    the indent of ``newline``, each from its shape's byte format, its slots
    filled with its row's numbers."""
    inner = newline + "  "
    formatted = _formatted(records, lambda shape: _record_json_format(shape, inner))
    _write_json_list(((fmt % numbers).decode() for fmt, numbers in formatted), newline)


def _derived_format(derived: dict, fmt: str, lead: tuple, numbers) -> str:
    """``fmt`` for a row of ``numbers``, made once per (format, witness
    denominators) in ``derived``: its ``%%`` kept and its ``%s`` slots filled
    by the texts ``lead``, then by ``%d``, or ``%d/d`` for a witness
    denominator d other than 1, as ``str(Fraction)`` writes a number."""
    denominators = numbers[4::2]
    line = derived.get((fmt, denominators))
    if line is None:
        line = derived[fmt, denominators] = fmt.replace("%%", "%%%%") % (
            *lead, *["%d" if d == 1 else f"%d/{d}" for d in denominators]
        )
    return line


# The witness cell text of each kind but a tuple, in a format.
_WITNESS_CELL_TEXT = {True: "true", False: "false", None: "none", Fraction: "%s"}


def _witness_format(shape) -> str:
    """The format of the witness cell of a record of ``shape``: each witness
    as key=value, joined by ';', with every ``%`` of a key doubled; True,
    False and None in lower case, a number a ``%s`` slot, a tuple its items'
    slots joined by '|'."""
    return ";".join([
        f"{k.replace('%', '%%')}="
        + ("|".join(["%s"] * len(kind)) if type(kind) is tuple else _WITNESS_CELL_TEXT[kind])
        for *_, witness in shape[2] for k, kind in witness
    ])


def _marks(shape) -> list:
    """The rule cells of a ``filter`` row of a record of ``shape``: the
    verdicts follow FILTER_RULES up to the first failure, each marked pass or
    fail; later rules stay blank."""
    passes = [passed for _, passed, _, _ in shape[2]]
    return ["pass" if p else "fail" for p in passes] + [""] * (len(FILTER_RULES) - len(passes))


def _table_rows(records, build):
    """Each record's cells: e, a, b, then ``build(shape)`` of its shape, then
    its witness cell, from its shape's witness-cell format."""
    derived = {}
    for (cells, witness), numbers in _formatted(records, lambda shape: (build(shape), _witness_format(shape))):
        yield (*map(str, numbers[:3]), *cells, _derived_format(derived, witness, (), numbers) % numbers[3::2])


def _filter_rows(records):
    """The ``filter`` table's rows of ``records``: e, a, b, the marks,
    status, detail and the witness cell."""
    return _table_rows(records, lambda shape: (*_marks(shape), *shape[:2]))


def _csv_line_writer():
    """A csv writer of the tables' dialect whose ``writerow`` returns the line:
    it returns what its file's write returns, here ``str``'s."""
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n")


def _record_csv_format(shape) -> str:
    """The format of the csv line of a ``filter`` row of a record of
    ``shape``.  csv quotes and escapes a cell by its literal text alone, as
    neither a slot's text nor a number's holds a character it quotes."""
    status, detail = shape[0].replace("%", "%%"), shape[1].replace("%", "%%")
    return _csv_line_writer().writerow(("%s", "%s", "%s", *_marks(shape), status, detail, _witness_format(shape)))


def _write_records_csv(records) -> None:
    """Write the ``filter`` csv table of ``records`` as ``_print_table("csv",
    FILTER_COLUMNS, _filter_rows(records))`` does, each row from its shape's
    format, derived for its witness denominators."""
    write = sys.stdout.write
    write(_csv_line_writer().writerow(FILTER_COLUMNS))
    derived = {}
    for fmt, numbers in _formatted(records, _record_csv_format):
        write(_derived_format(derived, fmt, ("%d", "%d", "%d"), numbers) % (numbers[:3] + numbers[3::2]))


REPLAY_COLUMNS = ["section", "e", "a", "b", "action", "outcome", "witness"]


def _replay_rows(sections, final_list):
    """The ``replay`` table's rows: each section's records, then the final
    list, with one witness-cell format per row key of each section."""
    for section, _, records in sections:
        for cells in _table_rows(records, itemgetter(slice(2))):
            yield (section, *cells)
    for entry in final_list:
        yield ("final", *map(int.__repr__, entry.data), entry.kind, entry.name, "")


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
    pre = step1_survivors(records)  # checked before the table is written, as in replay
    if args.format == "json":
        _write_records_json(records, "\n")
        sys.stdout.write("\n")
    elif args.format == "csv":
        _write_records_csv(records)
    else:
        _print_table(args.format, FILTER_COLUMNS, _filter_rows(records))
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
        _write_json_list((_final_json_text(entry, "\n    ") for entry in report.final_list), "\n  ")
        sys.stdout.write("\n}\n")
    else:
        _print_table(args.format, REPLAY_COLUMNS, _replay_rows(sections, report.final_list))
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
