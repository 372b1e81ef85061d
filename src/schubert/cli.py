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

A candidate record has two general writers: ``_record_json_text``, and
``_record_row`` through ``csv.writer`` for the csv table of ``filter``.
Within one render call the record lists are written from one template per
record shape, cut from those writers.  A shape fixes every byte but e, a, b
and the witness numbers: status, detail, and per verdict the rule, passed,
citation and witness keys, with the kind of each witness value (bool, None,
a number, or a tuple of n numbers).  Its template is the general writer's
text of a copy of the record with unique markers for e, a, b and the
numbers, each marker cut into a ``%s`` slot and every other ``%`` doubled.
A record falls back to its general writer when a witness is of another kind
(a string, a ``SplittingType``, a nested tuple), when a coordinate is not an
int, when a marker does not occur exactly once in the marker text, and, in
csv, when the marker row quotes a cell.  The templates live in a dict local
to the call; no rendered text outlives it.

The other csv and plain tables go through one table printer, which streams
csv row by row; each row is a sequence of cells in column order, read
straight off the record.

Exit codes: 0 success, 2 usage error (its message cut to its two ends,
since argparse quotes a bad argument in full), 3 domain error, 4 regression
mismatch against the frozen tables; a reader closing stdout early
(``schubert replay | head``) ends it silently with 141, as SIGPIPE would, in
every format.
"""

from __future__ import annotations

import argparse
import csv
import itertools
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
    Verdict,
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


def _witness_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return "|".join(_witness_text(v) for v in value)
    return str(value)


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


def _witness_json_text(value, newline: str) -> str:
    """A witness value as JSON text at the indent of ``newline``: bool and
    None as themselves, int and Fraction as ``{"num", "den"}`` strings, any
    tuple or list (a SplittingType too) as a list, anything else as its str."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, (int, Fraction)):
        return f'{{{inner}"num": "{value.numerator}",{inner}"den": "{value.denominator}"{newline}}}'
    if isinstance(value, (tuple, list)):
        if not value:
            return "[]"
        items = ("," + inner).join([_witness_json_text(v, inner) for v in value])
        return f"[{inner}{items}{newline}]"
    return encode_basestring_ascii(str(value))


def _record_json_text(rec: CandidateRecord, newline: str) -> str:
    """The JSON object of ``rec`` at the indent of ``newline``, as
    ``json.dumps(indent=2)`` writes it: e, a, b, status, detail, then the
    verdicts, each an object of rule, passed, witness and citation."""
    key = newline + "  "  # the record's keys
    item = key + "  "  # the verdict objects
    field = item + "  "  # their keys
    entry = field + "  "  # the witness keys
    verdicts = []
    for v in rec.verdicts:
        witness = ",".join([
            f"{entry}{encode_basestring_ascii(k)}: {_witness_json_text(val, entry)}"
            for k, val in v.witness.items()
        ])
        verdicts.append(
            f'{{{field}"rule": {encode_basestring_ascii(v.rule)},'
            f'{field}"passed": {"true" if v.passed else "false"},'
            f'{field}"witness": {"{" + witness + field + "}" if witness else "{}"},'
            f'{field}"citation": {encode_basestring_ascii(v.citation)}{item}}}'
        )
    verdict_list = "[" + item + ("," + item).join(verdicts) + key + "]" if verdicts else "[]"
    e, a, b = map(int.__repr__, rec.data)  # a Fraction raises TypeError
    return (
        f'{{{key}"e": {e},{key}"a": {a},{key}"b": {b},'
        f'{key}"status": {encode_basestring_ascii(rec.status)},'
        f'{key}"detail": {encode_basestring_ascii(rec.detail)},'
        f'{key}"verdicts": {verdict_list}{newline}}}'
    )


# -- candidate records, written from one template per shape ---------------------

# The first marker: markers are consecutive ints from here, so all have one
# width, and two neighbours, a witness number's numerator and denominator, are coprime.
_MARKER = 10**15

_NUMBER_TYPES = frozenset((int, Fraction))


def _record_shape(rec: CandidateRecord):
    """The shape of ``rec`` and its numbers, or None when it has no template.

    The shape fixes every byte of the record's text but e, a, b and the
    witness numbers: status, detail, and per verdict its rule, passed,
    citation and witness keys, each key's value kind after it (bool and None
    as themselves, "n" for a number, ~n for a tuple of n numbers). The
    numbers are e, a, b, then the witness numbers in order. A coordinate not
    an int, or a witness of any other kind (a string, a SplittingType, a
    nested tuple), has no template."""
    e, a, b = rec.data
    if not (type(e) is int and type(a) is int and type(b) is int):
        return None
    numbers = [e, a, b]
    shape = [rec.status, rec.detail]
    for v in rec.verdicts:
        witness = v.witness
        shape.append((v.rule, v.passed, v.citation, *witness))
        for value in witness.values():
            kind = type(value)
            if kind is int or kind is Fraction:  # by type, so a bool is no number
                numbers.append(value)
                shape.append("n")
            elif value is True or value is False or value is None:
                shape.append(value)
            elif kind is tuple and _NUMBER_TYPES.issuperset(map(type, value)):
                numbers += value
                shape.append(~len(value))
            else:
                return None
    return tuple(shape), numbers


def _marked(rec: CandidateRecord) -> tuple[CandidateRecord, list]:
    """A copy of a record that has a shape, with e, a, b and its witness
    numbers replaced by markers, and the markers in order: e, a, b get the
    ints from _MARKER, each number the fraction of the next two."""
    count = itertools.count(_MARKER)
    markers = [next(count) for _ in range(3)]

    def mark(value):
        if type(value) is tuple:
            return tuple(map(mark, value))
        if type(value) in _NUMBER_TYPES:
            markers.append(Fraction(next(count), next(count)))
            return markers[-1]
        return value

    data = RankTwoData(*markers)
    verdicts = tuple(
        Verdict(v.rule, v.passed, {k: mark(val) for k, val in v.witness.items()}, v.citation)
        for v in rec.verdicts
    )
    return CandidateRecord(data, verdicts, rec.status, rec.detail), markers


def _cut(text: str, markers: list[str]) -> str | None:
    """``text`` with every ``%`` doubled and each marker cut into a ``%s``
    slot, or None unless each marker occurs in it exactly once, in order."""
    if any(text.count(m) != 1 for m in markers):
        return None
    parts = []
    for m in markers:
        head, found, text = text.partition(m)
        if not found:
            return None
        parts.append(head.replace("%", "%%"))
    parts.append(text.replace("%", "%%"))
    return "%s".join(parts)


def _json_template(rec: CandidateRecord, newline: str) -> str | None:
    """The text of ``_record_json_text(rec, newline)`` with a slot for each of
    e, a, b and each witness number's numerator and denominator."""
    marked, markers = _marked(rec)
    slots = [str(m) for m in markers[:3]]
    slots += [str(m) for marker in markers[3:] for m in (marker.numerator, marker.denominator)]
    return _cut(_record_json_text(marked, newline), slots)


def _json_values(numbers: list) -> tuple:
    """The slot values of a JSON template: e, a, b, then each witness number's
    numerator and denominator."""
    values = numbers[:3]
    for n in numbers[3:]:
        values += n.as_integer_ratio()
    return tuple(values)


def _templated(general, build, values):
    """A render of records: a record with a shape is written as its shape's
    template % ``values(numbers)``, the template built once by ``build(rec)``;
    a record without a shape, or whose shape ``build`` gives None, is written
    by ``general(rec)``. The templates live as long as the render."""
    templates = {}

    def render(rec: CandidateRecord) -> str:
        shaped = _record_shape(rec)
        if shaped is not None:
            shape, numbers = shaped
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = build(rec) or ""
            if template:
                return template % values(numbers)
        return general(rec)

    return render


def _write_records_json(records, newline: str) -> None:
    """Write ``records`` as ``_write_json_list(records, _record_json_text,
    newline)`` does, each from its shape's template."""
    inner = newline + "  "
    render = _templated(
        lambda rec: _record_json_text(rec, inner), lambda rec: _json_template(rec, inner), _json_values
    )
    _write_json_list(records, lambda rec, _: render(rec), newline)


def _csv_line_writer():
    """A csv writer of the tables' dialect whose ``writerow`` returns the line:
    it returns what its file's write returns, here ``str``'s."""
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n")


def _csv_template(rec: CandidateRecord) -> str | None:
    """The csv line of ``_record_row(rec)`` with a slot for each of e, a, b
    and each witness number, or None when a cell of it is quoted, since
    csv quotes and escapes a cell as a whole."""
    marked, markers = _marked(rec)
    text = _csv_line_writer().writerow(_record_row(marked))
    if '"' in text or "\r" in text or "\n" in text[:-1]:
        return None
    return _cut(text, [str(m) for m in markers])


def _write_records_csv(records) -> None:
    """Write the ``filter`` csv table of ``records`` as ``_print_table("csv",
    FILTER_COLUMNS, map(_record_row, records))`` does, each row from its
    shape's template."""
    line = _csv_line_writer().writerow
    render = _templated(lambda rec: line(_record_row(rec)), _csv_template, tuple)
    write = sys.stdout.write
    write(line(FILTER_COLUMNS))
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
    try:
        pre = step1_survivors(records)
    except ReplayMismatch as exc:
        print(f"regression at {exc.step}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    post = sum(r.status == "surviving" for r in records)
    print(f"{len(pre)} candidates pass the integrality filter; {post} survive", file=sys.stderr)
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
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # the last buffered block may meet a closed pipe too
    except BrokenPipeError:  # the reader has gone; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
