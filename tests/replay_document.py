"""An engine-free check of the document ``schubert replay --format json``
prints, with the standard library only and no ``schubert`` import.

From the parsed JSON alone it derives once more what the paper's rules fix:

- the scan: the square of (e, a, b) it covers, in canonical order, each
  verdict chain in the filters' order up to its first failure, and the
  counts by status and detail (53 / 936 / 459 / 1 eliminated, 9 surviving);
- each positivity witness as (qa, qb) = (a, b) + m*e + m^2, m = (5 - e)/2,
  the slope of the ample Q-twist E(m);
- each Schur witness, the two pairings of s_(3)(E(m)), from the printed
  positivity witness (qa, qb) and e' = e + 2m = 5, and each Schur verdict
  both from the classical bounds a <= 6 and a + b <= 12 (e = 0) or 13
  (e = -1) and as "both pairings >= 0";
- each integrality verdict as "every printed chi has den 1";
- the Griffiths verdicts: chi(E(5)) read at e = -1 only, equal to the chi
  at k = 5 of the integrality witness, and negative at (-1, 6, 6) alone,
  printed as -935/1;
- steps 2-4 settling each scan survivor exactly once;
- the final list as the brute-force split Fano bundles O(p) + O(q),
  p <= q, p + q in {0, -1}, q - p < 5, with (e, a, b) = (p + q, pq, pq),
  then the non-split bundle at (-1, 0, 1), each the detail of its
  classified step record.

A rational prints as {"num", "den"}: integer strings, den > 0, in lowest
terms.  ``check(doc)`` raises ``DocumentMismatch`` at the first mismatch;
no check is an ``assert``, so they hold under ``python -O`` too.  As a
script it reads the document from stdin:

    python -m schubert replay --format json | python tests/replay_document.py
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

SECTIONS = ["step1_table", "step2_results", "step3_table", "step4_results", "final_list"]
FILTERS = ["positivity", "schur", "schwarzenberger", "griffiths"]
SCAN_SIDE = 27  # a, b each over 27 integers, for each e in (0, -1)
SCAN_COUNTS = {
    ("eliminated", "positivity"): 53,
    ("eliminated", "schur"): 936,
    ("eliminated", "schwarzenberger"): 459,
    ("eliminated", "griffiths"): 1,
    ("surviving", ""): 9,
}
SCHUR_A_MAX = 6
SCHUR_SUM_MAX = {0: 12, -1: 13}
# The Schur rule pairs s_(3) = c1^3 - 2*c1*c2 of E(m), whose data is
# c1 = e'*s(1) and c2 = qa*s(2) + qb*s(1,1), with s(3) (lines through a
# point) and with s(2,1) (the pairing keyed by lines in a hyperplane).  By
# Pieri's rule (Fulton, Young Tableaux, 1997, 9.4) the integrals over G(1,4)
# of s(1)^3, s(1)*s(2) and s(1)*s(1,1) times each cycle are:
SCHUR_PAIRING_NUMBERS = {
    "pairing_lines_through_point": (1, 1, 0),
    "pairing_lines_in_hyperplane": (2, 1, 1),
}
CHI_TWISTS = 7  # chi(E(k)) for k = 0..6, the dimension of G(1,4)
GRIFFITHS_DATA = (-1, 6, 6)
GRIFFITHS_CHI5 = {"num": "-935", "den": "1"}
FANO_SPREAD = 5  # O(p) + O(q) on G(1,4) is Fano iff q - p < 5
NONSPLIT_DATA = (-1, 0, 1)


class DocumentMismatch(Exception):
    """The printed document differs from what the paper's rules derive."""


def expect(what: str, got, expected) -> None:
    """Raise unless ``got`` equals ``expected`` and has its type, so that a
    JSON 1 is not taken for true."""
    if type(got) is not type(expected) or got != expected:
        raise DocumentMismatch(f"{what}: printed {got!r}, derived {expected!r}")


def rational(obj, what: str) -> Fraction:
    """The Fraction a printed {"num", "den"} stands for, once its text is in
    canonical form."""
    expect(f"{what}: keys", list(obj), ["num", "den"])
    num, den = obj["num"], obj["den"]
    try:
        num, den = int(num), int(den)
    except (TypeError, ValueError):
        num = None
    if num is None or obj["num"] != str(num) or obj["den"] != str(den):
        raise DocumentMismatch(f"{what}: {obj!r} is not two integer strings")
    if den <= 0 or gcd(num, den) != 1:
        raise DocumentMismatch(f"{what}: {num}/{den} is not in lowest terms over a positive den")
    return Fraction(num, den)


def coordinates(rec) -> tuple:
    data = (rec["e"], rec["a"], rec["b"])
    if any(type(x) is not int for x in data):
        raise DocumentMismatch(f"coordinates {data!r} are not ints")
    return data


def check_verdict(verdict, data, positivity) -> bool:
    """Whether the scan verdict ``verdict`` at ``data`` passed, once its
    witness has been derived again from the rules; ``positivity`` is the
    printed witness of the record's positivity verdict."""
    e, a, b = data
    rule, witness, passed = verdict["rule"], verdict["witness"], verdict["passed"]
    where = f"{rule} at {data}"
    m = Fraction(5 - e, 2)  # the slope of the ample Q-twist E(m)
    if rule == "positivity":
        expect(f"{where}: witness keys", list(witness), ["qa", "qb"])
        qa, qb = (rational(witness[k], f"{where}: {k}") for k in ("qa", "qb"))
        expect(f"{where}: (qa, qb)", (qa, qb), (a + m * e + m * m, b + m * e + m * m))
        expected = qa > 0 and qb > 0
    elif rule == "schur":
        keys = ["pairing_lines_through_point", "pairing_lines_in_hyperplane", "strict_positive"]
        expect(f"{where}: witness keys", list(witness), keys)
        point, hyper = (rational(witness[k], f"{where}: {k}") for k in keys[:2])
        expect(f"{where}: strict_positive", witness["strict_positive"], point > 0 and hyper > 0)
        qa, qb = (rational(positivity[k], f"{where}: printed {k}") for k in ("qa", "qb"))
        twisted_e = e + 2 * m
        for key, pairing in zip(keys, (point, hyper)):
            cubed, with_s2, with_s11 = SCHUR_PAIRING_NUMBERS[key]
            derived = twisted_e**3 * cubed - 2 * twisted_e * (qa * with_s2 + qb * with_s11)
            expect(f"{where}: {key}", pairing, derived)
        expected = a <= SCHUR_A_MAX and a + b <= SCHUR_SUM_MAX[e]
        expect(f"{where}: passed, against both pairings >= 0", passed, point >= 0 and hyper >= 0)
    elif rule == "schwarzenberger":
        expect(f"{where}: witness keys", list(witness), ["chi"])
        chi = [rational(x, f"{where}: chi") for x in witness["chi"]]
        expect(f"{where}: number of chi", len(chi), CHI_TWISTS)
        expected = all(x.denominator == 1 for x in chi)
    else:
        applies = e == -1
        expect(f"{where}: applies", witness["applies"], applies)
        if not applies:
            expect(f"{where}: witness keys", list(witness), ["applies"])
            expected = True
        else:
            expect(f"{where}: witness keys", list(witness), ["applies", "chi_at_5"])
            expected = rational(witness["chi_at_5"], f"{where}: chi_at_5") >= 0
    expect(f"{where}: passed", passed, expected)
    return expected


def check_scan(records) -> list:
    """Check the scan's records; return the (e, a, b) of its survivors."""
    lo = records[0]["a"] if records else 0
    side = range(lo, lo + SCAN_SIDE)
    expect("scan square", [coordinates(r) for r in records], [(e, a, b) for e in (0, -1) for a in side for b in side])
    survivors = []
    for rec in records:
        data = coordinates(rec)
        verdicts = rec["verdicts"]
        expect(f"rules at {data}", [v["rule"] for v in verdicts], FILTERS[: len(verdicts)])
        for i, verdict in enumerate(verdicts):
            if not check_verdict(verdict, data, verdicts[0]["witness"]):
                expect(f"verdicts after the failure at {data}", len(verdicts), i + 1)
                expect(f"status at {data}", (rec["status"], rec["detail"]), ("eliminated", verdict["rule"]))
                break
        else:
            expect(f"verdicts at {data}", len(verdicts), len(FILTERS))
            expect(f"status at {data}", (rec["status"], rec["detail"]), ("surviving", ""))
            survivors.append(data)
        if rec["status"] == "eliminated" and rec["detail"] == "griffiths":
            expect("the Griffiths elimination", data, GRIFFITHS_DATA)
            expect("chi(E(5)) at the Griffiths elimination", verdicts[3]["witness"]["chi_at_5"], GRIFFITHS_CHI5)
        if len(verdicts) == len(FILTERS) and data[0] == -1:
            expect(f"chi_at_5 at {data}", verdicts[3]["witness"]["chi_at_5"], verdicts[2]["witness"]["chi"][5])
    expect("scan counts", dict(Counter((r["status"], r["detail"]) for r in records)), SCAN_COUNTS)
    return survivors


def bundle_name(p: int, q: int) -> str:
    return "+".join("O" if t == 0 else f"O({t})" for t in (p, q))


def split_fano_bundles() -> list:
    """(p, q) with p <= q, p + q in {0, -1}, q - p < 5, by brute force over
    a range that holds them all: e = 0 first, then e = -1, p decreasing."""
    pairs = [(p, q) for p in range(-FANO_SPREAD, FANO_SPREAD + 1) for q in range(p, FANO_SPREAD + 1)
             if p + q in (0, -1) and q - p < FANO_SPREAD]
    return sorted(pairs, key=lambda pq: (-(pq[0] + pq[1]), -pq[0]))


def check(doc) -> None:
    """Raise ``DocumentMismatch`` unless ``doc``, the parsed JSON of
    ``schubert replay --format json``, is what the paper's rules derive."""
    expect("sections", list(doc), SECTIONS)
    survivors = check_scan(doc["step1_table"])
    steps = [rec for section in SECTIONS[1:4] for rec in doc[section]]
    for rec in steps:
        for verdict in rec["verdicts"]:
            for value in verdict["witness"].values():
                for number in value if type(value) is list else [value]:
                    if type(number) is dict:
                        rational(number, f"{verdict['rule']} at {coordinates(rec)}")
    expect("the records steps 2-4 settle", sorted(map(coordinates, steps)), sorted(survivors))
    classified = {coordinates(r): r["detail"] for r in steps if r["status"] == "classified"}
    final = [("split", p, q, p + q, p * q, p * q, bundle_name(p, q)) for p, q in split_fano_bundles()]
    final.append(("nonsplit", None, None, *NONSPLIT_DATA, classified.get(NONSPLIT_DATA)))
    printed = [(x["kind"], x["p"], x["q"], x["e"], x["a"], x["b"], x["name"]) for x in doc["final_list"]]
    expect("final list", printed, final)
    expect("the classified step records", classified, {x[3:6]: x[6] for x in final})


def main() -> int:
    try:
        check(json.load(sys.stdin))
    except DocumentMismatch as exc:
        print(f"replay document: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
