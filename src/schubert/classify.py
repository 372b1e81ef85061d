"""Classification of rank-two Fano bundles on the Grassmannian of lines in P^4.

The pipeline works with normalized Chern coordinates (e, a, b), e in {0, -1}
(``RankTwoData.twisted`` by -((e + 1) // 2) takes arbitrary data to this
form), and runs four steps:

1. a finite scan of (a, b) pairs, filtered in order by positivity of the
   ample Q-twist, positivity of Schur-polynomial pairings, integrality of
   every Euler characteristic chi(E(k)), and a Griffiths-vanishing sign
   test; the survivors are a fixed table of ten candidates, one of which
   the Griffiths test then removes;
2. the candidate (0, -4, -4) is recognized as O(-2) + O(2) through the
   section count chi(E(-2)) and the vanishing of its zero-locus class;
3. candidates with a != 0 are settled by the Euler characteristic of the
   restriction to a P^3 of lines through a point, whose data is (e, a)
   (``restriction_to_p3``): the restricted section forces a >= e - 1,
   equality forces the split O(1) + O(e-1), and the second coordinate b
   must agree or the candidate dies;
4. candidates with a = 0 restrict to split bundles on every such P^3, so
   they are uniform and fall under the uniform-bundle classification:
   O + O, O + O(-1), or the non-split tautological rank-two bundle with
   data (-1, 0, 1).

Every rule that leans on a cohomological theorem carries a citation string
and the marker "cited, not verified": its numeric hypotheses are computed
exactly here, the geometry behind it is not re-proved.  All computed
witnesses are checked against frozen expected tables through one check,
``_expect(step, what, got, expected)``: any mismatch raises
:class:`ReplayMismatch`, which keeps the step, what was compared, the
computed value and the frozen one, so the replay doubles as a regression
gate for the whole engine.  The steps together must settle each step-1
survivor exactly once.

The scan does no ring arithmetic and no rational twist per candidate.  Its
Euler characteristics and Schur pairings are polynomials in (e, a, b), built
once per ring as forms (``hrr.chi_form``, ``schur3_form``).  For each
normalized e, every form is folded at each twist the scan reads (k = 0..6
and the ample Q-twist m) into a polynomial in (a, b)
(``RankTwoForm.at_twist``, cached by ``scan_forms``), and each line of fixed
(e, a) restricts it to a polynomial in b (``PlaneForm.line``, one Horner
loop in a per column; ``scan_line``, uncached, builds each line once per
scan), which the rules evaluate by Horner over a run of integer b
(``charclass.line_values``, which gives each value as its reduced
(numerator, denominator) pair and decides integrality on the numerators).
A line holds one witness constant along it, a + s (qb is a + s + (b - a)),
and its forms in b, both Schur pairings among them; that the pairing with
the lines through a point is free of b is checked once per e by the scan's
certificate, its one reader.  Step 2 reads chi(E(-2)) from a form as well.
Steps 3 and 4 restrict each candidate through one computed map,
``restriction_to_p3``, and read the restricted chi (``hrr.chi_p3``) at its
value.  The general path (``rank_two_chern`` -> ``ch`` -> ``pair``) runs
only in the preflight: it checks the G(1,4) forms against that path, then,
in integers, the scan's lines against the forms at the twisted data
(``RankTwoForm.ratio``) on a grid that determines every line.  It also
proves the restriction map: it is linear in (e, a, b), so its values on the
three basis vectors prove it equal to (e, a) everywhere.  The scan is
exhaustive by a certificate: its square holds every (a, b) that passes
positivity and Schur, whose bounds it reads off the pairing forms.

Each filter is one rule over integers (``_positivity``, ``_schur``,
``_schwarzenberger``, ``_griffiths``), a function of the scan line and a
run of b that gives (passed, witness schema, witness numbers) for each b.
The schema is the witness's (key, kind) pairs in order, a number's kind
being Fraction; the numbers are reduced (numerator, denominator) pairs of
ints.  Everything else reads the rules: the scan runs each rule once per
line, on the b that passed the rules before it, and keeps one row per
candidate (``scan_rows``), with no record, Verdict or Fraction;
``enumerate_candidates`` returns them as a ``ScanRecords`` sequence, which
builds a record from its row when it is read (``scan_record``); the
exported filters and ``evaluate_candidate`` read the same rules with a run
of one b.  A row's key is its stop point, the position in ``FILTER_RULES``
of its first failed rule or 4, then the schema of each rule applied; its
numbers are e, a, b and the witness numbers.  ``survivors`` and
``step1_survivors`` read the stop points off the rows, so a replay builds
only the ten integrality survivors, and ``step1_survivors`` checks the
number of candidates each filter eliminates against frozen counts.
Candidate evaluation is a pure map over (e, a, b): verdicts do not depend
on evaluation order, and the report is assembled in canonical candidate
order.  A verdict's witness is a dict, which the cli prints key by key as
the verdict holds it; no reader takes a witness value by its position.
The records are NamedTuples.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from operator import index
from typing import NamedTuple

from .charclass import (
    PlaneForm,
    RankTwoData,
    RankTwoForm,
    line_bundle,
    line_values,
    rank_two_chern,
    rank_two_form,
    tangent_bundle,
    tautological_quotient,
    tautological_subbundle,
)
from .chow import GrassmannRing, Scalar, dual_partition
from .hrr import (
    chi_form,
    chi_p3,
    euler_characteristic,
    euler_polynomial,  # unused here; the benchmark's tracer rebinds it by name in this module
)

G14 = GrassmannRing(1, 4)

SCAN_LO, SCAN_HI = -6, 20

CITE_AMPLE_POSITIVITY = (
    "ample Q-twists restrict to subvarieties with positive Chern classes "
    "(Bloch-Gieseker); cited, not verified"
)
CITE_SCHUR_POSITIVITY = (
    "Schur polynomials of ample bundles pair positively with effective cycles "
    "(Fulton-Lazarsfeld); cited, not verified"
)
CITE_INTEGRALITY = (
    "chi(E(k)) is an integer for every bundle and every twist k "
    "(Schwarzenberger-type integrality)"
)
CITE_GRIFFITHS = (
    "Griffiths vanishing kills the higher cohomology of the ample twist E(5), "
    "so chi(E(5)) < 0 is impossible; cited, not verified"
)
CITE_LE_POTIER = (
    "Le Potier vanishing gives h^0 >= chi for the twists in range; "
    "cited, not verified"
)
CITE_SECTION_SPLIT = (
    "a nowhere-vanishing minimal section splits the bundle (Kodaira vanishing "
    "on the cokernel); the zero-locus class (a+j(e+j), b+j(e+j)) must be "
    "effective; cited, not verified"
)
CITE_SECTION_BOUND = (
    "sections of the restriction to a P^3 of lines through a point force "
    "a >= e-1, with equality only for the split O(1) + O(e-1); cited, not verified"
)
CITE_UNIFORM = (
    "rank-two bundles with the same splitting type on every line are "
    "classified: split or tautological; cited, not verified"
)


class ReplayMismatch(Exception):
    """A computed witness disagrees with the frozen expected tables: at
    ``step``, ``what`` is ``got`` where ``expected`` was expected."""

    def __init__(self, step: str, what: str, got, expected):
        super().__init__(step, what, got, expected)  # the args copy and pickle rebuild it from
        self.step, self.what, self.got, self.expected = step, what, got, expected

    def __str__(self) -> str:
        return f"{self.step}: {self.what} is {self.got}, expected {self.expected}"


def _expect(step: str, what: str, got, expected) -> None:
    """The replay's one check: raise :class:`ReplayMismatch` unless ``got == expected``."""
    if got != expected:
        raise ReplayMismatch(step, what, got, expected)


class SplittingType(NamedTuple):
    """Restriction to a line: O(p) + O(q) with p <= q."""

    p: int
    q: int


class SectionConstraints(NamedTuple):
    """Zero-locus coordinates of a minimal section at twist j."""

    va: Scalar
    vb: Scalar
    split_iff_both_zero: bool


def ample_twist(e: int) -> Fraction:
    """The rational twist m = (n+1-e)/2 making normalized data ample on the
    nose; the filters run on normalized data only."""
    if e not in (0, -1):
        raise ValueError("filters run on normalized data only (e in {0, -1})")
    return Fraction(G14.n + 1 - e, 2)


class Verdict(NamedTuple):
    """One rule's verdict on a candidate and the witnesses it rests on.  A
    witness value is True, False or None, an int or a Fraction, or a tuple of
    ints and Fractions (a SplittingType too): the cli's writers raise
    TypeError on any other kind."""

    rule: str
    passed: bool
    witness: dict
    citation: str


class CandidateRecord(NamedTuple):
    """One (e, a, b) candidate with its full verdict trail."""

    data: RankTwoData
    verdicts: tuple[Verdict, ...]
    status: str  # "surviving" | "eliminated" | "classified"
    detail: str  # eliminating rule, or a description of the classified bundle

    def verdict(self, rule: str) -> Verdict | None:
        for v in self.verdicts:
            if v.rule == rule:
                return v
        return None

    def passed(self, rule: str) -> bool:
        v = self.verdict(rule)
        return v is not None and v.passed


class BundleType(NamedTuple):
    """An entry of the final classification."""

    kind: str  # "split" | "nonsplit"
    split: SplittingType | None
    data: RankTwoData
    name: str


class ClassificationReport(NamedTuple):
    step1_table: tuple[CandidateRecord, ...]
    step2_results: tuple[CandidateRecord, ...]
    step3_table: tuple[CandidateRecord, ...]
    step4_results: tuple[CandidateRecord, ...]
    final_list: tuple[BundleType, ...]


# -- splitting types ----------------------------------------------------------


def fano_splitting_types(e: int, n: int) -> list[SplittingType]:
    """Splitting types (p, q), p + q = e, a Fano bundle can have on a line:
    the anticanonical degree condition reads 2p + (n + 1 - e) > 0."""
    if n < 2:
        raise ValueError("need n >= 2")
    p_min = (e - n - 1) // 2 + 1
    return [SplittingType(p, e - p) for p in range(p_min, e // 2 + 1)]


def split_fano_bundles(n: int) -> list[SplittingType]:
    """Normalized pairs (p, q) for which O(p) + O(q) is Fano: |p - q| < n + 1."""
    return [st for e in (0, -1) for st in reversed(fano_splitting_types(e, n))]


def bundle_name(st: SplittingType) -> str:
    def o(t: int) -> str:
        return "O" if t == 0 else f"O({t})"

    return f"{o(st.p)}+{o(st.q)}"


# -- the four scan filters ----------------------------------------------------


# s_(3) = c1^3 - 2*c1*c2, as the coefficients of c1^i * c2^j
SCHUR3_WEIGHTS = {(3, 0): 1, (1, 1): -2}
# the incidence cycles omega(i, j) of lines through a point and of lines in a hyperplane
SCHUR_CYCLES = ((0, 4), (1, 3))


@lru_cache(maxsize=None)
def schur3_form(ring: GrassmannRing, i: int, j: int) -> RankTwoForm:
    """The pairing of s_(3)(E) with the incidence cycle omega(i, j), as a
    form in the rank-two coordinates (e, a, b)."""
    return rank_two_form(ring, SCHUR3_WEIGHTS, ring.omega(i, j))


class ScanForms(NamedTuple):
    """What the four filters read at one normalized e, as functions of (a, b)."""

    shift: Fraction  # the Q-twist E(m) adds it to both a and b
    schur: tuple[PlaneForm, PlaneForm]  # s_(3)(E(m)) paired with each of SCHUR_CYCLES
    chi: tuple[PlaneForm, ...]  # chi(E(k)) for k = 0..dim


@lru_cache(maxsize=None)
def scan_forms(e: int) -> ScanForms:
    """The scan's forms folded at e and at each twist the filters read."""
    m = ample_twist(e)
    chi = chi_form(G14)
    return ScanForms(
        RankTwoData(e, 0, 0).twisted(m).a,
        tuple(schur3_form(G14, i, j).at_twist(e, m) for i, j in SCHUR_CYCLES),
        tuple(chi.at_twist(e, k) for k in range(G14.dimension + 1)),
    )


class ScanLine(NamedTuple):
    """What the four filters read along one line of fixed (e, a): qa, constant
    along it, as its reduced (numerator, denominator) pair, and each form of
    ``ScanForms`` restricted to the line, as a function of b."""

    e: int
    a: int
    qa: tuple[int, int]  # a + shift; the qb of (e, a, b) adds (b - a) to it
    # each form a (coefficients of b, denominator) pair, from PlaneForm.line
    schur: tuple[tuple[tuple[int, ...], int], ...]  # s_(3)(E(m)) paired with each of SCHUR_CYCLES
    chi: tuple[tuple[tuple[int, ...], int], ...]  # chi(E(k)) for k = 0..dim


def scan_line(e: int, a: int) -> ScanLine:
    """The scan's forms at e restricted to the line of fixed a."""
    forms = scan_forms(e)
    shift = forms.shift
    return ScanLine(
        e,
        a,
        (a * shift.denominator + shift.numerator, shift.denominator),
        tuple(form.line(a) for form in forms.schur),
        tuple(form.line(a) for form in forms.chi),
    )


# Each rule's witness schema: its (key, kind) pairs in order.  A kind is the
# witness value itself (True, False, None), or Fraction for a number, or a
# tuple of kinds; a rule gives its numbers apart, each as a reduced
# (numerator, denominator) pair of ints, in the order of the schema.
_POSITIVITY_SCHEMA = (("qa", Fraction), ("qb", Fraction))
_SCHUR_SCHEMAS = {
    strict: (
        ("pairing_lines_through_point", Fraction),
        ("pairing_lines_in_hyperplane", Fraction),
        ("strict_positive", strict),
    )
    for strict in (False, True)
}
_SCHWARZENBERGER_SCHEMA = (("chi", (Fraction,) * (G14.dimension + 1)),)
_GRIFFITHS_SCHEMAS = {False: (("applies", False),), True: (("applies", True), ("chi_at_5", Fraction))}


def _positivity(line: ScanLine, bs: Sequence[int]) -> list:
    """Both Chern coordinates of the Q-twist E(m) must be strictly positive."""
    qa, den = line.qa
    positive, q0 = qa > 0, qa - line.a * den  # qb at b = 0: the twist adds one shift to a and to b
    return [(positive and qb > 0, _POSITIVITY_SCHEMA, (qa, den, qb, den)) for b in bs for qb in [q0 + b * den]]


def _schur(line: ScanLine, bs: Sequence[int]) -> list:
    """Degree-three Schur polynomial of E(m) against the two families of
    three-dimensional cycles: a b passes when both exact pairings of
    s_(3) = c1^3 - 2*c1*c2, with the lines through a point and with the lines
    in a hyperplane, are >= 0.  Both are witnesses, with the strict reading
    (at e = -1 it also drops a + b = 13, eliminated anyway by the other rules)."""
    return [
        (v[0] >= 0 and v[2] >= 0, _SCHUR_SCHEMAS[v[0] > 0 and v[2] > 0], v)
        for v, _ in line_values(line.schur, bs)
    ]


def _schwarzenberger(line: ScanLine, bs: Sequence[int]) -> list:
    """Every chi(E(k)) must be an integer.  chi(E(k)) is a polynomial of
    degree at most dim in k, so integrality at k = 0..dim settles every twist."""
    return [(integral, _SCHWARZENBERGER_SCHEMA, chis) for chis, integral in line_values(line.chi, bs)]


def _griffiths(line: ScanLine, bs: Sequence[int]) -> list:
    """For e = -1 the twist E(5) is ample enough for Griffiths vanishing,
    so chi(E(5)) < 0 eliminates the candidate.  Vacuous for e = 0."""
    if line.e == 0:
        return [(True, _GRIFFITHS_SCHEMAS[False], ())] * len(bs)
    return [(v[0] >= 0, _GRIFFITHS_SCHEMAS[True], v) for v, _ in line_values(line.chi[5:6], bs)]


# The four rules in the order the scan applies them; each, over integers at a
# scan line and a run of b, gives (passed, witness schema, witness numbers)
# for each b of the run, in its order.
_RULES = (_positivity, _schur, _schwarzenberger, _griffiths)
_CITATIONS = (CITE_AMPLE_POSITIVITY, CITE_SCHUR_POSITIVITY, CITE_INTEGRALITY, CITE_GRIFFITHS)


def _filled(kind, numbers):
    """The witness value of ``kind``, each number a Fraction of the next
    (numerator, denominator) that the iterator ``numbers`` gives."""
    if kind is Fraction:
        return Fraction(next(numbers), next(numbers))
    if type(kind) is tuple:
        return tuple([_filled(k, numbers) for k in kind])
    return kind


def witness_values(schema, numbers) -> dict:
    """The witness dict of ``schema`` with its numbers read, in order, from the iterator ``numbers``."""
    return {key: _filled(kind, numbers) for key, kind in schema}


def _verdict(i: int, e: int, a: int, b: int) -> Verdict:
    (passed, schema, numbers), = _RULES[i](scan_line(index(e), index(a)), (index(b),))
    return Verdict(FILTER_RULES[i], passed, witness_values(schema, iter(numbers)), _CITATIONS[i])


def positivity_filter(e: int, a: int, b: int) -> Verdict:
    """The positivity verdict on (e, a, b); see ``_positivity``."""
    return _verdict(0, e, a, b)


def schur_filter(e: int, a: int, b: int) -> Verdict:
    """The Schur verdict on (e, a, b); see ``_schur``."""
    return _verdict(1, e, a, b)


def schwarzenberger_filter(e: int, a: int, b: int) -> Verdict:
    """The integrality verdict on (e, a, b); see ``_schwarzenberger``."""
    return _verdict(2, e, a, b)


def griffiths_filter(e: int, a: int, b: int) -> Verdict:
    """The Griffiths verdict on (e, a, b); see ``_griffiths``."""
    return _verdict(3, e, a, b)


_FILTERS = (positivity_filter, schur_filter, schwarzenberger_filter, griffiths_filter)
FILTER_RULES = tuple(rule.__name__.removesuffix("_filter") for rule in _FILTERS)


def scan_rows(line: ScanLine, bs: Sequence[int]) -> list:
    """The scan's rows (key, numbers) of the candidates (line.e, line.a, b)
    for b in the run ``bs``, in its order.  The key is the stop point, the
    position in FILTER_RULES of the first failed rule or its length, then
    the schema of each rule applied; the numbers are e, a, b, then each
    witness number's reduced (numerator, denominator) pair, in order."""
    verdicts, live = [], bs
    for rule in _RULES:  # each rule once, on the b that passed every rule before it
        if not live:
            break
        got = rule(line, live)
        verdicts.append(iter(got))
        live = [b for b, (passed, _, _) in zip(live, got, strict=True) if passed]
    rows = []
    for b in bs:  # a b reaches a rule in the order it reached the rule before
        key, numbers = [len(_RULES)], [line.e, line.a, b]  # the stop point, then the schemas
        for passed, schema, witness in map(next, verdicts):
            key.append(schema)
            numbers += witness
            if not passed:
                key[0] = len(key) - 2  # the position of this rule
                break
        rows.append((tuple(key), tuple(numbers)))
    return rows


def scan_record(row) -> CandidateRecord:
    """The record of a scan row, its witness numbers as Fractions."""
    (stop, *schemas), numbers = row
    witness_numbers = iter(numbers[3:])
    verdicts = tuple([
        Verdict(rule, i < stop, witness_values(schema, witness_numbers), citation)
        for i, (rule, schema, citation) in enumerate(zip(FILTER_RULES, schemas, _CITATIONS))
    ])
    data = RankTwoData(*numbers[:3])
    if stop < len(FILTER_RULES):
        return CandidateRecord(data, verdicts, "eliminated", FILTER_RULES[stop])
    return CandidateRecord(data, verdicts, "surviving", "")


def evaluate_candidate(e: int, a: int, b: int) -> CandidateRecord:
    """Apply the four filters in order, stopping at the first failure.  Its
    coordinates pass ``operator.index``: a float a or b would give float
    witnesses, and a float e is its int's key in the cached ``scan_forms``."""
    return scan_record(scan_rows(scan_line(index(e), index(a)), (index(b),))[0])


class ScanRecords(Sequence):
    """The scan's records, in canonical order, as ``enumerate_candidates``
    returns them: a sequence that holds one row per candidate (``scan_rows``)
    and builds a record (``scan_record``) only when it is read.  A slice is a
    ``ScanRecords`` of its rows.  It equals another ``ScanRecords`` with
    equal rows, and prints as the tuple of its records."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScanRecords(self.rows[i])
        return scan_record(self.rows[i])

    def __iter__(self):
        return map(scan_record, self.rows)

    def __eq__(self, other):
        return self.rows == other.rows if type(other) is ScanRecords else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@lru_cache(maxsize=1)
def enumerate_candidates() -> ScanRecords:
    """Scan e in {0, -1} and (a, b) over the square [SCAN_LO, SCAN_HI]^2,
    once a certificate shows that it clips nothing: positivity needs
    a, b >= lo = floor(-shift) + 1, and Schur, whose pairings are checked to
    be k*a + c, free of b, and k_sum*(a + b) + c_sum with k, k_sum < 0, caps a
    and a + b at the floors of their roots, checked against SCHUR_A_MAX and
    SCHUR_SUM_MAX[e], so a, b <= cap - lo = hi."""
    for e in (0, -1):
        forms = scan_forms(e)
        point, hyper = forms.schur[0].cols, forms.schur[1].cols
        # each slope read as at most -1, so that a slope >= 0 fails the check too
        k, c, k_sum, c_sum = min(point[-1][0], -1), point[-1][-1], min(hyper[0][0], -1), hyper[-1][-1]
        what = f"the columns of the Schur forms at e = {e}, k*a + c and k_sum*(a + b) + c_sum with k, k_sum < 0,"
        _expect("scan", what, (point, hyper), (((0,), (k, c)), ((k_sum,), (k_sum, c_sum))))
        a_max, sum_max = c // -k, c_sum // -k_sum
        _expect("scan", f"the Schur cap on (a, a + b) at e = {e}", (a_max, sum_max), (SCHUR_A_MAX, SCHUR_SUM_MAX[e]))
        lo = (-forms.shift) // 1 + 1
        hi = sum_max - lo
        _expect(
            "scan",
            f"the range of a, b that positivity and Schur leave at e = {e}, "
            f"clipped to the scan square [{SCAN_LO}, {SCAN_HI}]^2,",
            (max(lo, SCAN_LO), min(hi, SCAN_HI)),
            (lo, hi),
        )
    rows = []
    for e in (0, -1):
        for a in range(SCAN_LO, SCAN_HI + 1):
            rows += scan_rows(scan_line(e, a), range(SCAN_LO, SCAN_HI + 1))
    return ScanRecords(tuple(rows))


# -- frozen expected tables (regression gates for the replay) ------------------

SCHUR_A_MAX = 6  # the largest a, and a + b by e, that pass Schur
SCHUR_SUM_MAX = {0: 12, -1: 13}
STEP1_ELIMINATED = {"positivity": 53, "schur": 936, "schwarzenberger": 459, "griffiths": 1}
STEP1_SURVIVORS = {
    0: ((-4, -4), (-4, 12), (-1, -1), (-1, 3), (0, 0)),
    -1: ((6, 6), (-2, -2), (-2, 7), (0, 1), (0, 0)),
}
GRIFFITHS_ELIMINATED = RankTwoData(-1, 6, 6)
GRIFFITHS_WITNESS = Fraction(-935)
STEP2_DATA = RankTwoData(0, -4, -4)
STEP2_CHI_TWIST_MINUS_2 = Fraction(1)
STEP3_TABLE = (
    (RankTwoData(0, -4, 12), Fraction(4)),
    (RankTwoData(0, -1, -1), Fraction(1)),
    (RankTwoData(0, -1, 3), Fraction(1)),
    (RankTwoData(-1, -2, -2), Fraction(1)),
    (RankTwoData(-1, -2, 7), Fraction(1)),
)
STEP4_TABLE = (
    (RankTwoData(0, 0, 0), Fraction(2)),
    (RankTwoData(-1, 0, 0), Fraction(1)),
    (RankTwoData(-1, 0, 1), Fraction(1)),
)
NONSPLIT_DATA = RankTwoData(-1, 0, 1)
NONSPLIT_NAME = (
    "tautological rank-two subbundle, Chern data (e,a,b)=(-1,0,1) "
    "(the universal quotient bundle in the dual convention)"
)


def survivors(records: ScanRecords, stage: str) -> list[CandidateRecord]:
    """The scan's records that pass every filter up to and including
    ``stage``: a row passes when its stop point lies past the stage's
    position in ``FILTER_RULES``, and only the records of the rows that pass
    are built."""
    if stage not in FILTER_RULES:
        raise ValueError(f"unknown filter stage {stage!r}")
    i = FILTER_RULES.index(stage)
    return [scan_record(row) for row in records.rows if row[0][0] > i]


def step1_survivors(records: ScanRecords) -> list[CandidateRecord]:
    """The records that pass the integrality filter, once the scan is checked
    against the frozen tables: the number of candidates each filter
    eliminates, counted from the rows' stop points, the candidate table, and
    the one Griffiths elimination and its witness; raises
    :class:`ReplayMismatch` at step1 on any difference."""
    stops = Counter(key[0] for key, _ in records.rows)
    _expect(
        "step1",
        "the number of candidates each filter eliminates",
        {rule: stops[i] for i, rule in enumerate(FILTER_RULES)},
        STEP1_ELIMINATED,
    )
    pre = survivors(records, "schwarzenberger")
    _expect(
        "step1",
        "the (a, b) by e that pass the integrality filter",
        {e: sorted((r.data.a, r.data.b) for r in pre if r.data.e == e) for e in (0, -1)},
        {e: sorted(v) for e, v in STEP1_SURVIVORS.items()},
    )
    _expect(
        "step1",
        "chi(E(5)) of the candidates the Griffiths test removes",
        {r.data: r.verdict("griffiths").witness["chi_at_5"] for r in pre if not r.passed("griffiths")},
        {GRIFFITHS_ELIMINATED: GRIFFITHS_WITNESS},
    )
    return pre


# -- section arithmetic and split detection ------------------------------------


def section_constraints(e: int, a: int, b: int, j: int) -> SectionConstraints:
    """Zero-locus coordinates (a + j(e+j), b + j(e+j)) of a section of E(j)
    that is minimal (no section one twist lower); both vanish exactly when
    the bundle splits as O(-j) + O(e+j)."""
    _, va, vb = RankTwoData(e, a, b).twisted(j)
    return SectionConstraints(va, vb, va == 0 and vb == 0)


def split_detect(e: int, a: int, b: int) -> SplittingType | None:
    """The (p, q) with p + q = e and pq = a = b, when x^2 - e*x + a has
    integer roots; None otherwise (the data cannot be a split bundle)."""
    if a != b:
        return None
    disc = e * e - 4 * a
    if disc < 0:
        return None
    root = isqrt(disc)
    if root * root != disc or (e - root) % 2:
        return None
    return SplittingType((e - root) // 2, (e + root) // 2)


def restriction_to_p3(e: int, a: int, b: int) -> tuple[int, int]:
    """Chern coordinates of the restriction of (e, a, b) to the P^3 of lines
    through a point: (integral of c1 * h^2 * P, integral of c2 * h * P) with
    c1 = e*s(1), c2 = a*s(2) + b*s(1,1) and P = omega(0, 4), each read as
    one Poincare pairing with P (``ChowClass.pair``, whose duality the
    preflight checks on the full basis before it uses this map).  The map is
    linear in (e, a, b); the preflight proves it equal to (e, a) on a basis
    (s(1,1) * P = 0, so b drops out)."""
    ring = G14
    h, p3 = ring.hyperplane(), ring.omega(0, 4)
    c1 = e * h
    c2 = a * ring.sigma((2,)) + b * ring.sigma((1, 1))
    # integer scalars times integer structure constants: each pairing is an integer
    return (c1 * h * h).pair(p3).numerator, (c2 * h).pair(p3).numerator


# -- the four-step replay -------------------------------------------------------


def _preflight() -> None:
    """Cross-module sanity properties, asserted before the replay proper."""
    ring = G14
    # Plucker degrees of rings of lines follow the Catalan numbers
    for n in range(2, 7):
        catalan = comb(2 * n - 2, n - 1) // n
        _expect("preflight", f"the degree of G(1,{n})", GrassmannRing(1, n).plucker_degree(), catalan)
    # Poincare duality on the full basis, through full products: ChowClass.pair
    # is read off this duality, so it cannot be the thing that checks it.
    # Each basis class and the index of its dual are built once
    classes = [(la, ring.sigma(la), dual_partition(ring, la)) for la in ring.all_partitions()]
    for la, x, dual in classes:
        for mu, y, _ in classes:
            got, expected = (x * y).integrate(), int(mu == dual)
            if got != expected:  # the message is built only on failure
                _expect("preflight", f"the integral of s{la} * s{mu}", got, expected)
    # Newton round trips
    rank_two = [RankTwoData(-1, 0, 1), RankTwoData(0, -1, -1), RankTwoData(-1, 6, 6)]
    tangent = tangent_bundle(ring)
    probes = [rank_two_chern(ring, data) for data in rank_two] + [tangent]
    for v in probes:
        _expect("preflight", "the Newton round trip", v.power_sums().to_chern(), v)
    # the scan's forms against the general path (rank_two_chern -> ch -> pair)
    chi = chi_form(ring)
    for data in (*rank_two, RankTwoData(-1, 6, 6).twisted(5)):
        expected = euler_characteristic(rank_two_chern(ring, data))
        _expect("preflight", f"the chi form at {data}", chi(data), expected)
    for e, a, b in ((0, -4, -4), (-1, 6, 7)):
        data = RankTwoData(e, a, b).twisted(ample_twist(e))
        v = rank_two_chern(ring, data)
        c1, c2 = v.c[1], v.c[2]
        schur3 = c1 * c1 * c1 - 2 * (c1 * c2)
        for i, j in SCHUR_CYCLES:
            got, expected = schur3_form(ring, i, j)(data), schur3.pair(ring.omega(i, j))
            _expect("preflight", f"the s(3) form on omega({i},{j}) at {data}", got, expected)
    # the lines the scan reads against the forms at the twisted data, checked
    # only now so that a wrong form is refused before it is folded.  However
    # the fold and the restriction place the coefficients, a line's value is
    # of degree at most d = top/2 in a and in b, like the form's, so the grid
    # a, b in 0..d proves every line; a scan corner is probed too.  Pairs are
    # cross-multiplied; a Fraction is built only on a mismatch.
    for e in (0, -1):
        m = ample_twist(e)
        # each field of forms on a line, with the forms and twists it is read against
        families = (
            ("chi", [(chi, k) for k in range(ring.dimension + 1)]),
            ("schur", [(schur3_form(ring, i, j), m) for i, j in SCHUR_CYCLES]),
        )
        for family, forms in families:
            d = max(form.top for form, _ in forms) // 2
            runs = [(a, range(d + 1)) for a in range(d + 1)] + [(SCAN_LO, (SCAN_HI,))]
            for a, bs in runs:
                for b, (got, _) in zip(bs, line_values(getattr(scan_line(e, a), family), bs)):
                    for (form, t), num, den in zip(forms, got[::2], got[1::2], strict=True):
                        n, q = form.ratio(RankTwoData(e, a, b).twisted(t))
                        if num * q != n * den:  # the message is built only on failure
                            what = f"the scan line ({e}, {a}) at b = {b}, twist {t},"
                            _expect("preflight", what, Fraction(num, den), Fraction(n, q))
    # the restriction to P^3 is linear in (e, a, b), so its values on the
    # basis prove it equal to (e, a) everywhere
    for data, expected in (((1, 0, 0), (1, 0)), ((0, 1, 0), (0, 1)), ((0, 0, 1), (0, 0))):
        _expect("preflight", f"restriction to P^3 of {data}", restriction_to_p3(*data), expected)
    # tautological sequence and Whitney data of split bundles
    total = tautological_subbundle(ring).total() * tautological_quotient(ring).total()
    _expect("preflight", "c(S) * c(Q)", total, ring.one())
    # anticanonical index: the 5 in the splitting-type inequality at e = 0
    _expect("preflight", "c1 of the tangent bundle", tangent.c[1], 5 * ring.hyperplane())
    for p, q in ((-2, 2), (1, 3), (0, -1)):
        split = line_bundle(ring, p).direct_sum(line_bundle(ring, q))
        expected = rank_two_chern(ring, RankTwoData(p + q, p * q, p * q))
        _expect("preflight", f"the Chern data of O({p})+O({q})", split, expected)
        expected = euler_characteristic(line_bundle(ring, p)) + euler_characteristic(line_bundle(ring, q))
        _expect("preflight", f"chi(O({p})+O({q}))", euler_characteristic(split), expected)


def _step2() -> CandidateRecord:
    data = STEP2_DATA
    chi_m2 = chi_form(G14)(data.twisted(-2))
    _expect("step2", f"chi(E(-2)) of {data}", chi_m2, STEP2_CHI_TWIST_MINUS_2)
    sc = section_constraints(data.e, data.a, data.b, 2)
    _expect("step2", f"the section constraints of {data} at j = 2", sc, SectionConstraints(0, 0, True))
    st = split_detect(data.e, data.a, data.b)
    _expect("step2", f"the splitting type of {data}", st, SplittingType(-2, 2))
    zero_locus = {"va": sc.va, "vb": sc.vb, "split": sc.split_iff_both_zero}
    verdicts = (
        Verdict("minimal-sections", True, {"chi_at_twist_-2": chi_m2}, CITE_LE_POTIER),
        Verdict("empty-zero-locus", True, zero_locus, CITE_SECTION_SPLIT),
    )
    return CandidateRecord(data, verdicts, "classified", bundle_name(st))


def _step3() -> tuple[CandidateRecord, ...]:
    out = []
    for data, expected_chi in STEP3_TABLE:
        restricted = restriction_to_p3(*data)
        chi = chi_p3(*restricted, -1)
        _expect("step3", f"chi of the restriction of {data} at twist -1", chi, expected_chi)
        sections = {"chi_p3_twist_-1": chi, "restricted_data": restricted}
        margin = data.a - (data.e - 1)
        verdicts = [
            Verdict("restricted-sections", True, sections, CITE_LE_POTIER),
            Verdict("section-bound", margin >= 0, {"a_minus_lower_bound": margin}, CITE_SECTION_BOUND),
        ]
        if margin >= 0:
            _expect("step3", f"the section-bound margin of {data}", margin, 0)
            # equality forces the split O(1) + O(e-1), whose data has b = a
            forced = {"expected_b": data.a, "b": data.b}
            verdicts.append(Verdict("forced-split-consistency", data.b == data.a, forced, CITE_SECTION_BOUND))
        if not verdicts[-1].passed:
            out.append(CandidateRecord(data, tuple(verdicts), "eliminated", verdicts[-1].rule))
            continue
        st = split_detect(*data)
        _expect("step3", f"the splitting type of {data}", st, SplittingType(data.e - 1, 1))
        out.append(CandidateRecord(data, tuple(verdicts), "classified", bundle_name(st)))
    return tuple(out)


def _step4() -> tuple[CandidateRecord, ...]:
    out = []
    for data, expected_chi in STEP4_TABLE:
        chi = chi_p3(*restriction_to_p3(*data), 0)
        _expect("step4", f"chi of the restriction of {data}", chi, expected_chi)
        sections = Verdict("restricted-sections", True, {"chi_p3_twist_0": chi}, CITE_LE_POTIER)
        st = split_detect(*data)
        uniform = Verdict("uniform-classification", True, {"split_detect": st}, CITE_UNIFORM)
        name = bundle_name(st) if st is not None else NONSPLIT_NAME
        out.append(CandidateRecord(data, (sections, uniform), "classified", name))
    return tuple(out)


def replay_proof() -> ClassificationReport:
    """Run the whole four-step classification and return the report.

    Raises :class:`ReplayMismatch` the moment any computed witness differs
    from the frozen tables.
    """
    _preflight()

    records = enumerate_candidates()
    pre = step1_survivors(records)

    step2 = (_step2(),)
    step3 = _step3()
    step4 = _step4()
    settled = step2 + step3 + step4

    # every survivor is settled once: by the Griffiths test or by one step
    _expect(
        "final",
        "the candidates the Griffiths test and steps 2-4 settle",
        sorted([GRIFFITHS_ELIMINATED, *(rec.data for rec in settled)]),
        sorted(r.data for r in pre),
    )
    types = [(rec.data, split_detect(*rec.data)) for rec in settled if rec.status == "classified"]
    expected_splits = split_fano_bundles(G14.n)
    splits = sorted(st for _, st in types if st is not None)
    _expect("final", "the split types", splits, sorted(expected_splits))
    _expect("final", "the non-split data", [data for data, st in types if st is None], [NONSPLIT_DATA])

    final = tuple(
        BundleType("split", st, RankTwoData(st.p + st.q, st.p * st.q, st.p * st.q), bundle_name(st))
        for st in expected_splits
    ) + (BundleType("nonsplit", None, NONSPLIT_DATA, NONSPLIT_NAME),)

    return ClassificationReport(records, step2, step3, step4, final)
