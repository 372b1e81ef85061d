"""Host-free work counts: the calls of the engine's code over cold passes,
counted by code object, and the hits of each of its caches, pinned; and the
reachability map, which names a reader for every function of the package.

A count moves only when the code does more or less work, never with the
host, so a change that moves one updates the tables below on purpose.  The
counts and the map hold under any hash seed (CI runs this file under three).
"""

import cProfile
import contextlib
import io
from collections import Counter
from pathlib import Path
from types import CodeType

import schubert
from schubert import GrassmannRing, charclass, chow, classify, cli, hrr, partitions
from schubert import euler_characteristic, line_bundle

from test_api import TRACER_BOUND, TRACER_CACHES, _owner

MODULES = (partitions, chow, charclass, hrr, classify, cli)
PACKAGE = Path(schubert.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# calls of each kernel over the tangent bundle, its Todd class and six
# chi(O(t)) on G(3,7), from cold caches
COLD_G37_CALLS = {
    "chow.sum_of_products": 33,
    "chow.linear_combination": 25,
    "chow._fill_pair": 30,
    "chow._lr_row": 425,
}
COLD_G37_TWISTS = (-10, -9, -8, -5, -4, 1)
# hits of every cache of the package over the same work.  A cache whose only
# hits are one caller asking twice is state with no second reader.
COLD_G37_HITS = {
    "schubert.charclass._rank_two_monomials": 0,
    "schubert.charclass.tangent_power_sums": 1,
    "schubert.chow._basis_product": 0,  # no engine caller: kept while bench/tracing.py reads it
    "schubert.chow._tables": 79,
    "schubert.classify.enumerate_candidates": 0,
    "schubert.classify.scan_forms": 0,
    "schubert.classify.schur3_form": 0,
    "schubert.hrr._hilbert_polynomial": 5,
    "schubert.hrr.chi_form": 0,
    "schubert.hrr.tangent_todd": 1,
    "schubert.partitions._component_product": 153,
    "schubert.partitions.lr_coefficient": 0,  # no engine caller: kept while bench/tracing.py reads it
}

# calls into each module of the package over one cold `replay --format json`
# and `filter --format csv`, comprehensions and generator expressions left
# out: Python 3.12 inlines list, dict and set comprehensions, so their frames
# are not calls there, and a generator expression is pinned apart, below
COLD_REPLAY_MODULE_CALLS = {
    "charclass": 1471,
    "chow": 3497,
    "classify": 1042,
    "cli": 4754,
    "hrr": 27,
    "partitions": 775,
}
# entries into the generator expressions of each module over the same pass:
# cProfile counts every resume of a generator's frame as a call, so these
# move with how a sum is spelled and the number of items it reads, not with
# the calls above
COLD_REPLAY_MODULE_RESUMES = {
    "charclass": 339,
    "chow": 1387,
    "classify": 3789,
    "cli": 1489,
    "hrr": 24,
    "partitions": 480,
}
# calls of named functions over the same pass
COLD_REPLAY_CALLS = {
    "chow._lr_row": 46,
    "chow._fill_pair": 51,
    "chow.sum_of_products": 331,
    "charclass.line_values": 97,
    "classify.scan_record": 34,
    "cli._record_shape": 23,
    "cli._derived_format": 1458,
    "cli.build_parser": 2,
}
# hits of every cache over the same pass
COLD_REPLAY_HITS = {
    "schubert.charclass._rank_two_monomials": 2,
    "schubert.charclass.tangent_power_sums": 1,
    "schubert.chow._basis_product": 0,  # no engine caller: kept while bench/tracing.py reads it
    "schubert.chow._tables": 459,
    # one hit, from the second command: its one second reader is the
    # benchmark's replay + filter pass, and deleting the cache costs that
    # pass about 22 % (ROADMAP, state section), so it stays
    "schubert.classify.enumerate_candidates": 1,
    "schubert.classify.scan_forms": 70,
    "schubert.classify.schur3_form": 10,
    "schubert.hrr._hilbert_polynomial": 6,
    "schubert.hrr.chi_form": 10,
    "schubert.hrr.tangent_todd": 7,
    "schubert.partitions._component_product": 0,
    "schubert.partitions.lr_coefficient": 0,  # no engine caller: kept while bench/tracing.py reads it
}
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _owners(module):
    """``module`` and every class defined in it."""
    classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    return (module, *classes)


def _caches():
    """Every cache of the package, module level and on classes, by the name
    the benchmark's cache walker gives it."""
    out = {}
    for module in MODULES:
        for owner in _owners(module):
            for obj in vars(owner).values():
                if callable(getattr(obj, "cache_clear", None)):
                    out[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return out


def _hits():
    """The hits of each cache of the package since it was last cleared."""
    return {name: cache.cache_info().hits for name, cache in _caches().items()}


def _calls_of(counts, paths):
    """The calls in ``counts`` of each function named "module.name" in ``paths``."""
    out = {}
    for path in paths:
        module, name = path.split(".")
        out[path] = counts[getattr(getattr(schubert, module), name).__code__]
    return out


def _cold_calls(work):
    """Calls of each code object of the package while ``work()`` runs from
    cold caches, read off a ``cProfile`` pass.  Code outside the package is
    left out: argparse compiles its patterns on a first pass only, and a
    garbage collector callback may run during any pass."""
    for cache in _caches().values():
        cache.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
    return Counter({
        stat.code: stat.callcount
        for stat in profile.getstats()
        if type(stat.code) is CodeType and Path(stat.code.co_filename).parent == PACKAGE
    })


def test_cold_ring_pins_its_calls_of_each_product_layer_function():
    ring = GrassmannRing(3, 7)

    def work():
        charclass.tangent_bundle(ring)
        hrr.tangent_todd(ring)
        for t in COLD_G37_TWISTS:
            euler_characteristic(line_bundle(ring, t))

    counts = _cold_calls(work)
    assert _hits() == COLD_G37_HITS
    assert _calls_of(counts, COLD_G37_CALLS) == COLD_G37_CALLS
    # each chi(O(t)) reads the ring's cached Hilbert polynomial: it builds
    # neither the line bundle's power sums nor its Chern character
    assert counts[charclass.ChernVector.power_sums.__code__] == 0
    assert counts[charclass.PowerSumVector.ch.__code__] == 0
    # every cache cleared: a second pass from cold does the same work
    assert _cold_calls(work) == counts


def test_cold_replay_and_filter_pass_pins_its_calls_per_module():
    def work():
        for argv in (["replay", "--format", "json"], ["filter", "--format", "csv"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0

    counts = _cold_calls(work)
    assert _hits() == COLD_REPLAY_HITS
    per_module, resumes = Counter(), Counter()
    for code, calls in counts.items():
        if code.co_name == "<genexpr>":
            resumes[Path(code.co_filename).stem] += calls
        elif code.co_name not in COMPREHENSIONS:
            per_module[Path(code.co_filename).stem] += calls
    assert dict(per_module) == COLD_REPLAY_MODULE_CALLS
    assert dict(resumes) == COLD_REPLAY_MODULE_RESUMES
    assert _calls_of(counts, COLD_REPLAY_CALLS) == COLD_REPLAY_CALLS
    # every cache cleared: a second pass from cold does the same work
    assert _cold_calls(work) == counts


# -- the reachability map ------------------------------------------------------
#
# Every function of the six modules, named "module.qualname", sits in exactly
# one group.  REACHED is what the map's run reaches from cold caches: the
# command lines below, each in every format, and one cold ring.  Every other
# group names the reader of a function that run does not reach.  A function
# in no group fails the map, and so does a REACHED one the run no longer
# reaches: a function whose last reader is gone is deleted, not listed.

MAP_COMMANDS = (
    ["intersect", "--k", "1", "--n", "4", "1;1;1;1;1;1"],  # products, then a pairing
    ["intersect", "--k", "1", "--n", "4", "3,3"],  # one factor, integrated
    ["chi", "--e", "-1", "--a", "6", "--b", "6", "--twist", "5"],
    ["chi-p3", "--e", "0", "--a", "-1", "--twist", "-1"],
    ["splitting-types", "--e", "0", "--n", "4"],
    ["filter"],
    ["replay"],
)
MAP_FORMATS = ("plain", "json", "csv")
REACHED = {
    "partitions": (
        "_component_product", "_lattice_words", "_skew_expansion", "complement", "enumerate_partitions",
        "enumerate_partitions.<locals>.grow", "fits", "partition", "weight",
    ),
    "chow": (
        "ChowClass.__add__", "ChowClass.__bool__", "ChowClass.__eq__", "ChowClass.__mul__", "ChowClass.__sub__",
        "ChowClass._raw", "ChowClass.graded_pieces", "ChowClass.integrate",
        "ChowClass.is_homogeneous", "ChowClass.pair", "GrassmannRing.__new__", "GrassmannRing.all_partitions",
        "GrassmannRing.basis", "GrassmannRing.box", "GrassmannRing.dimension", "GrassmannRing.hyperplane",
        "GrassmannRing.hyperplane_powers", "GrassmannRing.omega", "GrassmannRing.one",
        "GrassmannRing.plucker_degree", "GrassmannRing.sigma", "GrassmannRing.top", "GrassmannRing.zero",
        "_block_pairs", "_fill_pair", "_lr_row", "_tables", "dual_partition", "linear_combination",
        "sum_of_products",
    ),
    "charclass": (
        "ChernVector.__eq__", "ChernVector.__init__", "ChernVector.ch", "ChernVector.direct_sum",
        "ChernVector.power_sums", "ChernVector.total", "PlaneForm.line",
        "PowerSumVector.__init__", "PowerSumVector.ch", "PowerSumVector.to_chern", "PowerSumVector.todd",
        "RankTwoData.twisted", "RankTwoForm.__call__", "RankTwoForm.at_twist", "RankTwoForm.from_terms",
        "RankTwoForm.ratio", "_graded_solve", "_rank_two_monomials",
        "line_bundle", "line_values", "rank_two_character", "rank_two_chern", "rank_two_form", "tangent_bundle",
        "tangent_power_sums", "tautological_quotient", "tautological_subbundle", "todd_log_coefficients",
    ),
    "hrr": ("_hilbert_polynomial", "_twist_series", "chi_form", "chi_p3", "euler_characteristic", "tangent_todd"),
    "classify": (
        "CandidateRecord.passed", "CandidateRecord.verdict", "ScanRecords.__init__", "_expect", "_filled",
        "_griffiths", "_positivity", "_preflight", "_schur", "_schwarzenberger", "_step2", "_step3", "_step4",
        "ample_twist", "bundle_name", "bundle_name.<locals>.o", "enumerate_candidates", "fano_splitting_types",
        "replay_proof", "restriction_to_p3", "scan_forms", "scan_line", "scan_record", "scan_rows", "schur3_form",
        "section_constraints", "split_detect", "split_fano_bundles", "step1_survivors", "survivors",
        "witness_values",
    ),
    "cli": (
        "_chi_arguments_too_large", "_csv_line_writer", "_derived_format", "_emit_scalar", "_filter_rows",
        "_final_json_text", "_formatted", "_json_string", "_marks", "_parse_partition_list", "_print_table",
        "_record_csv_format", "_record_json_format", "_record_shape", "_replay_rows", "_table_rows",
        "_witness_format", "_witness_json_format", "_write_json_list", "_write_records_csv", "_write_records_json",
        "build_parser", "build_parser.<locals>.with_format", "cmd_chi", "cmd_chi_p3", "cmd_filter", "cmd_intersect",
        "cmd_replay", "cmd_splitting_types", "main",
    ),
}
# public, and not on the run: each with the name in schubert.__all__ it serves
API = {
    "charclass.ChernVector.__hash__": "ChernVector: a value, usable as a dict key",
    "charclass.ChernVector.__repr__": "ChernVector",
    "charclass.ChernVector.dual": "ChernVector: the dual bundle",
    "chow.ChowClass.__init__": "ChowClass: the public constructor; the engine builds by _raw",
    "chow.ChowClass.__hash__": "ChowClass: a value, usable as a dict key",
    "chow.ChowClass.__neg__": "ChowClass arithmetic",
    "chow.ChowClass.__truediv__": "ChowClass arithmetic",
    "chow.ChowClass.coefficient": "ChowClass: one coefficient, by Schubert index",
    "chow.ChowClass.coeffs": "ChowClass: the coefficients as a dict",
    "classify.ScanRecords.__eq__": "enumerate_candidates returns this sequence",
    "classify.ScanRecords.__getitem__": "enumerate_candidates returns this sequence",
    "classify.ScanRecords.__iter__": "enumerate_candidates returns this sequence",
    "classify.ScanRecords.__repr__": "enumerate_candidates returns this sequence",
    "classify._verdict": "the four exported filters' one rule reader",
    "classify.evaluate_candidate": "the four exported filters' record of one candidate",
    "classify.griffiths_filter": "griffiths_filter",
    "classify.positivity_filter": "positivity_filter",
    "classify.schur_filter": "schur_filter",
    "classify.schwarzenberger_filter": "schwarzenberger_filter",
    "partitions.contains": "lr_coefficient's containment test",
    "partitions.lr_coefficient": "lr_coefficient",
}
# called by a demo and by no command
DEMO = {
    "charclass.ChernVector.todd": "riemann_roch.py",
    "chow.ChowClass.__pow__": "ring_tour.py",
    "chow.ChowClass.__repr__": "ring_tour.py",
    "classify.ScanRecords.__len__": "fano_classification.py",
    "hrr.EulerPolynomial.__call__": "riemann_roch.py",
    "hrr.EulerPolynomial.degree": "riemann_roch.py",
    "hrr.EulerPolynomial.is_integer_valued": "riemann_roch.py",
    "hrr.euler_polynomial": "riemann_roch.py",
}
# reached on a failure path only: each with the exit-code test that reaches it
FAILURE = {
    "classify.ReplayMismatch.__init__":
        "tests/test_cli.py::test_a_wrong_frozen_value_reports_what_was_computed_and_what_was_frozen",
    "classify.ReplayMismatch.__str__":
        "tests/test_cli.py::test_a_wrong_frozen_value_reports_what_was_computed_and_what_was_frozen",
    "cli._Parser.error": "tests/test_cli.py::test_usage_errors_are_bounded",
}
# called by the console script of pyproject.toml, named here
ENTRY = {"cli.entry": "schubert"}


def _functions():
    """Every function of the six modules, by its code object, named
    "module.qualname": the functions of each module and of its classes,
    through lru_cache, property, classmethod and staticmethod, and the
    functions nested in each, as "parent.<locals>.name".  Comprehensions,
    generator expressions and lambdas are left out, as in the work pins.
    Python 3.10 has no ``co_qualname``, so names come from the namespaces."""
    out = {}
    for module in MODULES:
        stem = module.__name__.rpartition(".")[2]
        for owner in _owners(module):
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)
                value = getattr(value, "fget", value)
                value = getattr(value, "__wrapped__", value)
                code = getattr(value, "__code__", None)
                if code is None or Path(code.co_filename) != Path(module.__file__):
                    continue
                stack = [(code, f"{stem}.{value.__qualname__}")]
                while stack:
                    code, name = stack.pop()
                    out[code] = name
                    stack += [
                        (inner, f"{name}.<locals>.{inner.co_name}")
                        for inner in code.co_consts
                        if type(inner) is CodeType and not inner.co_name.startswith("<")
                    ]
    return out


def _tracer_reads(functions):
    """The functions the benchmark's tracer reads by name: the names it
    rebinds and the caches it reports, as tests/test_api.py lists them."""
    caches = _caches()
    read = [vars(_owner(path))[attr] for path, attr in TRACER_BOUND] + [caches[name] for name in TRACER_CACHES]
    return {functions[getattr(f, "__wrapped__", f).__code__] for f in read}


def _map_run():
    ring = GrassmannRing(2, 6)
    charclass.tangent_bundle(ring)
    hrr.tangent_todd(ring)
    euler_characteristic(line_bundle(ring, 3))
    for argv in MAP_COMMANDS:
        for fmt in MAP_FORMATS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([*argv, "--format", fmt]) == 0, (argv, fmt)


def test_every_function_is_reached_or_names_its_reader():
    functions = _functions()
    reached = {functions[code] for code in _cold_calls(_map_run) if code in functions}
    groups = {
        "reached": {f"{module}.{name}" for module, names in REACHED.items() for name in names},
        "api": set(API),
        "demo": set(DEMO),
        "failure": set(FAILURE),
        "entry": set(ENTRY),
    }
    # the tracer's names, less those another reader keeps
    groups["tracer"] = _tracer_reads(functions) - set().union(*groups.values())
    listed = [name for group in groups.values() for name in group]
    assert len(listed) == len(set(listed)), "a function in two groups"
    assert set(functions.values()) - set(listed) == set(), "a function no group names"
    assert set(listed) - set(functions.values()) == set(), "a group names a function that is gone"
    assert reached == groups["reached"]
    assert groups["tracer"] == {"chow._basis_product", "charclass.PowerSumVector.twisted"}
    # each named reader is there
    for test in FAILURE.values():
        path, _, name = test.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), test
    for demo in DEMO.values():
        assert (ROOT / "demos" / demo).is_file(), demo
    scripts = (ROOT / "pyproject.toml").read_text()
    for function, script in ENTRY.items():
        module, _, name = function.partition(".")
        assert f'\n{script} = "schubert.{module}:{name}"\n' in scripts, function
