"""Host-free work counts: the calls of the engine's code over cold passes,
counted by code object, and the hits of each of its caches, pinned.

A count moves only when the code does more or less work, never with the
host, so a change that moves one updates the tables below on purpose.  The
counts hold under any hash seed (CI runs this file under three).
"""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import schubert
from schubert import GrassmannRing, charclass, chow, classify, cli, hrr, partitions
from schubert import euler_characteristic, line_bundle

MODULES = (partitions, chow, charclass, hrr, classify, cli)
PACKAGE = Path(schubert.__file__).parent

# calls of each kernel over the tangent bundle, its Todd class and six
# chi(O(t)) on G(3,7), from cold caches
COLD_G37_CALLS = {
    "chow.sum_of_products": 33,
    "chow.linear_combination": 32,
    "chow._fill_pair": 30,
    "chow._lr_row": 425,
}
COLD_G37_TWISTS = (-10, -9, -8, -5, -4, 1)
# hits of every cache of the package over the same work.  A cache whose only
# hits are one caller asking twice is state with no second reader.
COLD_G37_HITS = {
    "schubert.charclass._rank_two_monomials": 0,
    "schubert.charclass.tangent_power_sums": 1,
    "schubert.chow.GrassmannRing.hyperplane_powers": 5,
    "schubert.chow._basis_product": 0,  # no engine caller: kept while bench/tracing.py reads it
    "schubert.chow._tables": 68,
    "schubert.classify.enumerate_candidates": 0,
    "schubert.classify.scan_forms": 0,
    "schubert.classify.schur3_form": 0,
    "schubert.hrr.chi_form": 0,
    "schubert.hrr.tangent_todd": 6,
    "schubert.partitions._component_product": 153,
    "schubert.partitions.lr_coefficient": 0,  # no engine caller: kept while bench/tracing.py reads it
}

# calls into each module of the package over one cold `replay --format json`
# and `filter --format csv`, comprehensions left out: Python 3.12 inlines
# list, dict and set comprehensions, so their frames are not calls there
COLD_REPLAY_MODULE_CALLS = {
    "charclass": 1844,
    "chow": 5231,
    "classify": 4831,
    "cli": 6243,
    "hrr": 25,
    "partitions": 1773,
}
# calls of named functions over the same pass
COLD_REPLAY_CALLS = {
    "chow._lr_row": 46,
    "chow._fill_pair": 51,
    "chow.sum_of_products": 353,
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
    "schubert.chow.GrassmannRing.hyperplane_powers": 7,
    "schubert.chow._basis_product": 0,  # no engine caller: kept while bench/tracing.py reads it
    "schubert.chow._tables": 459,
    "schubert.classify.enumerate_candidates": 1,
    "schubert.classify.scan_forms": 70,
    "schubert.classify.schur3_form": 10,
    "schubert.hrr.chi_form": 10,
    "schubert.hrr.tangent_todd": 13,
    "schubert.partitions._component_product": 0,
    "schubert.partitions.lr_coefficient": 0,  # no engine caller: kept while bench/tracing.py reads it
}
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _caches():
    """Every cache of the package, module level and on classes, by the name
    the benchmark's cache walker gives it."""
    out = {}
    for module in MODULES:
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in (module, *classes):
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
    cold caches, by ``sys.setprofile``.  Code outside the package is left
    out: argparse compiles its patterns on a first pass only, and a garbage
    collector callback may run during any pass."""
    for cache in _caches().values():
        cache.cache_clear()
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return Counter({code: n for code, n in counts.items() if Path(code.co_filename).parent == PACKAGE})


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
    # every cache cleared: a second pass from cold does the same work
    assert _cold_calls(work) == counts


def test_cold_replay_and_filter_pass_pins_its_calls_per_module():
    def work():
        for argv in (["replay", "--format", "json"], ["filter", "--format", "csv"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0

    counts = _cold_calls(work)
    assert _hits() == COLD_REPLAY_HITS
    per_module = Counter()
    for code, calls in counts.items():
        if code.co_name not in COMPREHENSIONS:
            per_module[Path(code.co_filename).stem] += calls
    assert dict(per_module) == COLD_REPLAY_MODULE_CALLS
    assert _calls_of(counts, COLD_REPLAY_CALLS) == COLD_REPLAY_CALLS
    # every cache cleared: a second pass from cold does the same work
    assert _cold_calls(work) == counts
