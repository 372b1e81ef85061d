"""Host-free work counts: the calls of the engine's kernels over one cold
ring of work, counted by code object, pinned.

A count moves only when the code does more or less work, never with the
host, so a change that moves one updates the table below on purpose.  The
counts hold under any hash seed (CI runs this file under three).
"""

import sys
from collections import Counter

from schubert import GrassmannRing, charclass, chow, classify, euler_characteristic, hrr, line_bundle, partitions

# calls of each kernel over the tangent bundle, its Todd class and six
# chi(O(t)) on G(3,7), from cold caches
COLD_G37_CALLS = {
    "sum_of_products": 129,
    "linear_combination": 32,
    "_fill_pair": 30,
    "_lr_row": 425,
}
COLD_G37_TWISTS = (-10, -9, -8, -5, -4, 1)


def _clear_caches():
    for module in (partitions, chow, charclass, hrr, classify):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _count_calls(work):
    """Calls of each code object while ``work()`` runs, by ``sys.setprofile``."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


def test_cold_ring_pins_its_calls_of_each_product_layer_function():
    ring = GrassmannRing(3, 7)

    def work():
        charclass.tangent_bundle(ring)
        hrr.tangent_todd(ring)
        for t in COLD_G37_TWISTS:
            euler_characteristic(line_bundle(ring, t))

    _clear_caches()
    counts = _count_calls(work)
    codes = {name: getattr(chow, name).__code__ for name in COLD_G37_CALLS}
    assert {name: counts[code] for name, code in codes.items()} == COLD_G37_CALLS
    # every cache cleared: a second pass from cold does the same work
    _clear_caches()
    assert _count_calls(work) == counts
