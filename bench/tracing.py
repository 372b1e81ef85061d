"""Per-layer spans and counters, recorded from outside the program.

Each traced entry point is rebound, in the module or class that calls it,
to a wrapper that times the call.  A layer's self time is its span time
minus the time of the traced spans it called.  Spans are folded into
per-name totals as they close rather than kept one by one: the product
layer alone closes tens of thousands of spans per replay pass.

Cache hit ratios and sizes are read from ``cache_info()`` and the scan's
counts from the records it returns, so no counter is added to the program.
"""

from __future__ import annotations

import time
from collections import Counter

FILTER_RULES = ("positivity", "schur", "schwarzenberger", "griffiths")

# Per-layer metrics of a traced run, with their units, in report order.
PER_LAYER = (
    ("partitions.lr_coefficient.calls", "count"),
    ("partitions.lr_coefficient.hit_ratio", "ratio"),
    ("partitions.lr_coefficient.self_s", "s"),
    ("partitions.lr_coefficient.entries", "count"),
    ("partitions.enumerate_partitions.calls", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("chow.mul.calls", "count"),
    ("chow.mul.term_pairs", "count"),
    ("chow.mul.self_s", "s"),
    ("chow.basis_product.hit_ratio", "ratio"),
    ("chow.basis_product.entries", "count"),
    *(
        (f"charclass.{op}.{field}", unit)
        for op in ("power_sums", "twisted", "todd", "tangent_bundle")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    *(
        (f"hrr.{op}.{field}", unit)
        for op in ("euler_characteristic", "euler_polynomial", "chi_p3")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    *(
        (f"classify.{rule}.{field}", unit)
        for rule in FILTER_RULES
        for field, unit in (("calls", "count"), ("eliminated", "count"), ("self_s", "s"))
    ),
    ("classify.scan.survivors", "count"),
    ("classify.preflight.self_s", "s"),
    ("classify.steps.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span totals (calls and self time per name) and named counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._patches: list = []

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent inside the innermost open span, by
        something that is not the program, out of that span's self time."""
        self._child_time[-1] += seconds

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, on_result=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._child_time, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - children
                calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def span(self, name: str, owners, attr: str, on_result=None) -> None:
        """Rebind ``attr`` in every owner to one traced wrapper of it."""
        wrapper = self.wrap(name, vars(owners[0])[attr], on_result)
        for owner in owners:
            self.patch(owner, attr, wrapper)

    def install(self, package) -> None:
        """Trace the six layers of the ``schubert`` package."""
        chow, charclass, hrr = package.chow, package.charclass, package.hrr
        classify, cli = package.classify, package.cli
        counts = self.counts

        self.span("partitions.lr_coefficient", [chow], "lr_coefficient")
        self.span("partitions.enumerate_partitions", [chow], "enumerate_partitions")

        chow_class = chow.ChowClass
        plain_mul = vars(chow_class)["__mul__"]
        traced_mul = self.wrap("chow.mul", plain_mul)

        def mul(x, y):
            if isinstance(y, chow_class):
                counts["chow.mul.term_pairs"] += len(x.coeffs) * len(y.coeffs)
                return traced_mul(x, y)
            return plain_mul(x, y)  # scaling by a number is not a ring product

        self.patch(chow_class, "__mul__", mul)

        self.span("charclass.power_sums", [charclass.ChernVector], "power_sums")
        self.span("charclass.twisted", [charclass.PowerSumVector], "twisted")
        self.span("charclass.todd", [charclass.ChernVector], "todd")
        self.span("charclass.tangent_bundle", [charclass, hrr, classify], "tangent_bundle")

        self.span("hrr.euler_characteristic", [hrr, classify, cli], "euler_characteristic")
        self.span("hrr.euler_polynomial", [hrr, classify], "euler_polynomial")
        self.span("hrr.chi_p3", [hrr, classify, cli], "chi_p3")

        filters = []
        for rule_fn in classify._FILTERS:
            rule = rule_fn.__name__.removesuffix("_filter")

            def count_elimination(verdict, rule=rule):
                if not verdict.passed:
                    counts[f"classify.{rule}.eliminated"] += 1

            filters.append(self.wrap(f"classify.{rule}", rule_fn, count_elimination))
        self.patch(classify, "_FILTERS", tuple(filters))

        def count_scan(records):
            counts["classify.scan.candidates"] = len(records)
            counts["classify.scan.survivors"] = sum(r.status == "surviving" for r in records)

        # The scan and replay spans report no time of their own; they keep
        # the engine's time out of the self time of the cli.render span.
        self.span("classify.scan", [classify, cli], "enumerate_candidates", count_scan)
        self.span("classify.replay", [cli], "replay_proof")
        self.span("classify.preflight", [classify], "_preflight")
        for step in ("_step2", "_step3", "_step4"):
            self.span("classify.steps", [classify], step)

        self.span("cli.build_parser", [cli], "build_parser")
        # What a command does besides the engine calls traced above is
        # argument handling and rendering; build_parser binds these names.
        for command in ("cmd_intersect", "cmd_chi", "cmd_chi_p3", "cmd_filter", "cmd_replay"):
            self.span("cli.render", [cli], command)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _hit_ratio(segments, cache: str) -> float:
    hits = sum(seg[cache].hits for seg in segments)
    lookups = hits + sum(seg[cache].misses for seg in segments)
    return hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, segments, stdout_bytes: int, scale: float) -> dict[str, float]:
    """Per-layer values of one traced pass; self times are multiplied by
    ``scale``, the pass's reference seconds per wall second.

    ``segments`` holds the cache statistics at the end of each cold segment
    of the pass (a cache is cleared at the start of each): hit ratios pool
    the segments and ``entries`` is the largest segment's size.  Besides the
    metrics of ``PER_LAYER`` the result holds two counts kept for the exact
    count check: scan candidates and LR enumerations (cache misses).
    """
    calls = tracer.calls
    self_s = Counter({name: seconds * scale for name, seconds in tracer.self_s.items()})
    lr, bp = "schubert.partitions.lr_coefficient", "schubert.chow._basis_product"
    out = {
        "partitions.lr_coefficient.calls": calls["partitions.lr_coefficient"],
        "partitions.lr_coefficient.hit_ratio": _hit_ratio(segments, lr),
        "partitions.lr_coefficient.self_s": self_s["partitions.lr_coefficient"],
        "partitions.lr_coefficient.entries": max(seg[lr].currsize for seg in segments),
        "partitions.enumerate_partitions.calls": calls["partitions.enumerate_partitions"],
        "partitions.enumerate_partitions.self_s": self_s["partitions.enumerate_partitions"],
        "chow.mul.calls": calls["chow.mul"],
        "chow.mul.term_pairs": tracer.counts["chow.mul.term_pairs"],
        "chow.mul.self_s": self_s["chow.mul"],
        "chow.basis_product.hit_ratio": _hit_ratio(segments, bp),
        "chow.basis_product.entries": max(seg[bp].currsize for seg in segments),
        "classify.scan.survivors": tracer.counts["classify.scan.survivors"],
        "classify.scan.candidates": tracer.counts["classify.scan.candidates"],
        "partitions.lr_coefficient.enumerations": sum(seg[lr].misses for seg in segments),
        "classify.preflight.self_s": self_s["classify.preflight"],
        "classify.steps.self_s": self_s["classify.steps"],
        "cli.build_parser.self_s": self_s["cli.build_parser"],
        "cli.render.self_s": self_s["cli.render"],
        "cli.stdout_bytes": stdout_bytes,
    }
    for span in (
        "charclass.power_sums", "charclass.twisted", "charclass.todd", "charclass.tangent_bundle",
        "hrr.euler_characteristic", "hrr.euler_polynomial", "hrr.chi_p3",
    ):
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s[span]
    for rule in FILTER_RULES:
        out[f"classify.{rule}.calls"] = calls[f"classify.{rule}"]
        out[f"classify.{rule}.eliminated"] = tracer.counts[f"classify.{rule}.eliminated"]
        out[f"classify.{rule}.self_s"] = self_s[f"classify.{rule}"]
    return out


def count_report(snapshots: list[dict], seed_values: dict[str, int]) -> dict:
    """Every count of the traced passes, whether it repeated exactly on each
    pass, and, where given, whether it equals its value at the seed commit."""
    out = {}
    for name, value in snapshots[0].items():
        if not isinstance(value, int):
            continue
        entry = {"value": value, "repeats_exactly": all(s[name] == value for s in snapshots)}
        if name in seed_values:
            entry["seed_value"] = seed_values[name]
            entry["matches_seed"] = entry["repeats_exactly"] and value == seed_values[name]
        out[name] = entry
    return out
