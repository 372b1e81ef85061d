"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload is closed loop with one caller: a pass issues its requests
one after another, each waiting for the previous answer.  A pass starts
from cold caches (every ``functools.lru_cache`` in the package, found by
walking its modules, is cleared and checked empty), so a cache added
later cannot turn a cold pass warm.  Inputs are generated here, from the
seed, before any timing; the program receives only argv lists or values.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import pkgutil
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from schubert import charclass, chow, cli, hrr

# SHA-256 of stdout of ``replay --format json`` and ``filter --format csv``
# at the seed commit; they must not change while the engine gets faster.
REPLAY_JSON_SHA256 = "f395afca46faf0aeeba393351b36b00ed5611ccf142578f5e3f18a9dc26fc1f5"
FILTER_CSV_SHA256 = "9b5588bb0896cb699dc9ee6512c735fe818da22293817c783d569afb8d4367f0"

DEFAULT_SEED = 1
QUERIES_PER_PASS = 1000
# Digest of the queries answer stream for DEFAULT_SEED at the seed commit.
QUERIES_DIGEST = {DEFAULT_SEED: "2e9d7eae7e2565f092521795860f89c721210b4561ceb7ab8b4fce97700131a1"}

BIG_RINGS = ((3, 7), (2, 8), (3, 8))
TWISTS_PER_RING = 6

# Counts of a replay pass that must repeat exactly on the seed code.
REPLAY_EXACT_COUNTS = {
    "classify.scan.candidates": 1458,
    "classify.positivity.eliminated": 53,
    "classify.schur.eliminated": 936,
    "classify.schwarzenberger.eliminated": 459,
    "classify.griffiths.eliminated": 1,
    "classify.scan.survivors": 9,
    "partitions.lr_coefficient.enumerations": 76,
}


class CacheError(RuntimeError):
    """A cache did not start a cold pass empty."""


class Caches:
    """Every ``lru_cache`` in the package: module level and on classes."""

    def __init__(self, package) -> None:
        found = {}
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
            if info.name.rsplit(".", 1)[-1] == "__main__":
                continue  # running it would start the command line tool
            module = importlib.import_module(info.name)
            candidates = list(vars(module).values())
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__ == info.name:
                    candidates += vars(value).values()
            for obj in candidates:
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)
                ):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
        self.caches = dict(sorted(found.items()))

    def clear(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        warm = [name for name, cache in self.caches.items() if cache.cache_info().currsize]
        if warm:
            raise CacheError(f"caches not empty after clearing: {warm}")

    def info(self) -> dict:
        return {name: cache.cache_info() for name, cache in self.caches.items()}


@dataclass
class PassResult:
    """One pass: its operations, checks and timed intervals.  Only the
    timings of a pass whose every check passed are used.

    ``intervals`` holds the (start, end) ``perf_counter`` readings of the
    timed stretches of the pass: one per request on ``queries``, one per
    ring on ``big_ring``, one for the whole pass on ``replay``.
    """

    attempted: int = 0
    failed: int = 0
    intervals: list[tuple[float, float]] = field(default_factory=list)
    stdout_bytes: int = 0
    segments: list = field(default_factory=list)  # cache statistics per cold segment
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``schubert.cli.main`` in-process, stdout captured, stderr dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# -- independent oracles ---------------------------------------------------------


def line_bundle_chi(k: int, n: int, t: int) -> int:
    """chi(O(t)) on G(k, n), the (k+1)-planes of C^(n+1), by Borel-Weil.

    For t >= 0 it is the GL(n+1) dimension of the rectangle with k+1 rows
    of length t, by the hook-content formula; it vanishes for -(n+1) < t < 0,
    and Serre duality (K = O(-(n+1))) gives the rest.
    """
    rows, cols, dim = k + 1, t, (k + 1) * (n - k)
    if t < 0:
        if t > -(n + 1):
            return 0
        return (-1) ** dim * line_bundle_chi(k, n, -(n + 1) - t)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    contents = prod(n + 1 + j - i for i, j in cells)
    hooks = prod((cols - j) + (rows - i) - 1 for i, j in cells)
    return contents // hooks


def chi_p3_closed_form(c1: int, c2: int, t: int) -> Fraction:
    """chi on P^3 of rank-two data (c1, c2, c3 = 0) twisted by t.

    td(P^3) = 1 + 2h + 11/6 h^2 + h^3 and
    ch = 2 + x h + (x^2 - 2y)/2 h^2 + (x^3 - 3xy)/6 h^3 for c1 = x h, c2 = y h^2.
    """
    x, y = c1 + 2 * t, c2 + t * c1 + t * t
    return 2 + Fraction(11 * x, 6) + x * x - 2 * y + Fraction(x**3 - 3 * x * y, 6)


# -- workloads -------------------------------------------------------------------


class Replay:
    """The paper's reproduction: ``replay --format json`` then ``filter --format csv``.

    The input is the paper's own, so the seed is unused.  One request is one
    pass, since the caller waits for both documents.
    """

    name = "replay"
    requests_per_pass = 1

    def __init__(self, seed: int, caches: Caches) -> None:
        self.caches = caches
        self.calls = (
            (["replay", "--format", "json"], REPLAY_JSON_SHA256),
            (["filter", "--format", "csv"], FILTER_CSV_SHA256),
        )

    def run_pass(self) -> PassResult:
        res = PassResult()
        self.caches.clear()
        outputs = []
        start = time.perf_counter()
        for argv, _ in self.calls:
            try:
                outputs.append(run_cli(argv))
            except Exception as exc:  # a crashing call is a failed operation
                outputs.append((_describe(exc), ""))
        res.intervals.append((start, time.perf_counter()))
        res.segments.append(self.caches.info())
        for (argv, expected), (code, out) in zip(self.calls, outputs):
            res.attempted += 1
            res.stdout_bytes += len(out.encode())
            digest = hashlib.sha256(out.encode()).hexdigest()
            if code != 0 or digest != expected:
                res.failed += 1
                res.errors.append(f"{' '.join(argv)}: exit {code}, stdout sha256 {digest}")
        return res


class BigRing:
    """Tangent bundle, its Todd class and chi(O(t)) on G(3,7), G(2,8), G(3,8).

    Each ring starts from cold caches.  Every chi(O(t)) is checked against
    the Borel-Weil oracle above; c1 of the tangent bundle must be (n+1)h.
    One request is one pass over the three rings.
    """

    name = "big_ring"
    requests_per_pass = 1

    def __init__(self, seed: int, caches: Caches) -> None:
        self.caches = caches
        rng = random.Random(seed)
        # t = 0 is left out: ch(O) = 1 makes that product far cheaper than
        # the dense ch(O(t)) of every other twist, and the cost of a pass
        # should not depend on the seed.
        twists = [t for t in range(-12, 8) if t]
        self.twists = {ring: sorted(rng.sample(twists, TWISTS_PER_RING)) for ring in BIG_RINGS}
        self.expected = {
            ring: [line_bundle_chi(*ring, t) for t in twists] for ring, twists in self.twists.items()
        }

    def run_pass(self) -> PassResult:
        res = PassResult()
        for (k, n), twists in self.twists.items():
            self.caches.clear()
            res.attempted += 1 + len(twists)
            start = time.perf_counter()
            try:
                ring = chow.GrassmannRing(k, n)
                tangent = charclass.tangent_bundle(ring)
                hrr.tangent_todd(ring)
                chis = [hrr.euler_characteristic(charclass.line_bundle(ring, t)) for t in twists]
            except Exception as exc:  # the whole ring's operations failed
                res.failed += 1 + len(twists)
                res.errors.append(f"G({k},{n}): {_describe(exc)}")
                continue
            finally:
                res.intervals.append((start, time.perf_counter()))
                res.segments.append(self.caches.info())
            if tangent.rank != ring.dimension or tangent.c[1] != (n + 1) * ring.hyperplane():
                res.failed += 1
                res.errors.append(f"G({k},{n}): tangent bundle has rank {tangent.rank}, c1 {tangent.c[1]!r}")
            for t, got, want in zip(twists, chis, self.expected[(k, n)]):
                if got != want:
                    res.failed += 1
                    res.errors.append(f"G({k},{n}): chi(O({t})) = {got}, Borel-Weil gives {want}")
        return res


def _box_partitions(rows: int, cols: int, degree: int) -> list[tuple[int, ...]]:
    """Partitions of ``degree`` with at most ``rows`` parts, each at most ``cols``."""
    out = []

    def grow(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(prefix)
        elif len(prefix) < rows:
            for part in range(min(cap, remaining), 0, -1):
                grow(prefix + (part,), remaining - part, part)

    grow((), degree, cols)
    return out


def query_stream(seed: int, count: int) -> list[tuple[str, list[str], tuple]]:
    """(kind, argv, check data) for a seeded stream of small CLI requests:
    40 % ``chi``, 10 % ``chi-p3`` and 50 % ``intersect`` on a G(k, n) of
    dimension at most 20 with one to four factors filling the top degree.

    The mix, the rings and the factor counts are dealt out evenly and only
    their order and the values drawn are random, so that the work in a
    stream varies little from seed to seed.
    """
    rng = random.Random(seed)
    rings = [(k, n) for n in range(1, 21) for k in range(n) if (k + 1) * (n - k) <= 20]
    n_chi, n_p3 = 4 * count // 10, count // 10
    n_intersect = count - n_chi - n_p3
    stream = []
    for _ in range(n_chi):
        e, a, b, t = rng.randint(-3, 3), rng.randint(-6, 20), rng.randint(-6, 20), rng.randint(-4, 6)
        argv = ["chi", "--e", str(e), "--a", str(a), "--b", str(b), "--twist", str(t)]
        stream.append(("chi", argv, ()))
    for _ in range(n_p3):
        e, a, t = rng.randint(-3, 3), rng.randint(-6, 12), rng.randint(-4, 6)
        argv = ["chi-p3", "--e", str(e), "--a", str(a), "--twist", str(t)]
        stream.append(("chi-p3", argv, (e, a, t)))
    for i in range(n_intersect):
        k, n = rings[i % len(rings)]
        rows, cols = k + 1, n - k
        dim = rows * cols
        parts = min(1 + (i // len(rings)) % 4, dim)
        cuts = sorted(rng.sample(range(1, dim), parts - 1))
        degrees = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, dim])]
        factors = [rng.choice(_box_partitions(rows, cols, d)) for d in degrees]
        classes = ";".join(",".join(map(str, la)) for la in factors)
        stream.append(("intersect", ["intersect", "--k", str(k), "--n", str(n), classes], ()))
    rng.shuffle(stream)
    return stream


class Queries:
    """A seeded stream of small in-process CLI requests; caches are cleared
    once per pass and warm along the stream.

    Every ``intersect`` answer must be a non-negative integer, every
    ``chi-p3`` answer must match the closed form above, every answer must
    parse as a rational, and the answer stream must hash the same on every
    pass and, for the default seed, to the digest recorded at the seed commit.
    """

    name = "queries"
    requests_per_pass = QUERIES_PER_PASS

    def __init__(self, seed: int, caches: Caches) -> None:
        self.caches = caches
        self.stream = query_stream(seed, QUERIES_PER_PASS)
        # Without a recorded digest, every pass must repeat the first one.
        self.expected_digest = QUERIES_DIGEST.get(seed)

    def _check(self, kind: str, data: tuple, out: str) -> str | None:
        try:
            value = Fraction(out.strip())
        except ValueError:
            return f"answer {out!r} is not a rational number"
        if kind == "intersect" and (value.denominator != 1 or value < 0):
            return f"intersection number {value} is not a non-negative integer"
        if kind == "chi-p3" and value != chi_p3_closed_form(*data):
            return f"chi-p3 {value}, closed form gives {chi_p3_closed_form(*data)}"
        return None

    def run_pass(self) -> PassResult:
        res = PassResult()
        self.caches.clear()
        digest = hashlib.sha256()
        clock = time.perf_counter
        for kind, argv, data in self.stream:
            res.attempted += 1
            start = clock()
            try:
                code, out = run_cli(argv)
            except Exception as exc:  # a crashing request is a failed operation
                code, out = None, _describe(exc)
            res.intervals.append((start, clock()))
            digest.update(" ".join(argv).encode() + b"\0" + out.encode() + b"\0")
            res.stdout_bytes += len(out.encode())
            problem = f"exit {code}" if code != 0 else self._check(kind, data, out)
            if problem:
                res.failed += 1
                res.errors.append(f"{' '.join(argv)}: {problem}")
        res.segments.append(self.caches.info())
        got = digest.hexdigest()
        want = self.expected_digest = self.expected_digest or got
        if got != want:
            # the stream differs but the hash cannot say where: fail every request
            res.failed = res.attempted
            res.errors.append(f"answer stream sha256 {got}, expected {want}")
        return res


WORKLOADS = {w.name: w for w in (Replay, BigRing, Queries)}
