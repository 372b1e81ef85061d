"""The package's public names, and the names the benchmark's tracer binds."""

import importlib
from pathlib import Path

import pytest

import schubert
import schubert.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Names the tracer rebinds by name in the module or class that calls them;
# some have no engine caller, and each is kept while the tracer reads it.
TRACER_BOUND = (
    ("chow", "lr_coefficient"),
    ("classify", "euler_polynomial"),
    ("cli", "euler_characteristic"),
    ("hrr", "tangent_bundle"),
    ("charclass.ChernVector", "todd"),
    ("charclass.PowerSumVector", "twisted"),
)
# Caches the tracer reports by name, read through the benchmark's cache walker.
TRACER_CACHES = ("schubert.partitions.lr_coefficient", "schubert.chow._basis_product")


def test_public_names_resolve_once_in_sorted_order():
    names = schubert.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(schubert, name) is not None, name
    namespace = {}
    exec("from schubert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def _owner(path):
    owner = schubert
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _namespaces():
    """Every module of the package and every class defined in one, by id."""
    out = {}
    for name in ("partitions", "chow", "charclass", "hrr", "classify", "cli"):
        module = getattr(schubert, name)
        out[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[id(value)] = value
    return out


def test_tracer_install_and_uninstall_leave_the_package_as_it_was(bench):
    tracing, _ = bench
    namespaces = _namespaces()
    before = {key: dict(vars(ns)) for key, ns in namespaces.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(schubert)
        for path, attr in TRACER_BOUND:
            owner = _owner(path)
            assert vars(owner)[attr] is not before[id(owner)][attr], (path, attr)
    finally:
        tracer.uninstall()
    after = {key: dict(vars(ns)) for key, ns in namespaces.items()}
    for key, ns in namespaces.items():
        assert after[key] == before[key], ns


# Every cache the bench's walker clears before a cold pass.  A cache added,
# merged or deleted changes this list on purpose; a cache the walker missed
# would stay warm through the benchmark's cold passes.
BENCH_CACHES = [
    "schubert.charclass._rank_two_monomials",
    "schubert.charclass.tangent_power_sums",
    "schubert.chow._basis_product",
    "schubert.chow._tables",
    "schubert.classify.enumerate_candidates",
    "schubert.classify.scan_forms",
    "schubert.classify.schur3_form",
    "schubert.hrr._hilbert_polynomial",
    "schubert.hrr.chi_form",
    "schubert.hrr.tangent_todd",
    "schubert.partitions._component_product",
    "schubert.partitions.lr_coefficient",
]


def test_bench_cache_walker_finds_the_traced_caches(bench):
    _, workloads = bench
    walker = workloads.Caches(schubert)
    caches = walker.caches
    assert list(caches) == BENCH_CACHES
    for name in TRACER_CACHES:
        module, attr = name.removeprefix("schubert.").split(".")
        assert caches[name] is getattr(getattr(schubert, module), attr)
    # the products of skew components, which a cold pass must not find warm
    component_product = schubert.partitions._component_product
    assert caches["schubert.partitions._component_product"] is component_product
    assert schubert.partitions._skew_expansion((3, 1), (1,)) == {(2, 1): 1, (3,): 1}
    assert component_product.cache_info().currsize
    walker.clear()
    assert component_product.cache_info().currsize == 0
