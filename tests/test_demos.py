"""The demos print exactly the text they printed when these digests were taken."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout; a change to one is a change to what it shows.
DEMO_STDOUT_SHA256 = {
    "fano_classification.py": "c8a7f14ff7b77d47376fc582329a4368ba6e7462973ebb9d2224249442262c83",
    "riemann_roch.py": "417c33e1481badb65d445038d3206cac147b6844c44edb8db4b695deccb83984",
    "ring_tour.py": "f53d9b4aa661becc04a2fb0b6e548787b01d9f0f0c3822ad5a3c430518e0b5f2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_digest(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, timeout=120, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
