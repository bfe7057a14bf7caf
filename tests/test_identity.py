"""The engine's artifacts against the identity sums checked in under
tests/identity, byte for byte (tools/identity_check.py's pipeline).

The sums hold only for the numpy and BLAS build they were made with: BLAS
kernels differ in their last bits between builds. On any other build the
test skips, naming both builds, rather than compare bits that are not
expected to match.
"""

import json
from pathlib import Path

import pytest

from helpers import load_tool

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "identity"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

identity_check = load_tool("identity_check")


def describe(build):
    return f"numpy {build['numpy']} with {build['blas']}"


def test_every_artifact_matches_the_golden_sums(tmp_path, monkeypatch):
    made_with, here = json.loads((GOLDEN / "BUILD.json").read_text()), identity_check.build()
    if here != made_with:
        pytest.skip(f"the identity sums were made with {describe(made_with)}; "
                    f"this is {describe(here)}")
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    got = identity_check.sums(identity_check.run_pipeline(ROOT / "src", tmp_path))
    want = (GOLDEN / "SHA256SUMS").read_text()
    got_lines, want_lines = got.splitlines(), want.splitlines()
    changed = [line.split()[1] for line in sorted(set(got_lines) ^ set(want_lines))]
    assert not changed, f"artifacts whose bytes changed or are missing: {sorted(set(changed))}"
    assert got == want
