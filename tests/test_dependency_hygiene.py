"""Dependency hygiene: the default paths must never import heavy deps.

The in-tree blossom matcher demoted networkx to a differential-test oracle
that lives in the test suite (``tests/decoders/networkx_oracle.py``), and
the in-tree binomial quantile did the same to scipy
(``tests/bandwidth/test_allocation.py``).  This test runs a fresh
interpreter with an import hook that *fails* any attempt to import a heavy
optional module, imports the CLI, drives the default decoders through event
sets large enough to need the general matcher, and runs small Fig. 9 and
Fig. 16 experiments through provisioning and stall simulation — proving the
dependencies are truly gone from the hot paths, not merely unused on the
inputs we happened to try.

The banned-module set is NOT spelled here: it is the
``HEAVY_OPTIONAL_MODULES`` manifest in :mod:`repro.analysis.contracts`, the
same one lint rule ``IMP001`` enforces statically on every import statement.
One manifest, two enforcement angles — static (every module, every import,
including paths no test exercises) and dynamic (the real decode path under a
hostile ``sys.meta_path``) — so the two checks cannot drift apart.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.contracts import HEAVY_OPTIONAL_MODULES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS / "decoders")])}

SCRIPT_TEMPLATE = r"""
import sys

BANNED = __BANNED__


class _Banned:
    def find_module(self, name, path=None):  # pragma: no cover - never hit
        return None

    def find_spec(self, name, path=None, target=None):
        top = name.split(".", 1)[0]
        if top in BANNED:
            raise ImportError(f"heavy import attempted on the default path: {name}")
        return None

sys.meta_path.insert(0, _Banned())

import repro.cli
import numpy as np

from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.types import StabilizerType

code = get_code(5)
width = code.num_ancillas_of_type(StabilizerType.X)

# MWPM on an event set far past the subset-DP small-case limit: the general
# (blossom) matcher must run, free of every heavy optional dependency.
decoder = MWPMDecoder(code, StabilizerType.X)
rng = np.random.default_rng(7)
detections = (rng.random((6, width)) < 0.3).astype(np.uint8)
assert detections.sum() > 8
decoder.decode(detections)

# Cascade batch decodes through the off-chip tier's batched path.
from repro import bitplane

batch = (rng.random((30, 6, width)) < 0.2).astype(np.uint8)
cascade = DecoderCascade(code, StabilizerType.X, tiers=("clique", "mwpm"))
result = cascade.decode_batch_packed(bitplane.pack_trials(batch), 30)
assert result.tier_trials[1] > 0

# The bandwidth path: coverage -> percentile provisioning -> stall loop.
from repro.experiments import fig09, fig16

rows = fig16.run(
    operating_points=((1e-2, 5),),
    percentiles=(50.0, 99.0),
    program_cycles=500,
    coverage_cycles=1000,
    workers=1,
).rows
assert len(rows) == 2
rows = fig09.run(code_distance=5, coverage_cycles=1000, timeline_cycles=50).rows
assert [row["percentile"] for row in rows] == [50.0, 99.0]

print("OK")
"""

SCRIPT = SCRIPT_TEMPLATE.replace("__BANNED__", repr(tuple(HEAVY_OPTIONAL_MODULES)))


def test_manifest_covers_the_known_heavy_deps():
    # The manifest is the single source of truth for both this test and
    # IMP001; a rename there must be deliberate, not accidental.
    assert "networkx" in HEAVY_OPTIONAL_MODULES
    assert "matplotlib" in HEAVY_OPTIONAL_MODULES
    assert "scipy" in HEAVY_OPTIONAL_MODULES


def test_default_decode_path_never_imports_heavy_deps():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "OK"


def test_oracle_matcher_still_reaches_networkx_lazily():
    # Sanity check for the hook logic itself: the test-side networkx oracle
    # imports networkx lazily, on its first large event set, and the hook
    # must catch that import.
    script = SCRIPT.replace(
        "decoder = MWPMDecoder(code, StabilizerType.X)",
        "from networkx_oracle import NetworkxMWPMDecoder\n"
        "decoder = NetworkxMWPMDecoder(code, StabilizerType.X)",
    )
    assert script != SCRIPT
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )
    assert result.returncode != 0
    assert "heavy import attempted" in result.stderr
