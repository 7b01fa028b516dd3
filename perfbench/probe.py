"""Set-up probe: what a fresh interpreter pays before a workload's first call.

Run as ``python3 perfbench/probe.py <workload>``.  It imports the workload's
entry modules, builds its codes, matching graphs and decoders, and prints one
JSON line: the system-wide monotonic time at which the first call was ready,
plus the import and build shares.  The parent subtracts its own monotonic
time taken just before starting this process, so interpreter start-up counts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(name: str) -> None:
    start = time.monotonic()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import params

    if name in ("mem-lowp", "mem-deep"):
        import repro.simulation.memory  # noqa: F401 - the entry module
        from repro.clique.cascade import DecoderCascade
        from repro.codes.rotated_surface import get_code
        from repro.types import StabilizerType

        imported = time.monotonic()
        config = params.MEM_LOWP if name == "mem-lowp" else params.MEM_DEEP
        DecoderCascade(get_code(config["distance"]), StabilizerType.X, tiers="clique,mwpm")
    elif name in ("cov-sweep", "stall-sweep"):
        import repro.experiments.registry  # noqa: F401 - the entry module
        from repro.clique.decoder import CliqueDecoder
        from repro.codes.rotated_surface import get_code
        from repro.types import StabilizerType

        imported = time.monotonic()
        if name == "cov-sweep":
            distances = params.COV_SWEEP["distances"]
        else:
            distances = [d for _, d in params.STALL_SWEEP["operating_points"]]
        for distance in distances:
            CliqueDecoder(get_code(distance), StabilizerType.X)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": imported - start, "build_s": ready - imported}))


if __name__ == "__main__":
    main(sys.argv[1])
