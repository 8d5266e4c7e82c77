"""Engine-independent golden observables for the engine grid.

The differential suite compares the fast engine with the reference
engine, so a change to a layer both engines share -- cache-array fills,
L2 fills, store-buffer capacity, the coherence miss path -- is invisible
to it, and the ``tests/golden/`` study tables round to two decimals.
``tests/golden/observables.txt`` pins the exact simulated observables of
every cell of the engine grid (``tests/conftest.py``): one line per cell
with the runtime, each core's cycle breakdown and the speculation
counters.  It leaves out the result schema version, so a wire-format
bump does not move it, and the result holds no engine bookkeeping, so
engine work does not either.  Both engines must reproduce it.

No grid line evicts from an L1 or the L2 or forces a commit: the
grid's caches hold every block it touches.  So every grid config runs
one contended workload once more on tiny caches (``name@tiny``: a
1 KiB 2-way L1 and a 4 KiB 4-way L2), which pins the fill path: the
L1's victim choice, the forced commit when every way of a set is
speculative (and its delay), and L2 replacement.

To regenerate after an intentional change to simulated behaviour::

    PYTHONPATH=src python tests/test_golden_observables.py --regen
"""

import dataclasses
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.cpu.stats import BREAKDOWN_COMPONENTS  # noqa: E402
from repro.engine.simulator import simulate  # noqa: E402
from repro.engine.system import ENGINE_KINDS  # noqa: E402
from repro.workloads.registry import build_trace  # noqa: E402
from tests.conftest import (GRID_CORES, GRID_OPS, GRID_SEED,  # noqa: E402
                            GRID_WORKLOADS, grid_configs)

GOLDEN = Path(__file__).resolve().parent / "golden" / "observables.txt"

#: speculation counters summed over the cores of a cell.
SPEC_COUNTERS = ("speculations", "commits", "aborts", "replayed_ops")

#: the contended workload the tiny-cache variant runs.
VARIANT_WORKLOAD = "false-sharing-storm"


def tiny_configs(configs):
    """Each config on tiny caches."""
    return {f"{name}@tiny": config.replace(
        l1=dataclasses.replace(config.l1, size_bytes=1024, associativity=2),
        l2=dataclasses.replace(config.l2, size_bytes=4096, associativity=4))
        for name, config in configs.items()}


def observables_line(name: str, workload: str, result) -> str:
    """One readable line: runtime, speculation totals, per-core breakdown."""
    total = result.aggregate()
    spec = " ".join(f"{field}={getattr(total, field)}"
                    for field in SPEC_COUNTERS)
    cores = " ".join(
        "/".join(str(getattr(stats, field)) for field in BREAKDOWN_COMPONENTS)
        for stats in result.core_stats)
    return f"{name} {workload} runtime={result.runtime} {spec} cores={cores}"


def build_lines(engine: str = "fast") -> str:
    configs = grid_configs()
    lines = [f"# {'/'.join(BREAKDOWN_COMPONENTS)} per core; "
             f"{GRID_CORES} cores x {GRID_OPS} ops, seed {GRID_SEED}"]
    for workload in GRID_WORKLOADS:
        trace = build_trace(workload, num_threads=GRID_CORES,
                            ops_per_thread=GRID_OPS, seed=GRID_SEED)
        for name, config in configs.items():
            result = simulate(config, trace, engine=engine)
            lines.append(observables_line(name, workload, result))
    trace = build_trace(VARIANT_WORKLOAD, num_threads=GRID_CORES,
                        ops_per_thread=GRID_OPS, seed=GRID_SEED)
    for name, config in tiny_configs(configs).items():
        result = simulate(config, trace, engine=engine)
        lines.append(observables_line(name, VARIANT_WORKLOAD, result))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("engine", ENGINE_KINDS)
def test_observables_match_golden(engine):
    golden = GOLDEN.read_text(encoding="utf-8")
    assert build_lines(engine) == golden, (
        f"simulated observables changed on the {engine} engine; if "
        "intentional, regenerate with "
        "'PYTHONPATH=src python tests/test_golden_observables.py --regen'")


def _regen():
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(build_lines(), encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_golden_observables.py --regen")
    _regen()
