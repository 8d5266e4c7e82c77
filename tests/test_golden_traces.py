"""Golden digests of the generated traces themselves.

``tests/golden/observables.txt`` pins traces only indirectly, through
what a few 300-op simulations make of them.  ``tests/golden/traces.txt``
pins every workload preset and every registered scenario directly: one
SHA-256 per trace, hashed over each op's ``(kind, address, size, cycles,
label)`` on every thread, at two points (4 cores x 2000 ops at seed 3,
and 16 cores x 500 ops at seed 7).  A change to how traces are generated
-- a draw taken in another order, a different address map -- moves these
digests even where no simulated observable moves.

To regenerate after an intentional change to generated traces::

    PYTHONPATH=src python tests/test_golden_traces.py --regen
"""

import hashlib
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: make ``repro`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios.registry import scenario_names  # noqa: E402
from repro.workloads.presets import workload_names  # noqa: E402
from repro.workloads.registry import build_trace  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "traces.txt"

#: (cores, ops per thread, seed) of each pinned point.
POINTS = ((4, 2000, 3), (16, 500, 7))


def trace_digest(trace) -> str:
    """SHA-256 over every op of every thread, in thread and program order."""
    digest = hashlib.sha256()
    for thread in trace:
        digest.update(f"thread {thread.thread_id} {len(thread)}\n".encode())
        for op in thread:
            digest.update(f"{op.kind.value} {op.address} {op.size} "
                          f"{op.cycles} {op.label}\n".encode())
    return digest.hexdigest()


def build_lines() -> str:
    lines = ["# sha256 of (kind, address, size, cycles, label) per op, "
             "every thread; name cores x ops seed"]
    for cores, ops, seed in POINTS:
        for name in (*workload_names(), *scenario_names()):
            trace = build_trace(name, num_threads=cores, ops_per_thread=ops,
                                seed=seed)
            lines.append(f"{name} {cores}x{ops} seed={seed} {trace_digest(trace)}")
    return "\n".join(lines) + "\n"


def test_trace_digests_match_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    built = build_lines().splitlines()
    changed = sorted(set(built) ^ set(golden))
    assert built == golden, (
        "generated traces changed:\n  " + "\n  ".join(changed) + "\nif "
        "intentional, regenerate with "
        "'PYTHONPATH=src python tests/test_golden_traces.py --regen'")


def _regen():
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(build_lines(), encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_golden_traces.py --regen")
    _regen()
