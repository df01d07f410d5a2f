"""Time the set-up an ``entsig`` CLI call pays, in this fresh process.

Usage: python3 bench/setup_probe.py <workload>

Measures ``import entsig.cli`` plus building the workload's inequalities
(Mermin and Ardehali at each qubit count it uses, with the brute-force local
bound at 6 qubits and every setting's product eigenbasis) and its initial
states.  Prints the elapsed seconds and then the machine-speed probe of
``speed.py``, taken in this process right after the timed part, on one line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# workload -> (qubit counts, whether the imperfect-source state is built)
PLAN = {"sweep4": ((4,), False), "crossing": ((4, 6), True), "montecarlo4": ((4,), False)}


def main() -> int:
    qubits, ansatz = PLAN[sys.argv[1]]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import entsig.cli  # noqa: F401  (the import is what is being timed)
    from entsig.channels import AnsatzParams, experimental_ansatz
    from entsig.core import DensityMatrix, ghz_state
    from entsig.inequalities import ardehali, mermin

    for n in qubits:
        for ineq in (mermin(n), ardehali(n)):
            for setting in ineq.settings:
                setting.basis
        DensityMatrix.from_pure(ghz_state(n))
    if ansatz:
        experimental_ansatz(AnsatzParams())
    elapsed = time.perf_counter() - start
    if Path(entsig.cli.__file__).resolve().parent != SRC / "entsig":
        sys.exit(f"error: imported entsig from {entsig.cli.__file__}, not from {SRC}")
    import speed  # after the timed part: it imports numpy

    print(repr(elapsed), repr(speed.probe()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
