"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

For every workload, one short run at the reference seed must pass, and
one run with ``--corrupt`` (a perturbed weight vector) must exit 1 with
``"correct": false``, both at the reference seed and at a seed that has
no stored reference, so that the truth check alone catches it. Exits 0
when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def run(workload, seed, *extra):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=600,
    )
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    return out.returncode, json.loads(last)


def main() -> int:
    ok = True
    for path in sorted((BENCH / "reference").glob("*.json")):
        reference = json.loads(path.read_text())
        workload, seed = reference["workload"], reference["seed"]
        cases = [
            ("clean", seed, (), 0, True),
            ("corrupt", seed, ("--corrupt",), 1, False),
            ("corrupt", seed + 1000, ("--corrupt",), 1, False),
        ]
        for name, case_seed, extra, want_code, want_correct in cases:
            code, result = run(workload, case_seed, *extra)
            good = code == want_code and result.get("correct") is want_correct
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} seed {case_seed} {name}: "
                  f"exit {code}, correct {result.get('correct')}, "
                  f"failed {result.get('failed')} of {result.get('attempted')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
