"""Record the paper-seed outputs the benchmark checks every pass against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each workload twice at ``PAPER_SEED``, refuses to write if the two
passes differ, and writes ``reference.json`` beside this file.  Re-record
only when a change is meant to move simulated output.
"""

from __future__ import annotations

import json
import sys

from workloads import PAPER_SEED, REFERENCE_PATH, WORKLOADS


def main() -> int:
    """Record every workload's reference; nonzero if a pass repeats
    inexactly."""
    reference = {}
    for name, workload in WORKLOADS.items():
        first = workload.run(PAPER_SEED)
        if workload.run(PAPER_SEED) != first:
            print(f"{name}: two passes differ; not recording",
                  file=sys.stderr)
            return 1
        reference[name] = first
        print(f"{name}: {len(first)} outputs")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
