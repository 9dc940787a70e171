#!/usr/bin/env python3
"""Record the expected per-draw outputs of the audit workloads.

    python3 perfbench/record_expected.py

For the default and the held-out seed, writes perfbench/expected/<workload>.json
with a 3-byte digest of (inclusion-exclusion value, greedy basis coordinates),
or of the cap marker, for each of the first `record_draws` draws.  Run it only
at a commit whose outputs are taken as correct; run.py compares against it.
"""

from __future__ import annotations

import base64
import json
import sys

from run import DEFAULT_SEED, HELD_OUT_SEED, _import_program


def main() -> int:
    _import_program()
    import workloads

    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for spec in workloads.WORKLOADS.values():
        if not isinstance(spec, workloads.AuditSpec):
            continue
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            stream = spec.stream(seed, workloads.EXPECTED_DIR)
            blob = b"".join(
                workloads.digest(stream.make(i).call()) for i in range(spec.record_draws)
            )
            seeds[str(seed)] = base64.b64encode(blob).decode()
        path = workloads.EXPECTED_DIR / f"{spec.name}.json"
        path.write_text(json.dumps({"draws": spec.record_draws, "seeds": seeds}, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
