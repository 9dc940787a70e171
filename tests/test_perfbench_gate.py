"""Smoke test of the benchmark's correctness gate and tracer, run in-process.

`perfbench/selfcheck.py` checks the benchmark itself.  Two of its checks take
about half a second and run here:

* `check_gate` runs a few ops of every workload and checks that the gate
  passes their outputs and refuses tampered ones, so a library change whose
  output the benchmark would call incorrect fails here;
* `check_tracer` runs every workload traced, so a renamed or deleted function
  that the tracer wraps fails here (`tracer could not find ...`).

`check_command` runs `perfbench/run.py` as subprocesses for about half a
minute and is left to `python3 perfbench/selfcheck.py`.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def selfcheck(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selfcheck

    return selfcheck


def test_gate_passes_outputs_and_refuses_tampered_ones(selfcheck, tmp_path):
    import workloads

    selfcheck.check_gate(workloads, tmp_path)


def test_tracer_finds_every_target(selfcheck, tmp_path):
    import workloads

    selfcheck.check_tracer(workloads, tmp_path)
