"""The opt-in-plane contract: a plane that is off is invisible.

One row per :class:`repro.config.Plane` found in :mod:`repro.config`,
plus rows for the features that install planes for themselves (storage
replicas, a PicoCheck exploration, a vet run).  Each row exercises its
plane or feature; afterwards fig4 and fig5a must equal one shared
baseline and every plane must be off again.  A plane without a row
fails its own row.
"""

import pytest

from repro import config
from repro.config import GUARD, KSAN, LOCKDEP, TRACE, OSConfig, Plane
from repro.experiments import build_machine, run_fig4, run_fig5a
from repro.units import KiB

FIG4_SIZES = (16 * KiB,)
FIG5_NODES = (2,)

#: every plane the config module defines, by its module-level name
PLANES = {name: obj for name, obj in vars(config).items()
          if isinstance(obj, Plane)}


def figures():
    """The two figure slices every row is compared on."""
    return (run_fig4(sizes=FIG4_SIZES, repetitions=1).series,
            run_fig5a(node_counts=FIG5_NODES, iterations=1).relative)


@pytest.fixture(scope="module")
def baseline():
    """fig4/fig5a before any row has run."""
    return figures()


def exercise_faults(_tmp_path):
    """One faulted chaos cell: the injector draws and fires."""
    from repro.experiments.chaos import _run_cell
    result = _run_cell(OSConfig.MCKERNEL_HFI, rate=0.05, n_messages=4)
    assert any(key.startswith("faults.") and n
               for key, n in result.counters.items())


def exercise_trace(_tmp_path):
    """A traced fig4 slice records spans."""
    from repro.obs import SpanCollector
    with TRACE.installed(SpanCollector()) as collector:
        run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert collector.spans


def exercise_guard(_tmp_path):
    """A guarded machine whose breakers all trip."""
    from repro.guard import GuardPolicy
    with GUARD.installed(GuardPolicy()):
        machine = build_machine(2, OSConfig.MCKERNEL_HFI)
        guard = machine.nodes[0].guard
        assert guard is not None
        for i in range(len(guard.gates)):
            guard.record_failure(guard.engine_path(i), "identity drill")
        machine.sim.run()


def exercise_tune(_tmp_path):
    """One PicoTune pingpong evaluation behind its probe."""
    from repro.tune import EnvConfig, PicoEnv
    from repro.tune.space import default_space
    point = {a.name: a.values[len(a.values) // 2]
             for a in default_space().axes}
    point["os_config"] = "mckernel_hfi"
    fitness = PicoEnv("pingpong", config=EnvConfig.smoke()).evaluate(
        point, seed=42)
    assert fitness.metric("machines") == 1.0


def exercise_ksan(_tmp_path):
    """A fig4 slice with a race detector on every node heap."""
    with KSAN.installed(True):
        machine = build_machine(2, OSConfig.MCKERNEL_HFI)
        run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert len(machine.sanitizers) == 2


def exercise_lockdep(_tmp_path):
    """A fig4 slice under the lock-order validator."""
    with LOCKDEP.installed(True):
        machine = build_machine(2, OSConfig.MCKERNEL_HFI)
        run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert machine.lockdep is not None


def exercise_storage(_tmp_path):
    """One faulted, guarded storage cell over the pxd replica stack."""
    from repro.experiments.storage import _run_cell
    result = _run_cell(OSConfig.MCKERNEL_HFI, rate=0.02, n_writes=8)
    assert result.writes == 8


def exercise_check(tmp_path):
    """A full PicoCheck exploration of the seeded-race rig."""
    from repro.analysis.check import Bounds, run_check
    bounds = Bounds(depth=8, preemptions=2, faults=1, occ_cap=1,
                    max_runs=200, step_budget=10_000)
    result = run_check("seeded-flag-race", bounds=bounds,
                       out_dir=str(tmp_path))
    assert result.violation_found


def exercise_vet(_tmp_path):
    """A whole-program vet run."""
    from repro.__main__ import main
    assert main(["vet"]) == 0


EXERCISES = {
    "FAULTS": exercise_faults,
    "TRACE": exercise_trace,
    "GUARD": exercise_guard,
    "TUNE": exercise_tune,
    "KSAN": exercise_ksan,
    "LOCKDEP": exercise_lockdep,
    "storage": exercise_storage,
    "check": exercise_check,
    "vet": exercise_vet,
}


@pytest.mark.parametrize("row", sorted(PLANES) + ["storage", "check", "vet"])
def test_figures_bit_identical_around(row, baseline, tmp_path):
    exercise = EXERCISES.get(row)
    if exercise is None:
        pytest.fail(f"plane {row} has no disabled-identity row")
    exercise(tmp_path)
    assert [name for name, plane in PLANES.items() if plane.enabled] == []
    assert figures() == baseline
