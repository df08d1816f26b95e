"""The PicoBlock disabled-identity guarantee: with ``blk.replicas`` at
its default of 0 no machine grows a block device, and running the full
storage machinery (faults + guard + pxd stack) between two figure runs
leaves them bit-identical — the storage subsystem is invisible unless a
storage experiment opts in.  The storage run is the ``storage`` row of
``tests/test_disabled_identity.py``."""

from repro.config import OSConfig
from repro.experiments import build_machine, run_fig4, run_fig5a
from repro.params import default_params
from tests.test_disabled_identity import FIG4_SIZES, FIG5_NODES, exercise_storage


def test_default_params_grow_no_block_device():
    assert default_params().blk.replicas == 0
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    mn = machine.nodes[0]
    assert mn.node.blockdev is None
    assert mn.pxd is None and mn.pxd_pico is None and mn.pxd_guard is None


def test_fig4_bit_identical_around_a_storage_run(tmp_path):
    baseline = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    exercise_storage(tmp_path)
    after = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert after.series == baseline.series


def test_fig5_bit_identical_around_a_storage_run(tmp_path):
    baseline = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    exercise_storage(tmp_path)
    after = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    assert after.relative == baseline.relative
