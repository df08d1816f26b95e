"""The PD013 runtime contract: with the guard disabled, the paper's
figures are bit-identical to a build that never loaded the guard plane
— enabling and disabling it between runs leaves no residue.  The
guarded run is the ``GUARD`` row of ``tests/test_disabled_identity.py``."""

from repro.experiments import run_fig4, run_fig5a
from tests.test_disabled_identity import FIG4_SIZES, FIG5_NODES, exercise_guard


def test_fig4_bit_identical_around_a_guarded_run(tmp_path):
    baseline = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    exercise_guard(tmp_path)
    after = run_fig4(sizes=FIG4_SIZES, repetitions=1)
    assert after.series == baseline.series


def test_fig5_bit_identical_around_a_guarded_run(tmp_path):
    baseline = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    exercise_guard(tmp_path)
    after = run_fig5a(node_counts=FIG5_NODES, iterations=1)
    assert after.relative == baseline.relative
