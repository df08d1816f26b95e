"""Unit tests for the fault plan and the seeded injector."""

import pytest

from repro.errors import ReproError
from repro.faults import (FAULT_POINTS, FaultInjector, FaultPlan,
                          ScheduledFault)
from repro.sim import RngFactory, Tracer


def make_injector(plan, seed=7, tracer=None):
    return FaultInjector(plan, RngFactory(seed).spawn("faults"), tracer)


def test_uniform_plan_sets_every_point():
    plan = FaultPlan.uniform(0.25)
    for point in FAULT_POINTS:
        assert plan.rate_of(point) == 0.25


def test_uniform_overrides_single_points():
    plan = FaultPlan.uniform(0.1, irq_lost=0.5)
    assert plan.rate_of("irq.lost") == 0.5
    assert plan.rate_of("fabric.drop") == 0.1


def test_unknown_fault_point_raises():
    with pytest.raises(ReproError):
        FaultPlan().rate_of("meteor.strike")
    with pytest.raises(ReproError):
        make_injector(FaultPlan.uniform(1.0)).fires("meteor.strike")


def test_zero_rate_never_touches_the_rng():
    """The bit-identity guarantee: a zero-rate point creates no stream."""
    inj = make_injector(FaultPlan())
    for point in FAULT_POINTS:
        for _ in range(10):
            assert not inj.fires(point)
    assert inj._streams == {}


def test_fires_is_deterministic_across_injectors():
    draws = []
    for _ in range(2):
        inj = make_injector(FaultPlan.uniform(0.3))
        draws.append([inj.fires("fabric.drop") for _ in range(200)])
    assert draws[0] == draws[1]
    assert any(draws[0]) and not all(draws[0])


def test_points_draw_from_disjoint_streams():
    """Interleaving draws on other points must not perturb a point's
    sequence (each point owns a dedicated keyed stream)."""
    plain = make_injector(FaultPlan.uniform(0.3))
    seq_plain = [plain.fires("fabric.drop") for _ in range(100)]
    mixed = make_injector(FaultPlan.uniform(0.3))
    seq_mixed = []
    for _ in range(100):
        mixed.fires("irq.lost")
        seq_mixed.append(mixed.fires("fabric.drop"))
        mixed.fires("sdma.desc_error")
    assert seq_plain == seq_mixed


def test_tracer_counts_each_firing():
    tracer = Tracer()
    inj = make_injector(FaultPlan.uniform(1.0), tracer=tracer)
    assert inj.fires("fabric.drop")
    assert inj.fires("fabric.drop")
    assert tracer.get_count("faults.fabric.drop") == 2
    assert tracer.get_count("faults.irq.lost") == 0


def test_describe_lists_nonzero_rates():
    assert FaultPlan().describe() == "no faults"
    text = FaultPlan.uniform(0.01).describe()
    for point in FAULT_POINTS:
        assert f"{point}=0.01" in text
    assert FaultPlan(irq_lost=0.5).describe() == "irq.lost=0.5"


# --- deterministic placement mode (the PicoCheck currency) -------------------

def test_scheduled_fault_validates_its_fields():
    with pytest.raises(ReproError):
        ScheduledFault("meteor.strike", 0)
    with pytest.raises(ReproError):
        ScheduledFault("irq.lost", -1)
    assert ScheduledFault("irq.lost", 2).describe() == "irq.lost@2"


def test_placed_plan_fires_exactly_at_the_scheduled_occurrence():
    inj = make_injector(FaultPlan.placed(ScheduledFault("irq.lost", 2)))
    assert [inj.fires("irq.lost") for _ in range(5)] \
        == [False, False, True, False, False]
    assert not any(inj.fires("fabric.drop") for _ in range(3))


def test_deterministic_mode_ignores_rates_and_never_draws():
    """Rates on a deterministic plan are inert: rate 1.0 without a
    placement never fires and — the satellite guarantee — no RNG
    stream is ever created."""
    inj = make_injector(FaultPlan.placed(ScheduledFault("irq.lost", 0),
                                         fabric_corrupt=1.0))
    assert not any(inj.fires("fabric.corrupt") for _ in range(10))
    assert inj.fires("irq.lost")
    assert inj._streams == {}


def test_zero_scheduled_faults_leave_all_rng_streams_untouched():
    inj = make_injector(FaultPlan.placed())
    for point in FAULT_POINTS:
        for _ in range(10):
            assert not inj.fires(point)
    assert inj._streams == {}


def test_empty_placed_plan_doubles_as_opportunity_census():
    inj = make_injector(FaultPlan.placed())
    for _ in range(3):
        inj.fires("irq.lost")
    inj.fires("fabric.drop")
    assert inj.occurrences == {"irq.lost": 3, "fabric.drop": 1}


def test_rate_based_plans_do_not_pay_the_census_bookkeeping():
    inj = make_injector(FaultPlan.uniform(0.3))
    for _ in range(5):
        inj.fires("fabric.drop")
    assert inj.occurrences == {}


def test_deterministic_describe():
    assert FaultPlan.placed().describe() == "no faults (deterministic)"
    plan = FaultPlan.placed(ScheduledFault("irq.lost", 2),
                            ScheduledFault("fabric.drop", 0))
    assert plan.describe() == "placed: irq.lost@2, fabric.drop@0"


def test_tracer_counts_only_the_scheduled_firing():
    tracer = Tracer()
    inj = make_injector(FaultPlan.placed(ScheduledFault("irq.lost", 1)),
                        tracer=tracer)
    for _ in range(4):
        inj.fires("irq.lost")
    assert tracer.get_count("faults.irq.lost") == 1


def test_placement_mode_rejects_an_unknown_fault_point():
    """Placement mode reads no rate, yet an unknown point still fails
    with the random path's error, on every call, and is never counted."""
    inj = make_injector(FaultPlan.placed(ScheduledFault("irq.lost", 0)))
    for _ in range(2):
        with pytest.raises(ReproError, match="unknown fault point "
                                             "'meteor.strike'"):
            inj.fires("meteor.strike")
    assert inj.occurrences == {}


def test_placement_mode_checks_each_point_once(monkeypatch):
    """The name check runs on a point's first opportunity only; later
    opportunities cost a counter bump and a set lookup."""
    looked_up = []
    rate_of = FaultPlan.rate_of
    monkeypatch.setattr(FaultPlan, "rate_of",
                        lambda plan, point: looked_up.append(point)
                        or rate_of(plan, point))
    inj = make_injector(FaultPlan.placed(ScheduledFault("irq.lost", 3)))
    fired = [inj.fires("irq.lost") for _ in range(5)]
    inj.fires("fabric.drop")
    assert fired == [False, False, False, True, False]
    assert looked_up == ["irq.lost", "fabric.drop"]
