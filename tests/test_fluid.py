"""Tests for the max–min fair fluid allocator."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.fluid import INFINITE_WORK, FluidSystem, Resource, Task


def make_system(*tasks: Task) -> FluidSystem:
    system = FluidSystem()
    for task in tasks:
        system.add(task)
    system.reallocate()
    return system


class TestResource:
    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource("r", -1.0)

    def test_set_capacity(self):
        r = Resource("r", 5.0)
        r.set_capacity(2.0)
        assert r.capacity == 2.0
        with pytest.raises(SimulationError):
            r.set_capacity(-2.0)


class TestTask:
    def test_negative_work_rejected(self):
        with pytest.raises(SimulationError):
            Task("t", [], -1.0)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(SimulationError):
            Task("t", [], 1.0, cap=0.0)

    def test_eta_infinite_when_stalled(self):
        t = Task("t", [], 1.0)
        assert t.eta(0.0) == math.inf


class TestSingleResource:
    def test_single_task_gets_capacity(self):
        cpu = Resource("cpu", 2.0)
        t = Task("t", [cpu], 10.0, cap=math.inf)
        make_system(t)
        assert t.rate == pytest.approx(2.0)

    def test_cap_binds_before_capacity(self):
        cpu = Resource("cpu", 2.0)
        t = Task("t", [cpu], 10.0, cap=1.0)
        make_system(t)
        assert t.rate == pytest.approx(1.0)

    def test_three_processes_on_two_cpus(self):
        """The paper's contention setup: 1 app rank + 2 competing
        processes on a dual-CPU node -> each runs at 2/3 CPU."""
        cpu = Resource("cpu", 2.0)
        tasks = [Task(f"t{i}", [cpu], INFINITE_WORK, cap=1.0) for i in range(3)]
        make_system(*tasks)
        for t in tasks:
            assert t.rate == pytest.approx(2.0 / 3.0)

    def test_two_processes_on_two_cpus_uncontended(self):
        cpu = Resource("cpu", 2.0)
        tasks = [Task(f"t{i}", [cpu], 5.0, cap=1.0) for i in range(2)]
        make_system(*tasks)
        for t in tasks:
            assert t.rate == pytest.approx(1.0)


class TestTwoResourceFlows:
    def test_flow_bottlenecked_by_min_capacity(self):
        tx = Resource("tx", 100.0)
        rx = Resource("rx", 10.0)
        f = Task("flow", [tx, rx], 1000.0)
        make_system(f)
        assert f.rate == pytest.approx(10.0)

    def test_two_flows_share_common_nic(self):
        tx = Resource("tx", 100.0)
        rx1 = Resource("rx1", 100.0)
        rx2 = Resource("rx2", 100.0)
        f1 = Task("f1", [tx, rx1], 1e6)
        f2 = Task("f2", [tx, rx2], 1e6)
        make_system(f1, f2)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)

    def test_asymmetric_bottleneck_redistributes(self):
        """One flow pinned by a slow receiver frees TX share for the
        other (true max-min, not equal split)."""
        tx = Resource("tx", 100.0)
        rx_slow = Resource("rx_slow", 10.0)
        rx_fast = Resource("rx_fast", 1000.0)
        f_slow = Task("f_slow", [tx, rx_slow], 1e6)
        f_fast = Task("f_fast", [tx, rx_fast], 1e6)
        make_system(f_slow, f_fast)
        assert f_slow.rate == pytest.approx(10.0)
        assert f_fast.rate == pytest.approx(90.0)

    def test_disjoint_components_independent(self):
        a = Resource("a", 4.0)
        b = Resource("b", 9.0)
        ta = Task("ta", [a], 1.0)
        tb = Task("tb", [b], 1.0)
        make_system(ta, tb)
        assert ta.rate == pytest.approx(4.0)
        assert tb.rate == pytest.approx(9.0)


class TestProgress:
    def test_sync_banks_work(self):
        cpu = Resource("cpu", 1.0)
        t = Task("t", [cpu], 10.0)
        system = make_system(t)
        system.sync(4.0)
        assert t.remaining == pytest.approx(6.0)

    def test_speed_multiplier_scales_progress(self):
        cpu = Resource("cpu", 1.0)
        t = Task("t", [cpu], 10.0, speed=2.0)
        system = make_system(t)
        assert t.eta(0.0) == pytest.approx(5.0)

    def test_time_regression_rejected(self):
        system = FluidSystem()
        system.sync(5.0)
        with pytest.raises(SimulationError):
            system.sync(4.0)

    def test_double_add_rejected(self):
        cpu = Resource("cpu", 1.0)
        t = Task("t", [cpu], 1.0)
        system = make_system(t)
        with pytest.raises(SimulationError):
            system.add(t)

    def test_remove_unknown_rejected(self):
        system = FluidSystem()
        t = Task("t", [Resource("r", 1.0)], 1.0)
        with pytest.raises(SimulationError):
            system.remove(t)

    def test_scoped_reallocation_matches_global(self):
        cpu0 = Resource("cpu0", 2.0)
        cpu1 = Resource("cpu1", 2.0)
        tasks = [Task(f"a{i}", [cpu0], 10.0, cap=1.0) for i in range(3)]
        tasks += [Task(f"b{i}", [cpu1], 10.0, cap=1.0) for i in range(2)]
        system = FluidSystem()
        for t in tasks:
            system.add(t)
        system.reallocate()
        global_rates = [t.rate for t in tasks]
        affected = system.reallocate_scoped([cpu0])
        assert affected == set(tasks[:3])
        assert [t.rate for t in tasks] == pytest.approx(global_rates)


# -- property-based invariants ------------------------------------------

rate_caps = st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=5.0))


@st.composite
def fluid_instances(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    resources = [
        Resource(f"r{i}", draw(st.floats(min_value=0.5, max_value=100.0)))
        for i in range(n_res)
    ]
    n_tasks = draw(st.integers(min_value=1, max_value=8))
    tasks = []
    for i in range(n_tasks):
        k = draw(st.integers(min_value=1, max_value=min(2, n_res)))
        idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_res - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        tasks.append(
            Task(f"t{i}", [resources[j] for j in idx], 100.0, cap=draw(rate_caps))
        )
    return resources, tasks


@settings(max_examples=120, deadline=None)
@given(fluid_instances())
def test_allocation_is_feasible_and_maxmin(instance):
    resources, tasks = instance
    system = FluidSystem()
    for t in tasks:
        system.add(t)
    system.reallocate()

    # Feasibility: rates non-negative, caps respected, no resource
    # oversubscribed.
    for t in tasks:
        assert t.rate >= 0
        assert t.rate <= t.cap * (1 + 1e-9)
    for r in resources:
        used = sum(t.rate for t in tasks if r in t.resources)
        assert used <= r.capacity * (1 + 1e-6) + 1e-9

    # Max-min (KKT-style): every task is pinned either by its own cap
    # or by a saturated resource.
    for t in tasks:
        if t.rate >= t.cap * (1 - 1e-9):
            continue
        saturated = False
        for r in t.resources:
            used = sum(x.rate for x in tasks if r in x.resources)
            if used >= r.capacity * (1 - 1e-6):
                saturated = True
                break
        assert saturated, f"{t} is neither capped nor bottlenecked"


# -- scoped fast paths vs. the general filling ------------------------

capacities = st.one_of(
    st.just(0.0), st.just(math.inf), st.floats(min_value=0.5, max_value=100.0)
)


@st.composite
def scoped_instances(draw):
    """Instances shaped like the scoped solver's shortcuts: a lone task,
    many tasks on one resource (listed once or more), or a mix; plus
    zero-capacity and unbounded resources, infinite caps and work, and
    tasks that hold no resource at all."""
    n_res = draw(st.integers(min_value=1, max_value=4))
    resources = [Resource(f"r{i}", draw(capacities)) for i in range(n_res)]
    shape = draw(st.sampled_from(["single", "one-resource", "mixed"]))
    n_tasks = 1 if shape == "single" else draw(st.integers(1, 8))
    tasks = []
    for i in range(n_tasks):
        if shape == "one-resource":
            idx = [0] * draw(st.integers(min_value=1, max_value=2))
        else:
            idx = draw(st.lists(st.integers(0, n_res - 1), max_size=3))
        work = draw(st.one_of(st.just(INFINITE_WORK), st.floats(0.0, 1e3)))
        tasks.append(
            Task(f"t{i}", [resources[j] for j in idx], work, cap=draw(rate_caps))
        )
    dirty = draw(
        st.lists(st.sampled_from(resources), min_size=1, max_size=n_res)
    )
    return resources, tasks, dirty


@settings(max_examples=300, deadline=None)
@given(scoped_instances())
def test_scoped_fast_paths_equal_general_fill(instance):
    """reallocate_scoped's shortcuts give the general _fill's rates bit
    for bit, and the same set of progressing tasks."""
    resources, tasks, dirty = instance
    system = FluidSystem()
    for t in tasks:
        system.add(t)
    system.reallocate()

    def state():
        return [(t.rate.hex(), t in system._progressing) for t in tasks]

    component = system.component(dirty)
    system._fill(component)
    want = state()
    affected = system.reallocate_scoped(dirty)
    assert affected == component
    assert state() == want
