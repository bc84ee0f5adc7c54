"""Unit tests for failure detection and injection."""

import pytest

from repro.procs.failure import (
    CrashPlan,
    FailureDetector,
    FailureInjector,
    LinkFaultPlan,
    PartitionPlan,
    StorageFaultPlan,
    crash_at,
    crash_on,
    link_faults_at,
    partition_at,
    storage_outage_at,
)
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceEvent, TraceRecorder


class TestFailureDetector:
    def test_down_announced_after_delay(self):
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=3.0)
        detector.register_node(1)
        events = []
        detector.add_listener(lambda n, s: events.append((sim.now, n, s)))
        detector.notify_crash(1)
        sim.run()
        assert events == [(3.0, 1, "down")]
        assert detector.is_suspected(1)

    def test_up_clears_suspicion(self):
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=1.0)
        detector.register_node(1)
        detector.notify_crash(1)
        sim.run()
        detector.notify_up(1)
        sim.run()
        assert not detector.is_suspected(1)

    def test_fast_recovery_supersedes_pending_down(self):
        """A voluntary rollback completing before detection never shows
        up as a suspicion."""
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=3.0)
        detector.register_node(1)
        events = []
        detector.add_listener(lambda n, s: events.append((n, s)))
        detector.notify_crash(1)
        sim.schedule(0.5, detector.notify_up, 1)
        sim.run()
        assert ("1", "down") not in events and (1, "down") not in events
        assert not detector.is_suspected(1)

    def test_live_and_suspected_views(self):
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=0.1)
        for node in range(3):
            detector.register_node(node)
        detector.notify_crash(2)
        sim.run()
        assert detector.live_view() == {0, 1}
        assert detector.suspected_view() == {2}

    def test_recrash_during_recovery_keeps_suspicion(self):
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=1.0)
        detector.register_node(1)
        detector.notify_crash(1)
        sim.run()
        # second crash before any recovery: still suspected afterwards
        detector.notify_crash(1)
        sim.run()
        assert detector.is_suspected(1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            FailureDetector(Simulator(), detection_delay=-1)

    def test_crash_up_crash_announces_only_final_state(self):
        """crash -> up -> crash inside one detection window: the stale
        pending announcements are superseded; only the final 'down' fires."""
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=3.0, up_delay=1.0)
        detector.register_node(1)
        events = []
        detector.add_listener(lambda n, s: events.append((sim.now, n, s)))
        detector.notify_crash(1)  # 'down' pending for t=3.0
        sim.schedule(0.5, detector.notify_up, 1)  # 'up' pending for t=1.5
        sim.schedule(1.0, detector.notify_crash, 1)  # supersedes both
        sim.run()
        assert events == [(pytest.approx(4.0), 1, "down")]
        assert detector.is_suspected(1)

    def test_crash_up_crash_with_slow_up_announcement(self):
        """Same race, but the 'up' is already pending when the second
        crash arrives: the second crash must supersede it."""
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=1.0, up_delay=0.5)
        detector.register_node(1)
        events = []
        detector.add_listener(lambda n, s: events.append((sim.now, n, s)))
        detector.notify_crash(1)  # 'down' pending for t=1.0
        sim.schedule(0.1, detector.notify_up, 1)  # 'up' pending for t=0.6
        sim.schedule(0.3, detector.notify_crash, 1)  # supersedes both
        sim.run()
        assert events == [(pytest.approx(1.3), 1, "down")]
        assert detector.is_suspected(1)

    def test_up_crash_up_announces_only_up(self):
        sim = Simulator()
        detector = FailureDetector(sim, detection_delay=2.0, up_delay=1.0)
        detector.register_node(1)
        detector.notify_crash(1)
        sim.run()
        assert detector.is_suspected(1)
        events = []
        detector.add_listener(lambda n, s: events.append((sim.now, n, s)))
        base = sim.now
        detector.notify_up(1)  # pending for base+1.0
        sim.schedule(0.2, detector.notify_crash, 1)  # pending for base+2.2
        sim.schedule(0.4, detector.notify_up, 1)  # pending for base+1.4
        sim.run()
        assert events == [(pytest.approx(base + 1.4), 1, "up")]
        assert not detector.is_suspected(1)


class TestCrashPlans:
    def test_crash_at_validates(self):
        with pytest.raises(ValueError):
            crash_at(0, -1.0)
        assert crash_at(0, 5.0).is_timed()

    def test_crash_on_validates(self):
        with pytest.raises(ValueError):
            crash_on(0, "x", "y", delay=-1)
        with pytest.raises(ValueError):
            crash_on(0, "x", "y", occurrence=0)

    def test_match_details_filters(self):
        from repro.sim.trace import TraceEvent

        plan = crash_on(0, "net", "deliver", match_details={"mtype": "req"})
        hit = TraceEvent(0.0, "net", 0, "deliver", {"mtype": "req"})
        miss = TraceEvent(0.0, "net", 0, "deliver", {"mtype": "other"})
        assert plan.matches(hit)
        assert not plan.matches(miss)


class TestFailureInjector:
    def make(self, plans):
        sim = Simulator()
        trace = TraceRecorder()
        crashed = []
        injector = FailureInjector(sim, trace, crashed.append, plans=plans)
        injector.arm()
        return sim, trace, crashed, injector

    def test_timed_crash_fires(self):
        sim, trace, crashed, injector = self.make([crash_at(2, 1.5)])
        sim.run()
        assert crashed == [2]
        assert sim.now == 1.5

    def test_triggered_crash_fires_on_event(self):
        sim, trace, crashed, injector = self.make(
            [crash_on(1, "recovery", "start", match_node=1)]
        )
        sim.schedule(1.0, trace.record, 1.0, "recovery", 1, "start")
        sim.run()
        assert crashed == [1]

    def test_trigger_respects_node_filter(self):
        sim, trace, crashed, injector = self.make(
            [crash_on(1, "recovery", "start", match_node=1)]
        )
        sim.schedule(1.0, trace.record, 1.0, "recovery", 2, "start")
        sim.run()
        assert crashed == []

    def test_trigger_fires_once(self):
        sim, trace, crashed, injector = self.make([crash_on(1, "x", "y")])
        sim.schedule(1.0, trace.record, 1.0, "x", 0, "y")
        sim.schedule(2.0, trace.record, 2.0, "x", 0, "y")
        sim.run()
        assert crashed == [1]

    def test_occurrence_counts(self):
        sim, trace, crashed, injector = self.make(
            [crash_on(1, "x", "y", occurrence=3)]
        )
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, trace.record, t, "x", 0, "y")
        sim.run()
        assert crashed == [1]
        fired_at = injector.crashes_fired[0][0]
        assert fired_at == pytest.approx(3.0)

    def test_delay_after_trigger(self):
        sim, trace, crashed, injector = self.make([crash_on(1, "x", "y", delay=0.5)])
        sim.schedule(1.0, trace.record, 1.0, "x", 0, "y")
        sim.run()
        assert injector.crashes_fired[0][0] == pytest.approx(1.5)

    def test_immediate_fires_synchronously(self):
        sim = Simulator()
        trace = TraceRecorder()
        order = []
        injector = FailureInjector(
            sim, trace, lambda n: order.append(("crash", n)),
            plans=[crash_on(1, "x", "y", immediate=True)],
        )
        injector.arm()

        def traced_event():
            trace.record(sim.now, "x", 0, "y")
            order.append(("handler", None))  # runs after the crash

        sim.schedule(1.0, traced_event)
        sim.run()
        assert order[0] == ("crash", 1)
        assert order[1] == ("handler", None)

    def test_add_plan_after_arm(self):
        sim, trace, crashed, injector = self.make([])
        injector.add(crash_at(4, 2.0))
        sim.run()
        assert crashed == [4]

    def test_keyed_plan_leaves_other_records_on_the_counters_only_path(self):
        """A plan naming category and action listens on that key alone:
        with tracing off, no other record builds a TraceEvent."""
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        injector = FailureInjector(
            sim, trace, lambda n: None, plans=[crash_on(1, "x", "y", occurrence=2)]
        )
        injector.arm()
        deliver = trace.emitter("x", "y")
        assert trace.record(0.0, "app", 0, "send") is None
        assert trace.emitter("net", "send")(0.0, 0) is None
        assert trace.record(0.0, "x", 0, "y") is not None
        assert deliver(0.0, 0) is not None
        assert [node for _, node in injector.crashes_fired] == []
        sim.run()
        assert [node for _, node in injector.crashes_fired] == [1]
        assert trace.counters == {"app.send": 1, "net.send": 1, "x.y": 2, "inject.crash": 1}

    def test_wildcard_plan_takes_over_the_whole_recorder(self):
        """A plan without an action needs every event; adding one after
        keyed plans must not make a keyed event count twice."""
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        crashed = []
        injector = FailureInjector(
            sim, trace, crashed.append, plans=[crash_on(1, "x", "y", occurrence=2)]
        )
        injector.arm()
        injector.add(CrashPlan(node=2, category="z"))
        assert trace.record(0.0, "app", 0, "send") is not None
        trace.record(0.0, "x", 0, "y")
        sim.run()
        assert crashed == []  # one occurrence seen, not two
        trace.record(0.0, "x", 0, "y")
        trace.record(0.0, "z", 0, "anything")
        sim.run()
        assert crashed == [1, 2]

    def test_keyed_subscriber_runs_after_observers(self):
        """An observer (the sanitizer) sees an event before an immediate
        crash plan reacts to it, whichever subscribed first."""
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        order = []
        injector = FailureInjector(
            sim, trace, lambda n: order.append("crash"),
            plans=[crash_on(1, "x", "y", immediate=True)],
        )
        injector.arm()
        trace.subscribe(lambda event: order.append(f"saw {event.category}.{event.action}"))
        trace.record(0.0, "x", 0, "y")
        assert order == ["saw x.y", "saw inject.crash", "crash"]

    def test_spent_plan_drops_its_key(self):
        """Once the last armed plan on a key has fired the injector stops
        listening there: the key's records are counters-only again."""
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        crashed = []
        injector = FailureInjector(
            sim, trace, crashed.append, plans=[crash_on(1, "x", "y")]
        )
        injector.arm()
        assert trace.record(0.0, "x", 0, "y") is not None
        assert trace.record(0.0, "x", 0, "y") is None
        sim.run()
        assert crashed == [1]
        # add() after the key was dropped listens again
        injector.add(crash_on(2, "x", "y"))
        assert trace.record(0.0, "x", 0, "y") is not None
        sim.run()
        assert crashed == [1, 2]
        assert trace.record(0.0, "x", 0, "y") is None

    def test_two_plans_on_one_key_outlive_each_other(self):
        """The first plan's firing neither hides the event that fired it
        from the second plan nor drops the key the second still needs."""
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        crashed = []
        injector = FailureInjector(
            sim, trace, crashed.append,
            plans=[
                crash_on(1, "x", "y"),
                crash_on(2, "x", "y"),
                crash_on(3, "x", "y", occurrence=3),
            ],
        )
        injector.arm()
        trace.record(0.0, "x", 0, "y")
        sim.run()
        assert crashed == [1, 2]  # both saw the one event
        assert trace.record(0.0, "x", 0, "y") is not None  # plan 3 still listens
        trace.record(0.0, "x", 0, "y")
        sim.run()
        assert crashed == [1, 2, 3]
        assert trace.record(0.0, "x", 0, "y") is None

    def test_spent_wildcard_plan_releases_the_whole_recorder(self):
        sim = Simulator()
        trace = TraceRecorder(keep_events=False)
        crashed = []
        injector = FailureInjector(
            sim, trace, crashed.append,
            plans=[CrashPlan(node=2, category="z"), crash_on(1, "x", "y")],
        )
        injector.arm()
        trace.record(0.0, "z", 0, "anything")
        # the keyed plan is still armed, served by the whole recorder
        assert trace.record(0.0, "app", 0, "send") is not None
        trace.record(0.0, "x", 0, "y")
        assert trace.record(0.0, "app", 0, "send") is None
        sim.run()
        assert crashed == [2, 1]

    def test_keyed_plan_in_a_full_run_builds_only_its_key(self, monkeypatch):
        """With tracing off, a ``crash_on("net", "deliver", ...)`` run
        builds events for ``net.deliver`` only, and only until the plan
        is spent; it crashes at the same virtual time as the same plan
        on a whole-recorder subscription."""
        import repro.sim.trace as trace_module
        from helpers import small_config
        from repro import build_system

        built = []

        def counting_event(time, category, node, action, details=None,
                           fields=(), values=()):
            built.append((f"{category}.{action}", node))
            return TraceEvent(time, category, node, action, details, fields, values)

        monkeypatch.setattr(trace_module, "TraceEvent", counting_event)

        def run(extra_plans):
            del built[:]
            plan = crash_on(1, "net", "deliver", match_node=1, occurrence=40)
            system = build_system(small_config(
                n=4, hops=30, crashes=[plan] + extra_plans, keep_trace_events=False,
            ))
            result = system.run()
            assert result.consistent
            return system.injector.crashes_fired, result.end_time, dict(system.trace.counters)

        keyed = run([])
        assert {key for key, _ in built} == {"net.deliver"}
        # the 40th delivery at node 1 spent the plan: nothing built since
        assert built[-1] == ("net.deliver", 1)
        assert [node for _, node in built].count(1) == 40
        assert len(built) < keyed[2]["net.deliver"]
        # a never-matching wildcard plan forces the old whole-recorder path
        whole = run([CrashPlan(node=2, category="no-such-category")])
        assert {"app.send", "app.deliver", "net.send"} < {key for key, _ in built}
        assert len(built) > 3 * whole[2]["net.deliver"]
        assert keyed == whole
        assert len(keyed[0]) == 1


class TestPlanValidation:
    def test_immediate_with_delay_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CrashPlan(node=1, category="x", action="y", immediate=True, delay=0.5)
        with pytest.raises(ValueError):
            crash_on(1, "x", "y", immediate=True, delay=0.5)
        # immediate with zero delay stays valid
        assert crash_on(1, "x", "y", immediate=True).immediate

    def test_crash_plan_needs_node(self):
        with pytest.raises(ValueError):
            CrashPlan(at_time=1.0)

    def test_link_plan_needs_both_endpoints_or_neither(self):
        with pytest.raises(ValueError):
            LinkFaultPlan(at_time=0.0, src=1, loss_prob=0.5)
        with pytest.raises(ValueError):
            link_faults_at(0.0, loss_prob=0.5, duration=0.0)
        assert link_faults_at(0.0, loss_prob=0.5, src=0, dst=1).src == 0

    def test_partition_plan_needs_two_groups(self):
        with pytest.raises(ValueError):
            PartitionPlan(at_time=0.0, groups=[{0, 1}])
        assert len(partition_at([{0}, {1}], 1.0).groups) == 2

    def test_storage_plan_needs_heal_or_probability(self):
        with pytest.raises(ValueError):
            StorageFaultPlan(at_time=0.0, node=1)  # permanent full outage
        with pytest.raises(ValueError):
            StorageFaultPlan(at_time=0.0, node=1, fail_prob=1.0)
        assert storage_outage_at(1, 0.0, 0.5).duration == 0.5


class TestUnifiedPlanner:
    """Link / partition / storage plans through the FailureInjector."""

    def make_net(self):
        from repro.net.latency import ConstantLatency
        from repro.net.network import Network
        from repro.net.topology import full_mesh
        from repro.sim.rng import RngRegistry

        sim = Simulator()
        trace = TraceRecorder()
        net = Network(
            sim, full_mesh(3), latency=ConstantLatency(0.001),
            rngs=RngRegistry(0), trace=trace,
        )
        return sim, trace, net

    def test_link_fault_plan_fires_and_reverts(self):
        sim, trace, net = self.make_net()
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[link_faults_at(1.0, loss_prob=1.0, duration=2.0)],
            network=net,
        )
        injector.arm()
        got = []
        net.register(1, got.append)
        sim.schedule_at(0.5, lambda: net.send(_msg()))  # before: delivered
        sim.schedule_at(1.5, lambda: net.send(_msg()))  # during: lost
        sim.schedule_at(3.5, lambda: net.send(_msg()))  # after revert: delivered
        sim.run()
        assert len(got) == 2
        assert net.stats.drops_by_cause == {"loss": 1}
        assert trace.count("inject", "link_faults") == 1
        assert trace.count("inject", "link_faults_reverted") == 1

    def test_link_plan_clears_its_override_on_revert(self):
        """A plan on one link that had no override of its own leaves none
        behind: the revert clears the link, so the default applies again."""
        sim, trace, net = self.make_net()
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[link_faults_at(1.0, loss_prob=1.0, duration=2.0, src=0, dst=1)],
            network=net,
        )
        injector.arm()
        got = []
        net.register(1, got.append)
        sim.schedule_at(1.5, lambda: net.send(_msg()))  # during: lost
        sim.run(until=2.0)
        assert set(net.faults.links) == {(0, 1)}
        sim.schedule_at(3.5, lambda: net.send(_msg()))  # after revert: delivered
        sim.run()
        assert net.faults.links == {}
        assert len(got) == 1
        assert net.stats.drops_by_cause == {"loss": 1}
        assert trace.count("inject", "link_faults_reverted") == 1

    def test_partition_plan_cuts_and_heals_with_trace(self):
        sim, trace, net = self.make_net()
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[partition_at([{0}, {1, 2}], 1.0, duration=1.0)],
            network=net,
        )
        injector.arm()
        got = []
        net.register(1, got.append)
        sim.schedule_at(1.5, lambda: net.send(_msg()))  # severed
        sim.schedule_at(2.5, lambda: net.send(_msg()))  # healed
        sim.run()
        assert len(got) == 1
        assert net.stats.drops_by_cause == {"partition": 1}
        assert trace.count("inject", "partition") == 1
        assert trace.count("inject", "partition_healed") == 1

    def test_storage_plan_opens_outage_window(self):
        from repro.storage.stable import StableStorage, StorageRetryPolicy

        sim = Simulator()
        trace = TraceRecorder()
        storage = StableStorage(sim, owner=0)
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[storage_outage_at(0, 1.0, 0.5)],
            storages={0: storage},
        )
        injector.arm()
        finishes = []
        sim.schedule_at(
            1.1, lambda: storage.write("a", 1, 1000,
                                       on_done=lambda: finishes.append(sim.now))
        )
        sim.run()
        assert storage.faults is not None
        assert storage.stats.faults_injected > 0
        assert finishes and finishes[0] > 1.5  # succeeded after the heal

    def test_storage_fail_prob_plan_heals_to_the_previous_probability(self):
        from repro.storage.stable import StableStorage, StorageFaultModel

        sim = Simulator()
        trace = TraceRecorder()
        storage = StableStorage(sim, owner=0)
        storage.faults = StorageFaultModel(fail_prob=0.1)
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[StorageFaultPlan(at_time=1.0, node=0, fail_prob=0.6,
                                    duration=0.5)],
            storages={0: storage},
        )
        injector.arm()
        seen = []
        for at in (0.5, 1.2, 2.0):
            sim.schedule_at(at, lambda: seen.append(storage.faults.fail_prob))
        sim.run()
        assert seen == [0.1, 0.6, 0.1]
        assert trace.count("inject", "storage_faults") == 1
        assert [
            (e.time, e.node) for e in trace.events
            if e.action == "storage_faults_reverted"
        ] == [(1.5, 0)]

    def test_trace_triggered_partition(self):
        sim, trace, net = self.make_net()
        plan = PartitionPlan(
            category="recovery", action="start", groups=[{0}, {1, 2}],
        )
        injector = FailureInjector(
            sim, trace, lambda n: None, plans=[plan], network=net
        )
        injector.arm()
        sim.schedule_at(2.0, lambda: trace.record(sim.now, "recovery", 0, "start"))
        sim.run()
        assert net.faults is not None
        assert net.faults.severed(0, 1, sim.now)

    def test_link_plans_need_network(self):
        sim = Simulator()
        trace = TraceRecorder()
        injector = FailureInjector(
            sim, trace, lambda n: None,
            plans=[link_faults_at(0.0, loss_prob=0.5)],
        )
        injector.arm()
        with pytest.raises(RuntimeError):
            sim.run()


def _msg():
    from repro.net.network import Message, MessageKind

    return Message(src=0, dst=1, kind=MessageKind.APPLICATION, mtype="app")
