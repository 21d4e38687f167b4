from __future__ import annotations

import sys
import threading
import time

import pytest

from masbus import (
    AclMessage,
    AgentBehavior,
    AgentRegistry,
    Atom,
    Delivery,
    Environment,
    Number,
    OperationRequest,
    Performative,
    counter_template,
    structure,
)
from masbus.errors import (
    DuplicateNameError,
    NotLocalAgentError,
    UnknownAgentError,
    UnknownReceiverError,
)
from conftest import pinned_to_one_cpu, wait_for


def tell(sender, receiver, content=Atom("hi")):
    return AclMessage(sender, receiver, Performative.TELL, content)


def test_spawn_and_local_delivery():
    reg = AgentRegistry()
    reg.spawn_agent("production_agent")
    reg.spawn_agent("delivery_agent")
    outcome = reg.send_message(tell("delivery_agent", "production_agent"))
    assert outcome is Delivery.LOCAL
    msg = reg.receive("production_agent")
    assert msg.sender == "delivery_agent"
    assert msg.performative is Performative.TELL
    assert msg.msg_id


def test_spawn_duplicate_name():
    reg = AgentRegistry()
    reg.spawn_agent("a")
    with pytest.raises(DuplicateNameError):
        reg.spawn_agent("a")
    with pytest.raises(DuplicateNameError):
        reg.register_dummy("a", "r", lambda m: None)


def test_initial_send_effect_lands_before_spawn_returns():
    reg = AgentRegistry()
    reg.spawn_agent("b")
    reg.spawn_agent(
        "a",
        AgentBehavior(initial=lambda ctx: [ctx.tell("b", Atom("hello"))]),
    )
    assert reg.mailbox_size("b") == 1


def test_receive_fifo_and_empty():
    reg = AgentRegistry()
    reg.spawn_agent("a")
    reg.spawn_agent("x")
    reg.send_message(tell("x", "a", Number(1)))
    reg.send_message(tell("x", "a", Number(2)))
    assert reg.receive("a").content == Number(1)
    assert reg.receive("a").content == Number(2)
    assert reg.receive("a") is None


def test_receive_on_dummy_and_unknown():
    reg = AgentRegistry()
    reg.register_dummy("ext", "r1", lambda m: None)
    with pytest.raises(NotLocalAgentError):
        reg.receive("ext")
    with pytest.raises(UnknownAgentError):
        reg.receive("nobody")


def test_send_to_dummy_routes_message():
    reg = AgentRegistry()
    seen = []
    reg.register_dummy("ext", "r1", seen.append)
    reg.spawn_agent("a")
    outcome = reg.send_message(tell("a", "ext", Atom("ping")))
    assert outcome is Delivery.ROUTED
    assert len(seen) == 1
    assert seen[0].receiver == "ext"
    assert seen[0].msg_id


def test_send_to_unknown_receiver():
    reg = AgentRegistry()
    reg.spawn_agent("a")
    with pytest.raises(UnknownReceiverError):
        reg.send_message(tell("a", "nobody"))


def test_dummy_unregistered_then_unknown():
    reg = AgentRegistry()
    reg.register_dummy("ext", "r1", lambda m: None)
    reg.unregister_dummy("ext")
    reg.spawn_agent("a")
    with pytest.raises(UnknownReceiverError):
        reg.send_message(tell("a", "ext"))


def test_msg_ids_are_monotonic_with_run_prefix():
    reg = AgentRegistry(run_id="test7")
    reg.spawn_agent("a")
    reg.spawn_agent("b")
    reg.send_message(tell("a", "b"))
    reg.send_message(tell("a", "b"))
    ids = [reg.receive("b").msg_id for _ in range(2)]
    assert ids == ["test7-m1", "test7-m2"]


def test_an_agents_message_ids_run_in_tell_order():
    reg = AgentRegistry()
    reg.spawn_agent("b")
    reg.spawn_agent(
        "a",
        AgentBehavior(
            initial=lambda ctx: [
                ctx.tell("b", Number(1)),
                ctx.achieve("b", Number(2)),
                ctx.tell("b", Number(3)),
            ]
        ),
    )
    received = [reg.receive("b") for _ in range(3)]
    assert [m.msg_id for m in received] == ["reg-m1", "reg-m2", "reg-m3"]
    assert [m.content for m in received] == [Number(1), Number(2), Number(3)]
    # a message sent without an id still gets the next one
    reg.send_message(tell("a", "b"))
    assert reg.receive("b").msg_id == "reg-m4"


def test_delivery_trichotomy_signature_is_identical_for_dummy():
    # the sender cannot tell a dummy apart from a local agent
    reg = AgentRegistry()
    reg.spawn_agent("local")
    reg.register_dummy("remote", "r", lambda m: None)
    reg.spawn_agent("s")
    outcomes = {
        reg.send_message(tell("s", "local")),
        reg.send_message(tell("s", "remote")),
    }
    assert outcomes == {Delivery.LOCAL, Delivery.ROUTED}


def test_behavior_reacts_to_message():
    reg = AgentRegistry()
    log = []

    def on_message(ctx, m):
        log.append(m.content)
        return [ctx.tell("observer", structure("seen", [m.content]))]

    reg.spawn_agent("observer")
    reg.spawn_agent("reactor", AgentBehavior(on_message=on_message))
    reg.send_message(tell("observer", "reactor", Number(5)))
    assert wait_for(lambda: reg.mailbox_size("observer") == 1)
    assert log == [Number(5)]
    reply = reg.receive("observer")
    assert reply.content == structure("seen", [Number(5)])
    reg.stop()


def test_behavior_messages_processed_serially_in_order():
    reg = AgentRegistry()
    seen = []

    def on_message(ctx, m):
        seen.append(m.content.value)
        return []

    reg.spawn_agent("serial", AgentBehavior(on_message=on_message))
    reg.spawn_agent("x")
    for i in range(30):
        reg.send_message(tell("x", "serial", Number(i)))
    assert wait_for(lambda: len(seen) == 30)
    assert seen == list(range(30))
    reg.stop()


def test_behavior_reacts_to_percepts_and_focus_snapshot():
    env = Environment()
    env.create_artifact("main", "c", counter_template(start=7))
    reg = AgentRegistry(env)
    percepts = []

    def on_percept(ctx, p):
        percepts.append(p)
        return []

    reg.spawn_agent(
        "watcher",
        AgentBehavior(on_percept=on_percept, initial=lambda ctx: [ctx.focus("c")]),
    )
    # the focus snapshot itself reaches the behavior
    assert wait_for(lambda: len(percepts) == 1)
    assert percepts[0].prop == "count"
    assert percepts[0].new == Number(7)
    # a change from elsewhere reaches the behavior through the percept queue
    reg.spawn_agent(
        "actor", AgentBehavior(initial=lambda ctx: [ctx.op("c", "increment")])
    )
    assert wait_for(lambda: len(percepts) == 2)
    assert percepts[1].new == Number(8)
    reg.stop()


def test_focus_is_refused_to_an_agent_without_on_percept():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    reg = AgentRegistry(env)
    reg.spawn_agent(
        "deaf",
        AgentBehavior(on_message=lambda ctx, m: [], initial=lambda ctx: [ctx.focus("c")]),
    )
    for _ in range(5000):
        env.execute_op(OperationRequest("c", "increment"))
    # nothing would ever take its percepts, so it never became an observer
    assert env.poll_percept("deaf") is None
    assert "deaf" not in env.artifact("c").observers
    reg.stop()


def test_artifact_op_failure_notifies_acting_agent():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    reg = AgentRegistry(env)
    seen = []

    def on_percept(ctx, p):
        seen.append(p)
        return []

    reg.spawn_agent(
        "clumsy",
        AgentBehavior(
            on_percept=on_percept,
            initial=lambda ctx: [ctx.op("c", "nosuch")],
        ),
    )
    assert wait_for(lambda: len(seen) == 1)
    assert seen[0].label == "operation_failed"
    reg.stop()


def test_failed_operations_of_an_agent_without_on_percept_queue_nothing():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    reg = AgentRegistry(env)
    handled = []

    def on_message(ctx, message):
        handled.append(message)
        return [ctx.op("c", "nosuch")]

    reg.spawn_agent("clumsy", AgentBehavior(on_message=on_message))
    for i in range(1000):
        reg.send_message(AclMessage("x", "clumsy", Performative.TELL, Number(i)))
    assert wait_for(lambda: len(handled) == 1000)
    # nothing would ever take an operation_failed percept of this agent
    assert env.poll_percept("clumsy") is None
    assert [entry.status for entry in env.operation_log()] == ["unknown_operation"] * 1000
    reg.stop()


def test_agent_log_effect():
    reg = AgentRegistry()
    reg.spawn_agent(
        "noter", AgentBehavior(initial=lambda ctx: [ctx.log(Atom("started"))])
    )
    assert reg.agent_log("noter") == (Atom("started"),)


def test_message_validation():
    with pytest.raises(ValueError):
        AclMessage("", "b", Performative.TELL, Atom("x"))
    with pytest.raises(ValueError):
        AclMessage("a", "", Performative.TELL, Atom("x"))
    coerced = AclMessage("a", "b", "askOne", Atom("x"))
    assert coerced.performative is Performative.ASK_ONE


def test_every_agent_reacts_to_every_stimulus_under_concurrent_feeders():
    env = Environment()
    env.create_artifact("main", "a", counter_template())
    env.create_artifact("main", "b", counter_template())
    reg = AgentRegistry(env)
    names = [f"agent{i}" for i in range(8)]
    percepts = {name: [] for name in names}
    messages = {name: [] for name in names}
    reacted = threading.Condition()

    def behavior(name):
        def on_percept(ctx, p):
            if p.old is not None:  # not a focus snapshot
                with reacted:
                    percepts[name].append(p.seq)
                    reacted.notify_all()
            return []

        def on_message(ctx, m):
            with reacted:
                messages[name].append((m.sender, m.content.value))
                reacted.notify_all()
            return []

        return AgentBehavior(
            on_percept=on_percept,
            on_message=on_message,
            initial=lambda ctx: [ctx.focus("a"), ctx.focus("b")],
        )

    for name in names:
        reg.spawn_agent(name, behavior(name))
    reg.spawn_agent("s0")
    reg.spawn_agent("s1")
    rounds = 300
    # every round ends with each agent's last stimulus, where a lost
    # wake-up would leave it asleep
    barrier = threading.Barrier(5)

    def operate(artifact):
        for _ in range(rounds):
            barrier.wait()
            env.execute_op(OperationRequest(artifact, "increment"))
            barrier.wait()

    def send(sender):
        for i in range(rounds):
            barrier.wait()
            for name in names:
                reg.send_message(tell(sender, name, Number(i)))
            barrier.wait()

    def all_reacted(n):
        return all(len(percepts[a]) == 2 * n and len(messages[a]) == 2 * n for a in names)

    feeders = [threading.Thread(target=operate, args=(a,)) for a in "ab"]
    feeders += [threading.Thread(target=send, args=(s,)) for s in ("s0", "s1")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    completed = 0
    try:
        for feeder in feeders:
            feeder.start()
        deadline = time.monotonic() + 10.0
        for n in range(1, rounds + 1):
            barrier.wait()
            barrier.wait()
            with reacted:
                if not reacted.wait_for(lambda: all_reacted(n), deadline - time.monotonic()):
                    break
            completed = n
    finally:
        if completed < rounds:
            barrier.abort()  # releases the feeders from the unfinished round
        sys.setswitchinterval(interval)
        for feeder in feeders:
            feeder.join(5.0)
        reg.stop()
    assert completed == rounds, {a: (len(percepts[a]), len(messages[a])) for a in names}
    for name in names:
        assert percepts[name] == sorted(percepts[name])
        for sender in ("s0", "s1"):
            assert [i for s, i in messages[name] if s == sender] == list(range(rounds))


def test_spawning_reacting_agents_starts_no_thread(monkeypatch):
    started = []
    thread_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    env = Environment()
    reg = AgentRegistry(env)
    for i in range(10):
        reg.spawn_agent(
            f"a{i}", AgentBehavior(on_message=lambda ctx, m: [], on_percept=lambda ctx, p: [])
        )
    assert started == []
    reg.stop()


def test_a_blocked_reaction_does_not_delay_another_agents_reaction():
    reg = AgentRegistry()
    entered, release = threading.Event(), threading.Event()
    reacted = []

    def block(ctx, m):
        entered.set()
        release.wait(5.0)
        return []

    reg.spawn_agent("a", AgentBehavior(on_message=block))
    reg.spawn_agent("b", AgentBehavior(on_message=lambda ctx, m: reacted.append(m) or []))
    try:
        reg.send_message(tell("x", "a"))
        assert entered.wait(2.0)
        reg.send_message(tell("x", "b"))
        assert wait_for(lambda: reacted, timeout=1.0)
        assert not release.is_set()
    finally:
        release.set()
        reg.stop()


def test_a_reacting_worker_is_named_after_its_agent():
    reg = AgentRegistry()
    names = []

    def on_message(ctx, m):
        names.append(threading.current_thread().name)
        return []

    reg.spawn_agent("namer", AgentBehavior(on_message=on_message))
    reg.send_message(tell("x", "namer"))
    assert wait_for(lambda: names)
    assert names == ["agent-namer"]
    reg.stop()


def test_stop_lets_the_current_reaction_finish_and_reacts_to_nothing_later():
    reg = AgentRegistry()
    entered, release = threading.Event(), threading.Event()
    finished, workers = [], []

    def on_message(ctx, m):
        workers.append(threading.current_thread())
        entered.set()
        release.wait(5.0)
        finished.append(m.content.value)
        return []

    reg.spawn_agent("slow", AgentBehavior(on_message=on_message))
    reg.send_message(tell("x", "slow", Number(1)))
    assert entered.wait(2.0)
    reg.send_message(tell("x", "slow", Number(2)))
    started = time.monotonic()
    reg.stop()
    # stop does not wait for the reaction
    assert time.monotonic() - started < 0.5
    release.set()
    reg.send_message(tell("x", "slow", Number(3)))
    assert wait_for(lambda: not workers[0].is_alive(), timeout=1.0)
    assert finished == [1]


def test_spawn_after_stop_starts_no_thread():
    reg = AgentRegistry()
    reg.stop()
    before = set(threading.enumerate())
    reacted = []
    reg.spawn_agent("b", AgentBehavior(on_message=lambda ctx, m: reacted.append(m) or []))
    reg.send_message(tell("a", "b"))
    time.sleep(0.2)
    assert set(threading.enumerate()) <= before
    assert reacted == []


def test_stop_racing_stimuli_leaves_no_worker():
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            reg = AgentRegistry()
            names = [f"a{i}" for i in range(8)]
            for name in names:
                reg.spawn_agent(name, AgentBehavior(on_message=lambda ctx, m: []))

            def feed():
                for _ in range(20):
                    for name in names:
                        reg.send_message(tell("x", name))

            feeders = [threading.Thread(target=feed) for _ in range(3)]
            for feeder in feeders:
                feeder.start()
            time.sleep(0.001)
            reg.stop()
            for feeder in feeders:
                feeder.join(5.0)
            assert not [f for f in feeders if f.is_alive()]
    finally:
        sys.setswitchinterval(interval)
    # a worker that parked as stop() ran would wait for a lane forever
    assert wait_for(lambda: set(threading.enumerate()) <= before, timeout=2.0), [
        t.name for t in set(threading.enumerate()) - before
    ]


def test_a_percept_batch_on_one_cpu_starts_one_agent_worker_not_one_per_agent():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    reg = AgentRegistry(env)
    reacted = []

    def on_percept(ctx, percept):
        reacted.append(ctx.name)
        return []

    for i in range(4):
        behavior = AgentBehavior(on_percept=on_percept, initial=lambda ctx: [ctx.focus("c")])
        reg.spawn_agent(f"a{i}", behavior)
    before = set(threading.enumerate())
    reacted.clear()  # the focus snapshots
    with pinned_to_one_cpu():
        try:
            env.execute_op(OperationRequest("c", "increment"))
            assert wait_for(lambda: len(set(reacted)) == 4)
            started = set(threading.enumerate()) - before
        finally:
            reg.stop()
    # the worker the batch wakes, and the one it wakes while agents still wait
    assert len(started) <= 2, [t.name for t in started]


def test_a_parked_agent_worker_is_not_named_as_a_route_worker():
    before = set(threading.enumerate())
    reg = AgentRegistry()
    workers = []

    def on_message(ctx, m):
        workers.append(threading.current_thread())
        return []

    reg.spawn_agent("parker", AgentBehavior(on_message=on_message))
    reg.send_message(tell("x", "parker"))
    try:
        assert wait_for(lambda: workers and workers[0].name != "agent-parker")
        started = set(threading.enumerate()) - before
        assert [t.name for t in started] == ["agent-pool-parked"]
    finally:
        reg.stop()
