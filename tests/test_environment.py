from __future__ import annotations

import math
import random
import sys
import threading

import pytest

from masbus import (
    AgentOrigin,
    ArtifactTemplate,
    Atom,
    Environment,
    Number,
    OperationRequest,
    OpResult,
    PropertyChanged,
    SignalPercept,
    String,
    counter_template,
    great_circle_km,
    tracker_template,
)
from masbus.errors import (
    DuplicateNameError,
    OutboxBusyError,
    UnknownArtifactError,
    UnknownOperationError,
    UnknownWorkspaceError,
)
from masbus.environment import OP_LOG_SIZE


def flag_template():
    def set_flag(ctx, params):
        return OpResult(property_updates={"flag": params[0]})

    def ping(ctx, params):
        return OpResult(signals=[("pinged", params[0] if params else Atom("na"))])

    return ArtifactTemplate(
        operations={"setFlag": set_flag, "ping": ping},
        properties={"color": Atom("red"), "size": Number(3)},
    )


def request(artifact, op, params=(), agent="tester", workspace=None):
    return OperationRequest(
        artifact_name=artifact,
        operation_name=op,
        params=tuple(params),
        origin=AgentOrigin(agent),
        workspace=workspace,
    )


def drain_percepts(env, agent):
    out = []
    while True:
        p = env.poll_percept(agent)
        if p is None:
            return out
        out.append(p)


def test_create_workspace_and_artifact():
    env = Environment()
    env.create_workspace("lab")
    env.create_artifact("lab", "thing", flag_template())
    assert env.artifact("thing", "lab").name == "thing"


def test_duplicate_names_rejected():
    env = Environment()
    with pytest.raises(DuplicateNameError):
        env.create_workspace("main")
    env.create_artifact("main", "a", flag_template())
    with pytest.raises(DuplicateNameError):
        env.create_artifact("main", "a", flag_template())


def test_unknown_workspace():
    env = Environment()
    with pytest.raises(UnknownWorkspaceError):
        env.create_artifact("nowhere", "a", flag_template())


def test_focus_returns_snapshot_percepts():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    snaps = env.focus("agent1", None, "a")
    assert len(snaps) == 2
    assert all(isinstance(p, PropertyChanged) and p.old is None for p in snaps)
    # focusing again re-sends the snapshot without duplicating observers
    again = env.focus("agent1", None, "a")
    assert len(again) == 2
    env.artifact("a").observers == {"agent1"}


def test_focus_unknown_artifact():
    env = Environment()
    with pytest.raises(UnknownArtifactError):
        env.focus("agent1", None, "ghost")


def test_property_change_reaches_each_observer_once():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.focus("x", None, "a")
    env.focus("y", None, "a")
    env.execute_op(request("a", "setFlag", [Atom("up")]))
    for agent in ("x", "y"):
        percepts = drain_percepts(env, agent)
        assert len(percepts) == 1
        p = percepts[0]
        assert p.prop == "flag" and p.old is None and p.new == Atom("up")


def test_each_observer_gets_its_own_percept():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.create_artifact("main", "b", flag_template())
    env.focus("x", None, "b")  # two snapshot seqs, so x and y differ in seq
    env.focus("x", None, "a")
    env.focus("y", None, "a")
    env.execute_op(request("a", "setFlag", [Atom("up")]))
    (px,), (py,) = drain_percepts(env, "x"), drain_percepts(env, "y")
    assert px is not py
    assert (px.agent, px.seq) == ("x", 5)
    assert (py.agent, py.seq) == ("y", 3)
    assert px == PropertyChanged("x", "a", 5, "flag", None, Atom("up"))
    # a percept belongs to its receiver, which may write to it
    px.new = Atom("changed")
    assert py.new == Atom("up")
    assert env.artifact("a").properties["flag"] == Atom("up")


def test_unchanged_write_produces_no_percept():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.focus("x", None, "a")
    env.execute_op(request("a", "setFlag", [Atom("up")]))
    drain_percepts(env, "x")
    env.execute_op(request("a", "setFlag", [Atom("up")]))
    assert drain_percepts(env, "x") == []


def test_signals_reach_only_current_observers():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.focus("watcher", None, "a")
    env.execute_op(request("a", "ping", [Number(1)]))
    env.unfocus("watcher", None, "a")
    env.execute_op(request("a", "ping", [Number(2)]))
    percepts = drain_percepts(env, "watcher")
    assert len(percepts) == 1
    assert isinstance(percepts[0], SignalPercept)
    assert percepts[0].payload == Number(1)


def test_percept_conservation_changes_times_observers():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    observers = ["x", "y", "z"]
    for agent in observers:
        env.focus(agent, None, "a")
    values = [Atom("v1"), Atom("v2"), Atom("v2"), Atom("v3")]  # one repeat
    for value in values:
        env.execute_op(request("a", "setFlag", [value]))
    actual_changes = 3  # the repeated write changes nothing
    delivered = sum(len(drain_percepts(env, agent)) for agent in observers)
    assert delivered == actual_changes * len(observers)


def test_percept_seq_is_monotonic_per_agent():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.focus("x", None, "a")
    env.execute_op(request("a", "setFlag", [Atom("one")]))
    env.execute_op(request("a", "setFlag", [Atom("two")]))
    seqs = [p.seq for p in drain_percepts(env, "x")]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_percepts_stay_in_seq_order_across_concurrent_artifacts():
    env = Environment()
    env.create_artifact("main", "a", counter_template())
    env.create_artifact("main", "b", counter_template())
    env.focus("x", None, "a")
    env.focus("x", None, "b")

    def hammer(artifact):
        for _ in range(3_000):
            env.execute_op(request(artifact, "increment"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    seqs = [p.seq for p in drain_percepts(env, "x")]
    assert len(seqs) == 6_000
    # the focus snapshots took seq 1 and 2
    assert seqs == list(range(3, 6_003))


def test_operation_log_keeps_the_newest_entries():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    for i in range(12_000):
        env.execute_op(request("c", "increment", [Number(i)]))
    log = env.operation_log()
    assert OP_LOG_SIZE == 10_000
    assert [entry.params for entry in log] == [(Number(i),) for i in range(2_000, 12_000)]


def test_unknown_operation_raises_and_notifies_agent_origin():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    with pytest.raises(UnknownOperationError):
        env.execute_op(request("a", "nosuch", agent="caller"))
    (percept,) = drain_percepts(env, "caller")
    assert isinstance(percept, SignalPercept)
    assert percept.label == "operation_failed"


def test_failed_operation_returns_failed_result():
    env = Environment()
    env.create_artifact("main", "t", tracker_template((0.0, 0.0), 1.0))
    result = env.execute_op(request("t", "giveDistance", [Number(95), Number(0)]))
    assert not result.ok
    assert result.reason == Atom("bad_coordinates")
    log = env.operation_log()
    assert log[-1].status == "failed"


def test_operation_log_records_calls():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.execute_op(request("a", "setFlag", [Atom("v")]))
    entry = env.operation_log()[-1]
    assert (entry.artifact, entry.operation) == ("a", "setFlag")
    assert entry.params == (Atom("v"),)
    assert entry.status == "ok"


def test_outbox_queues_before_attach_and_fifo_after():
    env = Environment()
    env.create_artifact("main", "a", flag_template())
    env.artifact_send("a", {"k": Atom("v")}, Atom("one"))
    env.artifact_send("a", None, Atom("two"))
    seen = []
    env.attach_outbox_consumer("a", seen.append)
    env.artifact_send("a", None, Atom("three"))
    assert [p.body for p in seen] == [Atom("one"), Atom("two"), Atom("three")]
    assert seen[0].header_map() == {"k": Atom("v")}
    with pytest.raises(OutboxBusyError):
        env.attach_outbox_consumer("a", seen.append)
    env.detach_outbox_consumer("a")
    env.artifact_send("a", None, Atom("queued"))
    assert [p.body for p in seen][-1] == Atom("three")


def test_artifact_send_unknown_artifact():
    env = Environment()
    with pytest.raises(UnknownArtifactError):
        env.artifact_send("ghost", None, Atom("x"))


def test_concurrent_increments_serialize():
    env = Environment()
    env.create_artifact("main", "c", counter_template())
    threads = [
        threading.Thread(
            target=lambda: [
                env.execute_op(request("c", "increment")) for _ in range(100)
            ]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert env.artifact("c").properties["count"] == Number(800)


# -- distance operation ---------------------------------------------------------


def haversine_oracle(lat1, lon1, lat2, lon2):
    # independent reimplementation used as the reference
    r = 6371.0
    p1 = lat1 * math.pi / 180.0
    p2 = lat2 * math.pi / 180.0
    dp = (lat2 - lat1) * math.pi / 180.0
    dl = (lon2 - lon1) * math.pi / 180.0
    sin_dp = math.sin(dp / 2.0)
    sin_dl = math.sin(dl / 2.0)
    a = sin_dp * sin_dp + math.cos(p1) * math.cos(p2) * sin_dl * sin_dl
    return r * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def test_tracker_starts_with_distance_unset():
    env = Environment()
    env.create_artifact("main", "TrackedArtifact", tracker_template((0.0, 0.0), 1.0))
    art = env.artifact("TrackedArtifact")
    assert "distanceKm" not in art.properties
    # no properties yet, so focusing yields no snapshot percepts
    assert env.focus("d", None, "TrackedArtifact") == []


def test_distance_zero_at_destination_emits_signal():
    env = Environment()
    env.create_artifact("main", "t", tracker_template((10.0, 20.0), 0.5))
    env.focus("d", None, "t")
    result = env.execute_op(request("t", "giveDistance", [Number(10.0), Number(20.0)]))
    assert result.ok
    assert env.artifact("t").properties["distanceKm"] == Number(0.0)
    labels = [p.label for p in drain_percepts(env, "d") if isinstance(p, SignalPercept)]
    assert labels == ["near_destination"]


def test_distance_one_degree_longitude_on_equator():
    # frozen from the oracle: 6371.0 * pi/180 = 111.19492664455873
    env = Environment()
    env.create_artifact("main", "t", tracker_template((0.0, 1.0), 0.1))
    env.execute_op(request("t", "giveDistance", [Number(0.0), Number(0.0)]))
    got = env.artifact("t").properties["distanceKm"].value
    assert got == pytest.approx(111.19492664455873, abs=0.01)


def test_distance_range_check():
    env = Environment()
    env.create_artifact("main", "t", tracker_template((0.0, 0.0), 1.0))
    assert not env.execute_op(request("t", "giveDistance", [Number(95), Number(0)])).ok
    assert not env.execute_op(request("t", "giveDistance", [Number(0), Number(181)])).ok
    assert not env.execute_op(request("t", "giveDistance", [String("x"), Number(0)])).ok


def test_distance_matches_oracle_symmetry_and_triangle():
    rng = random.Random(991)
    points = [
        (rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(60)
    ]
    for (la1, lo1), (la2, lo2) in zip(points, points[1:]):
        d = great_circle_km(la1, lo1, la2, lo2)
        assert d == pytest.approx(haversine_oracle(la1, lo1, la2, lo2), abs=1e-6)
        assert d == great_circle_km(la2, lo2, la1, lo1)
    for i in range(0, 57, 3):
        p, q, r = points[i], points[i + 1], points[i + 2]
        dpr = great_circle_km(*p, *r)
        dpq = great_circle_km(*p, *q)
        dqr = great_circle_km(*q, *r)
        assert dpr <= dpq + dqr + 1e-6
    for la, lo in points:
        assert great_circle_km(la, lo, la, lo) == 0.0
