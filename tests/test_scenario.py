from __future__ import annotations

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from masbus import Bus, ScenarioConfig, ScenarioReport, assert_report, run_scenario
from masbus.errors import ScenarioConfigError, StageTimeoutError
from masbus.scenario import STAGES
from conftest import wait_for


def nominal_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=7,
        supplier_quotes=(("alpha", 10.0), ("beta", 7.5), ("gamma", 9.0)),
        track_waypoints=((1.0, 1.0), (0.5, 0.5), (0.01, 0.01)),
        destination=(0.0, 0.0),
        near_threshold_km=5.0,
        tick_period_ms=10.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_simulated_run_completes_all_stages_in_order():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    assert list(report.stage_timestamps) and set(report.stage_timestamps) == set(STAGES)
    ordered = [report.stage_timestamps[s] for s in STAGES]
    assert ordered == sorted(ordered)
    assert report.delivery_order_ok
    assert report.dead_letters == []
    assert assert_report(report, cfg) == []


def test_simulated_run_is_quick_and_leaves_no_thread():
    cfg = ScenarioConfig.generate(3)
    before = set(threading.enumerate())
    started = time.perf_counter()
    report = run_scenario(cfg, simulated=True)
    assert time.perf_counter() - started < 0.2
    assert assert_report(report, cfg) == []
    # listener threads end when the run closes them, before it returns;
    # the wait only absorbs scheduling delay
    assert wait_for(lambda: set(threading.enumerate()) <= before, timeout=1.0), [
        t.name for t in set(threading.enumerate()) - before
    ]


def test_a_simulated_run_starts_at_most_seven_threads(monkeypatch):
    started = []
    thread_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    cfg = ScenarioConfig.generate(3)
    assert assert_report(run_scenario(cfg, simulated=True), cfg) == []
    # two parked workers per pool, the tcpline listener and the two HTTP stubs:
    # every connection is served on its listener's thread
    assert len(started) <= 7, started


def test_winner_is_minimum_quote():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    assert report.winner_supplier == "beta"
    assert report.hire_message["performative"] == "tell"
    assert report.hire_message["receiver"] == "beta"
    assert "7.5" in report.hire_message["content"]


def test_tie_breaks_on_lexicographically_smallest_name():
    cfg = nominal_config(
        supplier_quotes=(("zeta", 5.0), ("eta", 5.0), ("theta", 6.0))
    )
    report = run_scenario(cfg, simulated=True)
    assert report.winner_supplier == "eta"
    assert assert_report(report, cfg) == []


def test_customer_transcript_row_is_unique_and_addressed():
    cfg = nominal_config(
        # several waypoints inside the threshold: the notification must
        # still be sent exactly once
        track_waypoints=((0.02, 0.02), (0.01, 0.01), (0.0, 0.0)),
    )
    report = run_scenario(cfg, simulated=True)
    rows = [r for r in report.chat_transcript if r["chatId"] == cfg.chat_id]
    assert len(rows) == 1
    assert rows[0]["token"] == cfg.chat_token
    assert "near_destination" in rows[0]["text"]


def test_first_waypoint_already_at_destination_fires_stage_v():
    cfg = nominal_config(track_waypoints=((0.0, 0.0), (0.0, 0.0)))
    report = run_scenario(cfg, simulated=True)
    assert assert_report(report, cfg) == []
    assert report.stage_timestamps["v"] >= report.stage_timestamps["iv"]


def test_two_seeded_runs_are_deterministic():
    cfg = nominal_config()
    first = run_scenario(cfg, simulated=True)
    second = run_scenario(cfg, simulated=True)
    assert first.deterministic_view() == second.deterministic_view()
    assert first.stage_timestamps != {}  # timestamps exist, just not compared


def test_hire_row_precedes_customer_row_in_every_simulated_run():
    cfg = nominal_config()
    for _ in range(20):
        report = run_scenario(cfg, simulated=True)
        chat_ids = [row["chatId"] for row in report.chat_transcript]
        assert chat_ids.index(report.winner_supplier) < chat_ids.index(cfg.chat_id)
        assert assert_report(report, cfg) == []


def test_generated_configs_pass_under_frequent_thread_switches():
    # stages are read off route deliveries on worker threads; switching
    # threads every microsecond shakes out any ordering they rely on
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(100):
            cfg = ScenarioConfig.generate(seed)
            report = run_scenario(cfg, simulated=True)
            assert assert_report(report, cfg) == [], seed
    finally:
        sys.setswitchinterval(interval)


def _slow_delivery_listeners_on(monkeypatch, route_id: str) -> None:
    """Deliveries on ``route_id`` reach the bus listeners 5 ms late."""
    notify = Bus._notify_delivery

    def slow(self, exchange, route, endpoint):
        if route == route_id:
            time.sleep(0.005)
        notify(self, exchange, route, endpoint)

    monkeypatch.setattr(Bus, "_notify_delivery", slow)


def test_stage_i_is_stamped_before_its_effects_when_the_plc_in_listener_lags(monkeypatch):
    _slow_delivery_listeners_on(monkeypatch, "plc-in")
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    assert sorted(STAGES, key=report.stage_timestamps.get) == list(STAGES)
    assert assert_report(report, cfg) == []


def test_stage_iv_is_stamped_before_stage_v_when_the_track_listener_lags(monkeypatch):
    _slow_delivery_listeners_on(monkeypatch, "track")
    # the first waypoint is within the threshold: its distance and the
    # near_destination signal come from one operation
    cfg = nominal_config(track_waypoints=((0.0, 0.0), (0.0, 0.0)))
    report = run_scenario(cfg, simulated=True)
    assert sorted(STAGES, key=report.stage_timestamps.get) == list(STAGES)
    assert assert_report(report, cfg) == []


def test_hire_message_is_read_from_the_supplier_exchange():
    report = run_scenario(nominal_config(), simulated=True)
    assert report.hire_message["sender"] == "distribution_agent"
    assert report.hire_message["msg_id"].startswith("scenario-m")


def test_wall_clock_run_completes():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=False)
    assert assert_report(report, cfg) == []


def test_erp_record_contains_checkout():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    record = report.erp_checkout_record
    assert record["method"] == "POST"
    assert record["path"] == "/checkout"
    assert "checkout" in record["body"]


def test_unreachable_waypoints_time_out_on_stage_v():
    cfg = nominal_config(
        track_waypoints=((40.0, 40.0), (41.0, 41.0)),
        stage_timeout_s=0.8,
    )
    with pytest.raises(StageTimeoutError) as err:
        run_scenario(cfg, simulated=True)
    assert err.value.stage == "v"
    partial = err.value.report
    assert partial is not None
    assert "v" not in partial.stage_timestamps
    assert {"i", "ii", "iii", "iv"} <= set(partial.stage_timestamps)


# -- config validation -----------------------------------------------------------


def test_config_rejects_single_supplier():
    with pytest.raises(ScenarioConfigError):
        nominal_config(supplier_quotes=(("only", 1.0),)).validate()


def test_config_rejects_single_waypoint():
    with pytest.raises(ScenarioConfigError):
        nominal_config(track_waypoints=((0.0, 0.0),)).validate()


def test_config_rejects_out_of_range_coordinates():
    with pytest.raises(ScenarioConfigError):
        nominal_config(destination=(95.0, 0.0)).validate()


def test_config_rejects_bad_threshold_and_tick():
    with pytest.raises(ScenarioConfigError):
        nominal_config(near_threshold_km=0.0).validate()
    with pytest.raises(ScenarioConfigError):
        nominal_config(tick_period_ms=-1.0).validate()


def test_config_json_round_trip():
    cfg = nominal_config()
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg


def test_from_json_fills_omitted_fields_with_the_dataclass_defaults():
    cfg = ScenarioConfig(
        seed=7,
        supplier_quotes=(("alpha", 10.0), ("beta", 7.5)),
        track_waypoints=((1.0, 1.0), (0.0, 0.0)),
        destination=(0.0, 0.0),
        near_threshold_km=5.0,
    )
    required = {
        "seed": 7,
        "supplier_quotes": [["alpha", 10.0], ["beta", 7.5]],
        "track_waypoints": [[1.0, 1.0], [0.0, 0.0]],
        "destination": [0.0, 0.0],
        "near_threshold_km": 5.0,
    }
    assert ScenarioConfig.from_json(json.dumps(required)) == cfg
    assert ScenarioConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()


def test_config_from_bad_json():
    with pytest.raises(ScenarioConfigError):
        ScenarioConfig.from_json("not json")
    with pytest.raises(ScenarioConfigError):
        ScenarioConfig.from_json("{}")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _config_with(field, value) -> str:
    data = json.loads(nominal_config().to_json())
    data[field] = value
    return json.dumps(data)  # infinities and NaN become bare JSON words


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.builds(_config_with, st.sampled_from(sorted(json.loads(nominal_config().to_json()))), _JSON_VALUES),
        st.sampled_from(["1" * 5000, "[" * 5000, '{"seed": 1e400}']),
    )
)
def test_config_from_json_raises_only_scenario_config_error(text):
    try:
        ScenarioConfig.from_json(text)
    except ScenarioConfigError:
        pass


def test_generated_config_is_valid_and_seed_stable():
    cfg1 = ScenarioConfig.generate(42)
    cfg2 = ScenarioConfig.generate(42)
    assert cfg1 == cfg2
    cfg1.validate()
    assert cfg1 != ScenarioConfig.generate(43)


# -- report assertions ------------------------------------------------------------


def test_assert_report_flags_misordered_stages():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    report.stage_timestamps["ii"], report.stage_timestamps["iii"] = (
        report.stage_timestamps["iii"],
        report.stage_timestamps["ii"],
    )
    violations = assert_report(report, cfg)
    assert any("monotonically" in v for v in violations)


def test_assert_report_flags_wrong_chat_id():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    for row in report.chat_transcript:
        if row["chatId"] == cfg.chat_id:
            row["chatId"] = "someone-else"
    violations = assert_report(report, cfg)
    assert any(cfg.chat_id in v for v in violations)


def test_assert_report_flags_customer_row_before_hire_row():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    report.chat_transcript.reverse()
    violations = assert_report(report, cfg)
    assert any("precedes the hire row" in v for v in violations)


def test_assert_report_flags_wrong_winner():
    cfg = nominal_config()
    report = run_scenario(cfg, simulated=True)
    report.winner_supplier = "alpha"
    violations = assert_report(report, cfg)
    assert any("winner" in v for v in violations)


def test_assert_report_on_empty_report():
    report = ScenarioReport(seed=0)
    violations = assert_report(report, nominal_config())
    assert violations  # several: missing stages, no winner, no transcript
