import json
from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from batchopt import eventlog as ev
from batchopt.cli import main
from batchopt.engine import SimConfig, simulate
from batchopt.fixtures import get_fixture
from batchopt.model import parse_model
from batchopt.policy import parse_policies

H = 3600


def instance(case_id, enable, start, end, batch_id, cost):
    return ev.InstanceRecord(
        case_id=case_id,
        activity_id="work",
        resource_id="r1",
        enable_time=enable,
        start_time=start,
        end_time=end,
        batch_id=batch_id,
        allocated_cost=cost,
        work_seconds=end - start,
    )


def two_batch_log():
    # batch b00000: members enabled at 0h/1h/2h, runs 3h..4h, costs 9
    # batch b00001: single member enabled at 1h, runs 1.5h..2h, costs 3
    instances = (
        instance(0, 0 * H, 3 * H, 4 * H, "b00000", 3.0),
        instance(1, 1 * H, 3 * H, 4 * H, "b00000", 3.0),
        instance(2, 2 * H, 3 * H, 4 * H, "b00000", 3.0),
        instance(3, 1 * H, int(1.5 * H), 2 * H, "b00001", 3.0),
    )
    batches = (
        ev.BatchRecord(
            batch_id="b00000",
            activity_id="work",
            resource_id="r1",
            start_time=3 * H,
            end_time=4 * H,
            members=(0, 1, 2),
            cost=9.0,
            busy_seconds=H,
        ),
        ev.BatchRecord(
            batch_id="b00001",
            activity_id="work",
            resource_id="r1",
            start_time=int(1.5 * H),
            end_time=2 * H,
            members=(3,),
            cost=3.0,
            busy_seconds=int(0.5 * H),
        ),
    )
    return ev.EventLog(instances=instances, batches=batches)


class TestObjectives:
    def test_two_batch_arithmetic(self):
        # total waiting-to-done time: (4h - 0h) + (2h - 1h) = 5h over 4 instances
        obj = ev.evaluate_objectives(two_batch_log())
        assert obj.total_cycle_time == 5 * H
        assert obj.total_cost == pytest.approx(12.0)
        assert obj.instance_count == 4
        assert obj.avg_cycle_time == pytest.approx(1.25 * H)
        assert obj.avg_cost == pytest.approx(3.0)
        assert obj.point == (pytest.approx(1.25 * H), pytest.approx(3.0))

    def test_waiting_and_idle_only_mode_drops_busy_time(self):
        obj = ev.evaluate_objectives(two_batch_log(), cycle_time_mode=ev.CYCLE_TIME_WAITING_AND_IDLE)
        # 5h minus busy 1h and 0.5h
        assert obj.total_cycle_time == int(3.5 * H)
        assert obj.avg_cycle_time == pytest.approx(3.5 * H / 4)

    def test_empty_log(self):
        obj = ev.evaluate_objectives(ev.EventLog(instances=(), batches=()))
        assert obj.instance_count == 0
        assert obj.avg_cycle_time == 0.0
        assert obj.avg_cost == 0.0


class TestCaseCycleTime:
    def test_spans_first_start_to_last_end(self):
        instances = (
            instance(0, 0, 100, 200, "b00000", 1.0),
            instance(0, 200, 400, 900, "b00001", 1.0),
        )
        batches = (
            ev.BatchRecord("b00000", "work", "r1", 100, 200, (0,), 1.0, 100),
            ev.BatchRecord("b00001", "work", "r1", 400, 900, (1,), 1.0, 500),
        )
        log = ev.EventLog(instances=instances, batches=batches)
        assert ev.case_cycle_time(log, 0) == 800


class TestWarmup:
    def test_drops_early_cases_and_remaps_members(self):
        trimmed = ev.filter_warmup(two_batch_log(), 1)
        assert {r.case_id for r in trimmed.instances} == {1, 2, 3}
        for batch in trimmed.batches:
            for i in batch.members:
                assert trimmed.instances[i].batch_id == batch.batch_id

    def test_batch_cost_shrinks_to_surviving_share(self):
        trimmed = ev.filter_warmup(two_batch_log(), 1)
        big = next(b for b in trimmed.batches if b.batch_id == "b00000")
        assert big.size == 2
        assert big.cost == pytest.approx(6.0)

    def test_fully_trimmed_batch_disappears(self):
        trimmed = ev.filter_warmup(two_batch_log(), 4)
        assert trimmed.instances == ()
        assert trimmed.batches == ()

    def test_surviving_batches_are_records_with_only_members_and_cost_replaced(self):
        log = two_batch_log()
        trimmed = ev.filter_warmup(log, 1)
        big, small = trimmed.batches
        assert type(big) is ev.BatchRecord and type(small) is ev.BatchRecord
        # b00000 lost case 0: its members shift down and its cost shrinks
        assert big == log.batches[0]._replace(members=(0, 1), cost=6.0)
        # b00001 kept every member: same cost, its one member remapped
        assert small == log.batches[1]._replace(members=(2,))
        assert small.cost == log.batches[1].cost
        assert [trimmed.instances[i] for i in small.members] == [log.instances[3]]

    def test_zero_warmup_is_identity(self):
        log = two_batch_log()
        assert ev.filter_warmup(log, 0) == log


class TestTimestamps:
    def test_round_trip(self):
        for t in (0, 1, 59, 3600, 86400, 7 * 86400 + 12345):
            parsed = datetime.fromisoformat(ev.format_time(t)) - ev.LOG_EPOCH
            assert parsed.total_seconds() == t

    def test_epoch_is_a_monday(self):
        assert ev.LOG_EPOCH.weekday() == 0
        assert ev.format_time(0) == "2024-01-01T00:00:00"

    @given(
        st.sampled_from([2023, 2024, 2025, 2027, 2099, 2100]),
        st.lists(st.integers(-3 * 86400, 3 * 86400), min_size=1, max_size=20),
    )
    def test_format_time_spells_instants_as_isoformat_across_year_ends(self, year, offsets):
        # instants within three days of a new year, 2024 and 2100 among
        # them (a leap year and a century that is not one), formatted
        # alone and by one render's formatter, whose day texts are reused
        new_year = int((datetime(year, 1, 1) - ev.LOG_EPOCH).total_seconds())
        expected = [(ev.LOG_EPOCH + timedelta(seconds=new_year + o)).isoformat() for o in offsets]
        assert [ev.format_time(new_year + o) for o in offsets] == expected
        render_format = ev._time_formatter()
        assert [render_format(new_year + o) for o in offsets] == expected


class TestCsv:
    def test_event_csv_shape(self):
        text = ev.render_event_csv(two_batch_log())
        lines = text.strip().splitlines()
        assert lines[0] == ev.EVENT_CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] == "2024-01-01T00:00:00"

    def test_batch_csv_shape(self):
        text = ev.render_batch_csv(two_batch_log())
        lines = text.strip().splitlines()
        assert lines[0] == ev.BATCH_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "3"  # size column

    def test_write_and_reread(self, tmp_path):
        # the events.csv that `batchopt simulate` writes is the rendered log
        fixture = get_fixture("two-batch")
        model = tmp_path / "model.json"
        policies = tmp_path / "policies.json"
        model.write_text(json.dumps(fixture.model_doc))
        policies.write_text(json.dumps(fixture.policies_doc))
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(model), "--policies", str(policies),
                     "--out", str(out)])
        assert code == 0
        log = simulate(
            parse_model(fixture.model_doc), parse_policies(fixture.policies_doc), SimConfig()
        ).log
        assert (out / "events.csv").read_text(encoding="utf-8") == ev.render_event_csv(log)
