"""The two log renders against a `csv.writer` and `datetime.isoformat`
reference, over random logs: awkward ids, instants across day, year,
leap-day and century boundaries up to the last one a log can spell, and
extreme costs."""

import csv
import io
from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from batchopt import eventlog as ev


def iso(t: int) -> str:
    return (ev.LOG_EPOCH + timedelta(seconds=t)).isoformat()


def reference_csv(header: str, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def reference_event_csv(log: ev.EventLog) -> str:
    return reference_csv(ev.EVENT_CSV_HEADER, (
        [r.case_id, r.activity_id, r.resource_id, iso(r.enable_time), iso(r.start_time),
         iso(r.end_time), r.batch_id, repr(r.allocated_cost)]
        for r in log.instances
    ))


def reference_batch_csv(log: ev.EventLog) -> str:
    return reference_csv(ev.BATCH_CSV_HEADER, (
        [b.batch_id, b.activity_id, b.resource_id, iso(b.start_time), iso(b.end_time),
         len(b.members), b.busy_seconds, repr(b.cost)]
        for b in log.batches
    ))


def seconds_at(*date) -> int:
    return (datetime(*date) - ev.LOG_EPOCH) // timedelta(seconds=1)


# midnights of new years, leap days and centuries (2100 is no leap year,
# 2400 is), and the last day a log can spell
BOUNDARIES = [seconds_at(*d) for d in (
    (2024, 1, 2), (2024, 2, 29), (2024, 3, 1), (2025, 1, 1), (2100, 1, 1), (2100, 3, 1),
    (2400, 2, 29), (2400, 3, 1), (9000, 1, 1), (9999, 12, 31),
)]

instants = st.one_of(
    st.integers(0, ev.LAST_INSTANT),
    st.builds(lambda b, o: min(max(b + o, 0), ev.LAST_INSTANT),
              st.sampled_from(BOUNDARIES), st.integers(-2 * 86400, 2 * 86400)),
    st.sampled_from([0, ev.LAST_INSTANT]),
)

ids = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "7", "é", "中"]) | st.characters(),
    max_size=6,
)

costs = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1.7976931348623157e308, 1e300])

instance_records = st.builds(
    ev.InstanceRecord,
    case_id=st.integers(0, 10**6),
    activity_id=ids,
    resource_id=ids,
    enable_time=instants,
    start_time=instants,
    end_time=instants,
    batch_id=ids,
    allocated_cost=costs,
    work_seconds=st.integers(0, 10**9),
)

batch_records = st.builds(
    ev.BatchRecord,
    batch_id=ids,
    activity_id=ids,
    resource_id=ids,
    start_time=instants,
    end_time=instants,
    members=st.lists(st.integers(0, 10**6), max_size=4).map(tuple),
    cost=costs,
    busy_seconds=st.integers(0, 10**12),
)

logs = st.builds(
    ev.EventLog,
    instances=st.lists(instance_records, max_size=8).map(tuple),
    batches=st.lists(batch_records, max_size=8).map(tuple),
)


@given(logs)
def test_renders_equal_the_csv_writer_reference(log):
    assert ev.render_event_csv(log) == reference_event_csv(log)
    assert ev.render_batch_csv(log) == reference_batch_csv(log)


def test_last_instant_is_the_last_second_of_9999():
    assert ev.format_time(ev.LAST_INSTANT) == ev.LAST_TIME_TEXT == "9999-12-31T23:59:59"
    assert iso(ev.LAST_INSTANT) == ev.LAST_TIME_TEXT


@pytest.mark.parametrize("render", [ev.render_event_csv, ev.render_batch_csv])
def test_an_instant_past_the_last_raises_log_time_error(render):
    t = ev.LAST_INSTANT + 1
    log = ev.EventLog(
        instances=(ev.InstanceRecord(0, "a", "r", 0, 0, t, "b1", 1.0, 0),),
        batches=(ev.BatchRecord("b1", "a", "r", 0, t, (0,), 1.0, 0),),
    )
    with pytest.raises(ev.LogTimeError, match=f"instant {t} s lies past 9999-12-31T23:59:59"):
        render(log)
