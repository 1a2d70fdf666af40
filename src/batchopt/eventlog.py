"""Execution logs and the two optimization objectives.

A log holds one record per activity instance plus one per batch.  Every
instance belongs to exactly one batch; activity instances executed without
a policy are size-1 batches.  Objective values average the per-batch cycle
time and per-batch cost over the total number of instances.

Instance and batch records are named tuples, several times cheaper to
build than frozen dataclasses; the engine builds each with one
`tuple.__new__` call, the same record as a call of its class.  Field
names and order are part of the API; records compare and hash as tuples.

`render_event_csv` and `render_batch_csv` write one line per record
themselves, but their bytes are the ones `csv.writer` (minimal quoting,
``"\\n"`` line ends) writes for the same rows: integers as `str`, costs as
`repr`, instants as `datetime.isoformat` spells them, and any id holding a
comma, a quote or a line break quoted by `csv.writer` itself.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timedelta
from typing import NamedTuple

from .calendars import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .reduce import running_sum

# t = 0 maps to this instant; 2024-01-01 is a Monday, matching the
# weekly-calendar anchor.
LOG_EPOCH = datetime(2024, 1, 1)
# the last instant `datetime` can spell, in seconds from the epoch
LAST_TIME_TEXT = "9999-12-31T23:59:59"
LAST_INSTANT = (datetime.fromisoformat(LAST_TIME_TEXT) - LOG_EPOCH) // timedelta(seconds=1)

EVENT_CSV_HEADER = "case_id,activity,resource,enable_time,start_time,end_time,batch_id,cost"
BATCH_CSV_HEADER = "batch_id,activity,resource,start_time,end_time,size,busy_seconds,cost"


class LogTimeError(ValueError):
    """An instant of the log lies past `LAST_INSTANT`."""

    def __init__(self, t: int):
        super().__init__(
            f"instant {t} s lies past {LAST_TIME_TEXT}, the last instant a log can spell"
        )


def _time_formatter():
    """A `format_time` for one render call.

    An instant is spelled as four pieces: the date text of its day, built
    with `datetime` once per day on first use, then one of 24 hour texts
    (``"T07:"``), one of 60 minute texts (``"05:"``) and one of 60 second
    texts (``"09"``).  All of them live only as long as the returned
    function.  An instant past `LAST_INSTANT` raises `LogTimeError`.
    """
    days: dict[int, str] = {}
    hours = [f"T{h:02d}:" for h in range(24)]
    minutes = [f"{m:02d}:" for m in range(60)]
    seconds = [f"{s:02d}" for s in range(60)]

    def format_(t: int) -> str:
        day, second = divmod(t, SECONDS_PER_DAY)
        prefix = days.get(day)
        if prefix is None:
            if t > LAST_INSTANT:
                raise LogTimeError(t)
            prefix = days[day] = (LOG_EPOCH + timedelta(days=day)).date().isoformat()
        hour, second = divmod(second, SECONDS_PER_HOUR)
        minute, second = divmod(second, 60)
        return prefix + hours[hour] + minutes[minute] + seconds[second]

    return format_


def format_time(t: int) -> str:
    """Instant t as ISO 8601 text, as `datetime.isoformat` spells it."""
    return _time_formatter()(int(t))


class InstanceRecord(NamedTuple):
    case_id: int
    activity_id: str
    resource_id: str
    enable_time: int
    start_time: int
    end_time: int
    batch_id: str
    allocated_cost: float
    work_seconds: int  # pure processing time, idle excluded (not exported)


class BatchRecord(NamedTuple):
    batch_id: str
    activity_id: str
    resource_id: str
    start_time: int
    end_time: int
    members: tuple[int, ...]  # indices into EventLog.instances, waiting order
    cost: float
    busy_seconds: int  # in-calendar work time, idle excluded

    @property
    def size(self) -> int:
        return len(self.members)


class EventLog(NamedTuple):
    instances: tuple[InstanceRecord, ...]
    batches: tuple[BatchRecord, ...]

    @property
    def horizon(self) -> int:
        ends = [b.end_time for b in self.batches]
        return max(ends) if ends else 0


class ObjectiveValues(NamedTuple):
    """The minimized pair: (avg_cycle_time, avg_cost)."""

    avg_cycle_time: float
    avg_cost: float
    total_cycle_time: float
    total_cost: float
    instance_count: int

    @property
    def point(self) -> tuple[float, float]:
        return (self.avg_cycle_time, self.avg_cost)


CYCLE_TIME_FULL = "full"
CYCLE_TIME_WAITING_AND_IDLE = "waiting-and-idle-only"
CYCLE_TIME_MODES = (CYCLE_TIME_FULL, CYCLE_TIME_WAITING_AND_IDLE)


def evaluate_objectives(log: EventLog, cycle_time_mode: str = CYCLE_TIME_FULL) -> ObjectiveValues:
    """Fold a log into the objective pair.

    Per batch, cycle time spans from the earliest member enablement to
    batch completion; in waiting-and-idle-only mode the batch's pure work
    time is subtracted, leaving waiting plus in-execution idle.
    """
    if cycle_time_mode not in CYCLE_TIME_MODES:
        raise ValueError(f"unknown cycle time mode {cycle_time_mode!r}")
    waiting_and_idle = cycle_time_mode == CYCLE_TIME_WAITING_AND_IDLE
    enable_times = [r.enable_time for r in log.instances]
    total_cycle = 0.0
    total_cost = 0.0
    for batch in log.batches:
        members = batch.members
        # a batch of one, the common case, needs no list
        if len(members) == 1:
            earliest = enable_times[members[0]]
        else:
            earliest = min([enable_times[i] for i in members])
        span = batch.end_time - earliest
        if waiting_and_idle:
            span -= batch.busy_seconds
        total_cycle += span
        total_cost += batch.cost
    n = len(log.instances)
    if n == 0:
        return ObjectiveValues(0.0, 0.0, 0.0, 0.0, 0)
    return ObjectiveValues(total_cycle / n, total_cost / n, total_cycle, total_cost, n)


def case_cycle_time(log: EventLog, case_id: int) -> int:
    """Wall time from the case's first instance start to its last completion."""
    records = [r for r in log.instances if r.case_id == case_id]
    if not records:
        raise KeyError(f"case {case_id} not in log")
    return max(r.end_time for r in records) - min(r.start_time for r in records)


def filter_warmup(log: EventLog, warmup: int) -> EventLog:
    """Drop the first `warmup` cases (by case id) from the log.

    Batches keep only surviving members; their cost becomes the sum of the
    survivors' allocated shares, and emptied batches disappear.
    """
    if warmup <= 0:
        return log
    keep = [i for i, r in enumerate(log.instances) if r.case_id >= warmup]
    remap = {old: new for new, old in enumerate(keep)}
    instances = tuple(log.instances[i] for i in keep)
    batches = []
    for b in log.batches:
        survivors = tuple(remap[i] for i in b.members if i in remap)
        if not survivors:
            continue
        cost = running_sum(instances[i].allocated_cost for i in survivors)
        batches.append(b._replace(members=survivors, cost=cost))
    return EventLog(instances, tuple(batches))


# ---------------------------------------------------------------------------
# CSV export

def _csv_text(text: str) -> str:
    """`text` as one field of a csv row: itself unless it holds a comma, a
    quote or a line break, and otherwise the quoted field `csv.writer`
    writes for it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        return buf.getvalue()[:-1]
    return text


def render_event_csv(log: EventLog) -> str:
    time = _time_formatter()
    buf = io.StringIO()
    write = buf.write
    write(EVENT_CSV_HEADER + "\n")
    for r in log.instances:
        write(
            f"{r.case_id},{_csv_text(r.activity_id)},{_csv_text(r.resource_id)},"
            f"{time(r.enable_time)},{time(r.start_time)},{time(r.end_time)},"
            f"{_csv_text(r.batch_id)},{r.allocated_cost!r}\n"
        )
    return buf.getvalue()


def render_batch_csv(log: EventLog) -> str:
    time = _time_formatter()
    buf = io.StringIO()
    write = buf.write
    write(BATCH_CSV_HEADER + "\n")
    for b in log.batches:
        write(
            f"{_csv_text(b.batch_id)},{_csv_text(b.activity_id)},{_csv_text(b.resource_id)},"
            f"{time(b.start_time)},{time(b.end_time)},{len(b.members)},{b.busy_seconds},"
            f"{b.cost!r}\n"
        )
    return buf.getvalue()
