"""Weekly availability calendars on an integer-second timeline.

t = 0 is Monday 00:00.  Weeks repeat indefinitely; there are no holidays
or exceptions.  All calendar arithmetic stays in integer seconds.

A calendar is built once per model and tabulated at construction: its
merged open spans within the week, their starts, and the open seconds of
the week before and through each span.  `next_open` is one bisect, and
`work_end`, `open_seconds_between` and `hour_fraction` are closed forms
over the open seconds counted from t = 0 (see `_open_until`), so none of
them loops over windows however long the work or the span.
"""

from __future__ import annotations

import bisect
import itertools
import re
from typing import NamedTuple

from .records import Record

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

WEEKDAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)
_WEEKDAY_INDEX = {name: i for i, name in enumerate(WEEKDAY_NAMES)}


def weekday_of(t: int) -> int:
    """Weekday index of instant t (0 = Monday)."""
    return (t // SECONDS_PER_DAY) % 7


def hour_of(t: int) -> int:
    """Hour of day of instant t (0..23)."""
    return (t % SECONDS_PER_DAY) // SECONDS_PER_HOUR


def parse_weekday(name: str) -> int:
    """Index of one of `WEEKDAY_NAMES` spelled exactly: no other case and
    no surrounding space."""
    if name not in _WEEKDAY_INDEX:
        raise ValueError(f"unknown weekday name: {name!r}")
    return _WEEKDAY_INDEX[name]


def parse_clock(text: str) -> int:
    """'HH:MM' in ASCII digits -> seconds into the day.  '24:00' is the
    end-of-day bound."""
    match = re.fullmatch(r"([01][0-9]|2[0-3]):([0-5][0-9])|24:00", text)
    if match is None:
        raise ValueError(f"bad clock value: {text!r}")
    return int(match[1] or 24) * SECONDS_PER_HOUR + int(match[2] or 0) * SECONDS_PER_MINUTE


def format_clock(seconds_into_day: int) -> str:
    return f"{seconds_into_day // SECONDS_PER_HOUR:02d}:{(seconds_into_day % SECONDS_PER_HOUR) // 60:02d}"


class Interval(NamedTuple):
    """One weekly availability window, bounded within a single day."""

    weekday: int  # 0 = Monday
    start: int  # seconds into the day, inclusive
    end: int  # seconds into the day, exclusive

    def week_offsets(self) -> tuple[int, int]:
        base = self.weekday * SECONDS_PER_DAY
        return base + self.start, base + self.end


class Calendar(Record):
    """A weekly repeating set of open intervals; calendars compare by
    `intervals` alone.

    A calendar whose merged spans are exactly the whole week, however its
    intervals split it (say, each day in two at some minute), is open at
    every instant: `next_open(t)` is t and `work_end(s, a)` is s + a, so
    both return at once, after the same argument checks as any other
    calendar's."""

    __slots__ = ("intervals", "_spans", "_starts", "_open_before", "_open_through",
                 "_always_open")

    def __init__(self, intervals: tuple[Interval, ...]):
        self.intervals = intervals
        spans = sorted(iv.week_offsets() for iv in intervals)
        merged: list[tuple[int, int]] = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._spans = tuple(merged)
        self._always_open = merged == [(0, SECONDS_PER_WEEK)]
        self._starts = tuple(s for s, _ in merged)
        # open seconds of the week before / through the end of each span
        through = list(itertools.accumulate(e - s for s, e in merged))
        self._open_before = tuple([0] + through[:-1])
        self._open_through = tuple(through)

    @property
    def always_open(self) -> bool:
        """Whether the calendar is open at every instant."""
        return self._always_open

    def _locate(self, offset: int) -> tuple[int, int] | None:
        """The span containing week-offset, or None."""
        i = bisect.bisect_right(self._starts, offset) - 1
        if i >= 0 and self._spans[i][0] <= offset < self._spans[i][1]:
            return self._spans[i]
        return None

    def contains(self, t: int) -> bool:
        return self._locate(t % SECONDS_PER_WEEK) is not None

    def next_open(self, t: int) -> int:
        """Earliest instant >= t that lies inside an open interval."""
        if self._always_open:
            return t
        starts = self._starts
        if not starts:
            raise ValueError("calendar has no intervals")
        offset = t % SECONDS_PER_WEEK
        i = bisect.bisect_right(starts, offset)
        if i and offset < self._spans[i - 1][1]:
            return t
        if i < len(starts):
            return t - offset + starts[i]
        return t - offset + SECONDS_PER_WEEK + starts[0]

    def open_end(self, t: int) -> int:
        """End of the open span containing t.  t must be open."""
        span = self._locate(t % SECONDS_PER_WEEK)
        if span is None:
            raise ValueError(f"instant {t} is not inside an open interval")
        return t - (t % SECONDS_PER_WEEK) + span[1]

    def _open_until(self, t: int) -> int:
        """Open seconds in [0, t), negative for t < 0: the open time of the
        whole weeks before t's week plus that of t's week before t."""
        before, through, starts = self._open_before, self._open_through, self._starts
        week, offset = divmod(t, SECONDS_PER_WEEK)
        count = week * through[-1]
        i = bisect.bisect_right(starts, offset) - 1
        if i >= 0:
            count += min(through[i], before[i] + offset - starts[i])
        return count

    def work_end(self, start: int, amount: int) -> int:
        """Completion instant for `amount` seconds of work begun at `start`.

        Work only progresses inside open intervals; closed stretches pause
        it.  Zero work completes immediately at `start`.

        Closed form: the work ends at the first instant at which the open
        seconds from t = 0 reach n = `_open_until(start) + amount`.  With W
        open seconds a week, that is in week `(n - 1) // W`, in the first
        span whose open seconds through its end reach the rest of n; the
        work ends that far into the span.  A whole number of weeks' open
        time ends at the end of a week's last span, as stepping window by
        window does.
        """
        if amount < 0:
            raise ValueError("work amount must be >= 0")
        if amount == 0:
            return start
        if not self._starts:
            raise ValueError("calendar has no intervals")
        if self._always_open:
            return start + amount
        through = self._open_through
        week, rest = divmod(self._open_until(start) + amount - 1, through[-1])
        rest += 1
        j = bisect.bisect_left(through, rest)
        return week * SECONDS_PER_WEEK + self._starts[j] + rest - self._open_before[j]

    def open_seconds_between(self, a: int, b: int) -> int:
        """Total open seconds in [a, b)."""
        if b <= a or not self._spans:
            return 0
        return self._open_until(b) - self._open_until(a)

    def hour_fraction(self, weekday: int, hour: int) -> float:
        """Fraction of the (weekday, hour) slot covered by open intervals."""
        start = weekday * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
        return self.open_seconds_between(start, start + SECONDS_PER_HOUR) / SECONDS_PER_HOUR

    def windows_from(self, t: int):
        """Yield successive absolute open windows (start, end) with start >= next_open(t).

        Adjacent spans across the week boundary are merged so a window is a
        maximal contiguous open stretch.
        """
        if not self._spans:
            return
        cur = self.next_open(t)
        while True:
            start = cur
            end = self.open_end(start)
            # merge across boundaries (e.g. Sun 23:00-24:00 + Mon 00:00-01:00);
            # cap at a week so a 24x7 calendar yields week-long windows
            while self.contains(end) and end - start < SECONDS_PER_WEEK:
                end = self.open_end(end)
            yield (start, end)
            cur = self.next_open(end)

