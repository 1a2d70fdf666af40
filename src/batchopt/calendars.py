"""Weekly availability calendars on an integer-second timeline.

t = 0 is Monday 00:00.  Weeks repeat indefinitely; there are no holidays
or exceptions.  All calendar arithmetic stays in integer seconds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

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
_WEEKDAY_INDEX = {name.lower(): i for i, name in enumerate(WEEKDAY_NAMES)}


def weekday_of(t: int) -> int:
    """Weekday index of instant t (0 = Monday)."""
    return (t // SECONDS_PER_DAY) % 7


def hour_of(t: int) -> int:
    """Hour of day of instant t (0..23)."""
    return (t % SECONDS_PER_DAY) // SECONDS_PER_HOUR


def parse_weekday(name: str) -> int:
    key = name.strip().lower()
    if key not in _WEEKDAY_INDEX:
        raise ValueError(f"unknown weekday name: {name!r}")
    return _WEEKDAY_INDEX[key]


def parse_clock(text: str) -> int:
    """'HH:MM' -> seconds into the day.  '24:00' is the end-of-day bound."""
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ValueError(f"bad clock value: {text!r}")
    hh, mm = int(parts[0]), int(parts[1])
    if not (0 <= hh <= 24 and 0 <= mm <= 59) or (hh == 24 and mm != 0):
        raise ValueError(f"bad clock value: {text!r}")
    return hh * SECONDS_PER_HOUR + mm * SECONDS_PER_MINUTE


def format_clock(seconds_into_day: int) -> str:
    return f"{seconds_into_day // SECONDS_PER_HOUR:02d}:{(seconds_into_day % SECONDS_PER_HOUR) // 60:02d}"


@dataclass(frozen=True)
class Interval:
    """One weekly availability window, bounded within a single day."""

    weekday: int  # 0 = Monday
    start: int  # seconds into the day, inclusive
    end: int  # seconds into the day, exclusive

    def week_offsets(self) -> tuple[int, int]:
        base = self.weekday * SECONDS_PER_DAY
        return base + self.start, base + self.end


@dataclass(frozen=True)
class Calendar:
    """A weekly repeating set of open intervals."""

    intervals: tuple[Interval, ...]
    _spans: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hour_fractions: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spans = sorted(iv.week_offsets() for iv in self.intervals)
        merged: list[tuple[int, int]] = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        object.__setattr__(self, "_spans", tuple(merged))
        object.__setattr__(self, "_starts", tuple(s for s, _ in merged))
        fractions = []
        for slot_start in range(0, SECONDS_PER_WEEK, SECONDS_PER_HOUR):
            slot_end = slot_start + SECONDS_PER_HOUR
            covered = 0
            for s, e in merged:
                lo, hi = max(s, slot_start), min(e, slot_end)
                if hi > lo:
                    covered += hi - lo
            fractions.append(covered / SECONDS_PER_HOUR)
        object.__setattr__(self, "_hour_fractions", tuple(fractions))

    @property
    def weekly_open_seconds(self) -> int:
        return sum(e - s for s, e in self._spans)

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
        if not self._spans:
            raise ValueError("calendar has no intervals")
        week_base = t - (t % SECONDS_PER_WEEK)
        offset = t % SECONDS_PER_WEEK
        if self._locate(offset) is not None:
            return t
        i = bisect.bisect_left(self._starts, offset)
        if i < len(self._starts):
            return week_base + self._starts[i]
        return week_base + SECONDS_PER_WEEK + self._starts[0]

    def open_end(self, t: int) -> int:
        """End of the open span containing t.  t must be open."""
        span = self._locate(t % SECONDS_PER_WEEK)
        if span is None:
            raise ValueError(f"instant {t} is not inside an open interval")
        return t - (t % SECONDS_PER_WEEK) + span[1]

    def work_end(self, start: int, amount: int) -> int:
        """Completion instant for `amount` seconds of work begun at `start`.

        Work only progresses inside open intervals; closed stretches pause
        it.  Zero work completes immediately at `start`.
        """
        if amount < 0:
            raise ValueError("work amount must be >= 0")
        if amount == 0:
            return start
        t = self.next_open(start)
        remaining = amount
        while True:
            end = self.open_end(t)
            slice_ = min(remaining, end - t)
            t += slice_
            remaining -= slice_
            if remaining == 0:
                return t
            t = self.next_open(t)

    def open_seconds_between(self, a: int, b: int) -> int:
        """Total open seconds in [a, b)."""
        if b <= a or not self._spans:
            return 0
        full_weeks = (b - a) // SECONDS_PER_WEEK
        total = full_weeks * self.weekly_open_seconds
        t = a + full_weeks * SECONDS_PER_WEEK
        while t < b:
            if self.contains(t):
                end = min(self.open_end(t), b)
                total += end - t
                t = end
            else:
                t = self.next_open(t)
                if t >= b:
                    break
        return total

    def hour_fraction(self, weekday: int, hour: int) -> float:
        """Fraction of the (weekday, hour) slot covered by open intervals."""
        return self._hour_fractions[weekday * 24 + hour]

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


def always_open() -> Calendar:
    """A 24x7 calendar."""
    return Calendar(tuple(Interval(d, 0, SECONDS_PER_DAY) for d in range(7)))
