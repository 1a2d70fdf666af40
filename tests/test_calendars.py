import pytest
from hypothesis import given, strategies as st

from batchopt.calendars import (
    Calendar,
    Interval,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    hour_of,
    parse_clock,
    weekday_of,
)

H = SECONDS_PER_HOUR
MON8_12 = Calendar((Interval(0, 8 * H, 12 * H),))
WEEKDAYS_8_12 = Calendar(tuple(Interval(d, 8 * H, 12 * H) for d in range(5)))


def test_epoch_is_monday_midnight():
    assert weekday_of(0) == 0
    assert hour_of(0) == 0
    assert weekday_of(SECONDS_PER_DAY) == 1
    assert weekday_of(6 * SECONDS_PER_DAY) == 6
    assert weekday_of(SECONDS_PER_WEEK) == 0
    assert hour_of(8 * H + 1800) == 8


def test_parse_clock():
    assert parse_clock("08:00") == 8 * H
    assert parse_clock("24:00") == SECONDS_PER_DAY
    with pytest.raises(ValueError):
        parse_clock("25:00")
    with pytest.raises(ValueError):
        parse_clock("8")
    # only HH:MM in ASCII digits, nothing `int()` would also take
    for text in ("1_0:00", "9:5", "9:05", "+1:00", " 9 : 05", "\u0663:00", "24:01", "09:60"):
        with pytest.raises(ValueError):
            parse_clock(text)


def test_contains_and_next_open():
    cal = MON8_12
    assert not cal.contains(0)
    assert cal.contains(8 * H)
    assert cal.contains(12 * H - 1)
    assert not cal.contains(12 * H)
    assert cal.next_open(0) == 8 * H
    assert cal.next_open(9 * H) == 9 * H
    # after Monday noon the next window is the following Monday
    assert cal.next_open(12 * H) == SECONDS_PER_WEEK + 8 * H


def test_work_end_within_window():
    assert MON8_12.work_end(8 * H, 2 * H) == 10 * H
    assert MON8_12.work_end(0, 2 * H) == 10 * H  # waits for opening


def test_work_end_pauses_over_closed_stretch():
    # 4h window fits 4h; the 5th hour resumes the following Monday
    end = MON8_12.work_end(8 * H, 5 * H)
    assert end == SECONDS_PER_WEEK + 9 * H


def test_work_end_zero_amount():
    assert MON8_12.work_end(13 * H, 0) == 13 * H


def test_open_seconds_between():
    cal = WEEKDAYS_8_12
    assert cal.open_seconds_between(0, SECONDS_PER_WEEK) == 5 * 4 * H
    assert cal.open_seconds_between(0, SECONDS_PER_DAY) == 4 * H
    assert cal.open_seconds_between(9 * H, 10 * H) == H
    assert cal.open_seconds_between(0, 2 * SECONDS_PER_WEEK) == 2 * 5 * 4 * H
    assert cal.open_seconds_between(10 * H, 10 * H) == 0
    assert Calendar(()).open_seconds_between(0, SECONDS_PER_WEEK) == 0


def test_hour_fraction():
    cal = Calendar((Interval(0, 8 * H + 1800, 12 * H),))
    assert cal.hour_fraction(0, 8) == 0.5
    assert cal.hour_fraction(0, 9) == 1.0
    assert cal.hour_fraction(0, 12) == 0.0
    assert cal.hour_fraction(1, 9) == 0.0


def test_windows_merge_across_week_boundary():
    cal = Calendar((Interval(6, 22 * H, SECONDS_PER_DAY), Interval(0, 0, 2 * H)))
    windows = cal.windows_from(5 * SECONDS_PER_DAY)
    start, end = next(windows)
    assert start == 6 * SECONDS_PER_DAY + 22 * H
    assert end == SECONDS_PER_WEEK + 2 * H


def test_windows_always_open_capped():
    always_open = Calendar(tuple(Interval(d, 0, SECONDS_PER_DAY) for d in range(7)))
    gen = always_open.windows_from(0)
    start, end = next(gen)
    assert start == 0 and end >= SECONDS_PER_WEEK


def test_overlapping_intervals_merge():
    cal = Calendar((Interval(0, 8 * H, 10 * H), Interval(0, 9 * H, 12 * H)))
    assert cal.open_end(8 * H) == 12 * H
    assert cal.open_seconds_between(0, SECONDS_PER_WEEK) == 4 * H


@given(st.integers(min_value=0, max_value=4 * SECONDS_PER_WEEK), st.integers(min_value=0, max_value=10 * H))
def test_work_end_progresses_only_in_open_time(start, amount):
    cal = WEEKDAYS_8_12
    end = cal.work_end(start, amount)
    assert end >= start
    assert cal.open_seconds_between(min(cal.next_open(start), end), end) == amount


@given(st.integers(min_value=0, max_value=4 * SECONDS_PER_WEEK))
def test_next_open_is_open_and_minimal(t):
    cal = WEEKDAYS_8_12
    t2 = cal.next_open(t)
    assert t2 >= t
    assert cal.contains(t2)
    if t2 > t:
        assert not cal.contains(t)


def stepped_work_end(cal, start, amount):
    """Reference: work window by window, from each next opening to the end
    of the span it lies in."""
    if amount == 0:
        return start
    t = cal.next_open(start)
    while True:
        step = min(amount, cal.open_end(t) - t)
        t += step
        amount -= step
        if amount == 0:
            return t
        t = cal.next_open(t)


@st.composite
def week_calendars(draw):
    """1-7 weekdays, each open all day, from midnight, until midnight or
    in between, so spans often meet across day and week boundaries."""
    intervals = []
    for day in draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True)):
        start = draw(st.sampled_from([0, draw(st.integers(0, SECONDS_PER_DAY - 1))]))
        end = draw(st.sampled_from([SECONDS_PER_DAY, draw(st.integers(start + 1, SECONDS_PER_DAY))]))
        intervals.append(Interval(day, start, end))
    return Calendar(tuple(intervals))


@given(
    week_calendars(),
    st.integers(-3 * SECONDS_PER_WEEK, 6 * SECONDS_PER_WEEK),
    st.integers(0, 12),
    st.one_of(st.just(0), st.integers(0, 1000), st.fractions(0, 1)),
)
def test_closed_form_work_end_matches_stepping(cal, start, weeks, part):
    # up to 12 weeks of the calendar's open time plus a part of a week's
    # (whole weeks included), so the reference steps through at most ~90
    # windows however little the calendar is open
    weekly = cal.open_seconds_between(0, SECONDS_PER_WEEK)
    amount = weeks * weekly + (part if isinstance(part, int) else int(part * weekly))
    assert cal.work_end(start, amount) == stepped_work_end(cal, start, amount)


def walked_open_seconds(cal, a, b):
    """Reference: whole weeks' open time, then the rest of [a, b) walked
    window by window."""
    if b <= a or not cal.intervals:
        return 0
    full_weeks = (b - a) // SECONDS_PER_WEEK
    total = full_weeks * sum(iv.end - iv.start for iv in cal.intervals)
    t = a + full_weeks * SECONDS_PER_WEEK
    while t < b:
        if cal.contains(t):
            end = min(cal.open_end(t), b)
            total += end - t
            t = end
        else:
            t = cal.next_open(t)
    return total


@given(
    week_calendars(),
    st.integers(-3 * SECONDS_PER_WEEK, 6 * SECONDS_PER_WEEK),
    st.one_of(st.integers(-SECONDS_PER_DAY, 2 * SECONDS_PER_DAY),
              st.integers(0, 5 * SECONDS_PER_WEEK)),
)
def test_open_seconds_between_matches_walking_windows(cal, a, span):
    assert cal.open_seconds_between(a, a + span) == walked_open_seconds(cal, a, a + span)


@st.composite
def whole_week_calendars(draw):
    """The whole week, each day open all day or split in two at a drawn
    minute, so most are open all week only once adjacent intervals merge."""
    intervals = []
    for day in range(7):
        split = draw(st.one_of(st.just(0), st.integers(1, 24 * 60 - 1))) * 60
        if split:
            intervals += [Interval(day, 0, split), Interval(day, split, SECONDS_PER_DAY)]
        else:
            intervals.append(Interval(day, 0, SECONDS_PER_DAY))
    return Calendar(tuple(intervals))


@given(
    whole_week_calendars(),
    st.integers(-3 * SECONDS_PER_WEEK, 6 * SECONDS_PER_WEEK),
    st.integers(0, 3 * SECONDS_PER_WEEK),
)
def test_a_whole_week_calendar_is_open_at_every_instant(cal, t, amount):
    assert cal._always_open
    assert cal.next_open(t) == t
    assert cal.work_end(t, amount) == t + amount == stepped_work_end(cal, t, amount)
    assert cal.open_seconds_between(t, t + amount) == amount


@given(
    st.one_of(week_calendars(), whole_week_calendars()),
    st.integers(0, 6),
    st.integers(0, 23),
)
def test_hour_fraction_counts_the_open_seconds_of_the_slot(cal, weekday, hour):
    slot = weekday * SECONDS_PER_DAY + hour * H
    open_seconds = sum(1 for t in range(slot, slot + H) if cal.contains(t))
    assert cal.hour_fraction(weekday, hour) == open_seconds / H


def test_work_end_runs_on_across_the_week_boundary():
    # Sunday evening and Monday morning meet at the week boundary
    cal = Calendar((Interval(6, 22 * H, SECONDS_PER_DAY), Interval(0, 0, 2 * H)))
    sunday_22 = 6 * SECONDS_PER_DAY + 22 * H
    assert cal.work_end(sunday_22, 3 * H) == SECONDS_PER_WEEK + H
    # a whole week's open time ends at the end of the week's last span
    assert cal.work_end(0, 4 * H) == sunday_22 + 2 * H
    assert cal.work_end(0, 4 * H) == stepped_work_end(cal, 0, 4 * H)


def test_work_end_rejects_negative_work_and_empty_calendars():
    with pytest.raises(ValueError):
        MON8_12.work_end(0, -1)
    with pytest.raises(ValueError):
        Calendar(()).work_end(0, 1)
    assert Calendar(()).work_end(5, 0) == 5


@pytest.mark.parametrize("day, minute", [(6, 23 * 60 + 59), (2, 12 * 60), (0, 0)])
def test_a_week_closed_for_one_minute_pauses_over_it(day, minute):
    closed = day * SECONDS_PER_DAY + minute * 60
    intervals = [Interval(d, 0, SECONDS_PER_DAY) for d in range(7) if d != day]
    if minute:
        intervals.append(Interval(day, 0, minute * 60))
    intervals.append(Interval(day, minute * 60 + 60, SECONDS_PER_DAY))
    cal = Calendar(tuple(intervals))
    assert cal.next_open(closed) == closed + 60
    assert cal.next_open(closed + 59) == closed + 60
    assert cal.next_open(closed + 60) == closed + 60
    # work begun just before the closed minute pauses over it
    assert cal.work_end(closed - 30, 90) == closed + 120
    # a week of work from the closed minute waits it out, then meets it once more
    assert cal.work_end(closed, SECONDS_PER_WEEK) == closed + SECONDS_PER_WEEK + 120
