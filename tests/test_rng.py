import copy
import math
from hashlib import blake2b

from hypothesis import given, strategies as st
from test_engine_properties import seed_free

from batchopt import engine, rng
from batchopt.engine import SimConfig, _Engine, compile_model
from batchopt.fixtures import get_fixture
from batchopt.model import fixed, parse_model


def test_unit_is_deterministic_and_keyed():
    a = rng.unit(7, "durations", "case-1", "act", 0)
    b = rng.unit(7, "durations", "case-1", "act", 0)
    assert a == b
    assert rng.unit(7, "durations", "case-1", "act", 1) != a
    assert rng.unit(8, "durations", "case-1", "act", 0) != a


def test_unit_range():
    for i in range(1000):
        u = rng.unit(3, i)
        assert 0.0 <= u < 1.0


def test_stream_sequence_reproducible():
    s1 = rng.Stream(42, "arrivals")
    s2 = rng.Stream(42, "arrivals")
    assert [s1.next_unit() for _ in range(10)] == [s2.next_unit() for _ in range(10)]
    other = rng.Stream(42, "branching")
    assert other.next_unit() != rng.Stream(42, "arrivals").next_unit()


def test_unit_roughly_uniform():
    n = 5000
    mean = sum(rng.unit(11, i) for i in range(n)) / n
    assert abs(mean - 0.5) < 0.02


def test_exponential_inverse_cdf():
    # u = 1 - e^(-x/mean)  =>  x = -mean ln(1-u)
    assert rng.exponential(0.0, 100.0) == 0.0
    assert math.isclose(rng.exponential(1 - math.exp(-1), 100.0), 100.0, rel_tol=1e-9)


@given(st.floats(min_value=0.0, max_value=0.999999), st.floats(min_value=0.1, max_value=1e4))
def test_exponential_nonnegative(u, mean):
    assert rng.exponential(u, mean) >= 0.0


@given(
    st.floats(min_value=0.0, max_value=0.999999),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_normal_truncated_nonnegative(u, mean, stddev):
    assert rng.normal_truncated(u, mean, stddev) >= 0.0


def test_normal_truncation_is_exact_not_clamped():
    # with mean 0 the surviving tail is the positive half; the median draw
    # must land at the 75th percentile of the untruncated normal, not at 0
    from statistics import NormalDist

    x = rng.normal_truncated(0.5, 0.0, 1.0)
    assert math.isclose(x, NormalDist(0.0, 1.0).inv_cdf(0.75), rel_tol=1e-9)


def reference_mix(seed, *key):
    """The draw digest spelled out: a fresh keyed blake2b, one update per
    key part and one per separator."""
    h = blake2b(digest_size=8, key=(seed % 2**64).to_bytes(8, "little"))
    for part in key:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


seeds = st.integers(-(2**80), 2**80)
key_parts = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=12))


@given(seeds, st.lists(key_parts, max_size=6))
def test_one_copy_draw_matches_a_fresh_hasher(seed, key):
    expected = reference_mix(seed, *key) / 2**64
    assert rng.unit(seed, *key) == expected
    assert rng.keyed_unit(rng.hasher(seed), rng.message(*key)) == expected


@given(
    seeds,
    st.sampled_from(["durations", "branching"]),
    st.integers(0, 2**40),
    st.text(max_size=12),
    st.integers(0, 2**20),
    st.one_of(st.none(), st.text(max_size=12)),
)
def test_visit_draw_matches_a_fresh_hasher(seed, label, case_id, node, visit, part):
    key = (label, case_id, node, visit) + (() if part is None else (part,))
    extra = b"" if part is None else rng.message(part)
    u = rng.visit_unit(rng.hasher(seed), rng.message(label), case_id, rng.message(node), visit, extra)
    assert u == reference_mix(seed, *key) / 2**64
    assert engine._DURATIONS == rng.message("durations")
    assert engine._BRANCHING == rng.message("branching")
    assert engine._FALLBACK == rng.message("fallback")


@given(seeds, st.text(max_size=12))
def test_stream_matches_a_fresh_hasher(seed, label):
    stream = rng.Stream(seed, label)
    child = reference_mix(seed, "stream", label)
    assert [stream.next_unit() for _ in range(3)] == [
        reference_mix(child, i) / 2**64 for i in range(3)
    ]


def test_fixed_durations_draw_nothing(monkeypatch):
    # keyed draws let the engine skip the draw of a fixed duration without
    # shifting any other draw; the sample ignores u anyway
    assert fixed(3600.4).sample(0.0) == fixed(3600.4).sample(0.99)
    draws = []
    real = rng.visit_unit
    monkeypatch.setattr(rng, "visit_unit", lambda *key: draws.append(key) or real(*key))
    # one activity, `ticket`, with a fixed 600 s duration
    doc = get_fixture("two-batch").model_doc
    log = _Engine(compile_model(parse_model(doc)), {}, SimConfig(seed=5)).run()
    assert log.instances and {r.work_seconds for r in log.instances} == {600}
    assert draws == []
    # the same model with a normal duration draws once per instance
    doc = copy.deepcopy(doc)
    doc["activities"][0]["duration"] = {"kind": "normal", "mean": 600.0, "stddev": 120.0}
    log = _Engine(compile_model(parse_model(doc)), {}, SimConfig(seed=5)).run()
    assert len(draws) == len(log.instances) > 0


def test_seed_free_model_draws_nothing(monkeypatch):
    # a fixed inter-arrival time is not drawn either, so a seed-free model
    # takes no draw from any stream
    draws = []
    real_visit, real_next = rng.visit_unit, rng.Stream.next_unit
    monkeypatch.setattr(rng, "visit_unit", lambda *key: draws.append(key) or real_visit(*key))
    monkeypatch.setattr(
        rng.Stream, "next_unit", lambda stream: draws.append(stream) or real_next(stream)
    )
    fixture = get_fixture("circadian")
    model = fixture.model()
    assert seed_free(model)
    log = _Engine(compile_model(model), fixture.policies(), SimConfig(seed=5)).run()
    assert log.instances and draws == []
    # an exponential inter-arrival time draws once per case
    doc = copy.deepcopy(fixture.model_doc)
    doc["arrival"]["interArrival"] = {"kind": "exponential", "mean": 3600.0}
    model = parse_model(doc)
    assert not seed_free(model)
    log = _Engine(compile_model(model), fixture.policies(), SimConfig(seed=5)).run()
    assert len(draws) == len({r.case_id for r in log.instances}) > 0
