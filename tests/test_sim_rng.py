"""Tests of the random-stream registry."""

from __future__ import annotations

import pytest

from repro.sim import RandomStreams


def test_streams_are_reproducible_across_instances():
    first = RandomStreams(42)
    second = RandomStreams(42)
    draws_first = [first.uniform("disk", 0, 1) for _ in range(10)]
    draws_second = [second.uniform("disk", 0, 1) for _ in range(10)]
    assert draws_first == draws_second


def test_streams_differ_across_seeds():
    assert (RandomStreams(1).uniform("x", 0, 1)
            != RandomStreams(2).uniform("x", 0, 1))


def test_streams_are_independent_per_name():
    streams = RandomStreams(7)
    a_before = [streams.uniform("a", 0, 1) for _ in range(3)]
    # Interleaving draws on another stream must not change stream "a".
    streams_again = RandomStreams(7)
    _ = [streams_again.uniform("b", 0, 1) for _ in range(100)]
    a_after = [streams_again.uniform("a", 0, 1) for _ in range(3)]
    assert a_before == a_after


def test_randint_and_choice_and_bernoulli():
    streams = RandomStreams(3)
    values = [streams.randint("len", 10, 20) for _ in range(200)]
    assert all(10 <= value <= 20 for value in values)
    population = ["x", "y", "z"]
    assert streams.choice("pick", population) in population
    flips = [streams.bernoulli("flip", 0.5) for _ in range(500)]
    assert 0.3 < sum(flips) / len(flips) < 0.7
    with pytest.raises(ValueError):
        streams.bernoulli("flip", 1.5)


def test_stream_names_recorded():
    streams = RandomStreams(0)
    streams.uniform("one", 0, 1)
    streams.randint("two", 1, 2)
    assert set(streams.stream_names()) == {"one", "two"}
