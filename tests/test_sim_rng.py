"""Tests of the random-stream registry."""

from __future__ import annotations

from repro.sim import RandomStreams


def test_streams_are_reproducible_across_instances():
    first = RandomStreams(42).stream("disk")
    second = RandomStreams(42).stream("disk")
    draws_first = [first.uniform(0, 1) for _ in range(10)]
    draws_second = [second.uniform(0, 1) for _ in range(10)]
    assert draws_first == draws_second


def test_streams_differ_across_seeds():
    assert (RandomStreams(1).stream("x").uniform(0, 1)
            != RandomStreams(2).stream("x").uniform(0, 1))


def test_streams_are_independent_per_name():
    a = RandomStreams(7).stream("a")
    a_before = [a.uniform(0, 1) for _ in range(3)]
    # Interleaving draws on another stream must not change stream "a".
    streams_again = RandomStreams(7)
    b = streams_again.stream("b")
    _ = [b.uniform(0, 1) for _ in range(100)]
    a_again = streams_again.stream("a")
    a_after = [a_again.uniform(0, 1) for _ in range(3)]
    assert a_before == a_after
