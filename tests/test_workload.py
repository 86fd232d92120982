"""Tests of the Table 4 parameters, the workload generator and the client pools."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.sim import Simulator
from repro.workload import (ClosedLoopClientPool, OpenLoopClientPool,
                            PAPER_PARAMETERS, SimulationParameters,
                            WorkloadGenerator)
from tests.conftest import build_cluster


def test_paper_parameters_match_table4():
    params = SimulationParameters.paper()
    assert params.item_count == 10_000
    assert params.server_count == 9
    assert params.clients_per_server == 4
    assert params.disks_per_server == 2
    assert params.cpus_per_server == 2
    assert (params.transaction_length_min, params.transaction_length_max) == (10, 20)
    assert params.write_probability == 0.5
    assert params.buffer_hit_ratio == 0.2
    assert (params.read_time_min, params.read_time_max) == (4.0, 12.0)
    assert (params.write_time_min, params.write_time_max) == (4.0, 12.0)
    assert params.cpu_time_per_io == 0.4
    assert params.network_latency == 0.07
    assert params.cpu_time_per_network_op == 0.07
    assert params.total_clients == 36
    assert PAPER_PARAMETERS == params


def test_parameters_table_rendering_matches_paper_rows():
    table = SimulationParameters.paper().as_table()
    assert table["Number of items in the database"] == 10_000
    assert table["Number of Servers"] == 9
    assert table["Probability that an operation is a write"] == "50%"
    assert table["Buffer hit ratio"] == "20%"
    assert table["Time for a read"] == "4 - 12 ms"
    assert table["Time for a message or a broadcast on the Network"] == "0.07 ms"
    assert len(table) == 14


def test_every_parameter_is_a_table4_row_or_an_axis_something_sets():
    # A knob needs a caller to land: each field is either rendered by
    # as_table() (the paper's Table 4) or passed by keyword in some call of
    # an experiment, benchmark, example or test.  A modelling value nobody
    # sets is a module constant next to its one use, not a field.
    as_table = ast.parse(textwrap.dedent(
        inspect.getsource(SimulationParameters.as_table)))
    used = {node.attr for node in ast.walk(as_table)
            if isinstance(node, ast.Attribute)}
    root = Path(__file__).resolve().parent.parent
    for directory in ("src/repro/experiments", "benchmarks", "examples",
                      "tests"):
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= {node.arg for node in ast.walk(tree)
                     if isinstance(node, ast.keyword)}
    fields = [field.name for field in dataclasses.fields(SimulationParameters)]
    assert [name for name in fields if name not in used] == []
    assert len(fields) == 24


def test_parameter_overrides_and_small_profile():
    params = SimulationParameters.small(server_count=5)
    assert params.server_count == 5
    tweaked = params.with_overrides(write_probability=0.3)
    assert tweaked.write_probability == 0.3
    assert params.write_probability == 0.5       # original untouched
    assert params.server_names() == ["s1", "s2", "s3", "s4", "s5"]
    assert params.mean_transaction_length == 15.0
    assert params.mean_disk_read_time == 8.0


def test_generator_respects_length_and_write_probability():
    sim = Simulator(seed=11)
    params = SimulationParameters.paper()
    generator = WorkloadGenerator(sim, params)
    programs = generator.batch(200)
    lengths = [program.length for program in programs]
    assert min(lengths) >= 10 and max(lengths) <= 20
    operations = [op for program in programs for op in program.operations]
    write_fraction = sum(op.is_write for op in operations) / len(operations)
    assert 0.45 < write_fraction < 0.55
    keys = {op.key for op in operations}
    assert all(key.startswith("item-") for key in keys)
    assert generator.generated_count == 200


def test_generator_is_deterministic_per_seed():
    def spec(seed):
        generator = WorkloadGenerator(Simulator(seed=seed),
                                      SimulationParameters.small())
        return [(op.op_type, op.key) for program in generator.batch(20)
                for op in program.operations]

    assert spec(5) == spec(5)
    assert spec(5) != spec(6)


def test_update_only_program_and_validation():
    sim = Simulator(seed=1)
    generator = WorkloadGenerator(sim, SimulationParameters.small())
    program = generator.update_only_program(4, client="x")
    assert program.length == 4
    assert program.is_read_only is False
    assert all(op.is_write for op in program.operations)
    with pytest.raises(ValueError):
        WorkloadGenerator(sim, SimulationParameters.small(), item_keys=[])
    with pytest.raises(ValueError):
        generator.interarrival_time(0.0)


def test_interarrival_times_match_the_offered_load():
    sim = Simulator(seed=2)
    generator = WorkloadGenerator(sim, SimulationParameters.small())
    gaps = [generator.interarrival_time(40.0) for _ in range(2000)]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(25.0, rel=0.1)    # 40 tps -> 25 ms


def test_open_loop_pool_drives_the_cluster():
    # Use a larger item set than the default test profile so that the
    # certification abort rate stays in a realistic range.
    cluster = build_cluster("group-safe", seed=21, item_count=2_000)
    pool = OpenLoopClientPool(cluster, load_tps=30.0, warmup=500.0)
    pool.start()
    cluster.run(until=4_000.0)
    assert pool.submitted_count > 50
    assert pool.committed
    assert 0.0 <= pool.abort_rate() <= 0.25
    assert pool.mean_response_time() > 0.0
    # Warm-up results are kept separately.
    assert all(result.committed is not None for result in pool.warmup_results)
    with pytest.raises(ValueError):
        OpenLoopClientPool(cluster, load_tps=0.0)


def test_closed_loop_pool_and_target_load_helper():
    cluster = build_cluster("1-safe", seed=22)
    pool = ClosedLoopClientPool.for_target_load(cluster, load_tps=20.0,
                                                expected_response_time=120.0)
    assert pool.think_time_mean > 0
    pool.start()
    cluster.run(until=4_000.0)
    assert pool.submitted_count > 10
    assert pool.committed
    with pytest.raises(ValueError):
        ClosedLoopClientPool(cluster, think_time_mean=0.0)
