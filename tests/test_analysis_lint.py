"""Every lint rule: must-flag, must-pass, and suppression-respected fixtures,
plus the two repo-level gates — ``src/repro`` lints clean, and the committed
violation fixture tree fails with one finding per rule."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (FloatTimeArithRule, LayerContractRule,
                            OrderingHazardRule, SlotsConsistencyRule,
                            UnseededRngRule, UnusedSurfaceRule, WallClockRule,
                            default_rules, run_lint)
from repro.analysis.lint import main as lint_main

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "lint_violations"


def lint_tree(tmp_path, files, rules):
    tmp_path.mkdir(parents=True, exist_ok=True)
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(tmp_path, rules)


def rule_names(report):
    return [finding.rule for finding in report.findings]


# -- wall-clock ---------------------------------------------------------------------------


def test_wall_clock_flags_time_and_datetime_reads(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            import time
            import datetime as dt
            from time import perf_counter as pc

            def f():
                return time.monotonic() + pc()

            def g():
                return dt.datetime.now()
            """,
    }, [WallClockRule()])
    assert rule_names(report) == ["wall-clock"] * 3
    assert {finding.line for finding in report.findings} == {6, 9}


def test_wall_clock_suppression_respected(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            import time

            def stamp():
                return time.time()  # repro: allow(wall-clock): host-side harness timing
            """,
    }, [WallClockRule()])
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0][1] == "host-side harness timing"


# -- unseeded-rng -------------------------------------------------------------------------


def test_unseeded_rng_flags_module_and_from_imports(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            import random
            from random import Random

            def f():
                return random.randint(0, 9) + Random(4).random()
            """,
    }, [UnseededRngRule(exempt_modules=())])
    assert rule_names(report) == ["unseeded-rng"] * 2


def test_unseeded_rng_exempts_the_interning_module_and_streams(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/rng.py": """\
            import random

            def make(seed):
                return random.Random(seed)
            """,
        "model.py": """\
            def f(streams):
                return streams.stream("arrivals").random()
            """,
    }, [UnseededRngRule()])
    assert report.findings == []


def test_unseeded_rng_suppression_respected(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            import random

            # repro: allow(unseeded-rng): fixture generator, not simulated code
            TOKEN = random.getrandbits(32)
            """,
    }, [UnseededRngRule(exempt_modules=())])
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- ordering-hazard ----------------------------------------------------------------------


def test_ordering_hazard_flags_unsorted_iteration(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/model.py": """\
            def drain(pending, extras):
                for callback in pending.values():
                    callback()
                return [key for key in pending.keys()] + list(set(extras))
            """,
    }, [OrderingHazardRule()])
    assert rule_names(report) == ["ordering-hazard"] * 3


def test_ordering_hazard_passes_order_insensitive_consumers(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/model.py": """\
            def f(table, extras):
                total = sorted(table.keys())
                floor = min(table.values())
                present = "x" in set(extras)
                members = {item for item in table.values()}
                every = all(flag for flag in table.values())
                return total, floor, present, members, every
            """,
    }, [OrderingHazardRule()])
    assert report.findings == []


def test_ordering_hazard_scoped_to_schedule_affecting_modules(tmp_path):
    source = """\
        def drain(pending):
            for callback in pending.values():
                callback()
        """
    scoped = lint_tree(tmp_path / "a", {"sim/model.py": source},
                       [OrderingHazardRule()])
    outside = lint_tree(tmp_path / "b", {"obs/model.py": source},
                        [OrderingHazardRule()])
    assert rule_names(scoped) == ["ordering-hazard"]
    assert outside.findings == []


def test_ordering_hazard_suppression_respected(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/model.py": """\
            def drain(pending):
                # repro: allow(ordering-hazard): insertion order is arrival order
                for callback in pending.values():
                    callback()
            """,
    }, [OrderingHazardRule()])
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- slots-consistency --------------------------------------------------------------------


def test_slots_rule_flags_unslotted_hot_path_class(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/events.py": """\
            class Bare:
                def __init__(self):
                    self.when = 0.0
            """,
    }, [SlotsConsistencyRule()])
    assert rule_names(report) == ["slots-consistency"]
    assert "Bare" in report.findings[0].message


def test_slots_rule_accepts_slots_dataclass_and_exceptions(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/events.py": """\
            from dataclasses import dataclass

            class Slotted:
                __slots__ = ("when",)

            @dataclass(frozen=True, slots=True)
            class Record:
                when: float

            class KernelError(RuntimeError):
                pass
            """,
        "other/module.py": """\
            class ColdPath:
                pass
            """,
    }, [SlotsConsistencyRule()])
    assert report.findings == []


def test_slots_rule_suppression_respected(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/events.py": """\
            # repro: allow(slots-consistency): debug-only class, never on the hot path
            class Inspector:
                pass
            """,
    }, [SlotsConsistencyRule()])
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- float-time-arith ---------------------------------------------------------------------


def test_float_time_rule_flags_exact_equality(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            def same(a, b, now):
                return a.deliver_at == b.deliver_at or now != b.sent_at
            """,
    }, [FloatTimeArithRule()])
    assert rule_names(report) == ["float-time-arith"] * 2


def test_float_time_rule_passes_bounds_and_sentinels(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            def ok(a, b, kind):
                ordered = a.deliver_at < b.deliver_at <= b.deadline
                unset = a.granted_at == None
                tag = kind == "tick"
                return ordered, unset, tag
            """,
    }, [FloatTimeArithRule()])
    assert report.findings == []


def test_float_time_rule_suppression_respected(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            def exact(a, b):
                # repro: allow(float-time-arith): both sides are the same interned constant
                return a.deliver_at == b.deliver_at
            """,
    }, [FloatTimeArithRule()])
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- layer-contract -----------------------------------------------------------------------

#: Pre-dedented stub decorators; concatenated with dedented class bodies, so
#: the combined source has uniform zero indentation.
_LAYER_PRELUDE = textwrap.dedent("""\
    def implements(layer):
        def decorate(cls):
            return cls
        return decorate

    def uses(layer):
        def decorate(cls):
            return cls
        return decorate

    """)


def test_layer_rule_flags_upward_uses_and_unknown_layer(tmp_path):
    report = lint_tree(tmp_path, {
        "stack.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("links")
            @uses("membership")
            class Upward:
                pass

            @implements("transport")
            class Unknown:
                pass
            """),
    }, [LayerContractRule()])
    assert sorted(rule_names(report)) == ["layer-contract", "layer-contract"]
    messages = " / ".join(f.message for f in report.findings)
    assert "upward dependency" in messages
    assert "unknown protocol layer" in messages


def test_layer_rule_allows_downward_and_equal_layer_uses(tmp_path):
    report = lint_tree(tmp_path, {
        "stack.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("total_order")
            @uses("reliable_broadcast")
            class Sequencer:
                pass

            @implements("total_order")
            @uses("total_order")
            class LoggingSequencer(Sequencer):
                pass
            """),
    }, [LayerContractRule()])
    assert report.findings == []


def test_layer_rule_flags_upward_import_between_modules(tmp_path):
    report = lint_tree(tmp_path, {
        "__init__.py": "",
        "low.py": _LAYER_PRELUDE + textwrap.dedent("""\
            from .high import Member

            @implements("links")
            class Link:
                pass
            """),
        "high.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("membership")
            class Member:
                pass
            """),
    }, [LayerContractRule()])
    assert rule_names(report) == ["layer-contract"]
    assert "upward import" in report.findings[0].message
    assert report.findings[0].path == "low.py"


def test_layer_rule_strict_adjacency_flags_skip_layer(tmp_path):
    report = lint_tree(tmp_path, {
        "stack.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("membership")
            @uses("links")
            class SkipsPastTotalOrder:
                pass
            """),
    }, [LayerContractRule()])
    assert rule_names(report) == ["layer-contract"]
    assert "skip-layer" in report.findings[0].message
    assert "past 'total_order'" in report.findings[0].message


def test_layer_rule_strict_adjacency_treats_failure_detector_as_oracle(
        tmp_path):
    # The failure detector is consulted, never routed through: any layer may
    # reach down to it, and it is transparent when computing adjacency (a
    # reliable-broadcast primitive sits directly on the links).
    report = lint_tree(tmp_path, {
        "stack.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("reliable_broadcast")
            @uses("links")
            class PointToPointFlood:
                pass

            @implements("membership")
            @uses("total_order")
            @uses("failure_detector")
            class ViewManager:
                pass
            """),
    }, [LayerContractRule()])
    assert report.findings == []


def test_layer_rule_strict_adjacency_exempts_the_application_layer(tmp_path):
    # The top of the stack is the application: replication composition
    # roots wire every layer below them by design.
    report = lint_tree(tmp_path, {
        "stack.py": _LAYER_PRELUDE + textwrap.dedent("""\
            @implements("replication")
            @uses("membership")
            @uses("total_order")
            @uses("links")
            class CompositionRoot:
                pass
            """),
    }, [LayerContractRule()])
    assert report.findings == []


# -- unused-surface -----------------------------------------------------------------------


def lint_checkout(tmp_path, package, consumers=None):
    """Lint ``tmp_path/src/repro`` holding ``package``; ``consumers`` are
    further files of the checkout (``benchmarks/``, ``examples/``, ``tests/``)."""
    for relpath, source in (consumers or {}).items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_tree(tmp_path / "src" / "repro", package, [UnusedSurfaceRule()])


def test_unused_surface_flags_names_only_tests_or_reexports_use(tmp_path):
    report = lint_checkout(tmp_path, {
        "__init__.py": """\
            from .model import exported

            __all__ = ["exported"]
            """,
        "model.py": """\
            def exported():
                return 1

            def tested():
                return 2

            def recursive(n):
                return recursive(n - 1) if n else 0

            class Box:
                def unused(self):
                    return self
            """,
    }, consumers={
        "tests/test_model.py": """\
            from repro.model import Box, recursive, tested

            def test_it():
                assert tested() == 2 and recursive(3) == 0
                assert Box().unused()
            """,
    })
    assert rule_names(report) == ["unused-surface"] * 5
    assert [finding.message.split()[2] for finding in report.findings] == [
        "exported", "tested", "recursive", "Box", "Box.unused"]


def test_unused_surface_counts_siblings_consumers_and_getattr(tmp_path):
    report = lint_checkout(tmp_path, {
        "a.py": """\
            LIMIT = 3

            def sibling():
                return 1

            def benched():
                return 2

            def exampled():
                return 3

            def helper():
                return 4

            def _run():
                return helper()

            class Holder:
                @property
                def looked_up(self):
                    return 5
            """,
        "b.py": """\
            from .a import LIMIT, Holder, sibling

            def _use():
                return getattr(Holder(), "looked_up") + sibling() + LIMIT
            """,
    }, consumers={
        "benchmarks/ledger/bench_a.py": """\
            from repro.a import benched
            """,
        "examples/example_a.py": """\
            import repro.a

            print(repro.a.exampled())
            """,
    })
    assert report.findings == []


def test_unused_surface_suppression_respected(tmp_path):
    report = lint_checkout(tmp_path, {
        "model.py": """\
            # repro: allow(unused-surface): tests observe the backlog with it
            def probe():
                return 0

            class Box:
                # repro: allow(unused-surface): reference oracle of the tests
                @property
                def size(self):
                    return 0

            _BOX = Box()
            """,
    })
    assert report.findings == []
    assert len(report.suppressed) == 2


# -- suppression machinery ----------------------------------------------------------------


def test_suppression_without_justification_is_itself_a_finding(tmp_path):
    report = lint_tree(tmp_path, {
        "model.py": """\
            import time

            def stamp():
                return time.time()  # repro: allow(wall-clock)
            """,
    }, [WallClockRule()])
    assert sorted(rule_names(report)) == ["suppression-syntax", "wall-clock"]


def test_suppression_only_covers_its_named_rules(tmp_path):
    report = lint_tree(tmp_path, {
        "sim/model.py": """\
            import time

            def f(pending):
                # repro: allow(ordering-hazard): arrival order is the contract
                for callback in pending.values():
                    callback(time.time())
            """,
    }, [WallClockRule(), OrderingHazardRule()])
    # The ordering hazard is silenced; the wall-clock read on the covered
    # line is not, because the suppression names a different rule.
    assert rule_names(report) == ["wall-clock"]
    assert len(report.suppressed) == 1


# -- repo-level gates ---------------------------------------------------------------------


def test_repo_lints_clean_with_active_suppressions():
    root = Path(repro.__file__).resolve().parent
    report = run_lint(root, default_rules())
    assert report.findings == []
    # Non-vacuity: the sweep documented real exceptions, so the clean result
    # must come from justified suppressions, not from rules never firing.
    # The per-rule totals are a ratchet: lower them when a suppressed name
    # goes, never raise them to admit a new one.
    by_rule = {}
    for finding, _ in report.suppressed:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    assert by_rule == {"ordering-hazard": 6, "unused-surface": 14}
    assert report.files > 50


def test_repo_lints_clean_under_strict_layers():
    # The decomposed broadcast stack routes every layer through its
    # neighbour: the layer contract, skip-layer check included, passes with
    # no layer-contract suppression anywhere in the tree.
    root = Path(repro.__file__).resolve().parent
    report = run_lint(root, [LayerContractRule()])
    assert report.findings == []
    assert report.suppressed == []
    assert report.files > 50


def test_fixture_tree_fails_with_one_finding_per_rule():
    # layer-contract carries a second, gcs-specific case: an upward
    # dependency inside the decomposed broadcast stack; wall-clock and
    # unseeded-rng carry a second, fault-injection case (network/faults.py):
    # an un-interned loss draw and a wall-clock fault timestamp.  Nothing
    # uses the fixtures' public helpers, so unused-surface fires on each.
    report = run_lint(FIXTURE_TREE, default_rules())
    counts = report.counts_by_rule()
    assert counts == {
        "wall-clock": 2,
        "unseeded-rng": 2,
        "ordering-hazard": 1,
        "slots-consistency": 1,
        "float-time-arith": 1,
        "layer-contract": 2,
        "unused-surface": 9,
    }


# -- CLI ----------------------------------------------------------------------------------


def test_cli_exit_codes_and_json_artifact(tmp_path, capsys):
    assert lint_main([]) == 0
    capsys.readouterr()

    output = tmp_path / "lint_report.json"
    code = lint_main(["--root", str(FIXTURE_TREE), "--format", "json",
                      "--output", str(output)])
    assert code == 1
    payload = json.loads(output.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro.analysis.lint/1"
    assert payload["finding_count"] == 18
    assert {finding["rule"] for finding in payload["findings"]} == {
        "wall-clock", "unseeded-rng", "ordering-hazard",
        "slots-consistency", "float-time-arith", "layer-contract",
        "unused-surface"}
    # The failure is still announced on stderr when the report goes to a file.
    assert "18 finding(s)" in capsys.readouterr().err


def test_cli_rule_filter_and_catalogue(capsys):
    assert lint_main(["--list-rules"]) == 0
    catalogue = capsys.readouterr().out
    for name in ("wall-clock", "unseeded-rng", "ordering-hazard",
                 "slots-consistency", "float-time-arith", "layer-contract",
                 "unused-surface"):
        assert name in catalogue

    code = lint_main(["--root", str(FIXTURE_TREE), "--rules", "wall-clock"])
    out = capsys.readouterr().out
    assert code == 1
    assert "2 finding(s)" in out

    with pytest.raises(SystemExit):
        lint_main(["--rules", "no-such-rule"])
