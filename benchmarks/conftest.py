"""Shared helpers for the benchmark harness.

Every benchmark writes the table / figure it regenerates into
``benchmark_reports/`` next to this directory; README.md lists, for every
tracked report there, the one command that produces it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPORT_DIR = Path(__file__).parent / "benchmark_reports"


def write_report(name: str, content: str) -> Path:
    """Write ``content`` to ``benchmark_reports/<name>.txt`` and return the path."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    return path


@pytest.fixture
def report_writer():
    """Fixture handing benchmarks the report writer."""
    return write_report
