import json
import pathlib
import time

import pytest

from signalcap import geometry

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def golden_c_delta():
    """Grid-oracle strength values committed before the solver was trusted."""
    with open(GOLDEN_DIR / "c_delta_m2.json") as fh:
        doc = json.load(fh)
    return {float(k): v for k, v in doc["values"].items()}


@pytest.fixture(scope="session")
def characterization():
    """geometry.verify_characterization() run once per session: (report,
    elapsed seconds of that run)."""
    t0 = time.perf_counter()
    report = geometry.verify_characterization()
    return report, time.perf_counter() - t0


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion_report(request):
    """Collects one pass/fail line per acceptance criterion; the lines are
    echoed in the terminal summary so they survive output capture."""
    lines = request.config._criterion_lines

    def _line(num, ok, desc):
        text = f"CRITERION {num} [{'PASS' if ok else 'FAIL'}]: {desc}"
        print(text)
        lines.append(text)

    return _line


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
