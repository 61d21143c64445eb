import numpy as np
import pytest

from s1mk import Grid, disk, ellipse_body, gen_f

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def grid256():
    return Grid(256)


@pytest.fixture(scope="session")
def stagnating_f():
    """Piecewise data on 512 points on which every solve path at (p, q) =
    (0.5, 2) raises StagnationError at residual 1.26e-2, far above the
    roundoff floor, in about 1 s."""
    return gen_f("piecewise", 2.0, np.random.SeedSequence([1916, 22, 2]), Grid(512))


@pytest.fixture(scope="session")
def unit_disk(grid256):
    return disk(grid256)


@pytest.fixture(scope="session")
def ellipse21(grid256):
    return ellipse_body(grid256, 2.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def acceptance():
    """Records one pass/fail line per acceptance criterion for the summary."""
    def record(num, desc, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        line = f"criterion {num:2d} {tag}  {desc}"
        if detail:
            line += f"  [{detail}]"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
