import importlib

import numpy as np
import pytest

# criterion number -> the CRITERION line tests/test_acceptance.py printed for it
_CRITERION_LINES = pytest.StashKey[dict]()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_addoption(parser):
    parser.addoption("--write-criteria", action="store_true",
                     help="write the CRITERION lines of this run to scripts/criteria.txt")


def _record_criteria(acceptance, lines: dict) -> None:
    """Wrap the acceptance module's report(), which prints each CRITERION
    line, so that it also keeps the line in lines by its number."""
    report = acceptance.report
    if getattr(report, "records", None) is lines:
        return

    def recording(number, ok, detail):
        lines[number] = report(number, ok, detail)
        return lines[number]

    recording.records = lines
    acceptance.report = recording


def pytest_collection_modifyitems(config, items):
    """Keep the CRITERION lines that the collected acceptance tests print,
    and run the check of those lines against their record after them."""
    lines = config.stash.setdefault(_CRITERION_LINES, {})
    for module in {getattr(item, "module", None) for item in items}:
        if module is not None and module.__name__.rpartition(".")[2] == "test_acceptance":
            _record_criteria(module, lines)
    items.sort(key=lambda item: item.name == "test_criteria_match_their_record")


@pytest.fixture
def criterion_lines(pytestconfig) -> dict:
    """The CRITERION lines printed in this session, by number.  A criterion
    that printed none runs here, and its failing assertion is left to its
    own test: criteria 3 and 7 fail by measurement."""
    lines = pytestconfig.stash.setdefault(_CRITERION_LINES, {})
    acceptance = importlib.import_module("test_acceptance")
    _record_criteria(acceptance, lines)
    for name, test in sorted(vars(acceptance).items()):
        if name.startswith("test_criterion_") and int(name.split("_")[2]) not in lines:
            try:
                test()
            except AssertionError:
                pass
    return lines
