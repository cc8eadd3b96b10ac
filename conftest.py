"""Every pytest run names the numeric profile (tools/profiles.py) whose
bits the goldens were compared on: in the header, and at quiet verbosity,
which hides the header, as the first line of output."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "profiles", Path(__file__).resolve().parent / "tools" / "profiles.py")
profiles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profiles)


def pytest_report_header():
    return profiles.profile_line()


def pytest_sessionstart(session):
    if session.config.get_verbosity() < 0:
        reporter = session.config.pluginmanager.get_plugin(
            "terminalreporter")
        if reporter is not None:
            reporter.write_line(profiles.profile_line())
