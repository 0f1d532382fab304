from collections import OrderedDict

import pytest

from laurentfft import plan as plan_mod
from laurentfft.cli import main


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        out, err = capsys.readouterr()
        return code, out, err

    return run


@pytest.fixture
def memo(monkeypatch):
    """An empty memo of certified plans for this test alone, returned so
    the test can read it; loading a plan warms it for that N."""
    fresh = OrderedDict()
    monkeypatch.setattr(plan_mod, "_certified", fresh)
    return fresh
