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
def plan_cache():
    """load_plan's cache of plans by file text, empty when the test starts
    and emptied when it ends, returned so the test can read its info."""
    plan_mod._plan_of_text.cache_clear()
    yield plan_mod._plan_of_text
    plan_mod._plan_of_text.cache_clear()
