"""Settings shared by every test module."""

import shutil
import tempfile

import pytest

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Keep the files hypothesis writes (its constants cache, written
    while the tests are collected) in a temporary directory, not in the
    working tree."""
    try:
        from hypothesis import configuration
    except ImportError:  # only the modules that import it need it
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    configuration.set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)
