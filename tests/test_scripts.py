"""The example scripts still import against the library. They are not run
here (run_imdb_subset needs the IMDB archive on disk), so without this a
library name they use could be renamed or deleted unnoticed."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["run_synthetic", "run_imdb_subset"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
