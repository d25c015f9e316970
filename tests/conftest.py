import os
from pathlib import Path

import pytest

import repstab


@pytest.fixture
def subprocess_env():
    """The environment for a child Python that imports this checkout."""
    env = dict(os.environ)
    env.pop("REPSTAB_CACHE", None)
    src = str(Path(repstab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
