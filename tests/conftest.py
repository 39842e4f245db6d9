"""Let the CLI subprocesses that the tests start import the package from src/.

pytest's `pythonpath` setting reaches only the test process, so a bare
`pytest` in a checkout also puts src/ on the PYTHONPATH that children inherit.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
