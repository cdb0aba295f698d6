"""Start-up guard: building the CLI's parser loads no module that only some
commands need, and none that a record type would pull in.

Every ``fairdiv`` command pays its import before doing any work.
``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``); ``csv`` and ``hashlib`` serve campaigns and Monte Carlo
only, which import them where they use them.  The child runs with ``-I``
(no user site, no environment) and ``-S`` (no site module), so a ``.pth``
file cannot load one of them on its own.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules that ``import fairdiv.cli`` and ``build_parser()`` must not load.
UNLOADED = ("dataclasses", "inspect", "csv", "hashlib")

CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "import fairdiv.cli; fairdiv.cli.build_parser(); "
    "print(json.dumps([fairdiv.cli.__file__, sorted(sys.modules)]))"
)


def test_building_the_parser_loads_no_dataclasses_inspect_csv_or_hashlib():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    path, loaded = json.loads(proc.stdout)
    assert Path(path).resolve().parent == SRC / "fairdiv"
    assert "fairdiv.harness" in loaded and "fairdiv.metrics" in loaded
    assert [name for name in UNLOADED if name in loaded] == []
