"""Seeded command outputs keep their bytes.

``tests/golden/outputs.json`` holds the SHA-256 of every file that each
command in it writes, and the Python, NumPy and SciPy versions of the host
that recorded them.  The commands are the seeded audits, the three
example audits, and ``trace`` and ``criterion`` on each built-in scenario
(``{"builtin": name}``, written to ``{scenarios}/<name>.json``).  The test
runs each command again into a temporary directory and compares the
digests.  libm and NumPy may round differently elsewhere, so on a host with
another stamp the test skips and names the difference.  After a declared
output change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from diskflow import catalog, cli

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
COMMANDS = (
    "audit --suite ahlfors --seed 424242",
    "audit --suite all --seed 424242",
    *(f"examples --id {i}" for i in catalog.EXAMPLE_IDS),
    *(f"{command} --config {{scenarios}}/{name}.json"
      for name in catalog.BUILTIN_NAMES for command in ("trace", "criterion")),
)


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy")}


def write_scenarios(root: Path) -> Path:
    """Each built-in's scenario file, in ``root/scenarios``."""
    scenarios = root / "scenarios"
    scenarios.mkdir()
    for name in catalog.BUILTIN_NAMES:
        (scenarios / f"{name}.json").write_text(json.dumps({"builtin": name}))
    return scenarios


def digests(command: str, out: Path, scenarios: Path) -> dict:
    """SHA-256 of each file that ``diskflow <command> --out <out>`` writes,
    by path relative to ``out``."""
    argv = command.format(scenarios=scenarios).split()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"diskflow {command} exited with {code}")
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def record(root: Path) -> dict:
    scenarios = write_scenarios(root)
    return {"stamp": stamp(),
            "outputs": {command: digests(command, root / f"out{i}", scenarios)
                        for i, command in enumerate(COMMANDS)}}


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["stamp"] != stamp():
        pytest.skip(f"digests recorded on {golden['stamp']}, "
                    f"this host has {stamp()}")
    assert sorted(golden["outputs"]) == sorted(COMMANDS)
    got = record(tmp_path)["outputs"]
    moved = {command: sorted(path for path in golden["outputs"][command]
                             if got[command].get(path)
                             != golden["outputs"][command][path])
             for command in COMMANDS}
    assert {c: m for c, m in moved.items() if m} == {}
    assert got == golden["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(record(Path(tmp)), indent=2,
                                     sort_keys=True) + "\n")
