"""Seeded command outputs keep their bytes.

``tests/golden/outputs.json`` holds the SHA-256 of every file that each
command in it writes, and the Python and NumPy versions of the host that
recorded them.  The commands are the seeded audits, the three
example audits, ``trace`` and ``criterion`` on each map-backed built-in
scenario (``{"builtin": name}``) and on README's explicit half-plane
scenario, and ``criterion`` on each mapless builtin and on a mapless
channel scenario; each scenario is written to
``{scenarios}/<name>.json``.  The test runs each command again into a
temporary directory and compares the digests.  libm and NumPy may round
differently elsewhere, so on a host with another stamp the test skips and
names the difference.  After a declared output change, re-record with

    PYTHONPATH=src python tests/test_golden.py

which prints, per command, each file whose digest moved, appeared or
disappeared against the file it overwrites.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diskflow import catalog, cli

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
SCENARIOS = {
    **{name: {"builtin": name}
       for name in (*catalog.BUILTIN_NAMES, *catalog.MAPLESS_NAMES)},
    # README's explicit Koenigs data
    "readme_halfplane": {
        "type": "nonelliptic",
        "koenigs": {"chain": [{"op": "mobius", "a": [1, 0], "b": [1, 0],
                               "c": [-1, 0], "d": [1, 0]}]},
        "domain": {"kind": "halfplane", "orientation": "right",
                   "offset": 0.0},
        "start_points": [[0, 0]],
        "forward_grid": {"kind": "linear", "t0": 0.0, "t1": 10.0, "n": 101},
    },
    # no Koenigs map: the criterion from a Koenigs-plane start, with the
    # channel's profile parameters left at their defaults
    "mapless_channel": {
        "type": "nonelliptic", "koenigs": None,
        "domain": {"kind": "channel", "profile": "inv_log"},
        "start_w": [[0, 0]],
    },
}
COMMANDS = (
    "audit --suite ahlfors --seed 424242",
    "audit --suite all --seed 424242",
    *(f"examples --id {i}" for i in catalog.EXAMPLE_IDS),
    *(f"{command} --config {{scenarios}}/{name}.json"
      for name in (*catalog.BUILTIN_NAMES, "readme_halfplane")
      for command in ("trace", "criterion")),
    *(f"criterion --config {{scenarios}}/{name}.json"
      for name in (*catalog.MAPLESS_NAMES, "mapless_channel")),
)


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def write_scenarios(root: Path) -> Path:
    """Each scenario's file, in ``root/scenarios``."""
    scenarios = root / "scenarios"
    scenarios.mkdir()
    for name, scenario in SCENARIOS.items():
        (scenarios / f"{name}.json").write_text(json.dumps(scenario))
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


def changes(old: dict, new: dict) -> list:
    """One line per file whose digest moved, appeared or disappeared from
    the outputs ``old`` to ``new``, by command."""
    lines = []
    for command in sorted(old.keys() | new.keys()):
        was, now = old.get(command, {}), new.get(command, {})
        for path in sorted(was.keys() | now.keys()):
            if path not in now:
                lines.append(f"{command}: {path} disappeared")
            elif path not in was:
                lines.append(f"{command}: {path} appeared")
            elif was[path] != now[path]:
                lines.append(f"{command}: {path} moved")
    return lines


def test_changes_name_each_file():
    old = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    new = {"a": {"x": "1", "y": "4", "w": "5"}, "c": {"v": "6"}}
    assert changes(old, new) == [
        "a: w appeared", "a: y moved", "b: z disappeared", "c: v appeared"]
    assert changes(new, new) == []


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["stamp"] != stamp():
        pytest.skip(f"digests recorded on {golden['stamp']}, "
                    f"this host has {stamp()}")
    assert sorted(golden["outputs"]) == sorted(COMMANDS)
    got = record(tmp_path)["outputs"]
    assert changes(golden["outputs"], got) == []


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = record(Path(tmp))
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    if old.get("stamp") != new["stamp"]:
        print(f"stamp: {old.get('stamp')} -> {new['stamp']}")
    print("\n".join(changes(old.get("outputs", {}), new["outputs"]))
          or "no digest changed")
