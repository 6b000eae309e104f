"""``epimachine emulate`` outputs, byte for byte: the stdout, the ``--trace``
JSON, the ``--dot-dir`` files and the ``--emit-program`` JSON of four runs
against the files kept under ``golden/<case>/``. Each run writes into its
own directory, by relative paths, as a user would. After an intended output
change, ``PYTHONPATH=src python tests/test_golden.py`` writes the files
anew."""

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from epimachine.cli import main

from helpers import MACHINE_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# case -> (machine, emulate options besides the output files)
CASES = {
    "bb2": ("bb2", ["--steps", "200"]),
    "march-12": ("march", ["--steps", "12"]),
    "march-12-reencode": ("march", ["--steps", "12", "--reencode"]),
    "bb3-6-faithful": ("bb3", ["--steps", "6", "--mode", "faithful"]),
}
OUTPUTS = ["--trace", "trace.json", "--dot-dir", "dots", "--emit-program", "program.json"]


def _files(directory: Path) -> dict:
    """Every file under ``directory``, by its relative path, as bytes."""
    paths = sorted(p for p in directory.rglob("*") if p.is_file())
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in paths}


def _run(case: str, directory: Path) -> dict:
    """Run ``case`` in ``directory``, its stdout into ``stdout.txt``, and
    return every file written there."""
    machine, options = CASES[case]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            status = main(["emulate", str(MACHINE_DIR / f"{machine}.tm"), *options, *OUTPUTS])
    finally:
        os.chdir(cwd)
    assert status == 0
    (directory / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return _files(directory)


@pytest.mark.parametrize("case", sorted(CASES))
def test_emulate_outputs_match_the_golden_files(case, tmp_path):
    produced = _run(case, tmp_path)
    expected = _files(GOLDEN_DIR / case)
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, f"{case}/{name} differs"


if __name__ == "__main__":
    for case in CASES:
        target = GOLDEN_DIR / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        _run(case, target)
