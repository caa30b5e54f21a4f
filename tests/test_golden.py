"""Recorded command outputs: every sample's stdout and exit code, byte for byte.

Each file under ``tests/golden/`` holds ``exit N`` on its first line and the
command's stdout after it.  The dumps were recorded before conjunctions became
n-ary and have not changed since.  The ``*-emit`` files hold the analysis
programs as the pretty-printer renders them, one ``clause`` line each.  After
an intended output change, ``PYTHONPATH=src python tests/test_golden.py``
records them again.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from latlog.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"

_ANALYSES = {
    "signs": ["--analysis", "signs"],
    "intervals": ["--analysis", "intervals"],
    "intervals-emit": ["--analysis", "intervals", "--emit-clauses"],
    "signs-emit": ["--analysis", "signs", "--emit-clauses"],
}


def _cases() -> dict:
    """Golden file name -> command line."""
    cases = {}
    for path in sorted(SAMPLES.iterdir()):
        if path.suffix == ".lat":
            cases[f"{path.name}.solve"] = ["solve", str(path)]
        elif path.suffix == ".graph":
            for tag, args in _ANALYSES.items():
                cases[f"{path.name}.{tag}"] = ["analyze", str(path), *args]
    return cases


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(_cases()))
def test_sample_output_matches_golden(name):
    want = (GOLDEN / name).read_text()
    assert _run(_cases()[name]) == want


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(_cases())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in _cases().items():
        (GOLDEN / name).write_text(_run(argv))
    sys.exit(0)
