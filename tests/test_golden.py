"""Recorded command outputs: every sample's stdout and exit code, byte for byte.

Each file under ``tests/golden/`` holds ``exit N`` on its first line and the
command's stdout after it.  ``COUNTERS`` holds the solve counters of every
sample that solves.  The dumps were recorded before conjunctions became
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

from latlog.cli import main, run_analyze, run_solve

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


# SolveStats counters: growths, consumer_invocations, sweep_invocations,
# candidates and redundant_adds, of each sample clause file that solves and
# of each sample graph under both analyses.  They depend only on the order
# in which the engine evaluates, not on how its steps are built.
_COUNTER_NAMES = ("growths", "consumer_invocations", "sweep_invocations", "candidates",
                  "redundant_adds")
COUNTERS = {
    "branch.graph/signs": (15, 0, 15, 16, 0),
    "branch.graph/intervals": (15, 0, 15, 16, 0),
    "countdown.graph/signs": (6, 2, 4, 7, 0),
    "countdown.graph/intervals": (14, 10, 4, 15, 0),
    "eq_neq.lat": (4, 0, 0, 4, 0),
    "eq_neq_abc.lat": (6, 0, 0, 6, 0),
    "facts_only.lat": (2, 0, 0, 0, 0),
    "loop.graph/signs": (6, 2, 4, 7, 0),
    "loop.graph/intervals": (8, 4, 4, 9, 0),
    "products.graph/signs": (20, 0, 18, 20, 0),
    "products.graph/intervals": (20, 0, 18, 20, 0),
    "signs_relational.lat": (15, 0, 6, 6, 0),
    "sums.graph/signs": (18, 6, 14, 20, 0),
    "sums.graph/intervals": (22, 10, 14, 24, 0),
    "unfired.lat": (8, 0, 4, 6, 0),
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(_cases()))
def test_sample_output_matches_golden(name):
    want = (GOLDEN / name).read_text()
    assert _run(_cases()[name]) == want


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_sample_counters_match_the_table(name):
    sample, _, analysis = name.partition("/")
    text = (SAMPLES / sample).read_text()
    report = run_analyze(text, analysis) if analysis else run_solve(text)
    assert report.counters == dict(zip(_COUNTER_NAMES, COUNTERS[name]))


def test_every_sample_that_solves_has_counters():
    names = set()
    for path in SAMPLES.iterdir():
        if path.suffix == ".graph":
            names |= {f"{path.name}/signs", f"{path.name}/intervals"}
        elif path.suffix == ".lat" and path.name != "nonstratified.lat":
            names.add(path.name)
    assert sorted(names) == sorted(COUNTERS)


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(_cases())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in _cases().items():
        (GOLDEN / name).write_text(_run(argv))
    sys.exit(0)
