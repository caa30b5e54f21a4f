"""Command-line behavior: subcommands, exit codes, determinism."""

import subprocess
import sys
from itertools import cycle
from pathlib import Path

import pytest

import latlog
from latlog import cli, parser
from latlog.ast import validate
from latlog.cli import leaf_diff, main, run_analyze, run_compare
from latlog.errors import ParseError
from latlog.parser import parse_clauses

import helpers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spath(name):
    return str(helpers.SAMPLES / name)


# --- solve ----------------------------------------------------------------------


def test_solve_eq_neq(capsys):
    code, out, err = run(capsys, "solve", spath("eq_neq.lat"))
    assert code == 0
    assert out.splitlines() == ["E(a) = {a}", "E(b) = {b}",
                                "N(a) = {b}", "N(b) = {a}"]


def test_solve_nonstratified_exits_1(capsys):
    code, out, err = run(capsys, "solve", spath("nonstratified.lat"))
    assert code == 1
    assert "stratification violation" in err
    assert out == ""


def test_solve_facts_only(capsys):
    code, out, _ = run(capsys, "solve", spath("facts_only.lat"))
    assert code == 0
    assert out.splitlines() == ["R(a,b) = {c}", "R(b,c) = {a,b,c}"]


@pytest.mark.parametrize("command, out", [("solve", ""), ("compare", "identical\n")])
def test_empty_relation_of_huge_arity(command, out, tmp_path, capsys):
    # reading the empty store stops at its first empty level
    path = tmp_path / "wide.lat"
    path.write_text("lattice powerset {a}\nrel R/99999999999999999999\nclause 1\n")
    assert run(capsys, command, str(path)) == (0, out, "")


def test_solve_fact_override(capsys):
    code, out, _ = run(capsys, "solve", spath("facts_only.lat"),
                       "--fact", "R(a,b) = {a}")
    assert code == 0
    assert "R(a,b) = {a}" in out.splitlines()


@pytest.mark.parametrize("fact, reason", [
    ("N(a) = {a}", "N is asserted by a clause"),
    ("Z(a) = {a}", "undeclared predicate Z"),
])
def test_solve_fact_override_must_name_a_base_relation(fact, reason, capsys):
    code, out, err = run(capsys, "solve", spath("eq_neq.lat"), "--fact", fact)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: fact {fact[0]}: {reason}; facts may only populate base relations"]


def test_solve_fact_override_is_checked_like_a_file_fact(capsys):
    code, out, err = run(capsys, "solve", spath("facts_only.lat"),
                         "--fact", "R(z,a) = {a}")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: fact R: unknown atom 'z'"]


def test_solve_fact_override_parse_error_reports_its_own_column(capsys):
    code, out, err = run(capsys, "solve", spath("eq_neq.lat"), "--fact", "E(a,b) = {a}")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: 1:1: arity mismatch for E: 2 vs declared 1"]


def test_parse_fact_rejects_trailing_input():
    program = parse_clauses("lattice powerset {a,b}\nrel R/1")
    with pytest.raises(ParseError) as err:
        parser.parse_fact("R(a) = {a} x", program)
    assert str(err.value) == "1:12: unexpected trailing input 'x'"


def test_solve_fact_override_keeps_the_join_of_other_repeated_facts(tmp_path, capsys):
    path = tmp_path / "repeated.lat"
    path.write_text("lattice powerset {a,b,c}\nrel R/2\n"
                    "fact R(a,b) = {a}\nfact R(a,b) = {b}\n")
    code, out, _ = run(capsys, "solve", str(path), "--fact", "R(b,c) = {a}")
    assert (code, out.splitlines()) == (0, ["R(a,b) = {a,b}", "R(b,c) = {a}"])


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "no_such_file.lat")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", [["solve"], ["check"], ["compare"],
                                     ["analyze", "--analysis", "signs"]])
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "b.lat"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path}: not UTF-8 text (invalid start byte at byte 0)"]


def test_usage_error_exits_2(capsys):
    assert main(["analyze", spath("loop.graph")]) == 2  # --analysis missing
    capsys.readouterr()


def run_isolated(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh ``python -I`` that imports latlog from where this
    process does."""
    prelude = f"import sys\nsys.path.insert(0, {str(Path(latlog.__file__).parents[1])!r})\n"
    return subprocess.run([sys.executable, "-I", "-c", prelude + code],
                          capture_output=True, text=True, timeout=60)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_argparse():
    out = run_isolated("before = set(sys.modules)\n"
                       "import latlog.cli\n"
                       "print(*sorted(set(sys.modules) - before))\n")
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "latlog.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "argparse", "pathlib"} == set()


def test_help_of_the_module_exits_0():
    # what ``python -I -m latlog --help`` runs, with latlog found on sys.path
    out = run_isolated("import runpy\n"
                       "sys.argv[1:] = ['--help']\n"
                       "runpy.run_module('latlog', run_name='__main__', alter_sys=True)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: latlog")


def test_stats_go_to_stderr(capsys):
    code, out, err = run(capsys, "solve", spath("eq_neq.lat"), "--stats")
    assert code == 0
    assert "growths=" in err
    assert "growths=" not in out


def test_dump_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "solve", spath("eq_neq_abc.lat"))
    _, out2, _ = run(capsys, "solve", spath("eq_neq_abc.lat"))
    assert out1 == out2


# --- check ----------------------------------------------------------------------


def test_check_valid_file(capsys):
    code, out, _ = run(capsys, "check", spath("eq_neq.lat"))
    assert code == 0
    assert out.startswith("ok:")
    assert "E=1" in out and "N=2" in out


def test_check_invalid_file(capsys):
    code, _, err = run(capsys, "check", spath("nonstratified.lat"))
    assert code == 1
    assert "error" in err


# --- analyze --------------------------------------------------------------------


def test_analyze_loop_intervals(capsys):
    code, out, _ = run(capsys, "analyze", spath("loop.graph"),
                       "--analysis", "intervals", "--zmin", "0", "--zmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert "A(q1,x) = [0,inf]" in lines
    assert "A(q3,x) = [0,inf]" in lines


def test_analyze_signs(capsys):
    text = "initial q0\nstate q1\nvar x\nq0 -> q1 : x := 1\n"
    path = helpers.SAMPLES / "_tmp_pos.graph"
    path.write_text(text)
    try:
        code, out, _ = run(capsys, "analyze", str(path), "--analysis", "signs")
        assert code == 0
        assert "A(q1,x) = {+}" in out.splitlines()
    finally:
        path.unlink()


GRAPH_SAMPLES = sorted(p.name for p in helpers.SAMPLES.glob("*.graph"))

ANALYSES = {"signs": ["--analysis", "signs"],
            "intervals": ["--analysis", "intervals", "--zmin", "0", "--zmax", "3"]}


@pytest.mark.parametrize("which", sorted(ANALYSES))
@pytest.mark.parametrize("name", GRAPH_SAMPLES)
def test_emit_clauses_round_trips(name, which, capsys, tmp_path):
    args = ANALYSES[which]
    code, emitted, _ = run(capsys, "analyze", spath(name), *args, "--emit-clauses")
    assert code == 0
    clause_file = tmp_path / f"{name}.lat"
    clause_file.write_text(emitted)
    code, via_solve, _ = run(capsys, "solve", str(clause_file))
    assert code == 0
    code, direct, _ = run(capsys, "analyze", spath(name), *args)
    assert code == 0
    assert via_solve == direct


@pytest.mark.parametrize("which", ["signs", "intervals"])
def test_analyze_solves_without_clause_text(which, monkeypatch):
    def no_text(text):
        raise AssertionError("analyze tokenized clause text")

    monkeypatch.setattr(parser, "tokenize", no_text)
    report = run_analyze(helpers.sample("loop.graph"), which)
    golden = Path(__file__).resolve().parent / "golden" / f"loop.graph.{which}"
    assert golden.read_text() == "exit 0\n" + "".join(f"{line}\n" for line in report.lines)


@pytest.mark.parametrize("text, message", [
    ("initial\nvar x\n", "1:1: bad state name ''"),
    ("initial q0\nstate\nvar x\n", "2:1: bad state name ''"),
    ("initial q0 q1\nvar x\n", "1:1: bad state name 'q0 q1'"),
], ids=["initial-without-name", "state-without-name", "initial-with-two-names"])
def test_analyze_bad_state_name_is_one_error_line(text, message, tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path), "--analysis", "signs")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


def test_analyze_bad_graph_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("initial q0\nvar x\nq0 -> q9 : skip\n")
    code, _, err = run(capsys, "analyze", str(bad), "--analysis", "signs")
    assert code == 1
    assert "unknown state" in err


def test_analyze_inverted_grid_exits_1(capsys):
    code, out, err = run(capsys, "analyze", spath("loop.graph"), "--analysis",
                         "intervals", "--zmin", "5", "--zmax", "0")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: empty integer grid: zmin=5 > zmax=0"]


WIDE_GRID = ("lattice interval zmin=0 zmax=1000000000000\n"
             "fact P(a) = [0,5]\n"
             "clause forall x. forall 'i. P(x;'i) => Q(x;f_mul('i,[3,3]))\n")


def test_solve_on_a_wide_grid(tmp_path, capsys):
    path = tmp_path / "wide.lat"
    path.write_text(WIDE_GRID)
    assert run(capsys, "solve", str(path)) == (0, "P(a) = [0,5]\nQ(a) = [0,15]\n", "")


def test_compare_on_a_wide_grid_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "wide.lat"
    path.write_text(WIDE_GRID)
    code, out, err = run(capsys, "compare", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: lattice has ")
    assert err.endswith(" elements (reference evaluator cap 4096)\n")
    assert len(err.splitlines()) == 1


def test_analyze_on_a_wide_grid_matches_a_narrow_one(capsys):
    outputs = [run(capsys, "analyze", spath("branch.graph"), "--analysis", "intervals",
                   "--zmax", zmax) for zmax in ("1000", str(10**12))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_solve_too_deep_input_is_one_error_line(tmp_path, capsys, default_recursion_limit):
    # a precondition conjunction of 2 000 queries: each part is compiled, and
    # matched, inside the continuation of the part before it
    n, rels = 2000, 50
    lines = ["lattice powerset {a}", *(f"fact R{i}(a) = {{a}}" for i in range(rels)),
             "clause forall x. " + " & ".join(f"R{i % rels}(x;[x])" for i in range(n))
             + " => S(x;[x])"]
    path = tmp_path / "conjunction.lat"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: input nests too deeply (")


def test_solve_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(text, fact_texts=()):
        raise MemoryError

    monkeypatch.setattr(cli, "run_solve", exhausted)
    assert run(capsys, "solve", spath("eq_neq.lat")) == (1, "", "error: out of memory\n")


def test_solve_long_chain_at_default_recursion_limit(tmp_path, capsys,
                                                      default_recursion_limit):
    # reachability along a 4 000-node chain: growths are delivered from one
    # worklist, so the chain's length puts nothing on the Python stack
    n = 4000
    lines = ["lattice signs", *(f"fact E(n{i},n{i + 1}) = {{+}}" for i in range(n - 1)),
             "clause R(n0;{+}) & (forall x. forall y. R(x;{+}) & E(x,y;{+}) => R(y;{+}))"]
    path = tmp_path / "chain.lat"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    dump = out.splitlines()
    assert len(dump) == 2 * n - 1
    assert f"R(n{n - 1}) = {{+}}" in dump


@pytest.mark.parametrize("n, variables", [(1200, ("x",)), (800, ("x", "y"))])
def test_analyze_long_ring_at_default_recursion_limit(n, variables, tmp_path, capsys,
                                                      default_recursion_limit):
    # one generated clause of about n conjuncts per variable
    lines = ["initial q0", *(f"state q{i}" for i in range(1, n)),
             *(f"var {v}" for v in variables),
             *(f"q{i} -> q{i + 1} : {v} := {v} + 1"
               for i, v in zip(range(n - 1), cycle(variables))),
             f"q{n - 1} -> q0 : skip"]
    path = tmp_path / "ring.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", str(path), "--analysis", "signs")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == n * len(variables)


# --- compare --------------------------------------------------------------------


def test_compare_eq_neq_identical(capsys):
    code, out, _ = run(capsys, "compare", spath("eq_neq.lat"))
    assert code == 0
    assert out.strip() == "identical"


@pytest.mark.parametrize("name", ["eq_neq_abc.lat", "facts_only.lat",
                                  "signs_relational.lat"])
def test_compare_shipped_samples_identical(name, capsys):
    code, out, _ = run(capsys, "compare", spath(name))
    assert code == 0
    assert out.strip() == "identical"


def test_compare_seeded_instance(capsys):
    code, out, _ = run(capsys, "compare", "--seed", "11")
    assert code == 0
    assert out.strip() == "identical"


def test_compare_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "compare")
    assert code == 2
    code, _, err = run(capsys, "compare", spath("eq_neq.lat"), "--seed", "3")
    assert code == 2


def test_compare_mismatch_prints_leaf_diffs_and_stats(monkeypatch, capsys):
    naive_fixpoint = cli.oracle.naive_fixpoint

    def wrong_reference(program):
        reference = naive_fixpoint(program)
        reference.set("N", ("a",), frozenset(("a", "b")))
        return reference

    monkeypatch.setattr(cli.oracle, "naive_fixpoint", wrong_reference)
    code, out, err = run(capsys, "compare", spath("eq_neq.lat"), "--stats")
    assert code == 1
    assert out.splitlines() == ["N(a): solver={b} oracle={a,b}"]
    assert len(err.splitlines()) == 1 and err.startswith("stats: ")


def test_compare_reads_the_arities_that_validation_completes():
    # P is asserted but never declared, so only the validated program has it
    program = parse_clauses("lattice powerset {a,b}\nclause 1").with_strata(
        parse_clauses("lattice powerset {a,b}\nclause P(a;{b})").strata)
    assert "P" not in program.arities
    assert run_compare(program).lines == ["identical"]


def test_leaf_diff_detects_corruption():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    report = run_compare(program)
    assert report.ok and report.lines == ["identical"]
    # corrupt one leaf and diff against the healthy reference
    from latlog.solver import solve
    import latlog.oracle as oracle

    good = solve(program).leaves()
    corrupted = {p: dict(m) for p, m in good.items()}
    corrupted["N"][("a",)] = frozenset(("a", "b"))
    diffs = leaf_diff(program, corrupted, oracle.naive_fixpoint(program).leaves())
    assert diffs == ["N(a): solver={a,b} oracle={b}"]
