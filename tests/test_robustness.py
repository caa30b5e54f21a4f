"""Mutated inputs end in an exit code, never in a traceback.

Each test mutates the tokens of known-good inputs with a fixed seed and a
fixed count, runs the command line on every mutant, and checks the contract
of ``latlog.cli``: the run returns 0, 1 or 2, and a nonzero return prints
exactly one ``error:`` line on stderr.  An exception escaping ``main`` fails
the test with the input that raised it.
"""

import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from latlog.cli import main
from latlog.parser import pretty
from latlog.randgen import random_program

import helpers

# past the 4 300 digits that int() converts by default
_LONG = "1" * 5000
_CLAUSE_VOCAB = (
    "inf", "-inf", "-", "99999999999999999999", "-99999999999999999999", "0", "1",
    _LONG, "-" + _LONG,
    "lattice", "powerset", "signs", "interval", "zmin", "zmax", "rel", "fun",
    "fact", "clause", "forall", "exists", "top", "bot",
    "(", ")", "[", "]", "{", "}", ",", ";", ".", "=", "=>", "&", "|", "!", "/",
    "a", "x", "'Y", "R", "é", "#",
)
_GRAPH_VOCAB = (
    "initial", "state", "var", "skip", "test", "->", ":", ":=", "+", "-", "*",
    "<", "<=", "==", "!=", "=", "q0", "q9", "x", "y", "0", "-3", "7", "1x",
    "--1", "0x1f", "1_000", _LONG, "é", "\n",
)
# an action's word after one of these is an operand: an integer or a variable
_GRAPH_OPERATORS = (":=", "+", "-", "*", "<", "<=", ">", ">=", "==", "!=", "=")
_MUTATIONS = ("delete", "duplicate", "swap", "replace", "garble", "truncate")


def _mutate(rng: random.Random, tokens: list, vocab: tuple,
            mutations: tuple = _MUTATIONS) -> list:
    """One to three deletions, duplications, swaps, replacements, garblings,
    truncations or, for graphs, operand replacements; a replacement draws
    from the vocabulary or from the input's own tokens, a garbling glues a
    sign or a character on, and an operand replacement puts a vocabulary
    word after an operator of an action."""
    tokens = list(tokens)
    words, vocab = vocab, vocab + tuple(tokens)
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(tokens))
        op = rng.choice(mutations)
        if op == "delete" and len(tokens) > 1:
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "replace":
            tokens[i] = rng.choice(vocab)
        elif op == "garble":
            tokens[i] = rng.choice(("-" + tokens[i], tokens[i] + rng.choice("x_é")))
        elif op == "operand":
            spots = [j for j in range(1, len(tokens))
                     if tokens[j - 1] in _GRAPH_OPERATORS and tokens[j] != "\n"]
            if spots:
                tokens[rng.choice(spots)] = rng.choice(words)
        else:
            del tokens[i + 1:]
    return tokens


def _without_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def _check_exit(argv: list, text: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        pytest.fail(f"{argv} raised {exc!r} on:\n{text}")
    assert code in (0, 1, 2), f"{argv} returned {code} on:\n{text}"
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            f"{argv} printed {lines!r} on:\n{text}"


def test_mutated_clause_files_end_in_an_exit_code(tmp_path):
    sources = [helpers.sample(p.name) for p in sorted(helpers.SAMPLES.glob("*.lat"))]
    sources += [pretty(random_program(seed, set_fragment=fragment))
                for seed in range(10) for fragment in (False, True)]
    token_lists = [re.findall(r"'?\w+|=>|:=|->|\S", _without_comments(text))
                   for text in sources]
    rng = random.Random(20260)
    path = tmp_path / "mutant.lat"
    for _ in range(400):
        text = " ".join(_mutate(rng, rng.choice(token_lists), _CLAUSE_VOCAB))
        path.write_text(text)
        for command in ("check", "solve", "compare"):
            _check_exit([command, str(path)], text)


def test_mutated_graphs_end_in_an_exit_code(tmp_path):
    word_lists = [re.findall(r"\S+|\n", _without_comments(helpers.sample(p.name)))
                  for p in sorted(helpers.SAMPLES.glob("*.graph"))]
    rng = random.Random(20261)
    path = tmp_path / "mutant.graph"
    for _ in range(800):
        text = " ".join(_mutate(rng, rng.choice(word_lists), _GRAPH_VOCAB,
                                _MUTATIONS + ("operand",)))
        path.write_text(text)
        argv = ["analyze", str(path), "--analysis", rng.choice(("signs", "intervals")),
                "--zmin", str(rng.randint(-4, 4)), "--zmax", str(rng.randint(-4, 4))]
        if rng.random() < 0.25:
            argv.append("--emit-clauses")
        _check_exit(argv, text)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_LONG),
                    reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("argv, text, where", [
    (["check"], f"lattice signs\nrel R/1\nfact R({_LONG}) = {{+}}\n", "3:8"),
    (["solve"], f"lattice interval zmin=0 zmax={_LONG}\nrel R/1\n", "1:30"),
    (["solve", "--fact", f"R(a,{_LONG}) = {{a}}"], helpers.sample("facts_only.lat"), "1:5"),
    (["analyze", "--analysis", "intervals"],
     f"initial q0\nstate q1\nvar x\nq0 -> q1 : x := -{_LONG}\n", "4:1"),
], ids=["check", "solve", "solve --fact", "analyze"])
def test_integers_too_long_to_convert_end_in_one_error_line(argv, text, where, tmp_path):
    path = tmp_path / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert (code, err.getvalue()) == (1, f"error: {where}: integer of 5000 digits is too long\n")
