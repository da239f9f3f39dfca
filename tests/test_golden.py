"""Golden output: the exact-mode stdout of the CLI on the 400-row mixed
corpus, pinned by sha256, and the decisions of `to-torus --float` on it.

A refactor that changes any byte of `generate`, `recognize` or
`canonicalize` (which carries the class and J0 fields) fails here.  Float
values are left out: their `weighted_sup_norm` powers and map values come
from libm and may differ across platforms.  Float decisions are pinned
instead: per row the kind, case, class, `class_ambiguous`, the type of a
top-level error, and the error `torus` and `map` carry, if any: its type
and its message with the numbers masked.  The boundary rows of the corpus
are decided on rounding noise, so this digest also pins the rounding of the
host it was taken on (x86-64 Linux, CPython 3.11).  When an output or a
decision is meant to change, state the change and re-pin its digest.
"""
import hashlib
import json
import re

import pytest

from cyclide.cli import main

CORPUS = ["generate", "--seed", "7", "--count", "400", "--kind", "mixed"]

DIGESTS = {
    "generate": "3992a5f99dbe736da3c987afb8f940f9fecc764eff1b512212e3017b9676031d",
    "recognize": "2f490dbc4d43c9fc5a183239868a6c53d63c45cb763a628aa84082443ff7e91a",
    "canonicalize": "c9ac81bb83b8a3c22c0b7b117f23f82cbaa0335c914944daefa34ffe78cb293b",
}


def stdout_of(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("verb", sorted(DIGESTS))
def test_exact_stdout_is_pinned(verb, capsys, tmp_path):
    corpus = stdout_of(CORPUS, capsys)
    if verb == "generate":
        out = corpus
    else:
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus, encoding="utf-8")
        out = stdout_of([verb, "--exact", str(path)], capsys)
    assert len(out.splitlines()) == 400
    assert sha256(out) == DIGESTS[verb]


FLOAT_DECISIONS = "d91289fec985fa3f415350d91292639b70d0e9b7f67272112fe55f38dd9d5bfb"


def _error_kind(error):
    return re.sub(r"-?\d+(\.\d*)?(e[-+]?\d+)?j?", "#", error)


def decisions(line: str) -> list:
    """The decision fields of one `to-torus --float` row, values left out."""
    report = json.loads(line)
    error = report.get("error")
    row = [report.get("kind"), report.get("case"), report.get("class"),
           report.get("class_ambiguous", False),
           error and error.split(":", 1)[0]]
    for stage in ("torus", "map"):
        part = report.get(stage)
        row.append(part if part is None else _error_kind(part.get("error", "")))
    return row


def test_float_decisions_are_pinned(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(stdout_of(CORPUS, capsys), encoding="utf-8")
    out = stdout_of(["to-torus", "--float", str(path)], capsys).splitlines()
    assert len(out) == 400
    assert sha256(json.dumps([decisions(line) for line in out])) == FLOAT_DECISIONS
