"""Golden output: the exact-mode stdout of the CLI on the 400-row mixed
corpus, pinned by sha256.

A refactor that changes any byte of `generate`, `recognize` or
`canonicalize` (which carries the class and J0 fields) fails here.  Float
mode and `to-torus` are left out: their `weighted_sup_norm` powers and map
values come from libm and may differ across platforms.  When an output is
meant to change, state the change and re-pin its digest.
"""
import hashlib

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
