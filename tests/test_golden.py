"""Golden output: the exact-mode stdout of the CLI on the 400-row mixed
corpus and on a small hand corpus, pinned by sha256, and the decisions of
`to-torus --float` on the mixed corpus.

A refactor that changes any byte of `generate`, `recognize`,
`canonicalize` (which carries the class and J0 fields) or `to-torus` fails
here.  The hand corpus holds exact forms the generator never emits.  The
witness corpus pins the NotDupin witnesses of quartics, which the generated
corpus, all Dupin, never shows: generated Dupin quartics with a0 != 1 and
their copies moved off the variety, over every case a-f.  Float
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
import random
import re
from fractions import Fraction

import pytest

from cyclide import DarbouxCoefficients, EuclideanMotion
from cyclide.cli import main
from cyclide.genkit import (generate_quartic_dupin, perturb_off_variety, random_motion,
                            random_quartic_seed)
from cyclide.serialize import coefficients_to_json

CORPUS = ["generate", "--seed", "7", "--count", "400", "--kind", "mixed"]

DIGESTS = {
    "generate": "3992a5f99dbe736da3c987afb8f940f9fecc764eff1b512212e3017b9676031d",
    "recognize": "2f490dbc4d43c9fc5a183239868a6c53d63c45cb763a628aa84082443ff7e91a",
    "canonicalize": "c9ac81bb83b8a3c22c0b7b117f23f82cbaa0335c914944daefa34ffe78cb293b",
    "to-torus": "cec1f096e086b40784ef68fa457103b98c8eb5fef72bc0f82dff5f5f88c41061",
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


# forms the generator never emits: a0 negative or != 1 with odd b on the
# integer lattice, JSON ints, decimal strings and a leading "+"
HAND_CORPUS = [
    {"a0": 2, "b1": 1, "b2": -3, "b3": 2, "c1": -16, "c2": -12, "c3": "35/2", "d1": -3,
     "d2": 1, "d3": "-3/2", "e1": "-33/8", "e2": "99/8", "e3": "31/4", "f0": "321/32"},
    {"a0": -3, "c1": 30, "c2": 30, "c3": -18, "f0": -27},
    {"a0": "-5/3", "b1": "-5/9", "b3": "1/3", "c1": "736/45", "c2": "2233/135",
     "c3": "-1376/135", "d2": "1/9", "e1": "2233/810", "e3": "1367/1350",
     "f0": "-1778689/121500"},
    {"a0": "0.25", "c1": "-2.5", "c2": "-2.5", "c3": "1.5", "f0": "2.25"},
    {"a0": "+3/4", "c1": "-15/2", "c2": "-7.5", "c3": "9/2", "f0": "27/4"},
    {"a0": "+3/4", "b1": 1, "c1": "0.25", "e2": "+1/2", "f0": "-1/3"},
    {"a0": -2, "b1": 3, "b2": -1, "c1": 5, "d3": "-7/3", "e3": 7, "f0": 1},
    {"b1": 1, "c2": -2, "c3": 2, "e1": -1},
    {"b1": "0.5", "c2": "-1", "c3": "+1", "e1": "-0.5"},
    {"b1": -3, "b2": "+1/2", "c1": 2, "e3": "0.75", "f0": -1},
    {"c1": 1, "c2": 1, "c3": 2, "f0": "-0.5"},
]

HAND_DIGESTS = {
    "recognize": "e0e11f34701bc9a56a217525fe79afe018754c11883352e2dd30dcb2bba83eb0",
    "to-torus": "48444a55fa6d6e586eada3f81aaebbce1cd3e91fa295f75da4e427cc070091ff",
}


@pytest.mark.parametrize("verb", sorted(HAND_DIGESTS))
def test_exact_stdout_of_hand_corpus_is_pinned(verb, capsys, tmp_path):
    path = tmp_path / "hand.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in HAND_CORPUS),
                    encoding="utf-8")
    out = stdout_of([verb, "--exact", str(path)], capsys)
    assert len(out.splitlines()) == len(HAND_CORPUS)
    assert sha256(out) == HAND_DIGESTS[verb]


# rotations taking the canonical axis x to x, y and z: e of a centred
# canonical quartic then lies on one axis, cases a, b and c
AXES = (EuclideanMotion.identity(),
        EuclideanMotion.rotation_by(((0, -1, 0), (1, 0, 0), (0, 0, 1))),
        EuclideanMotion.rotation_by(((0, 0, -1), (0, 1, 0), (1, 0, 0))))


def witness_corpus():
    """60 generated Dupin quartics, every fourth in a random motion, the
    others centred on an axis, and a case (f) quartic, each times a
    projective factor k with a0 = k != 1; then each moved off the variety
    by `perturb_off_variety`."""
    rng = random.Random(18)
    dupin = [generate_quartic_dupin(random_quartic_seed(
                rng, AXES[i % 3] if i % 4 else random_motion(rng)))
             for i in range(59)]
    # C0 = 0, W1 + 3 f0 = 0 and W2^2 = 4 f0^3 at e = 0: case (f)
    dupin.append(DarbouxCoefficients.make(a0=1, c=(1, 1, -2), f0=1))
    dupin = [c.scale(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 3, 7))))
             for c in dupin]
    dupin = [c if c.a0 != 1 else c.scale(2) for c in dupin]
    return dupin + [perturb_off_variety(c, rng) for c in dupin]


WITNESS_DIGEST = "dcd64b29eb20c2dad47d6cbf3aecc8b5809cfb478fbb52e9c0d545713e84edf2"


def test_exact_witnesses_of_quartics_are_pinned(capsys, tmp_path):
    rows = witness_corpus()
    assert all(c.a0 != 1 for c in rows)
    path = tmp_path / "witness.jsonl"
    path.write_text("".join(json.dumps(coefficients_to_json(c)) + "\n" for c in rows),
                    encoding="utf-8")
    out = stdout_of(["recognize", "--exact", str(path)], capsys)
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 120
    # a NotDupin quartic at e = 0 is reported on the last stratum tried,
    # (e) or (f), never (d)
    for kind in ("DupinQuartic", "NotDupin"):
        cases = {r["case"] for r in reports if r["kind"] == kind}
        assert cases == set("abcdef") - ({"d"} if kind == "NotDupin" else set())
    assert sha256(out) == WITNESS_DIGEST


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
