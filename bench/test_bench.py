"""Tests of the benchmark itself: input construction, truth checks, tracing.

    python3 -m pytest bench -q

The construction tests compare two independent paths to the same
coefficients: the closed-form updates in corpus.py and the program's own
generator kit (`genkit.generate_quartic_dupin`, `genkit.generate_cubic_dupin`,
which move a TriPoly).
"""
import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402
import truth  # noqa: E402
from cyclide import DarbouxCoefficients, EuclideanMotion, pipeline, serialize  # noqa: E402
from cyclide.cli import main as cli_main  # noqa: E402
from cyclide.core import weighted_rescale  # noqa: E402
from cyclide.genkit import (QuarticSeed, generate_cubic_dupin,  # noqa: E402
                            generate_quartic_dupin)
from cyclide.recognizer import TolerancePolicy  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

EXACT = TolerancePolicy("exact")
FLOAT = TolerancePolicy("float", 1e-9)
SEEDS = (1, 7, 12)


def coefficients(item) -> DarbouxCoefficients:
    return serialize.parse_coefficients(json.loads(item.line()))


def genkit_build(item) -> DarbouxCoefficients:
    rows, t = item.motion
    motion = EuclideanMotion(rows, t)
    p = item.params
    if item.kind == "cubic":
        return generate_cubic_dupin(p["p"], p["q"], motion)
    if "k" not in p:
        return generate_quartic_dupin(QuarticSeed(p["s"], p["t"], p["u"], p["m"], motion, p["lam"]))
    # centred quartic: moved canonical form, f0 shifted, rescaled, scaled
    c = generate_quartic_dupin(QuarticSeed(p["s"], p["t"], p["u"], p["m"], motion))
    c = c.replace(f0=c.f0 + p["df0"])
    return weighted_rescale(c, p["lam"]).scale(p["k"])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("build", [corpus.mixed_corpus, corpus.quartic_recognize_corpus])
def test_construction_equals_genkit(seed, build):
    for item in build(seed, 60):
        assert coefficients(item) == genkit_build(item), item.params


def test_generate_corpus_is_the_cli_generator():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["generate", "--seed", "7", "--count", "400", "--kind", "mixed"])
    expected = [json.loads(line)["coefficients"] for line in buf.getvalue().splitlines()]
    assert [json.loads(it.line()) for it in corpus.generate_corpus(7, 400)] == expected


def test_float_lines_are_the_exact_inputs_as_floats():
    for e, f in zip(corpus.generate_corpus(7, 50), corpus.generate_corpus(7, 50, exact=False)):
        assert serialize.parse_coefficients(json.loads(f.line()), "float") == \
            coefficients(e).to_float()


def test_recognize_corpus_make_up():
    items = corpus.quartic_recognize_corpus(7, 120)
    assert sum(it.dupin for it in items) == 60
    assert {it.case for it in items if it.dupin} == set("abcdef")
    assert {it.case for it in items if not it.dupin} == set("abc")
    for it in items:
        c = coefficients(it)
        assert c.a0 != 1 and c.b == (0, 0, 0)
        assert corpus.integer_gauge(c.astuple()) > 1
        assert it.dupin or (it.params["m"] != 0 and it.params["df0"] != 0)


def test_float_corpus_fixed_block_ignores_the_seed():
    a, b = corpus.float_corpus(1, 500), corpus.float_corpus(2, 500)
    assert [it.line() for it in a[:400]] == [it.line() for it in b[:400]]
    assert [it.line() for it in a[400:]] != [it.line() for it in b[400:]]
    assert not any(corpus.on_float_fault_strata(it.params) for it in a[400:])


@pytest.mark.parametrize("exact", [True, False])
def test_rounds_change_the_bytes_not_the_surface(exact):
    items = corpus.generate_corpus(7, 30, exact)
    factors = corpus.round_factors(exact)
    mode = "exact" if exact else "float"
    rounds = [corpus.round_lines(items, factors, r) for r in range(len(factors))]
    for i, item in enumerate(items):
        lines = [lines[i] for lines in rounds]
        assert len(set(lines)) == len(factors)
        c = serialize.parse_coefficients(json.loads(item.line()), mode)
        for line in lines[:5]:
            k = serialize.parse_coefficients(json.loads(line), mode)
            lead = next(x / y for x, y in zip(k.astuple(), c.astuple()) if y)
            assert lead > 0 and k == c.scale(lead)


def analyze(item, pol, verb):
    mode = "exact" if pol.exact else "float"
    c = serialize.parse_coefficients(json.loads(item.line()), mode)
    return json.loads(json.dumps(pipeline.analyze(c, pol, verb)))


def test_exact_reports_at_seed_7_pass():
    # the 400 inputs of `cyclide generate --seed 7 --count 400 --kind mixed`
    for item in corpus.generate_corpus(7, 400):
        assert truth.check_analysis(item, analyze(item, EXACT, "to-torus"),
                                    truth.truth_of(item)) is None
    for item in corpus.quartic_recognize_corpus(7, 240):
        assert truth.check_recognition(item, analyze(item, EXACT, "recognize")) is None


# rows of `cyclide generate --seed 7 --count 400 --kind mixed` that float
# mode gets wrong (README): double roots decided on square-rooted values,
# and gamma^2 = 0 or delta^2 = gamma^2 left unsnapped
FLOAT_FAULTS = {18: "Inconsistent", 95: "Inconsistent", 197: "Inconsistent",
                226: "Inconsistent", 307: "Inconsistent", 386: "Inconsistent",
                26: "class_change", 35: "class_change", 63: "class_change",
                131: "class_change", 298: "class_change",
                17: "class_change_flagged", 145: "class_change_flagged",
                385: "class_change_flagged",
                **dict.fromkeys((0, 22, 52, 53, 70, 89, 118, 149, 152, 212, 221, 224,
                                 256, 258, 306, 323, 345, 349, 352, 383), "value_change")}


def float_outcomes(items, k=Fraction(1)):
    failed = {}
    for i, item in enumerate(items):
        try:
            c = serialize.parse_coefficients(json.loads(item.line(k)), "float")
            report = json.loads(json.dumps(pipeline.analyze(c, FLOAT, "to-torus")))
        except Exception as exc:  # noqa: BLE001 - typed errors are the outcome
            failed[i] = type(exc).__name__
            continue
        kind = truth.float_failure(item, report, truth.truth_of(item))
        if kind:
            failed[i] = kind
    return failed


def test_float_fixed_block_fails_the_known_rows():
    assert float_outcomes(corpus.float_corpus(7, 400)) == FLOAT_FAULTS


def test_float_faults_hold_at_every_round_factor():
    fixed = corpus.float_corpus(7, 400)
    rows = sorted(FLOAT_FAULTS)
    for k in corpus.round_factors(False)[:8]:
        assert float_outcomes([fixed[i] for i in rows], k) == \
            {j: FLOAT_FAULTS[i] for j, i in enumerate(rows)}


def _first(kind):
    return next(it for it in corpus.generate_corpus(7, 40) if it.kind == kind)


@pytest.mark.parametrize("kind", ["quartic", "cubic"])
def test_check_catches_a_changed_class(kind):
    item = _first(kind)
    report, want = analyze(item, EXACT, "to-torus"), truth.truth_of(item)
    assert truth.check_analysis(item, report, want) is None
    report["class"] = "PL" if report["class"] != "PL" else "SM"
    assert truth.check_analysis(item, report, want) is not None
    assert truth.float_failure(item, report, want) == "class_change"


@pytest.mark.parametrize("kind,key", [("quartic", "gamma_sq"), ("cubic", "q")])
def test_check_catches_a_changed_canonical_value(kind, key):
    item = _first(kind)
    report, want = analyze(item, EXACT, "to-torus"), truth.truth_of(item)
    value = Fraction(report["canonical"][key]) + Fraction(1, 3)
    report["canonical"][key] = f"{value.numerator}/{value.denominator}"
    assert truth.check_analysis(item, report, want) is not None


def test_check_catches_a_changed_float_value():
    item = next(it for it in corpus.float_corpus(7, 500)[400:]
                if it.kind == "quartic" and truth.truth_of(it)["map"] is not None)
    report, want = analyze(item, FLOAT, "to-torus"), truth.truth_of(item)
    assert truth.float_failure(item, report, want) is None
    nudge = lambda v: v + 1e-3 * max(1.0, abs(v))
    for key in ("J0", "canonical", "torus", "map"):
        broken = json.loads(json.dumps(report))
        if key == "J0":
            broken["J0"] = nudge(broken["J0"])
        elif key == "map":
            broken["map"] = {"error": "not built"}
        else:
            field = "R_sq" if key == "torus" else "delta_sq"
            broken[key][field] = nudge(broken[key][field])
        assert truth.float_failure(item, broken, want) == "value_change", key


def test_check_catches_a_map_error():
    item = next(it for it in corpus.generate_corpus(7, 40)
                if it.kind == "quartic" and truth.truth_of(it)["map"] is not None)
    report, want = analyze(item, EXACT, "to-torus"), truth.truth_of(item)
    assert truth.check_analysis(item, report, want) is None
    report["map"] = {"error": "not built"}
    assert truth.check_analysis(item, report, want) is not None


def test_check_catches_missing_residuals():
    for item in corpus.quartic_recognize_corpus(7, 2):
        report = analyze(item, EXACT, "recognize")
        del report["residuals"]
        assert truth.check_recognition(item, report) is not None


def test_check_catches_a_changed_verdict():
    items = corpus.quartic_recognize_corpus(7, 2)
    for item in items:
        report = analyze(item, EXACT, "recognize")
        assert truth.check_recognition(item, report) is None
        report["kind"] = "NotDupin" if item.dupin else "DupinQuartic"
        assert truth.check_recognition(item, report) is not None


def test_tracer_reports_every_layer_and_restores_the_program():
    items = corpus.generate_corpus(7, 12)
    original = pipeline.analyze
    tracer = Tracer()
    tracer.install()
    try:
        for i, item in enumerate(items):
            tracer.input_id = i
            analyze(item, EXACT, "to-torus")
    finally:
        tracer.uninstall()
    assert pipeline.analyze is original
    metrics = layer_metrics(tracer, len(items), sum(it.kind == "quartic" for it in items))
    assert set(metrics) == set(PER_LAYER)
    quartic_calls = metrics["core.normalize_quartic.calls"]["value"]
    assert quartic_calls == 2   # recognize and pipeline.analyze each normalize
    totals = tracer.totals()
    assert all(t["self"] >= 0 and t["self"] <= t["incl"] for t in totals.values())
