"""End-to-end analysis prepares each input once: one normalization per
quartic, at most one Euclidean motion per input, one invariant bundle of the
gauged copy shared by every stage, and one degree decision that depends
neither on the scale of the equation nor, in exact mode, on whether the
coefficients are ints or Fractions."""
import fractions
import importlib.util
import inspect
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from cyclide import (DarbouxCoefficients, EuclideanMotion, canonical, classify, cli,
                     core, invariants, pipeline, recognizer)
from cyclide.errors import Inconsistent, PreconditionError
from cyclide.genkit import (QuarticSeed, generate_cubic_dupin, generate_quartic_dupin,
                            random_motion, random_quartic_seed)
from cyclide.recognizer import CUBIC, LINEAR, QUADRIC, QUARTIC, TolerancePolicy, prepare
from cyclide.scalar import EXACT, FLOAT
from cyclide.serialize import coefficients_to_json


def _record(monkeypatch, modules, name, calls):
    """Wrap `name` at every module attribute it is called through; each call
    appends its first argument to calls."""
    original = getattr(modules[0], name)

    def recorded(c, *args, **kwargs):
        calls.append(c)
        return original(c, *args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_to_torus_prepares_each_quartic_once(mode, monkeypatch):
    pol = TolerancePolicy(mode)
    rng = random.Random(5)
    quartics = [generate_quartic_dupin(random_quartic_seed(rng, smooth=True))
                for _ in range(12)]
    if mode == FLOAT:
        quartics = [c.to_float() for c in quartics]
    normalized, bundles, prepared = [], [], []
    _record(monkeypatch, (core, recognizer, pipeline), "normalize_quartic", normalized)
    _record(monkeypatch, (invariants, recognizer, canonical, classify),
            "base_invariants", bundles)
    prepare = getattr(recognizer, "prepare", None)

    def recorded_prepare(c, p):
        prepared.append(prepare(c, p))
        return prepared[-1]

    monkeypatch.setattr(recognizer, "prepare", recorded_prepare, raising=False)
    for c in quartics:
        normalized.clear()
        bundles.clear()
        report = pipeline.analyze(c, pol, "to-torus")
        assert report["kind"] == "DupinQuartic" and "canonical" in report
        assert len(normalized) == 1
        work = prepared[-1].work
        # one bundle, of the gauged copy: the exact 12-generator cross-check
        # evaluates every generator itself from the bundle `prepare` made,
        # and no stage computes one of a permuted copy
        assert len(bundles) == 1 and bundles[0] is work


SIGMA_USERS = (core, invariants, recognizer, canonical, classify, pipeline)


def test_cross_check_stops_before_the_orbit(monkeypatch):
    # a nonzero N1 decides the exact cross-check before K, L and M, so no
    # sigma-image is taken for it; at e = 0 the case dispatch takes none
    # either, so a whole recognize takes none
    pol = TolerancePolicy(EXACT)
    c = DarbouxCoefficients.make(a0=1, c=(-10, -10, 6), f0=8)
    p = prepare(c, pol)
    assert invariants.quartic_generators(p.work)["N1"] != 0
    images = []
    _record(monkeypatch, SIGMA_USERS, "sigma_images", images)
    assert invariants.quartic_generators_vanish(p.work, p.inv) is False
    assert pipeline.analyze(c, pol, "recognize")["kind"] == "NotDupin"
    assert images == []
    moved = c.replace(e1=Fraction(1))
    p = prepare(moved, pol)
    assert recognizer.quartic_generators_vanish(p.work, p.inv) is False
    assert images == []
    # every N vanishes on the Dupin torus: K, L and M are then evaluated,
    # on the images of one call
    torus = prepare(c.replace(f0=Fraction(9)), pol)
    assert recognizer.quartic_generators_vanish(torus.work, torus.inv) is True
    assert images == [torus.work]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_to_torus_makes_no_permuted_copy(mode, monkeypatch):
    # every index 2 and 3 image is taken as plain slots by sigma_images; no
    # stage module has a way to build a permuted DarbouxCoefficients copy
    for module in SIGMA_USERS:
        for name in ("apply_permutation", "sigma_orbit"):
            assert not hasattr(module, name), (module.__name__, name)
    rng = random.Random(18)
    seed = random_quartic_seed(rng, smooth=True)
    while seed.m == 0:  # e = 0 at the centre: no axis case
        seed = random_quartic_seed(rng, smooth=True)
    quartic = generate_quartic_dupin(seed)
    cubic = generate_cubic_dupin(-2, 2, random_motion(rng))
    images = []
    _record(monkeypatch, SIGMA_USERS, "sigma_images", images)
    for c in (quartic, cubic):
        images.clear()
        report = pipeline.analyze(c if mode == EXACT else c.to_float(),
                                  TolerancePolicy(mode), "to-torus")
        assert report["kind"].startswith("Dupin") and "canonical" in report
        assert images


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_to_torus_moves_each_input_at_most_once(mode, monkeypatch):
    # the benchmark's core.apply_motion.calls span counts these calls
    rng = random.Random(9)
    moved = generate_quartic_dupin(random_quartic_seed(rng, smooth=True))
    rotation = random_motion(rng, translate=False)
    centred = generate_quartic_dupin(random_quartic_seed(rng, rotation, smooth=True))
    cubic = generate_cubic_dupin(-2, 2, random_motion(rng))
    assert moved.b != (0, 0, 0) and centred.b == (0, 0, 0)
    calls = []
    _record(monkeypatch, (core, canonical), "apply_motion", calls)
    for c, want in ((moved, 1), (centred, 0), (cubic, 1)):
        calls.clear()
        report = pipeline.analyze(c if mode == EXACT else c.to_float(),
                                  TolerancePolicy(mode), "to-torus")
        assert report["kind"].startswith("Dupin") and "canonical" in report
        assert len(calls) == want


def test_every_tracer_target_resolves():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


# one input per degree branch, each with a slot above its degree that is
# zero only relative to the largest coefficient (a float residue); the cubic
# is the (p, q) = (-2, 2) ring cyclide
BY_BRANCH = {
    QUARTIC: DarbouxCoefficients.make(a0=1, c=(-10, -10, 6), f0=9, exact=False),
    CUBIC: DarbouxCoefficients.make(a0=1e-11, b=(1, 0, 0), c=(0, -2, 2),
                                    e=(-1, 0, 0), exact=False),
    QUADRIC: DarbouxCoefficients.make(a0=1e-12, b=(1e-12, 0, 0), c=(1, 1, 2),
                                      exact=False),
    LINEAR: DarbouxCoefficients.make(c=(1e-12, 0, 0), e=(0, 0, 1), f0=1,
                                     exact=False),
}
SCALES = (1, 1000, 2 ** 30)


@pytest.mark.parametrize("k", SCALES)
def test_float_cubic_is_recognized_at_every_scale(k):
    report = pipeline.analyze(BY_BRANCH[CUBIC].scale(k), TolerancePolicy(FLOAT),
                              "to-torus")
    assert report["kind"] == "DupinCubic" and report["class"] == "SM"


@pytest.mark.parametrize("branch", sorted(BY_BRANCH))
def test_degree_branch_is_scale_free(branch):
    pol = TolerancePolicy(FLOAT)
    assert [prepare(BY_BRANCH[branch].scale(k), pol).branch for k in SCALES] \
        == [branch] * len(SCALES)


def _fractions_calls(run):
    """Python calls into fractions.py while run() runs."""
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_float_mode_never_touches_fractions(tmp_path, capsys):
    # float inputs, and a generated corpus of ints and "p/q" strings, go
    # through every verb with no Fraction made, compared or printed
    assert cli.main(["generate", "--seed", "7", "--count", "60", "--kind", "mixed"]) == 0
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text(capsys.readouterr().out)
    branches = tmp_path / "branches.jsonl"
    branches.write_text("".join(json.dumps(coefficients_to_json(c)) + "\n"
                                for c in BY_BRANCH.values()))
    for path, rows in ((corpus, 60), (branches, len(BY_BRANCH))):
        for verb in ("recognize", "classify", "canonicalize", "j0", "to-torus"):
            codes = []
            calls = _fractions_calls(
                lambda: codes.append(cli.main([verb, "--float", str(path)])))
            out = capsys.readouterr().out.splitlines()
            assert codes == [0] and len(out) == rows
            assert calls == [], (verb, path.name, sorted(set(calls)))


EXACT_BY_BRANCH = {
    QUARTIC: DarbouxCoefficients.make(a0=1, c=(-10, -10, 6), f0=9),
    CUBIC: DarbouxCoefficients.make(b=(1, 0, 0), c=(0, -2, 2), e=(-1, 0, 0)),
    QUADRIC: DarbouxCoefficients.make(c=(1, 1, 2)),
    LINEAR: DarbouxCoefficients.make(e=(0, 0, 1), f0=1),
}


@pytest.mark.parametrize("branch", sorted(EXACT_BY_BRANCH))
def test_exact_mode_refuses_float_coefficients(branch):
    pol = TolerancePolicy(EXACT)
    c = EXACT_BY_BRANCH[branch]
    assert prepare(c, pol).branch == branch
    with pytest.raises(PreconditionError, match="int or Fraction"):
        pipeline.analyze(c.to_float(), pol, "to-torus")


def test_int_cubic_reports_exact_values():
    ints = DarbouxCoefficients(0, 1, 0, 0, 0, -2, 2, 0, 0, 0, -1, 0, 0, 0)
    fractions = DarbouxCoefficients(*map(Fraction, ints.astuple()))
    pol = TolerancePolicy(EXACT)
    report = pipeline.analyze(ints, pol, "to-torus")
    assert json.dumps(report) == json.dumps(pipeline.analyze(fractions, pol, "to-torus"))
    assert json.dumps(report["canonical"]["shift"]) == "[0, 0, 0]"
    assert all(json.dumps(v) == "0" for v in report["residuals"].values())


def test_nested_errors_carry_their_type():
    # touching spheres, alpha^2 = gamma^2: no torus radius ratio
    seed = QuarticSeed(Fraction(1), Fraction(1), Fraction(1, 4), Fraction(1, 2),
                       EuclideanMotion.identity())
    report = pipeline.analyze(generate_quartic_dupin(seed), TolerancePolicy(EXACT),
                              "to-torus")
    assert report["class"] == "R"
    assert report["torus"]["error"].startswith("DegenerateRatio: ")


# the float torus R = 2, r = 1 nudged off the variety: f0 = 9(1 + 1e-6) and
# e1 = 1e-6; a loose tolerance takes it for the ring, a tight one does not
NEAR_TORUS = DarbouxCoefficients.make(a0=1.0, c=(-10.0, -10.0, 6.0), e=(1e-6, 0.0, 0.0),
                                      f0=9 * (1 + 1e-6))


@pytest.mark.parametrize("tau", [1e-3, 1e-9])
def test_stages_read_the_policy_the_input_was_prepared_under(tau):
    pol = TolerancePolicy(FLOAT, tau)
    verdict = recognizer.recognize(NEAR_TORUS, pol)
    assert verdict.kind == recognizer.DUPIN_QUARTIC
    assert verdict.prepared.pol is pol
    if tau == 1e-9:
        with pytest.raises(Inconsistent, match="A1 system has no common solution"):
            canonical.spectral_data(verdict.prepared)
        return
    sd = canonical.spectral_data(verdict.prepared)
    assert classify.classify_quartic(sd, pol).code == "SM"
    j0 = classify.j0_quartic(verdict.prepared, sd)
    assert j0.kind == "finite" and math.isfinite(j0.value)


def test_no_stage_after_prepare_takes_a_policy():
    stages = (recognizer.recognize_quartic_cases, recognizer.recognize_quartic_oracle,
              recognizer.recognize_cubic, recognizer.recognize_quadric,
              recognizer.residuals_back, canonical.spectral_data,
              canonical.canonical_cubic_params, classify.j0_quartic, classify.j0_cubic)
    for stage in stages:
        assert "pol" not in inspect.signature(stage).parameters, stage.__name__
    assert "pol" not in recognizer.Prepared._field_defaults
    assert not hasattr(TolerancePolicy, "nonzero")
