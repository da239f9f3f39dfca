"""End-to-end analysis prepares each input once: one normalization per
quartic, and one invariant bundle of the gauged copy shared by every stage."""
import random

import pytest

from cyclide import canonical, classify, core, invariants, pipeline, recognizer
from cyclide.genkit import generate_quartic_dupin, random_quartic_seed
from cyclide.recognizer import TolerancePolicy
from cyclide.scalar import EXACT, FLOAT


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
        # exact mode: the 12-generator cross-check is an independent oracle
        # and computes its own bundle of the same copy
        assert sum(b is work for b in bundles) == (2 if mode == EXACT else 1)
