"""What the analysis path loads, and the immutable records it builds.

`import cyclide` (with `cyclide.pipeline` and `cyclide.serialize`) and the
CLI's analysis verbs load no module that analysis never runs: no `typing`,
`dataclasses` or `random`, and not the generator kit, which is imported on
first use.  A `recognize` analysis, and any verb on a Dupin quadric or a
NotDupin input, loads none of the later stages (`canonical`, `classify`,
`moebius`, with `cmath`): `cyclide` resolves their names on first access
and `cyclide.pipeline` binds them on its first Dupin quartic or cubic past
the verdict, and a wrapper that bench/tracing.py sets on
`cyclide.pipeline` before then is what `analyze` calls.  No module of the
package, the generator kit, the acceptance suite and the CLI included,
loads `typing`, `dataclasses` or `inspect`.  Each probe runs in a fresh
`python -S`, as a cold start does."""
import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cyclide import TolerancePolicy, Verdict, recognize
from cyclide.scalar import EXACT, FLOAT
from cyclide.serialize import parse_coefficients
from test_cli import CHILD_ENV, TORUS_JSON

# modules the analysis path never runs
OFF_PATH = ("typing", "dataclasses", "inspect", "random", "csv", "cyclide.genkit")
# modules a recognize analysis never runs: the stages after recognition
LATER_STAGES = ("cyclide.canonical", "cyclide.classify", "cyclide.moebius", "cmath")
# one Dupin input per degree branch: the torus R = 2, r = 1, the (p, q) =
# (-2, 2) ring cyclide and a rotational cone
BY_DEGREE = (TORUS_JSON, '{"b1":1,"c2":"-2","c3":"2","e1":"-1"}', '{"c1":1,"c2":1,"c3":2}')
BENCH = Path(__file__).resolve().parents[1] / "bench"
# modules no module of the package runs
RECORD_MACHINERY = ("typing", "dataclasses", "inspect")
PACKAGE_MODULES = sorted(
    f"cyclide.{p.stem}"
    for p in (Path(__file__).resolve().parents[1] / "src" / "cyclide").glob("*.py")
    if p.stem != "__init__")


def probe(code: str) -> list:
    """The words of the last stdout line of a fresh `python -S -c code`."""
    out = subprocess.run([sys.executable, "-S", "-c", code], env=CHILD_ENV,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


def loaded_after(setup: str, names) -> list:
    """The modules of names that a fresh `python -S` has loaded once it has
    run setup."""
    return probe(f"import sys\n{setup}\n"
                 f"print(*(n for n in {tuple(names)!r} if n in sys.modules))")


def test_import_loads_no_module_off_the_analysis_path():
    setup = ("import cyclide, cyclide.pipeline, cyclide.serialize\n"
             "cyclide.TolerancePolicy('exact')")
    assert loaded_after(setup, OFF_PATH) == []


def test_analysis_verbs_load_no_generator():
    verbs = ("recognize", "classify", "canonicalize", "j0", "to-torus")
    setup = ("from cyclide.cli import main\n"
             f"for verb in {verbs!r}:\n"
             "    for mode in ('--exact', '--float'):\n"
             f"        assert main([verb, mode, {TORUS_JSON!r}]) == 0")
    assert loaded_after(setup, ("random", "dataclasses", "cyclide.genkit")) == []


def test_recognize_loads_no_later_stage():
    setup = ("import json\n"
             "import cyclide, cyclide.pipeline, cyclide.serialize\n"
             "from cyclide.cli import main\n"
             f"for line in {BY_DEGREE!r}:\n"
             "    for mode in ('exact', 'float'):\n"
             "        pol = cyclide.TolerancePolicy(mode)\n"
             "        c = cyclide.serialize.parse_coefficients(json.loads(line), mode)\n"
             "        assert cyclide.pipeline.analyze(c, pol, 'recognize')['kind'] != 'NotDupin'\n"
             "        assert main(['recognize', '--' + mode, line]) == 0")
    assert loaded_after(setup, LATER_STAGES) == []
    # every exported name but the submodule genkit resolves without an
    # import, `from cyclide import *` binds them all (genkit included), and
    # a stage's name is the stage's own object
    names = probe("import cyclide\n"
                  "unresolved = [n for n in cyclide.__all__ if not hasattr(cyclide, n)]\n"
                  "star = {}\n"
                  "exec('from cyclide import *', star)\n"
                  "unbound = [n for n in cyclide.__all__ if star.get(n) is not getattr(cyclide, n)]\n"
                  "import cyclide.canonical\n"
                  "print(*unresolved, '|', *unbound, '|',\n"
                  "      cyclide.spectral_data is cyclide.canonical.spectral_data)")
    assert names == ["genkit", "|", "|", "True"]


def test_quadric_and_not_dupin_load_no_later_stage():
    # a Dupin quadric (reported with "class": null) and a NotDupin quartic
    # stop at the verdict under every verb, so the stages stay unloaded
    inputs = ('{"c1":1,"c2":1,"c3":1}', '{"a0":1,"c1":1,"c2":2,"c3":3,"e1":1,"f0":-1}')
    setup = ("from cyclide.cli import main\n"
             f"for line in {inputs!r}:\n"
             "    for verb in ('classify', 'to-torus'):\n"
             "        for mode in ('--exact', '--float'):\n"
             "            assert main([verb, mode, line]) == 0")
    assert loaded_after(setup, LATER_STAGES) == []


def test_bench_tracer_wraps_the_later_stages_before_they_load():
    code = ("import json, sys\n"
            "import cyclide.pipeline as pipeline\n"
            "from cyclide.recognizer import TolerancePolicy\n"
            "from cyclide.serialize import parse_coefficients\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            "from tracing import TARGETS, Tracer\n"
            "assert 'cyclide.canonical' not in sys.modules\n"
            "calls = []\n"
            "stage = lambda: sys.modules['cyclide.canonical']\n"
            "pipeline.spectral_data = lambda *a: calls.append(a) or stage().spectral_data(*a)\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "assert all(hasattr(sys.modules[m], a) for m, a, _ in TARGETS)\n"
            "pol = TolerancePolicy('exact')\n"
            f"c = parse_coefficients(json.loads({TORUS_JSON!r}), 'exact')\n"
            "report = pipeline.analyze(c, pol, 'to-torus')\n"
            "assert 'torus' in report and 'error' not in report['torus']\n"
            "print(len(calls), *sorted(tracer.totals()))")
    calls, *spans = probe(code)
    assert calls == "1"
    assert {"canonical.spectral_data", "canonical.canonical_quartic_params",
            "classify.classify_quartic_report", "classify.j0_quartic",
            "moebius.torus_radii", "moebius.build_map"} <= set(spans)


def test_no_package_module_loads_typing_dataclasses_or_inspect():
    assert {"cyclide.acceptance", "cyclide.cli", "cyclide.genkit"} <= set(PACKAGE_MODULES)
    setup = f"import {', '.join(PACKAGE_MODULES)}"
    assert loaded_after(setup, RECORD_MACHINERY) == []


@pytest.mark.parametrize("setup", ["from cyclide import genkit",
                                   "import cyclide.genkit as genkit",
                                   "from cyclide import *"])
def test_genkit_is_imported_on_first_use(setup):
    assert probe(f"{setup}\nprint(genkit.generate_quartic_dupin.__module__)") == \
        ["cyclide.genkit"]


def torus(pol):
    """The torus R = 2, r = 1 of TORUS_JSON, in the policy's mode."""
    return parse_coefficients(json.loads(TORUS_JSON), pol.mode)


class TestTolerancePolicy:
    def test_immutable(self):
        pol = TolerancePolicy(EXACT)
        for name in ("mode", "tau_rel", "exact", "other"):
            with pytest.raises(AttributeError):
                setattr(pol, name, None)

    def test_equal_and_hashable_by_value(self):
        a, b = TolerancePolicy(EXACT), TolerancePolicy("exact")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TolerancePolicy(FLOAT) and a != TolerancePolicy(EXACT, 1e-6)

    def test_exact_follows_mode(self):
        assert tuple(TolerancePolicy()) == (EXACT, 1e-9, True)
        assert tuple(TolerancePolicy(FLOAT, 1e-6)) == (FLOAT, 1e-6, False)
        assert TolerancePolicy()._replace(mode=FLOAT) == TolerancePolicy(FLOAT)
        assert TolerancePolicy(FLOAT)._replace(tau_rel=0.5).exact is False

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_copies_are_equal(self, mode):
        pol = TolerancePolicy(mode, 1e-7)
        for twin in (copy.copy(pol), copy.deepcopy(pol), pickle.loads(pickle.dumps(pol))):
            assert twin == pol and type(twin) is TolerancePolicy


class TestVerdict:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_every_field_is_read_only(self, mode):
        pol = TolerancePolicy(mode)
        v = recognize(torus(pol), pol)
        assert v.prepared is not None and v.is_dupin
        for name in (*Verdict._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)

    def test_equal_by_value_prepared_included(self):
        pol = TolerancePolicy(EXACT)
        c = torus(pol)
        assert recognize(c, pol) == recognize(c, pol)
        assert recognize(c, pol) != recognize(c, pol)._replace(prepared=None)
