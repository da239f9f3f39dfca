"""The README's "Library tour" runs as written and gives what its comments
say: a change of signature cannot leave the tour stale."""
import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_source() -> str:
    """The first ```python block after the "## Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_library_tour_runs_as_its_comments_say():
    tree = ast.parse(_tour_source())
    names, shown = {}, []
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            # a bare expression: the value its comment states
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), names))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), names)
    verdict, prep, sd, pol = (names[k] for k in ("verdict", "prep", "sd", "pol"))
    assert pol.exact and prep.pol is pol
    assert (verdict.kind, verdict.case_label) == ("DupinQuartic", "e")
    assert (sd.A1, sd.A2, sd.A3) == (-10, -10, 6)
    label, j0, radii = shown
    assert label.code == "SM" and label.name == "SMOOTH_RING"
    assert j0.kind == "finite" and j0.value == Fraction(3, 16)
    assert type(j0.value) is Fraction
    assert (radii.r_sq, radii.R_sq) == (1, 4)
