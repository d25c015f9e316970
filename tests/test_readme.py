"""The README's library quick tour and the fast demos, run as users would.

Each runs in a fresh interpreter, so the lazy package namespace is
exercised exactly as `from repstab import *` meets it in a new session.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# evaluates each top-level statement in turn and prints the repr of every
# expression statement's value as one JSON list
_TOUR_DRIVER = """
import ast, json, sys
tree = ast.parse(sys.stdin.read())
env, shown = {}, []
for node in tree.body:
    if isinstance(node, ast.Expr):
        code = compile(ast.Expression(node.value), "<tour>", "eval")
        shown.append([node.end_lineno, repr(eval(code, env))])
    else:
        exec(compile(ast.Module([node], []), "<tour>", "exec"), env)
print(json.dumps(shown))
"""


def _quick_tour():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _comment_after(lines, lineno):
    """The comment trailing line `lineno` (1-based) with the comment-only
    lines that follow it, whitespace collapsed."""
    parts = [lines[lineno - 1].partition("#")[2]]
    for line in lines[lineno:]:
        if not line.lstrip().startswith("#"):
            break
        parts.append(line.lstrip()[1:])
    return " ".join(" ".join(parts).split())


def test_readme_quick_tour_values(subprocess_env):
    source = _quick_tour()
    run = subprocess.run([sys.executable, "-W", "error", "-c", _TOUR_DRIVER],
                         input=source, env=subprocess_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    shown = json.loads(run.stdout)
    assert [value for _line, value in shown] == [
        "3",
        "['p2-l2', 'p2-l2.1']",
        "2",
        "{'torsion_free_from': 9, 'surjective_from': 3}",
    ]
    # the README states each value in the comment after its expression
    lines = source.splitlines()
    for lineno, value in shown:
        assert _comment_after(lines, lineno).startswith(value), value


@pytest.mark.parametrize("demo", ["central_stability", "order_combinatorics",
                                  "tensor_and_hom", "torsion_and_colimits"])
def test_fast_demos_run(demo, subprocess_env):
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                         env=subprocess_env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
