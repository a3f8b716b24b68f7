"""Lint: only the approach table builds a synchronization primitive.

Which primitive a paper label names, with which constructor arguments,
and which thread ids are its clients is decided in one place,
:func:`repro.workload.scenarios.build_approach`.  A second label table
elsewhere would drift from it (one copy checking that the clients fit,
another not).  This test walks every module of ``repro`` outside
``repro/core/`` (where the primitives live) and the approach table
itself, and fails on any call of a primitive's constructor.
"""

import ast
import pathlib

import repro

PRIMITIVES = {"MPServer", "ShmServer", "HybComb", "CCSynch", "FlatCombining"}

ROOT = pathlib.Path(repro.__file__).parent
ALLOWED = {ROOT / "workload" / "scenarios.py"}


def _constructor_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in PRIMITIVES:
                yield node.lineno, name


def test_only_the_approach_table_constructs_primitives():
    files = sorted(ROOT.rglob("*.py"))
    assert files, f"no sources found under {ROOT}"
    offenders = [
        f"{path.relative_to(ROOT.parent)}:{lineno}: calls {name}"
        for path in files
        if (ROOT / "core") not in path.parents and path not in ALLOWED
        for lineno, name in _constructor_calls(path)
    ]
    assert not offenders, (
        "primitives built outside repro.workload.scenarios.build_approach:"
        "\n  " + "\n  ".join(offenders))
