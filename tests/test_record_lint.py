"""Lint: each record has one writer.

A service span is recorded in one place,
:meth:`repro.core.api.SyncPrimitive.record_service`: it alone writes the
``SERVICE_CYCLES`` / ``SERVICES`` registers and emits ``server.done``,
so the registers and the event log cannot drift apart (a second count
beside them once disagreed with them on half the approaches).  A UDN
message is counted in one ledger, the counter file's per-(src core,
dst core) ``pair`` rows, and only the fabric (``repro/udn/udn.py``)
writes them; the spatial atlas and the per-core sums only read them.

This test walks every module of ``repro`` and fails on a write of a
service register, an emit of ``server.done`` or a write of a pair row
outside its one place.  A write is an assignment or augmented
assignment to a subscript: indexed by a ``SERVICE_CYCLES`` /
``SERVICES`` / ``PAIR_*`` slot, or of a ``.pair`` attribute.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent
SERVICE_WRITER = ROOT / "core" / "api.py"
PAIR_WRITER = ROOT / "udn" / "udn.py"

SERVICE_SLOTS = {"SERVICE_CYCLES", "SERVICES"}


def _targets(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, ast.AugAssign):
            yield node.target


def _findings(path):
    """(line, what) for every service/pair write and server.done emit."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for target in _targets(tree):
        if not isinstance(target, ast.Subscript):
            continue
        index = target.slice
        if isinstance(index, ast.Name) and index.id in SERVICE_SLOTS:
            yield target.lineno, "service", f"writes {index.id}"
        elif isinstance(index, ast.Name) and index.id.startswith("PAIR_"):
            yield target.lineno, "pair", f"writes a pair row's {index.id}"
        elif isinstance(target.value, ast.Attribute) and target.value.attr == "pair":
            yield target.lineno, "pair", "writes a pair row"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "server.done"):
            yield node.lineno, "service", "emits server.done"


def _all_findings():
    files = sorted(ROOT.rglob("*.py"))
    assert files, f"no sources found under {ROOT}"
    return [(path, lineno, group, what)
            for path in files for lineno, group, what in _findings(path)]


def test_only_the_recorder_writes_service_spans():
    found = _all_findings()
    offenders = [f"{path.relative_to(ROOT.parent)}:{lineno}: {what}"
                 for path, lineno, group, what in found
                 if group == "service" and path != SERVICE_WRITER]
    assert not offenders, (
        "service spans recorded outside SyncPrimitive.record_service:"
        "\n  " + "\n  ".join(offenders))
    # the recorder is there, and is the one server.done emit
    mine = [what for path, _l, group, what in found if path == SERVICE_WRITER]
    assert sorted(mine) == ["emits server.done", "writes SERVICES",
                            "writes SERVICE_CYCLES"]


def test_only_the_fabric_writes_pair_rows():
    found = _all_findings()
    offenders = [f"{path.relative_to(ROOT.parent)}:{lineno}: {what}"
                 for path, lineno, group, what in found
                 if group == "pair" and path != PAIR_WRITER]
    assert not offenders, (
        "counter-file pair rows written outside repro/udn/udn.py:"
        "\n  " + "\n  ".join(offenders))
    assert any(path == PAIR_WRITER for path, _l, group, _w in found
               if group == "pair"), "the lint no longer sees the fabric's writes"
