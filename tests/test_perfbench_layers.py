"""The benchmark's layer wrappers and worker use an API that exists.

``perfbench/layers.py`` wraps araprice functions by module and name, and
``perfbench/worker.py`` calls them, so a rename or a deleted parameter in
the program fails a benchmark run.  This checks every name and call in a
fraction of a second, without running the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_wrapped_target_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module}.{func}"
        for _, module, func, _ in (*layers.TARGETS, layers.LEGGAUSS)
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert not missing, f"perfbench/layers.py wraps missing functions: {missing}"


WORKER = LAYERS.with_name("worker.py")


def _dotted(node):
    """``a.b.c`` of a Name/Attribute chain, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def test_worker_calls_bind_to_the_program_api():
    """Every araprice call in ``perfbench/worker.py`` names an existing
    function and passes arguments its signature accepts.

    The worker runs only inside the benchmark, so a deleted name or
    parameter it uses would otherwise surface only in a benchmark run.
    The file is parsed, not imported.  A call that unpacks ``*args`` or
    ``**kwargs`` is checked for its plain positional count and keyword names
    as a partial binding.
    """
    tree = ast.parse(WORKER.read_text())
    aliases = set()  # names bound to the araprice package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "araprice":
                    importlib.import_module(alias.name)
                    aliases.add(alias.asname or "araprice")

    problems, checked = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None or name.split(".")[0] not in aliases:
            continue
        target = importlib.import_module("araprice")
        try:
            for attr in name.split(".")[1:]:
                target = getattr(target, attr)
        except AttributeError:
            problems.append(f"line {node.lineno}: {name} does not exist")
            continue
        unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        positional = [None] * sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        signature = inspect.signature(target)
        bind = signature.bind_partial if unpacked else signature.bind
        try:
            bind(*positional, **keywords)
        except TypeError as err:
            problems.append(f"line {node.lineno}: {name}: {err}")
        checked += 1
    assert checked, "no araprice call found in worker.py"
    assert not problems, "\n".join(problems)


def test_every_counter_reads_parameters_of_its_target():
    """Each counter in ``TARGETS`` reads ``args["..."]``, the call's bound
    arguments by name, so a renamed parameter would fail only a traced
    benchmark run.  The file is parsed, not imported."""
    tree = ast.parse(LAYERS.read_text())
    reads = {}  # counter function -> the argument names it reads or writes
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "args"
                and isinstance(sub.slice, ast.Constant)
            }
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    problems, checked = [], 0
    for entry in targets.elts:
        _, module, func, counter = entry.elts
        if not isinstance(counter, ast.Name) or counter.id not in reads:
            continue  # None or CALLS_ONLY: no argument is read
        assert reads[counter.id], f"{counter.id} reads no argument"
        target = getattr(importlib.import_module(module.value), func.value)
        parameters = inspect.signature(target).parameters
        for key in sorted(reads[counter.id]):
            checked += 1
            if key not in parameters:
                problems.append(f"{counter.id} reads {key!r}, not a parameter of "
                                f"{module.value}.{func.value}")
    assert checked >= 6, "fewer counter arguments found than perfbench/layers.py reads"
    assert not problems, "\n".join(problems)
