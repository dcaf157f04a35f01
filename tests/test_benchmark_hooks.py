"""The names the benchmark harness in ``perfbench/`` reaches into, checked without running it.

``perfbench/workloads.py`` wraps module attributes in timing spans, calls
package functions, such as ``link.estimate_harvest``, directly, and reads the
fields of sweep specs and harvester models. A rename in the package breaks
only the slow benchmark self-tests; this reads the harness source with ``ast``
and checks the same names here.
"""

import ast
import importlib
from dataclasses import fields, replace
from pathlib import Path

from marswpt import link
from marswpt.harvester import HarvesterModel, harvester_preset
from marswpt.sweep import SweepSpec, builtin_presets

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _calls(tree, module, attr):
    """Calls of ``<module>.<attr>(...)``; any receiver when ``module`` is None."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and (module is None or isinstance(node.func.value, ast.Name) and node.func.value.id == module)
    ]


def test_every_rebound_attribute_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    hooks = set()
    for call in _calls(tree, None, "rebind"):
        module, attr = call.args[:2]
        hooks.add((module.id, attr.value))
    assert ("link", "harvest_samples") in hooks
    for module, attr in sorted(hooks):
        assert hasattr(importlib.import_module(f"marswpt.{module}"), attr), f"{module}.{attr}"


def test_every_op_span_wraps_a_name_its_module_calls():
    # An op span counts the calls that the module makes by the rebound name. A
    # module that stopped calling it would leave the harness no op to time, and
    # its percentiles would fail on an empty list.
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    ops = {
        (call.args[0].id, call.args[1].value) for call in _calls(tree, None, "rebind")
        if any(kw.arg == "op" and kw.value.value is True for kw in call.keywords)
    }
    assert {("sweep", "estimate_harvest"), ("cli", "estimate_harvest")} <= ops
    for module, attr in sorted(ops):
        source = ast.parse((ROOT / "src" / "marswpt" / f"{module}.py").read_text(encoding="utf-8"))
        assert any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == attr
            for node in ast.walk(source)
        ), f"{module}.py makes no call to {attr}"


def test_every_module_call_names_an_existing_attribute():
    # A moved or renamed function that the harness calls, such as
    # harvester.write_model_file, fails here rather than in its slow self-tests.
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    calls = {
        (node.func.value.id, node.func.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in {"cli", "harvester", "link", "sweep"}
    }
    assert {("cli", "main"), ("harvester", "write_model_file"), ("harvester", "read_model_file")} <= calls
    for module, attr in sorted(calls):
        assert hasattr(importlib.import_module(f"marswpt.{module}"), attr), f"{module}.{attr}"


def test_every_spec_and_model_read_names_a_field():
    # The harness names a SweepSpec ``spec`` and a HarvesterModel ``model``.
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    records = {"spec": SweepSpec, "model": HarvesterModel}
    reads = {
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in records
    }
    spec_reads = {"axis", "base", "harvesters", "mc", "points", "secondary", "secondary_values"}
    assert {("spec", attr) for attr in spec_reads} | {("model", "valid_range_mw")} <= reads
    for name, attr in sorted(reads):
        assert attr in {field.name for field in fields(records[name])}, f"{name}.{attr}"


def test_estimate_harvest_takes_the_warm_up_call():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    warm_ups = _calls(tree, "link", "estimate_harvest")
    assert warm_ups and all(len(c.args) == 3 and not c.keywords for c in warm_ups)
    spec = builtin_presets()["fig3a"]
    mc = replace(spec.mc, n_samples=200, seed=link.derive_substream_seed(12345, 0))
    stats = link.estimate_harvest(spec.base, harvester_preset(spec.harvesters[0]), mc)
    assert stats.n_samples == 200
