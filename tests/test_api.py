"""The README's Python API section lists exactly the public names, its
Python quick start runs as written, every module states the argument rule
the same way, and no module imports a name it does not use."""

import ast
import dataclasses
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dcmkit
from dcmkit import (AntennaArray, DcmMap, GbsmConfig, LcrInputs, Material, Scene,
                    angular_psd, build_map, doppler_psd, doppler_psd_from_lags,
                    dynamic_cir, fresnel_coefficients, friis_path_gain, grid_points,
                    lcr_analytic, lcr_empirical, model_from_map, query, stfcf,
                    trace_static_mpcs)

from conftest import make_model

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api() -> list[tuple[str, str]]:
    """(module, name) for each entry of the README's Python API section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    entries, module = [], None
    for line in section.splitlines():
        heading = re.fullmatch(r"`(dcmkit\.\w+)`", line)
        if heading:
            module = heading.group(1)
        item = re.match(r"- `(\w+)`:", line)
        if item:
            entries.append((module, item.group(1)))
    return entries


def test_readme_api_equals_all():
    entries = readme_api()
    names = [name for _, name in entries]
    assert len(names) == len(set(names))
    assert set(names) == set(dcmkit.__all__)
    for module, name in entries:
        assert getattr(dcmkit, name).__module__ == module, name


def test_public_values_are_frozen():
    """Every public dataclass is an immutable value except the containers of
    taps, snapshots and maps."""
    classes = [getattr(dcmkit, name) for name in dcmkit.__all__]
    mutable = {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)
               and not cls.__dataclass_params__.frozen}
    assert mutable == {"Taps", "ChannelSnapshot", "DcmMap"}


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """Run the quick start's code block, so it cannot drift from the API."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the quick start writes site.dcm
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "site.dcm").is_file()


def test_modules_use_every_import():
    """A name imported by a dcmkit module is read in it, or listed in its
    `__all__`; a stale import is an error, as a linter would report it."""
    for path in sorted(Path(dcmkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused = [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used]
        assert not unused, unused


GOOD_LCR = dict(k=0.0, b0=1.0, b1=0.0, b2=1.0)
EMPTY = Scene(())
# values numpy cannot read as floats at all, rather than as three
NOT_A_POINT = ("0,0,0", b"0,0,0", object())

# (id, argument, values out of its range, a call that passes `v` as the
# argument); `c` holds a model with a two-element receive array, its
# clusters and a one-record map.  Every row also gets True, "1" and NaN.
# An id is a fixed label, so a row added anywhere renames no other case:
# the rows from before the labels were fixed keep their "<argument>-<n>"
# ids, n their position then, and a new row is "<argument>-<callee>".
RULE = [
    ("eps_r-0", "eps_r", (0.5,), lambda v, c: Material("m", v, 0.0)),
    ("sigma-1", "sigma", (-1.0,), lambda v, c: Material("m", 1.0, v)),
    ("distance-2", "distance", (0.0, 10**400), lambda v, c: friis_path_gain(v, 5.5e9)),
    ("frequency-3", "frequency", (0.0,), lambda v, c: friis_path_gain(1.0, v)),
    ("frequency-4", "frequency", (-1.0,),
     lambda v, c: fresnel_coefficients(Material("m", 2.0, 0.0), 0.0, v)),
    ("max_order-5", "max_order", (-1, 1.5),
     lambda v, c: trace_static_mpcs(EMPTY, (0, 0, 0), (1, 0, 0), max_order=v)),
    ("frequency-6", "frequency", (0.0,),
     lambda v, c: trace_static_mpcs(EMPTY, (0, 0, 0), (1, 0, 0), frequency=v)),
    ("n_elements-7", "n_elements", (0, 2.5), lambda v, c: AntennaArray(n_elements=v)),
    ("spacing-8", "spacing", (0.0,), lambda v, c: AntennaArray(spacing=v)),
    *[(f"{name}-{label}", name, bad, lambda v, c, name=name: GbsmConfig(**{name: v}))
      for label, name, bad in ((9, "n_clusters", (-1, 1.5)), (10, "rays_per_cluster", (0,)),
                               (11, "seed", (1.5,)), (12, "carrier_frequency", (0.0,)),
                               (13, "delay_decay", (0.0,)),
                               (14, "virtual_delay_mean", (-1.0,)),
                               (15, "cluster_speed", (-1.0,)),
                               (16, "xpr_mean_db", (math.inf,)),
                               ("GbsmConfig", "copolar_imbalance", (-1.0,)))],
    ("t-17", "t", (-1.0,), lambda v, c: dynamic_cir(c.clusters, c.model.tx_array,
                                                    c.model.rx_array, v, c.model.gbsm)),
    ("frequency-18", "frequency", (0.0,), lambda v, c: DcmMap(v, 1, "", GbsmConfig(), {})),
    ("max_order-19", "max_order", (-1, 1.5),
     lambda v, c: DcmMap(5.5e9, v, "", GbsmConfig(), {})),
    ("origin-20", "origin", (math.inf,),
     lambda v, c: grid_points((v, 0, 0), (1, 1, 1), 1.0)),
    ("spacing-21", "spacing", (math.inf,),
     lambda v, c: grid_points((0, 0, 0), (2, 1, 1), v)),
    ("spacing-22", "spacing", (-math.inf,),
     lambda v, c: grid_points((0, 0, 0), (2, 1, 1), (1, v, 1))),
    ("seed-23", "seed", (1.5,), lambda v, c: model_from_map(c.map, c.point, seed=v)),
    ("seed-24", "seed", (1.5,), lambda v, c: c.model.reseeded(v)),
    ("ensemble-25", "ensemble", (0, 2.5), lambda v, c: stfcf(c.model, ensemble=v)),
    *[(f"{name}-{label}", name, bad, lambda v, c, name=name: LcrInputs(**{**GOOD_LCR, name: v}))
      for label, name, bad in ((26, "k", (-1.0,)), (27, "b0", (0.0,)), (28, "b1", (math.inf,)),
                               (29, "b2", (-1.0,)))],
    ("f-30", "f", (0.0,), lambda v, c: stfcf(c.model, f=v, ensemble=2)),
    ("n_lags-31", "n_lags", (0, 1, 2.5),
     lambda v, c: angular_psd(c.model, n_lags=v, ensemble=2)),
    ("duration-32", "duration", (0.0,),
     lambda v, c: doppler_psd(c.model, duration=v, ensemble=2)),
    ("dt-33", "dt", (-1e-3,), lambda v, c: doppler_psd(c.model, dt=v, ensemble=2)),
    ("dt-34", "dt", (0.0,), lambda v, c: doppler_psd_from_lags(np.ones(4), v)),
    ("n_quad-35", "n_quad", (0, 2.5),
     lambda v, c: lcr_analytic(LcrInputs(**GOOD_LCR), [1.0], n_quad=v)),
    ("duration-36", "duration", (0.0,), lambda v, c: lcr_empirical([1.0, 2.0], 1.5, v)),
    ("incidence-37", "incidence", (-0.1, 1.6),
     lambda v, c: fresnel_coefficients(Material("m", 2.0, 0.0), v, 5.5e9)),
    ("t-38", "t", (-1.0,), lambda v, c: stfcf(c.model, t=v, ensemble=2)),
    ("level-39", "level", (math.inf,), lambda v, c: lcr_empirical([1.0, 2.0], v, 1.0)),
    ("tx-trace_static_mpcs", "tx", NOT_A_POINT,
     lambda v, c: trace_static_mpcs(EMPTY, v, (1, 0, 0))),
    ("rx-trace_static_mpcs", "rx", NOT_A_POINT,
     lambda v, c: trace_static_mpcs(EMPTY, (0, 0, 0), v)),
    ("location-query", "location", NOT_A_POINT, lambda v, c: query(c.map, v)),
    ("dloc-stfcf", "dloc", NOT_A_POINT, lambda v, c: stfcf(c.model, dloc=v, ensemble=2)),
]


@pytest.fixture(scope="module")
def rule_context(room_scene):
    model = make_model(rx_elements=2)
    point = (2.5, 2.0, 1.5)
    return SimpleNamespace(model=model, clusters=model.spawn(), point=point,
                           map=build_map(room_scene, (1.0, 1.0, 2.0), [point], max_order=1))


@pytest.mark.parametrize("name, bad, call", [row[1:] for row in RULE],
                         ids=[row[0] for row in RULE])
def test_argument_rule(rule_context, name, bad, call):
    """A bool, a string, NaN or a value out of range raises ValueError whose
    message starts with the argument's name."""
    for value in (True, "1", math.nan, *bad):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value, rule_context)


def test_seed_is_an_integer(rule_context):
    c = rule_context
    assert c.model.reseeded(np.int64(3)) == c.model.reseeded(3)
    assert c.model.reseeded(np.int64(3)).gbsm.seed == 3
    assert model_from_map(c.map, c.point, seed=np.int64(3)).gbsm.seed == 3
