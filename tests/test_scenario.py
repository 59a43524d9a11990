import copy
import functools
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcontrol.errors import ScenarioError
from fpcontrol.model import ControlSchedule
from fpcontrol.pipeline import dimensionalize_controls
from fpcontrol.scenario import load_scenario


BUNDLED = ("testcase1", "testcase2", "oracle_check", "conservation_check", "gradcheck",
           "demo_small")


def scenario_path(name: str):
    return resources.files("fpcontrol") / "scenarios" / f"{name}.scenario"


@functools.cache
def bundled_doc(name: str) -> dict:
    return yaml.safe_load(scenario_path(name).read_text())


def key_paths(doc: dict):
    """Every top-level key, and every key one block down."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return paths


yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8,
)


class TestBundledScenarios:
    def test_testcase1_pins_run_constants(self):
        s = load_scenario(scenario_path("testcase1"))
        assert s.patient_triple == (1.3, 2.0, 10.0)
        assert np.allclose(s.initial_state.as_array(), [0.2, 1.0, 1.0, 1.0])
        assert (s.d1, s.d2) == (7.0, 0.072)
        assert s.target_triple == (2.1, 1.1, 1.25)
        assert s.n_anchors == 20
        assert s.target_variance == 0.05
        assert (s.alpha, s.nu1, s.nu2) == (1.0, 0.01, 0.01)
        assert (s.domain_lo, s.domain_hi) == (0.0, 6.0)
        assert s.full_scale_npoints == 51
        assert s.full_scale_n_steps == 200
        assert s.scaling.as_tuple() == (1e-10, 1e-5, 1e-7, 1e-8, 1.0)
        assert (s.dispersion.scale, s.dispersion.exponent, s.dispersion.offset) == \
            (0.5, 1.2, 0.001)

    def test_testcase2_uses_moderate_triple(self):
        s = load_scenario(scenario_path("testcase2"))
        assert s.patient_triple == (1.6, 1.4, 2.0)
        assert np.allclose(s.initial_state.as_array(), [0.2, 1.0, 1.0, 1.0])

    def test_nondim_applies_patient_triple(self):
        s = load_scenario(scenario_path("testcase1"))
        q = s.nondim()
        assert (q.d, q.l, q.s) == (1.3, 2.0, 10.0)
        assert q.ratio_tl == pytest.approx(1e-3)
        q_target = s.nondim_target()
        assert (q_target.d, q_target.l, q_target.s) == (2.1, 1.1, 1.25)

    def test_all_bundled_scenarios_load(self):
        for name in ("testcase1", "testcase2", "oracle_check",
                     "conservation_check", "gradcheck", "demo_small"):
            s = load_scenario(scenario_path(name))
            assert s.name == name


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.scenario")

    def test_parse_error_carries_line_info(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("parameters:\n  a: 1.0\n yaml is: [broken\n")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(bad)

    def test_missing_base_parameters_are_listed(self, tmp_path):
        p = tmp_path / "partial.scenario"
        p.write_text(
            "parameters:\n  a: 1.0\n  b: 1.0e-10\n"
            "scaling: {k1: 1.0, k2: 1.0, k3: 1.0, k4: 1.0, k5: 1.0}\n"
            "patient: {d: 1.0, l: 1.0, s: 1.0}\n"
            "initial_state: [1.0, 1.0, 1.0, 1.0]\n"
        )
        with pytest.raises(ScenarioError) as err:
            load_scenario(p)
        message = str(err.value)
        assert "mandatory base parameters" in message
        for name in ("c", "q", "beta_l"):
            assert name in message

    def test_initial_state_outside_domain(self, tmp_path):
        src = scenario_path("demo_small").read_text()
        p = tmp_path / "out.scenario"
        p.write_text(src.replace("initial_state: [0.2, 1.0, 1.0, 1.0]",
                                 "initial_state: [0.2, 1.0, 1.0, 9.0]"))
        with pytest.raises(ScenarioError, match="outside the domain"):
            load_scenario(p)

    def test_field_error_names_the_field(self, tmp_path):
        src = scenario_path("demo_small").read_text()
        p = tmp_path / "bad_field.scenario"
        p.write_text(src.replace("  t_final: 2.0", "  t_final: bogus"))
        with pytest.raises(ScenarioError, match="t_final"):
            load_scenario(p)


    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(BUNDLED), data=st.data())
    def test_any_one_key_edit_loads_or_raises_scenario_error(self, name, data):
        doc = copy.deepcopy(bundled_doc(name))
        *parents, key = data.draw(st.sampled_from(key_paths(doc)), label="key")
        block = doc[parents[0]] if parents else doc
        action = data.draw(st.sampled_from(["delete", "rename", "replace"]), label="action")
        value = block.pop(key)
        if action == "rename":
            block[data.draw(st.text(max_size=12), label="new name")] = value
        elif action == "replace":
            block[key] = data.draw(yaml_values, label="new value")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.scenario"
            path.write_text(yaml.safe_dump(doc))
            try:
                load_scenario(path)
            except ScenarioError:
                pass


class TestDimensionalizeControls:
    def test_bound_values_map_to_stated_doses(self):
        s = load_scenario(scenario_path("testcase1"))
        u = ControlSchedule.constant(10.0, 4, 7.0, 0.072, 7.0, 0.072)
        u1_dim, u2_dim = dimensionalize_controls(u, s.chemo_scale, s.il2_scale)
        assert np.allclose(u1_dim, 7.0)
        assert np.allclose(u2_dim, 7.2e5)

    def test_zero_dose_maps_to_zero(self):
        s = load_scenario(scenario_path("testcase1"))
        u = ControlSchedule.zeros(10.0, 4, 7.0, 0.072)
        u1_dim, u2_dim = dimensionalize_controls(u, s.chemo_scale, s.il2_scale)
        assert np.all(u1_dim == 0.0)
        assert np.all(u2_dim == 0.0)
