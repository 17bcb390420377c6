"""RunSpec identity: canonical JSON, fingerprints, execution."""

import json
import math
import os
import subprocess
import sys

import pytest

from repro.runner.spec import RunSpec
from repro.schedulers.base import simulate


def _spec(**overrides) -> RunSpec:
    kwargs = dict(buffer_bytes=25e6, iterations=5)
    kwargs.update(overrides)
    return RunSpec.create("horovod", "resnet50", "10gbe", **kwargs)


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        assert _spec().fingerprint == _spec().fingerprint

    def test_option_change_changes_fingerprint(self):
        assert _spec().fingerprint != _spec(buffer_bytes=64e6).fingerprint

    def test_iterations_change_changes_fingerprint(self):
        assert _spec().fingerprint != _spec(iterations=7).fingerprint

    def test_scheduler_change_changes_fingerprint(self):
        dear = RunSpec.create("dear", "resnet50", "10gbe", fusion="none")
        wfbp = RunSpec.create("wfbp", "resnet50", "10gbe")
        assert dear.fingerprint != wfbp.fingerprint

    def test_option_order_is_canonical(self):
        a = RunSpec.create("dear", "resnet50", "10gbe",
                           fusion="buffer", buffer_bytes=25e6)
        b = RunSpec.create("dear", "resnet50", "10gbe",
                           buffer_bytes=25e6, fusion="buffer")
        assert a.fingerprint == b.fingerprint

    def test_stable_after_running(self):
        spec = _spec()
        before = spec.fingerprint
        spec.run()
        # Running fills lazy caches on the model; identity must not move.
        assert spec.fingerprint == before

    def test_stable_across_process_restarts(self):
        code = (
            "from repro.runner.spec import RunSpec;"
            "spec = RunSpec.create('horovod', 'resnet50', '10gbe',"
            " buffer_bytes=25e6, iterations=5);"
            "print(spec.fingerprint)"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert output == _spec().fingerprint


class TestCanonicalJson:
    def test_is_valid_sorted_json(self):
        payload = json.loads(_spec().canonical_json())
        assert payload["scheduler"] == "horovod"
        assert payload["model"]["name"] == "resnet50"
        assert payload["options"] == [["buffer_bytes", 25e6]]

    def test_private_fields_excluded(self):
        assert "_tensor_cache" not in _spec().canonical_json()

    def test_label(self):
        assert _spec().label == "horovod/resnet50/64xGPU/10GbE"


class TestRun:
    def test_matches_direct_simulate(self, resnet50, ethernet_cluster):
        spec = RunSpec.create(
            "horovod", resnet50, ethernet_cluster, buffer_bytes=25e6
        )
        direct = simulate("horovod", resnet50, ethernet_cluster, buffer_bytes=25e6)
        assert spec.run().iteration_time == pytest.approx(direct.iteration_time)

    def test_rejects_unknown_model(self):
        with pytest.raises(KeyError):
            RunSpec.create("horovod", "not_a_model", "10gbe")


#: 10GbE is the paper's 64-GPU testbed.
_HEALTHY_SCALES = (1.0,) * 64


class TestCreateValidation:
    """Inputs a run would reject are rejected when the spec is built."""

    @pytest.mark.parametrize("changes,fragment", [
        ({"scheduler": "nccl"}, "unknown scheduler"),
        ({"scheduler": "bytescheduler", "compute_scales": _HEALTHY_SCALES},
         "unknown policy"),
        ({"compute_scales": (1.0,) * 3}, "need 64 compute scales"),
        ({"compute_scales": (math.nan,) + _HEALTHY_SCALES[1:]}, "finite and >= 0"),
        ({"compute_scales": (math.inf,) + _HEALTHY_SCALES[1:]}, "finite and >= 0"),
        ({"compute_scales": (-0.5,) + _HEALTHY_SCALES[1:]}, "finite and >= 0"),
        ({"iterations": 2}, ">= 3 iterations"),
        ({"algorithm": "bogus"}, "unknown algorithm"),
        ({"workload": "transformer"}, "unknown workload"),
    ])
    def test_rejected_at_construction(self, changes, fragment):
        kwargs = {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe"}
        kwargs.update(changes)
        with pytest.raises(ValueError, match=fragment):
            RunSpec.create(**kwargs)
