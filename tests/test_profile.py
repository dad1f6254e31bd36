"""The stage profiler (repro.obs.profile) and ``repro profile``."""

import json

import pytest

from repro.config import MachineConfig
from repro.models.factory import build_machine, model_abi
from repro.obs import STAGES, StageProfile, profile_machine
from repro.obs.profile import stage_label
from repro.workloads.generator import benchmark_program


def _machine(model="vca-rw", bench="fib", scale=0.5):
    cfg = MachineConfig.baseline().with_(phys_regs=256, dl1_ports=2)
    prog = benchmark_program(bench, abi=model_abi(model), scale=scale,
                             seed=0)
    return build_machine(model, cfg, [prog])


class TestStageProfile:
    def test_covers_every_stage(self):
        stats, prof = profile_machine(_machine())
        assert stats.cycles > 0
        labels = {stage_label(n) for n in STAGES}
        assert set(prof.seconds) == labels
        # Unconditional stages run once per cycle; the trap sequencer
        # only when a window trap is in flight (never for VCA).
        for always in ("writeback", "commit", "rename_dispatch",
                       "issue", "fetch"):
            assert prof.calls[always] == stats.cycles
        assert prof.calls["trap_sequencer"] == 0
        assert 0 < prof.stage_seconds_total <= prof.total_seconds

    def test_attribution_sums_to_total_cycles(self):
        stats, prof = profile_machine(_machine())
        attributed = prof.cycle_attribution(stats.cycles)
        assert sum(attributed.values()) == pytest.approx(stats.cycles)
        assert all(v >= 0 for v in attributed.values())

    def test_profiled_stats_bit_identical(self):
        """Attaching the profiler must not perturb the simulation."""
        plain = _machine().run()
        profiled, _ = profile_machine(_machine())
        assert plain.to_dict() == profiled.to_dict()

    def test_detach_restores_class_methods(self):
        m = _machine()
        prof = StageProfile(m)
        prof.attach()
        assert m._fetch is not type(m)._fetch
        prof.detach()
        for name in STAGES:
            # No instance attribute left shadowing the class method.
            assert name not in vars(m)
        # And the machine still runs correctly afterwards.
        assert m.run().committed > 0

    def test_double_attach_rejected(self):
        prof = StageProfile(_machine())
        prof.attach()
        with pytest.raises(RuntimeError):
            prof.attach()
        prof.detach()
        prof.detach()  # idempotent


class TestCliProfile:
    def test_profile_runs_on_fib(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "p.json"
        assert main(["profile", "fib", "--model", "vca-rw",
                     "--scale", "0.5", "--top", "3",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cycles/sec" in text
        assert "rename_dispatch" in text
        assert "tottime" in text  # the cProfile table

        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.profile"
        assert payload["schema_version"] == 2
        assert payload["benches"] == ["fib"]
        stages = payload["profile"]["stages"]
        assert set(stages) == {stage_label(n) for n in STAGES}
        total = sum(s["cycles_est"] for s in stages.values())
        assert total == pytest.approx(payload["cycles"])
        assert len(payload["top_functions"]) == 3
        # Each stage's seconds and calls are in ``profile`` alone.
        assert "metrics" not in payload
        assert stages["fetch"]["calls"] == payload["cycles"]
        assert payload["profile"]["stage_seconds"] == pytest.approx(
            sum(s["seconds"] for s in stages.values()))
        assert (payload["profile"]["stage_seconds"]
                <= payload["profile"]["total_seconds"])

    def test_profile_skips_cprofile_pass(self, capsys):
        from repro.cli import main
        assert main(["profile", "fib", "--scale", "0.3",
                     "--top", "0"]) == 0
        text = capsys.readouterr().out
        assert "cycles/sec" in text
        assert "tottime" not in text
