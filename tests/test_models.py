"""Tests for the machine-model factory."""

import pytest

from repro.asm import ProgramBuilder
from repro.config import MachineConfig
from repro.models import MODELS, build_engine, build_machine
from repro.mem.hierarchy import MemoryHierarchy
from repro.rename.conventional import ConventionalRename
from repro.rename.vca import VcaRename
from repro.windows.conventional import ConventionalWindowRename
from repro.windows.ideal import IdealWindowRename


def prog(abi):
    pb = ProgramBuilder()
    m = pb.function("main", is_main=True)
    m.li(1, 1)
    m.halt()
    return pb.assemble(abi)


class TestFactory:
    def test_model_registry_complete(self):
        assert set(MODELS) == {"baseline", "conventional-rw", "ideal-rw",
                               "vca", "vca-rw"}

    @pytest.mark.parametrize("model,cls", [
        ("baseline", ConventionalRename),
        ("conventional-rw", ConventionalWindowRename),
        ("ideal-rw", IdealWindowRename),
        ("vca", VcaRename),
        ("vca-rw", VcaRename),
    ])
    def test_engine_classes(self, model, cls):
        cfg = MachineConfig.baseline()
        eng = build_engine(model, cfg, MemoryHierarchy(cfg))
        assert isinstance(eng, cls)

    def test_unknown_model_rejected(self):
        cfg = MachineConfig.baseline()
        with pytest.raises(ValueError, match="unknown model"):
            build_engine("turbo", cfg, MemoryHierarchy(cfg))

    def test_abi_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs windowed"):
            build_machine("vca-rw", MachineConfig.baseline(),
                          [prog("flat")])
        with pytest.raises(ValueError, match="needs flat"):
            build_machine("baseline", MachineConfig.baseline(),
                          [prog("windowed")])

    def test_config_normalised_to_model(self):
        machine = build_machine("vca-rw", MachineConfig.baseline(),
                                [prog("windowed")])
        assert machine.cfg.n_threads == 1

    def test_thread_count_follows_programs(self):
        progs = [prog("flat"), prog("flat")]
        # Different threads need disjoint layouts: rebuild per thread.
        pb2 = ProgramBuilder(thread=1)
        m = pb2.function("main", is_main=True)
        m.li(1, 1)
        m.halt()
        progs[1] = pb2.assemble("flat")
        machine = build_machine("vca", MachineConfig.baseline(), progs)
        assert machine.cfg.n_threads == 2

    def test_ideal_has_no_extra_stage_or_astq(self):
        cfg = MachineConfig.baseline()
        eng = build_engine("ideal-rw", cfg, MemoryHierarchy(cfg))
        assert not eng.extra_rename_stage
        assert eng.astq is None

    def test_vca_has_extra_stage_and_astq(self):
        cfg = MachineConfig.baseline()
        eng = build_engine("vca", cfg, MemoryHierarchy(cfg))
        assert eng.extra_rename_stage
        assert eng.astq is not None

    def test_effective_assoc_scales_with_threads(self):
        assert MachineConfig.baseline().effective_vca_assoc == 3
        assert MachineConfig.baseline(
            n_threads=2).effective_vca_assoc == 5
        assert MachineConfig.baseline(
            n_threads=4).effective_vca_assoc == 6
        assert MachineConfig.baseline(
            vca_table_assoc=7).effective_vca_assoc == 7
