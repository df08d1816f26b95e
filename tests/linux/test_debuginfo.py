"""Driver debug info is built once per (driver, version) and shared.

Every driver build of one release reads the same struct definitions and
ships the same DWARF, so the debuginfo modules build each once per
version.  Sharing is only safe if no consumer can change what another
build sees: the definition mapping is read-only, the binary is frozen,
and a whole run leaves the DWARF tree as it was.
"""

import dataclasses

import pytest

from repro.config import OSConfig
from repro.core.extract import dwarf_extract_struct
from repro.experiments import build_machine
from repro.linux.hfi1 import debuginfo as hfi1_debuginfo
from repro.linux.mlx import debuginfo as mlx_debuginfo
from repro.linux.pxd import debuginfo as pxd_debuginfo
from repro.units import MiB

from tests.integration.test_three_configs import make_pair, transfer_once

DEBUGINFO = [hfi1_debuginfo, mlx_debuginfo, pxd_debuginfo]


def _dump(binary):
    """Every DIE's offset, tag, attributes and child count."""
    return [(die.offset, die.tag, sorted(die.attrs.items()),
             len(die.children)) for die in binary.dwarf.walk()]


@pytest.mark.parametrize("debuginfo", DEBUGINFO,
                         ids=lambda m: m.__name__.split(".")[-2])
def test_one_binary_and_one_defs_mapping_per_version(debuginfo):
    current = debuginfo.build_module(debuginfo.CURRENT_VERSION)
    assert debuginfo.build_module(debuginfo.CURRENT_VERSION) is current
    assert debuginfo.build_module() is current
    following = debuginfo.build_module(debuginfo.NEXT_VERSION)
    assert following is not current
    assert following.version == debuginfo.NEXT_VERSION
    assert debuginfo.struct_defs() is debuginfo.struct_defs(
        debuginfo.CURRENT_VERSION)
    assert debuginfo.struct_defs(debuginfo.NEXT_VERSION) \
        is not debuginfo.struct_defs()


def test_machine_builds_share_one_binary_per_version():
    first = build_machine(2, OSConfig.MCKERNEL_HFI)
    second = build_machine(1, OSConfig.MCKERNEL_HFI)
    shared = hfi1_debuginfo.build_module(hfi1_debuginfo.CURRENT_VERSION)
    nodes = first.nodes + second.nodes
    assert all(node.driver.binary is shared for node in nodes)
    assert all(node.pico.module is shared for node in nodes)
    other = build_machine(1, OSConfig.MCKERNEL_HFI,
                          driver_version=hfi1_debuginfo.NEXT_VERSION)
    binary = other.nodes[0].driver.binary
    assert binary is not shared
    assert binary is hfi1_debuginfo.build_module(hfi1_debuginfo.NEXT_VERSION)


@pytest.mark.parametrize("debuginfo", DEBUGINFO,
                         ids=lambda m: m.__name__.split(".")[-2])
def test_cached_defs_and_binary_cannot_be_mutated(debuginfo):
    defs = debuginfo.struct_defs(debuginfo.CURRENT_VERSION)
    name = next(iter(defs))
    with pytest.raises(TypeError):
        defs[name] = defs[name]
    with pytest.raises(TypeError):
        del defs[name]
    assert isinstance(defs[name].fields, tuple)
    binary = debuginfo.build_module(debuginfo.CURRENT_VERSION)
    with pytest.raises(dataclasses.FrozenInstanceError):
        binary.version = debuginfo.NEXT_VERSION


def test_a_run_leaves_the_shared_dwarf_untouched():
    """The DWARF tree is plain data; extraction and a full transfer on
    the fast path must only read it."""
    binaries = [m.build_module(version) for m in DEBUGINFO
                for version in (m.CURRENT_VERSION, m.NEXT_VERSION)]
    before = [_dump(b) for b in binaries]
    machine, sender, receiver = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, sender, receiver, 2 * MiB)
    machine.sim.run()
    for module in DEBUGINFO:
        for version in (module.CURRENT_VERSION, module.NEXT_VERSION):
            for name, sdef in module.struct_defs(version).items():
                dwarf_extract_struct(module.build_module(version), name,
                                     [f.name for f in sdef.fields])
    assert [_dump(b) for b in binaries] == before
