"""Unit tests for the trace-template relocation solver."""

import pytest

from repro.isa import TraceBuilder
from repro.isa.instructions import OpClass
from repro.isa.template import (
    build_template,
    relocate_ldst,
    structure_matches,
)


def _trace(base: int, extra_const: int = 7):
    """A small synthetic warp trace over one relocatable base."""
    b = TraceBuilder()
    return [
        b.ld_const([extra_const]),
        b.ints(3),
        b.ld_global([base, base + 1]),
        b.st_shared(),
        b.st_global([base + 9]),
        b.exit(),
    ]


def test_structure_matches_ignores_lines_only():
    a = _trace(100)
    b = _trace(2000)
    assert structure_matches(a, b)
    assert not structure_matches(a, b[:-1])  # length differs
    tb = TraceBuilder()
    c = list(a)
    c[1] = tb.ints(4)  # repeat differs
    assert not structure_matches(a, c)
    d = list(a)
    d[2] = tb.st_global([100, 101])  # store flag differs
    assert not structure_matches(a, d)


def test_relocate_ldst_preserves_everything_but_lines():
    b = TraceBuilder()
    b.set_lanes(5)
    proto = b.ld_global([10, 11, 12])
    moved = relocate_ldst(proto, (50, 51, 52))
    assert moved.op is OpClass.LDST
    assert moved.mask == proto.mask
    assert moved.active_lanes == 5
    assert moved.mem.lines == (50, 51, 52)
    assert moved.mem.space is proto.mem.space
    assert moved.mem.store == proto.mem.store
    assert moved.mem.transactions == proto.mem.transactions


def test_build_and_instantiate_single_base():
    template = build_template(_trace(100), (100,), _trace(260), (260,))
    assert template is not None
    instrs = template.instantiate((1000,))
    assert instrs is not None
    assert instrs[2].mem.lines == (1000, 1001)
    assert instrs[4].mem.lines == (1009,)
    # Non-relocated instructions are shared with the proto outright.
    assert instrs[0] is template.proto[0]
    assert instrs[1] is template.proto[1]
    assert instrs[3] is template.proto[3]
    assert instrs[5] is template.proto[5]


def test_class_constant_lines_stay_fixed():
    template = build_template(_trace(100), (100,), _trace(260), (260,))
    instrs = template.instantiate((40,))
    # The const load is class-constant: same line for every member.
    assert instrs[0].mem.lines == (7,)


def test_structure_mismatch_kills_class():
    b = TraceBuilder()
    probe0 = _trace(100)
    probe1 = _trace(260)
    probe1[1] = b.fps(3)  # different op class at the same position
    assert build_template(probe0, (100,), probe1, (260,)) is None


def test_unsolvable_line_kills_class():
    probe0 = _trace(100)
    probe1 = _trace(260)
    b = TraceBuilder()
    # A line that is neither constant nor base-relative between probes.
    probe0[4] = b.st_global([100 + 9])
    probe1[4] = b.st_global([260 + 12])
    assert build_template(probe0, (100,), probe1, (260,)) is None


def test_ambiguity_resolved_by_refine():
    # Two bases moving in lockstep between the probes: every line is
    # explainable by either region, so a member whose bases *diverge*
    # cannot be instantiated until a live trace disambiguates.
    b = TraceBuilder()

    def trace(x, y):
        return [b.ld_global([x + 5]), b.st_global([y + 3]), b.exit()]

    template = build_template(
        trace(100, 200), (100, 200), trace(150, 250), (150, 250)
    )
    assert template is not None
    # Lockstep member: both interpretations agree.
    assert template.instantiate((300, 400)) is not None
    # Diverged member: interpretations disagree -> ambiguous.
    assert template.instantiate((300, 900)) is None
    # A live trace for the diverged member narrows the candidates...
    assert template.refine(trace(300, 900), (300, 900))
    # ...after which the same member instantiates exactly.
    instrs = template.instantiate((300, 900))
    assert instrs is not None
    assert instrs[0].mem.lines == (305,)
    assert instrs[1].mem.lines == (903,)


def test_refine_detects_contract_violation():
    template = build_template(_trace(100), (100,), _trace(260), (260,))
    b = TraceBuilder()
    rogue = _trace(500)
    rogue[4] = b.st_global([99999])  # not base + 9 for any candidate
    assert not template.refine(rogue, (500,))


def test_instantiated_traces_share_instruction_objects():
    template = build_template(_trace(100), (100,), _trace(260), (260,))
    first = template.instantiate((1000,))
    second = template.instantiate((5000,))
    # ALU/shared/exit instructions are the same objects across members;
    # only the relocated LDSTs differ.
    assert first[1] is second[1]
    assert first[3] is second[3]
    assert first[5] is second[5]
    assert first[2] is not second[2]


def test_launch_instructions_never_match():
    b = TraceBuilder()
    probe = [b.ints(1), b.exit()]
    with_launch = [b.launch(object()), b.exit()]
    assert not structure_matches(with_launch, with_launch)
    assert build_template(
        probe, (), [b.ints(1), b.exit()], ()
    ) is not None


@pytest.mark.parametrize("bases", [(), (100, 200, 300)])
def test_empty_trace_class(bases):
    b = TraceBuilder()
    template = build_template([b.exit()], bases, [b.exit()], bases)
    assert template is not None
    instrs = template.instantiate(bases)
    assert len(instrs) == 1
    assert instrs[0].op is OpClass.EXIT
