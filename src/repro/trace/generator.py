"""Trace generation: execute a compiled Program and emit a dynamic trace.

This module replaces the paper's Dixie tracing tool (Section 3): it executes
the scalar subset of the ISA for real — loop counters, address arithmetic,
spilled scalar values, compares and branches — and records every dynamic
instruction together with the concrete addresses, vector lengths and strides
the simulators need.  Vector data values are not simulated (the timing
models never need them), but vector memory *addresses* are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import TraceError
from repro.common.params import MAX_VECTOR_LENGTH
from repro.isa.instructions import ELEMENT_BYTES, Instruction
from repro.isa.opcodes import InstrKind, MemAccess, Opcode
from repro.isa.registers import RegClass, Register
from repro.isa.program import Program
from repro.trace.records import DynInstr, Trace

#: hard cap on dynamic instructions, to catch runaway loops in kernels
DEFAULT_MAX_DYNAMIC_INSTRUCTIONS = 2_000_000


@dataclass
class _ScalarState:
    """Architected scalar state interpreted by the trace generator."""

    a: dict[int, int] = field(default_factory=dict)
    s: dict[int, float] = field(default_factory=dict)
    #: vector length and vector stride control registers
    vl: int = MAX_VECTOR_LENGTH
    vs: int = ELEMENT_BYTES
    #: scalar data memory (byte address -> value), only what scalars touch
    memory: dict[int, float] = field(default_factory=dict)
    #: call stack of (block_index, instr_index) return locations
    call_stack: list[tuple[int, int]] = field(default_factory=list)

    def read(self, reg: Register) -> float:
        if reg.cls is RegClass.A:
            return self.a.get(reg.index, 0)
        if reg.cls is RegClass.S:
            return self.s.get(reg.index, 0)
        raise TraceError(f"trace generator cannot read vector register {reg}")

    def write(self, reg: Register, value: float) -> None:
        if reg.cls is RegClass.A:
            self.a[reg.index] = int(value)
        elif reg.cls is RegClass.S:
            self.s[reg.index] = value
        else:
            raise TraceError(f"trace generator cannot write vector register {reg}")


def _compare(cond: str, lhs: float, rhs: float) -> bool:
    if cond == "eq":
        return lhs == rhs
    if cond == "ne":
        return lhs != rhs
    if cond == "lt":
        return lhs < rhs
    if cond == "le":
        return lhs <= rhs
    if cond == "gt":
        return lhs > rhs
    if cond == "ge":
        return lhs >= rhs
    raise TraceError(f"unknown comparison condition {cond!r}")


_SCALAR_ARITH = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) and b else 0,
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    Opcode.SHL: lambda a, b: int(a) << int(b),
    Opcode.SHR: lambda a, b: int(a) >> int(b),
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b else 0.0,
    Opcode.FSQRT: lambda a, b: abs(a) ** 0.5,
}


class TraceGenerator:
    """Executes a :class:`Program` and produces a :class:`Trace`."""

    def __init__(self, max_instructions: int = DEFAULT_MAX_DYNAMIC_INSTRUCTIONS) -> None:
        self.max_instructions = max_instructions
        #: uid of the running program's first instruction (PC 0)
        self._pc_base = 0

    def run(self, program: Program) -> Trace:
        """Execute ``program`` from its entry block until it falls off the end
        of the last block or executes a top-level ``ret``."""
        program.validate()
        state = _ScalarState()
        trace = Trace(program.name)

        block_idx = 0
        instr_idx = 0
        blocks = program.blocks
        # PCs are program-relative: instruction uids come from a
        # process-wide counter, so rebasing them on the program's smallest
        # uid makes equal programs give equal traces whatever the process
        # compiled before.  The shift keeps every PC distinct and every
        # ``pc % entries`` collision of the BTB.
        self._pc_base = min(
            (instr.uid for block in blocks for instr in block.instructions), default=0
        )
        label_to_index = {block.label: i for i, block in enumerate(blocks)}

        while block_idx < len(blocks):
            block = blocks[block_idx]
            if instr_idx >= len(block.instructions):
                block_idx += 1
                instr_idx = 0
                continue
            instr = block.instructions[instr_idx]
            if len(trace) >= self.max_instructions:
                raise TraceError(
                    f"trace for {program.name} exceeded "
                    f"{self.max_instructions} dynamic instructions; "
                    "the kernel probably contains a non-terminating loop"
                )

            next_block = block_idx
            next_instr = instr_idx + 1

            record = self._execute(instr, state, len(trace))
            trace.append(record)

            if instr.is_branch:
                if instr.opcode is Opcode.RET:
                    if state.call_stack:
                        next_block, next_instr = state.call_stack.pop()
                    else:
                        break  # top-level return: program finished
                elif record.taken:
                    if instr.opcode is Opcode.CALL:
                        state.call_stack.append((block_idx, instr_idx + 1))
                    next_block = label_to_index[instr.target]
                    next_instr = 0

            block_idx = next_block
            instr_idx = next_instr

        return trace

    # -- single-instruction execution ---------------------------------------

    def _execute(self, instr: Instruction, state: _ScalarState, seq: int) -> DynInstr:
        opcode = instr.opcode
        record = DynInstr(
            seq=seq,
            opcode=opcode,
            pc=instr.uid - self._pc_base,
            dest=instr.dest,
            srcs=instr.srcs,
            is_spill=instr.is_spill,
        )

        if opcode in _SCALAR_ARITH:
            lhs = state.read(instr.srcs[0])
            rhs = state.read(instr.srcs[1]) if len(instr.srcs) > 1 else instr.imm
            state.write(instr.dest, _SCALAR_ARITH[opcode](lhs, rhs))
        elif opcode is Opcode.LI:
            state.write(instr.dest, instr.imm)
        elif opcode is Opcode.MOV:
            state.write(instr.dest, state.read(instr.srcs[0]))
        elif opcode is Opcode.CMP:
            lhs = state.read(instr.srcs[0])
            rhs = state.read(instr.srcs[1]) if len(instr.srcs) > 1 else instr.imm
            state.write(instr.dest, int(_compare(instr.cond, lhs, rhs)))
        elif opcode is Opcode.LOAD:
            address = int(state.read(instr.srcs[0])) + (instr.imm or 0)
            state.write(instr.dest, state.memory.get(address, 0))
            self._fill_memory_fields(record, address, 1, ELEMENT_BYTES)
        elif opcode is Opcode.STORE:
            address = int(state.read(instr.srcs[1])) + (instr.imm or 0)
            state.memory[address] = state.read(instr.srcs[0])
            self._fill_memory_fields(record, address, 1, ELEMENT_BYTES)
        elif opcode in (Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET):
            record.taken = True
            record.is_call = opcode is Opcode.CALL
            record.is_return = opcode is Opcode.RET
            if opcode is Opcode.BR:
                cond_value = state.read(instr.srcs[0])
                if instr.cond is not None:
                    record.taken = _compare(instr.cond, cond_value, instr.imm or 0)
                else:
                    record.taken = bool(cond_value)
        elif opcode is Opcode.SETVL:
            # VL = min(source register, immediate clamp, hardware maximum).
            # The immediate lets the compiler strip-mine by less than 128
            # elements, which models programs with short natural vector
            # lengths.
            candidates = [MAX_VECTOR_LENGTH]
            if instr.srcs:
                candidates.append(int(state.read(instr.srcs[0])))
            if instr.imm is not None:
                candidates.append(int(instr.imm))
            if len(candidates) == 1:
                raise TraceError("setvl needs a source register or an immediate")
            state.vl = max(0, min(candidates))
        elif opcode is Opcode.SETVS:
            value = state.read(instr.srcs[0]) if instr.srcs else instr.imm
            if value is None:
                raise TraceError("setvs needs a source register or an immediate")
            state.vs = int(value)
        elif opcode.kind is InstrKind.VECTOR_ALU:
            record.vl = state.vl
        elif opcode.kind in (InstrKind.VECTOR_LOAD, InstrKind.VECTOR_STORE):
            self._execute_vector_memory(instr, state, record)
        else:  # pragma: no cover - the opcode table is exhaustive
            raise TraceError(f"trace generator cannot execute opcode {opcode}")

        return record

    def _execute_vector_memory(
        self, instr: Instruction, state: _ScalarState, record: DynInstr
    ) -> None:
        opcode = instr.opcode
        record.vl = state.vl
        if opcode.kind is InstrKind.VECTOR_LOAD:
            base_reg = instr.srcs[0]
        else:
            # stores carry the value register first, then the base address
            base_reg = instr.srcs[1]
        base = int(state.read(base_reg)) + (instr.imm or 0)

        access = instr.access
        if access is MemAccess.UNIT:
            stride = ELEMENT_BYTES
        elif access is MemAccess.STRIDED:
            stride = state.vs
        else:  # indexed gather/scatter
            stride = state.vs
        record.stride = stride
        record.address = base

        if access is MemAccess.INDEXED:
            region_bytes = instr.region_bytes
            if region_bytes is None:
                region_bytes = max(abs(stride) * max(state.vl, 1), ELEMENT_BYTES)
            record.region_start = base
            record.region_end = base + region_bytes
        else:
            self._fill_memory_fields(record, base, state.vl, stride)

    @staticmethod
    def _fill_memory_fields(record: DynInstr, base: int, count: int, stride: int) -> None:
        """Compute the Range-stage byte range: base .. base + (VL-1)*VS + width."""
        record.address = base
        if count <= 0:
            record.region_start = base
            record.region_end = base
            return
        span = (count - 1) * stride
        low = base + min(0, span)
        high = base + max(0, span) + ELEMENT_BYTES
        record.region_start = low
        record.region_end = high


def generate_trace(program: Program, max_instructions: int | None = None) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    generator = TraceGenerator(max_instructions or DEFAULT_MAX_DYNAMIC_INSTRUCTIONS)
    return generator.run(program)
