"""Seeded synthetic IR kernels for the ``sweep-synthetic`` workload.

Every kernel is built from ``random.Random(seed)`` alone, so one seed always
yields the same kernels.  The kernels vary the properties that move the
timing models: expression depth (register pressure and spills), ``max_vl``
from 16 to 128, strided and indexed (gather) accesses, reductions,
overlapping array offsets (memory dependences between statements and across
loop iterations) and scalar work between vector loops.

Kernels are small (tens to a few thousand dynamic instructions), so a
pass holds many of them: :func:`build_pass` keeps adding kernels until the
traces reach a fixed dynamic-instruction budget, which keeps passes of
different seeds comparable in work.
"""

from __future__ import annotations

import itertools
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterator

from repro.compiler import ir
from repro.compiler.pipeline import compile_kernel
from repro.trace.generator import generate_trace
from repro.trace.records import Trace

#: vector lengths the generator picks ``max_vl`` from (16 to 128)
MAX_VLS = (16, 32, 64, 96, 128)
#: element strides of ordinary (non-gather) references
STRIDES = (1, 1, 1, 2, 3, 4)
#: largest offset of an overlapping reference, in elements
MAX_OFFSET = 6


@dataclass(frozen=True)
class SynthKernel:
    """One generated kernel with the properties it was drawn with."""

    kernel: ir.Kernel
    depth: int
    max_vl: int
    gathers: int
    reductions: int
    scalar_ops: int


def _leaf(rng: random.Random, arrays: list[ir.Array], index: ir.Array) -> ir.Expr:
    roll = rng.random()
    if roll < 0.1:
        return ir.ScalarOperand(f"s{rng.randrange(4)}", rng.choice((0.5, 1.5, 2.0)))
    if roll < 0.15:
        return ir.Const(rng.choice((0.25, 3.0)))
    array = rng.choice(arrays)
    if roll < 0.3:
        return array.gather(index.ref())
    return array.ref(offset=rng.randrange(MAX_OFFSET + 1), stride=rng.choice(STRIDES))


def _expr(rng: random.Random, depth: int, arrays: list[ir.Array], index: ir.Array) -> ir.Expr:
    if depth <= 0:
        return _leaf(rng, arrays, index)
    lhs = _expr(rng, depth - 1, arrays, index)
    # unbalanced trees keep the node count (and the kernel size) in check
    rhs = _expr(rng, rng.randrange(depth), arrays, index)
    roll = rng.random()
    if roll < 0.08:
        return ir.sqrt(lhs + rhs)
    if roll < 0.16:
        return ir.vmax(lhs, rhs)
    if roll < 0.22:
        return lhs / rhs
    return lhs * rhs if roll < 0.6 else lhs + rhs


def make_kernel(rng: random.Random, name: str, index: int) -> SynthKernel:
    """Draw kernel number ``index`` of a stream from ``rng``.

    Depth and ``max_vl`` are stratified on ``index`` (every 25 consecutive
    kernels cover all 5 x 5 combinations once), so passes of different
    seeds do comparable work per instruction; ``rng`` draws the rest.
    """
    depth = 1 + index % 5
    max_vl = MAX_VLS[(index // 5) % len(MAX_VLS)]
    trip = rng.randint(max_vl // 2, 3 * max_vl)
    size = trip * max(STRIDES) + MAX_OFFSET + 8
    arrays = [ir.Array(f"{name}_a{i}", size) for i in range(rng.randint(3, 7))]
    # gather indices stay inside every array: index values are never read
    # by the timing models, but the index array must cover the trip count
    indices = ir.Array(f"{name}_idx", size)
    statements: list[ir.VectorAssign | ir.Reduce] = []
    reductions = 0
    for _ in range(rng.randint(1, 3)):
        expr = _expr(rng, depth, arrays, indices)
        if rng.random() < 0.25:
            statements.append(ir.Reduce(expr, f"acc{reductions}"))
            reductions += 1
        else:
            # targets overlap the sources at a small offset: the loop carries
            # memory dependences the load-elimination machines must respect
            target = rng.choice(arrays).ref(offset=rng.randrange(MAX_OFFSET + 1))
            statements.append(ir.VectorAssign(target, expr))
    loop = ir.VectorLoop(f"{name}_loop", trip=trip, statements=tuple(statements),
                         max_vl=max_vl)
    alu, mul = rng.randrange(0, 24), rng.randrange(0, 6)
    loads, stores = rng.randrange(0, 8), rng.randrange(0, 4)
    body: tuple[ir.KernelItem, ...] = (loop,)
    if alu + mul + loads + stores:
        work = ir.ScalarWork(f"{name}_scalar", alu_ops=alu, mul_ops=mul, loads=loads,
                             stores=stores, footprint=rng.randint(4, 24))
        body = (loop, work) if rng.random() < 0.5 else (work, loop)
    kernel = ir.Kernel(name)
    kernel.add(ir.Loop(f"{name}_outer", rng.randint(1, 3), body))
    gathers = sum(_count_gathers(s.expr) for s in statements)
    return SynthKernel(kernel, depth, max_vl, gathers, reductions, alu + mul + loads + stores)


def _count_gathers(expr: ir.Expr) -> int:
    if isinstance(expr, ir.GatherRef):
        return 1
    if isinstance(expr, ir.BinOp):
        return _count_gathers(expr.lhs) + _count_gathers(expr.rhs)
    if isinstance(expr, ir.UnaryOp):
        return _count_gathers(expr.operand)
    return 0


def kernels(seed: int) -> Iterator[SynthKernel]:
    """The endless, deterministic stream of kernels for ``seed``."""
    rng = random.Random(seed)
    for index in itertools.count():
        yield make_kernel(rng, f"synth{seed}_{index}", index)


def _no_span(name: str) -> ContextManager[None]:
    return nullcontext()


def build_pass(seed: int, budget: int,
               span: Callable[[str], ContextManager[None]] = _no_span) -> list[Trace]:
    """Compile and trace kernels of ``seed`` until ``budget`` dynamic instructions.

    ``span(name)`` brackets kernel generation (``synth.s``), compilation
    (``compile.s``) and trace generation (``tracegen.s``); the traced run
    passes its tracer's span, the timed run nothing.
    """
    traces: list[Trace] = []
    total = 0
    stream = kernels(seed)
    while total < budget:
        with span("synth.s"):
            synth = next(stream)
        with span("compile.s"):
            program = compile_kernel(synth.kernel).program
        with span("tracegen.s"):
            trace = generate_trace(program)
        traces.append(trace)
        total += len(trace)
    return traces
