"""The reproduction's register machine: ISA, assembler, interpreter.

Real programs (see :mod:`repro.isa.programs`) run on :class:`Machine`,
which emits the branch-event stream the trace subsystem consumes — the
"emulation" profiling channel of the paper's Dynamo system.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "assembler": ("AssembledProgram", "Assembler", "assemble"),
        "instructions": (
            "ALU_OPS",
            "BLOCK_TERMINATORS",
            "COND_BRANCHES",
            "NUM_REGISTERS",
            "Instruction",
            "Op",
        ),
        "machine": (
            "DEFAULT_MEMORY_WORDS",
            "Machine",
            "MachineState",
            "run_to_completion",
        ),
    },
)
