"""Control-flow graph substrate.

Programs are multi-procedure CFGs laid out in a flat address space; branch
direction (forward vs backward) is determined by addresses, mirroring the
binary-level view of the paper's Dynamo system.  See
:mod:`repro.cfg.builder` for the construction API and
:mod:`repro.cfg.generators` for seeded random program generation.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "analysis": (
            "LoopForest",
            "NaturalLoop",
            "compute_dominators",
            "dominator_back_edges",
            "intraprocedural_successors",
            "natural_loops",
            "procedure_loops",
        ),
        "block": ("BasicBlock", "BranchKind", "Terminator"),
        "builder": ("ProgramBuilder",),
        "edge": ("Edge", "EdgeKind"),
        "generators": ("GeneratorParams", "generate_program"),
        "procedure": ("Procedure",),
        "program": ("Program",),
        "spanning_tree": (
            "BallLarusNumbering",
            "number_procedure",
            "number_program",
        ),
        "validate": ("validate_program",),
    },
)
