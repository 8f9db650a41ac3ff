"""Control-flow graph substrate.

Programs are multi-procedure CFGs laid out in a flat address space; branch
direction (forward vs backward) is determined by addresses, mirroring the
binary-level view of the paper's Dynamo system.  See
:mod:`repro.cfg.builder` for the construction API and
:mod:`repro.cfg.generators` for seeded random program generation.
"""

from repro.cfg.analysis import (
    LoopForest,
    NaturalLoop,
    compute_dominators,
    dominator_back_edges,
    intraprocedural_successors,
    natural_loops,
    procedure_loops,
)
from repro.cfg.block import BasicBlock, BranchKind, Terminator
from repro.cfg.builder import ProgramBuilder
from repro.cfg.edge import Edge, EdgeKind
from repro.cfg.generators import GeneratorParams, generate_program
from repro.cfg.procedure import Procedure
from repro.cfg.program import Program
from repro.cfg.spanning_tree import (
    BallLarusNumbering,
    number_procedure,
    number_program,
)
from repro.cfg.validate import validate_program

__all__ = [
    "BasicBlock",
    "BallLarusNumbering",
    "BranchKind",
    "Edge",
    "EdgeKind",
    "GeneratorParams",
    "LoopForest",
    "NaturalLoop",
    "Procedure",
    "Program",
    "ProgramBuilder",
    "Terminator",
    "compute_dominators",
    "dominator_back_edges",
    "generate_program",
    "intraprocedural_successors",
    "natural_loops",
    "number_procedure",
    "number_program",
    "procedure_loops",
    "validate_program",
]
