"""Architecture extensions: arithmetic, memory and the SSM (Section V).

These implement the paper's future-work sub-objectives 3 and 4 on top of
the synthesis flows: arithmetic/memory elements realised with crossbar
arrays and a synchronous state machine combining them.
"""

from .arithmetic import (
    adder_reference,
    comparator_reference,
    synthesize_adder,
    synthesize_comparator,
)
from .blocks import (
    CombinationalCircuit,
    LogicBlock,
    circuit_from_tables,
    synthesize_block,
)
from .memory import CrossbarMemory, RegisterBank, address_decoder
from .ssm import (
    SsmSpec,
    SynchronousStateMachine,
    counter_spec,
    sequence_detector_spec,
)

__all__ = [
    "CombinationalCircuit",
    "CrossbarMemory",
    "LogicBlock",
    "RegisterBank",
    "SsmSpec",
    "SynchronousStateMachine",
    "address_decoder",
    "adder_reference",
    "circuit_from_tables",
    "comparator_reference",
    "counter_spec",
    "sequence_detector_spec",
    "synthesize_adder",
    "synthesize_block",
    "synthesize_comparator",
]
