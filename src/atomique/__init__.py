"""Compiler and fidelity estimator for reconfigurable neutral-atom arrays."""

from .arch import (
    ArchConfig,
    AtomCoord,
    HardwareParams,
    Violation,
    load_config,
    min_separation_audit,
)
from .array_mapper import assign_arrays, greedy_max_kcut
from .atom_mapper import place_atoms
from .circuit import (
    Circuit,
    Gate,
    ParseError,
    build_dag,
    circuit_stats,
    gate_frequency_graph,
    parse_qasm,
    to_basis,
    to_qasm,
)
from .fidelity import (
    FidelityReport,
    TimeLedger,
    apply_schedule,
    delta_nvib,
    execution_time,
    heating_factor,
    move_survival,
)
from .oracle import equivalent_up_to_permutation, simulate
from .pipeline import CompileResult, compile_circuit
from .stage_router import (
    DistanceMismatch,
    Schedule,
    Stage,
    audit_schedule,
    route,
    schedule_from_dict,
    schedule_to_circuit,
    schedule_to_dict,
)
from .swap_router import RoutedCircuit, route_inter_array
from .workloads import (
    WorkloadSpec,
    gen_bv,
    gen_qaoa_random,
    gen_qaoa_regular,
    gen_qsim_random,
    gen_random_pairs,
)

__version__ = "0.1.0"
