"""Quantum-walk control protocol simulator.

State-vector simulation of coined quantum walks steering distributed
gates and entanglement distribution on network graphs, with every
protocol checked against a local-gate oracle.
"""
from .netgraph import (
    NetworkError,
    NetworkGraph,
    PathSpec,
    TreeSpec,
    load_network,
)
from .oracle import CompareReport, OracleError, OracleGate, compare, data_layout, oracle_apply
from .protocols import (
    GATE_LIBRARY,
    CompiledProtocol,
    ProtocolError,
    RunTrace,
    gate_request,
    run_schedule,
    schedule_ghz_path,
    schedule_linklevel,
    schedule_multi_control,
    schedule_multipath,
    schedule_remote_cu,
    schedule_tree,
    separate_measure,
)
from .statevec import (
    BranchStack,
    MeasurementRecord,
    RegisterLayout,
    StateError,
    StateVector,
    check_dump,
    dump_state,
    init_state,
    measure,
    walker_vertex_support,
)
from .walkops import (
    OperatorError,
    OperatorSpec,
    Schedule,
    Timestep,
    invert_operator,
    invert_schedule,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_fanout,
    make_flipflop_shift,
    make_identity_shift,
    make_walk_interaction,
    operator_to_json,
    schedule_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
