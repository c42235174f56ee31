"""Fleet-scale coordination mechanisms: cells, coordinator, peers.

This package holds everything *below* the engine that fleet-scale
coordination needs — sharded cell layouts, the hierarchical budget
coordinator, the per-run fleet runtime, the decentralised peer
negotiation protocol, and the tiled synthetic fleet worlds.  The
``cell`` and ``peer`` :class:`~repro.engine.policy.CoordinationPolicy`
classes that expose these mechanisms live in :mod:`repro.engine.fleet`
(policies are engine-layer objects); this package never imports the
engine — the layer contract in ``tests/test_layer_contract.py``
enforces the direction.
"""

from repro.fleet.cells import (
    DEFAULT_CELL_SIZE,
    CellLayout,
    normalize_cells,
    partition_cameras,
    validate_cells_value,
)
from repro.fleet.coordinator import (
    BudgetCoordinator,
    CellReading,
)
from repro.fleet.peer import (
    MAX_NEGOTIATION_ROUNDS,
    NegotiationOutcome,
    PeerCameraNode,
    negotiate_activation,
    ring_neighbors,
)
from repro.fleet.runtime import COORDINATOR_NODE_ID, FleetRuntime
from repro.fleet.world import (
    PERSON_ID_STRIDE,
    TILE_PITCH_M,
    TiledFleetDataset,
    tile_training_library,
    tiled_camera_id,
)

__all__ = [
    "BudgetCoordinator",
    "CellLayout",
    "CellReading",
    "COORDINATOR_NODE_ID",
    "DEFAULT_CELL_SIZE",
    "FleetRuntime",
    "MAX_NEGOTIATION_ROUNDS",
    "NegotiationOutcome",
    "PERSON_ID_STRIDE",
    "PeerCameraNode",
    "TILE_PITCH_M",
    "TiledFleetDataset",
    "negotiate_activation",
    "normalize_cells",
    "partition_cameras",
    "ring_neighbors",
    "tile_training_library",
    "tiled_camera_id",
    "validate_cells_value",
]
