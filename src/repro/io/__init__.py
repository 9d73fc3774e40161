"""Result records, table formatting, grid-data export and checkpoints."""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "results": "ResultRecord save_records load_records",
    "tables": "format_table table1_layout",
    "gridio": "write_grid_npz write_npz_atomic",
    "checkpoint": "CHECKPOINT_VERSION CheckpointMismatchError SCFCheckpoint has_checkpoint "
    "load_checkpoint save_checkpoint",
})
