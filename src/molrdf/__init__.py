"""Centre-of-mass radial distribution functions from DL_POLY-style trajectories."""

from .errors import AnalysisError, InputError, NoFramesError
from .geometry import CellTensor
from .rdf_engine import CentreOfMassError, PairHistogram, RdfTable, accumulate_frame, finalize, merge
from .synthetic import SyntheticConfig, generate_dataset
from .trajectory_io import (
    Directives,
    Frame,
    HistoryReader,
    MoleculeSpec,
    Topology,
    parse_directives,
    parse_field,
    write_pop,
    write_rdf,
)
from .unfolding import centers_of_mass, unfold

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CellTensor",
    "CentreOfMassError",
    "Directives",
    "Frame",
    "HistoryReader",
    "InputError",
    "MoleculeSpec",
    "NoFramesError",
    "PairHistogram",
    "RdfTable",
    "SyntheticConfig",
    "Topology",
    "accumulate_frame",
    "centers_of_mass",
    "finalize",
    "generate_dataset",
    "merge",
    "parse_directives",
    "parse_field",
    "unfold",
    "write_pop",
    "write_rdf",
    "__version__",
]
