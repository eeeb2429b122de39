"""Data substrate: datasets, splits, samplers, loaders and synthetic generators."""

from .dataset import DataSplit, InteractionDataset
from .splits import chronological_split, k_core_filter, leave_last_out_split
from .pipeline import (
    BatchPipeline,
    BatchSpec,
    BprPipeline,
    MultiNegativePipeline,
    NegativeSampler,
    UserRowPipeline,
    build_pipeline,
)
from .reference_sampling import (
    ReferenceBprBatchIterator,
    ReferenceNegativeSampler,
    ReferenceUserBatchIterator,
)
from .synthetic import PRESETS, SyntheticConfig, dataset_preset, generate_dataset, list_presets
from .loaders import DATASET_CORE_SETTINGS, load_interactions_csv, prepare_split

__all__ = [
    "DataSplit",
    "InteractionDataset",
    "chronological_split",
    "k_core_filter",
    "leave_last_out_split",
    "BatchPipeline",
    "BatchSpec",
    "BprPipeline",
    "MultiNegativePipeline",
    "UserRowPipeline",
    "build_pipeline",
    "NegativeSampler",
    "ReferenceBprBatchIterator",
    "ReferenceNegativeSampler",
    "ReferenceUserBatchIterator",
    "PRESETS",
    "SyntheticConfig",
    "dataset_preset",
    "generate_dataset",
    "list_presets",
    "DATASET_CORE_SETTINGS",
    "load_interactions_csv",
    "prepare_split",
]
