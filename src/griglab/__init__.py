"""griglab: exact computation and audits for self-similar tree groups."""

from .core import (
    Element,
    GroupPreset,
    MixedPresetError,
    NonContractingError,
    PresetError,
    UndecidedError,
    canonical_key,
    commutator,
    conjugate,
    equals,
    evaluate,
    invert,
    is_identity,
    level_action,
    load_preset,
    multiply,
)

__version__ = "0.1.0"

__all__ = [
    "Element",
    "GroupPreset",
    "MixedPresetError",
    "NonContractingError",
    "PresetError",
    "UndecidedError",
    "canonical_key",
    "commutator",
    "conjugate",
    "equals",
    "evaluate",
    "invert",
    "is_identity",
    "level_action",
    "load_preset",
    "multiply",
    "__version__",
]
