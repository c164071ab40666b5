"""Trainable language identification and code-switching detection toolkit."""

from .corpus import Document, SampleSpec, dedupe, label_distribution, load, sample
from .detector import (
    ChunkResult,
    DetectionResult,
    aggregate,
    detect,
    detect_all,
    split_chunks,
)
from .evaluation import (
    ChiSquareResult,
    ConfusionMatrix,
    EvalReport,
    chi2_sf,
    chi_square_gof,
    confusion,
    majority_baseline,
    metrics,
)
from .langid import (
    LanguageProfile,
    Prediction,
    ProfileSet,
    identify,
    load_profile,
    load_profile_set,
    save_profile,
    score,
    train,
)
from .synth import MixSpec, generate
from .tags import LanguageTag
from .textnorm import normalize

__version__ = "0.1.0"

__all__ = [
    "ChiSquareResult",
    "ChunkResult",
    "ConfusionMatrix",
    "DetectionResult",
    "Document",
    "EvalReport",
    "LanguageProfile",
    "LanguageTag",
    "MixSpec",
    "Prediction",
    "ProfileSet",
    "SampleSpec",
    "aggregate",
    "chi2_sf",
    "chi_square_gof",
    "confusion",
    "dedupe",
    "detect",
    "detect_all",
    "generate",
    "identify",
    "label_distribution",
    "load",
    "load_profile",
    "load_profile_set",
    "majority_baseline",
    "metrics",
    "normalize",
    "sample",
    "save_profile",
    "score",
    "split_chunks",
    "train",
]
