"""Trainable language identification and code-switching detection toolkit.

Each public name is imported from the module that defines it when it is
first used (PEP 562), so ``import codemix.tags`` loads only tags and errors.
"""
import importlib

__version__ = "0.1.0"

#: Each public name, under the module that defines it.
_EXPORTS = {
    "corpus": ("Document", "dedupe", "label_distribution", "load", "sample"),
    "detector": ("ChunkResult", "DetectionResult", "aggregate", "detect", "detect_all",
                 "split_chunks"),
    "evaluation": ("ChiSquareResult", "ConfusionMatrix", "EvalReport", "chi_square_gof",
                   "confusion", "metrics"),
    "langid": ("LanguageProfile", "Prediction", "ProfileSet", "identify", "load_profile",
               "load_profile_set", "save_profile", "score", "train"),
    "special": ("chi2_sf",),
    "synth": ("generate",),
    "tags": ("LanguageTag",),
    "textnorm": ("normalize",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
