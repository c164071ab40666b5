"""Trainable character n-gram language identifier.

Each language gets a multinomial model over pooled character n-grams
(orders n_min..n_max, spaces counted as ordinary symbols) with additive
smoothing and a uniform prior. Texts are scored by mean per-gram log
probability, so short and long texts stay comparable, and scores are
turned into confidences with a softmax over the candidate languages.

Profiles are plain JSON documents on disk; saving is canonical so a
save -> load -> save round trip is byte-identical.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cached_property, reduce
from itertools import islice
from operator import add, mul
from pathlib import Path
from typing import Iterable, NamedTuple

from . import fileio, textnorm
from .errors import EmptyInput, InvalidConfig, ParseError, brief
from .tags import UND, check_code

PROFILE_VERSION = 1
PROFILE_SUFFIX = ".profile"

DEFAULT_N_MIN = 1
DEFAULT_N_MAX = 4
DEFAULT_ALPHA = 0.5
DEFAULT_MIN_CHARS = 3

_TRAIN_BLOCK = 1024  # texts joined per counting pass; bounds train's memory on a streamed file

def _check_orders(n_min: int, n_max: int, alpha: float) -> None:
    # bool is an int subclass, and an int alpha may be too large for a float
    if type(n_min) is not int or type(n_max) is not int or not 1 <= n_min <= n_max <= 6:
        raise InvalidConfig(f"need integers 1 <= n_min <= n_max <= 6, got {brief(n_min)}..{brief(n_max)}")
    if type(alpha) not in (int, float) or not 0 < alpha <= sys.float_info.max:
        raise InvalidConfig(f"smoothing constant must be positive and finite, got {brief(alpha)}")


def extract_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    """Every contiguous codepoint n-gram of each order in [n_min, n_max], orders ascending.

    Order n is built from order n - 1 by appending the next codepoint, one C-level map per order.
    """
    grams: list[str] = []
    order = list(text)
    for n in range(1, n_max + 1):
        if n > 1:
            order = list(map(add, order, text[n - 1 :]))
        if n >= n_min:
            grams += order
    return grams


def _count_ngrams(texts: Iterable[str], n_min: int, n_max: int) -> dict[str, int]:
    """Training count of each gram: what Counter over extract_ngrams of each text gives.

    No text may hold "\n", which normalized text never does. Texts are joined
    in blocks with "\n" and padded with n_max - 1 "\n", so every codepoint
    starts one n_max-codepoint window, and the windows are counted in one
    C-level pass. Each distinct window then adds its count to every prefix of
    n_min or more codepoints that stops before a "\n".
    """
    windows: Counter[tuple[str, ...]] = Counter()
    texts, pad = iter(texts), "\n" * (n_max - 1)
    while block := list(islice(texts, _TRAIN_BLOCK)):
        joined = "\n".join(block) + pad
        windows.update(zip(*(joined[i:] for i in range(n_max))))
    counts: dict[str, int] = {}
    for window, count in windows.items():
        gram = ""
        for char in window:
            if char == "\n":
                break
            gram += char
            if len(gram) >= n_min:
                counts[gram] = counts.get(gram, 0) + count
    return counts


class _LogProbs(dict):
    """log((count + alpha) / denom[order]) per (order, count), stored on first use.

    A gram's smoothed log probability depends only on its order and training
    count, so the memo is bounded by the profile, not by the text scored.
    """

    def __init__(self, alpha: float, denom: dict[int, float]) -> None:
        self.alpha, self.denom = alpha, denom

    def __missing__(self, key: tuple[int, int]) -> float:
        n, count = key
        value = self[key] = math.log((count + self.alpha) / self.denom[n])
        return value


class LanguageProfile:
    """Trained n-gram model for one language.

    The constructor defines a valid profile: a language code, int orders, a
    positive finite alpha, and counts mapping each gram (a str of one of the
    orders) to its non-negative int training count. One pass over counts
    derives total_per_order and each order's smoothing denominator, which
    must leave unseen grams a positive probability. Immutable by convention:
    the first score builds ``_table``, each seen gram's log probability, and
    later scores assume counts has not changed since.
    """

    def __init__(self, lang: str, n_min: int, n_max: int, alpha: float, counts: dict[str, int]) -> None:
        check_code(lang)
        _check_orders(n_min, n_max, alpha)
        if not isinstance(counts, dict):
            raise InvalidConfig(f"count table must be a dict, got {type(counts).__name__}")
        orders = range(n_min, n_max + 1)
        totals = dict.fromkeys(orders, 0)
        vocab = dict.fromkeys(orders, 1)
        for gram, c in counts.items():
            n = len(gram) if type(gram) is str else 0  # 0 is no order
            if n not in totals or type(c) is not int or c < 0:
                raise InvalidConfig(f"count table entry {gram!r}={c!r} out of bounds")
            totals[n] += c
            vocab[n] += 1
        try:  # total + alpha * (distinct grams + 1 unseen slot), per order
            denom = {n: totals[n] + alpha * vocab[n] for n in orders}
        except OverflowError as exc:
            raise InvalidConfig("count table totals are too large for a float") from exc
        if not min(alpha / d for d in denom.values()) > 0:
            raise InvalidConfig(f"alpha {alpha!r} leaves unseen grams no probability")
        self.lang, self.n_min, self.n_max, self.alpha, self.counts = lang, n_min, n_max, alpha, counts
        self.total_per_order = totals
        self._log_prob = _LogProbs(alpha, denom)
        self._unseen = {n: self._log_prob[n, 0] for n in orders}

    @cached_property
    def _table(self) -> dict[str, float]:
        """Each seen gram's log probability, read from the (order, count) memo in one C-level pass."""
        counts = self.counts
        return dict(zip(counts, map(self._log_prob.__getitem__, zip(map(len, counts), counts.values()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LanguageProfile):
            return NotImplemented
        return (self.lang, self.n_min, self.n_max, self.alpha, self.counts) == (
            other.lang, other.n_min, other.n_max, other.alpha, other.counts
        )


class Prediction(NamedTuple):
    """One language hypothesis for a piece of text."""

    lang: str
    avg_log_likelihood: float
    confidence: float


class ProfileSet:
    """Profiles for the candidate languages; order ranges must agree."""

    def __init__(self, profiles: dict[str, LanguageProfile]) -> None:
        if not profiles:
            raise EmptyInput("no language profiles given")
        for lang, profile in profiles.items():
            if not isinstance(profile, LanguageProfile):
                raise InvalidConfig(f"profile keyed {lang!r} is a {type(profile).__name__}, not a profile")
            if lang != profile.lang:
                raise InvalidConfig(f"profile keyed {lang!r} claims lang {profile.lang!r}")
        ranges = {(p.n_min, p.n_max) for p in profiles.values()}
        if len(ranges) > 1:
            raise InvalidConfig(f"profiles disagree on n-gram orders: {sorted(ranges)}")
        self.profiles = profiles
        self.n_min, self.n_max = ranges.pop()


def train(
    lines: Iterable[str],
    lang: str,
    n_min: int = DEFAULT_N_MIN,
    n_max: int = DEFAULT_N_MAX,
    alpha: float = DEFAULT_ALPHA,
) -> LanguageProfile:
    """Build a LanguageProfile from raw training lines.

    Each line is normalized first; n-grams never cross line boundaries.
    Raises EmptyInput when every line normalizes to empty text and
    InvalidConfig for bad orders, smoothing or language code.
    """
    check_code(lang)
    _check_orders(n_min, n_max, alpha)

    counts = _count_ngrams(filter(None, map(textnorm.normalize, lines)), n_min, n_max)
    if not counts:
        raise EmptyInput(f"no usable text in training corpus for {lang!r}")
    return LanguageProfile(lang, n_min, n_max, alpha, counts=counts)


def score(text: str, profiles: ProfileSet) -> dict[str, float]:
    """Mean log probability of ``text``'s pooled n-grams under each profile.

    ``text`` must already be normalized. Its grams are extracted and counted
    once; each profile then adds count * log-prob over the distinct grams in
    first-occurrence order, one lookup per gram in the profile's table of seen
    grams, with its order's unseen log-prob as the default. A profile's first
    score builds that table. Raises EmptyInput when no grams can be extracted.
    """
    grams = extract_ngrams(text, profiles.n_min, profiles.n_max)
    if not grams:
        raise EmptyInput("text yields no n-grams to score")
    counted = Counter(grams)
    orders = list(map(len, counted))
    scores = {}
    for lang, p in profiles.profiles.items():
        log_probs = map(p._table.get, counted, map(p._unseen.__getitem__, orders))
        # reduce, not sum(): sum() compensates float sums from Python 3.12 on, changing bytes
        scores[lang] = reduce(add, map(mul, counted.values(), log_probs), 0.0) / len(grams)
    return scores


def check_min_chars(min_chars: int) -> None:
    """Raise InvalidConfig unless ``min_chars`` is an int (never a bool)."""
    if type(min_chars) is not int:  # bool is an int subclass
        raise InvalidConfig(f"min_chars must be an integer, got {min_chars!r}")


def identify(
    text: str,
    profiles: ProfileSet,
    min_chars: int = DEFAULT_MIN_CHARS,
) -> list[Prediction]:
    """Rank the candidate languages for ``text``.

    The text is normalized first. When fewer than ``min_chars`` non-space
    codepoints remain (or the text is too short to produce any gram), the
    single reserved prediction ("und", confidence 1) is returned instead of
    an unreliable guess. Otherwise every profile is scored and confidences
    are a softmax over the mean log likelihoods; ties rank by ascending
    language code. Raises InvalidConfig unless ``min_chars`` is an int.
    """
    check_min_chars(min_chars)
    normalized = textnorm.normalize(text)
    significant = len(normalized) - normalized.count(" ")
    if significant < max(min_chars, 1) or len(normalized) < profiles.n_min:
        return [Prediction(UND, 0.0, 1.0)]

    scored = score(normalized, profiles)
    peak = max(scored.values())
    weights = [(lang, s, math.exp(s - peak)) for lang, s in scored.items()]
    denom = reduce(add, (w for _, _, w in weights), 0.0)
    predictions = [Prediction(lang, s, w / denom) for lang, s, w in weights]
    predictions.sort(key=lambda p: (-p.avg_log_likelihood, p.lang))
    return predictions


# --- profile persistence ---


def profile_to_json(profile: LanguageProfile) -> str:
    """Canonical JSON rendering; stable byte-for-byte across round trips."""
    doc = {
        "version": PROFILE_VERSION,
        "lang": profile.lang,
        "n_min": profile.n_min,
        "n_max": profile.n_max,
        "alpha": profile.alpha,
        "total_per_order": {str(n): t for n, t in profile.total_per_order.items()},
        "counts": profile.counts,
    }
    return fileio.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_profile(profile: LanguageProfile, path: str | Path) -> None:
    with fileio.open_text(path, "w") as fh:
        fh.write(profile_to_json(profile))


def load_profile(path: str | Path) -> LanguageProfile:
    """Read a profile file: a JSON object of this version whose stored
    totals match its counts. LanguageProfile checks every field.
    """
    try:
        with fileio.open_text(path) as fh:
            doc = fileio.loads(fh.read())
    except UnicodeError as exc:  # already names the path and line
        raise ParseError(str(exc)) from exc
    except ValueError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")

    version = doc.get("version")
    if type(version) is not int or version != PROFILE_VERSION:
        raise ParseError(f"{path}: unsupported profile version {version!r}, expected {PROFILE_VERSION}")
    try:
        profile = LanguageProfile(
            doc.get("lang"), doc.get("n_min"), doc.get("n_max"), doc.get("alpha"), doc.get("counts")
        )
    except InvalidConfig as exc:
        raise ParseError(f"{path}: {exc}") from exc
    totals = doc.get("total_per_order")
    derived = {str(n): t for n, t in profile.total_per_order.items()}
    if totals != derived or any(type(t) is not int for t in totals.values()):
        raise ParseError(f"{path}: per-order totals disagree with count table")
    return profile


def load_profile_set(directory: str | Path) -> ProfileSet:
    """Load every ``*.profile`` file under ``directory`` into a ProfileSet."""
    paths = sorted(Path(directory).glob(f"*{PROFILE_SUFFIX}"))
    profiles: dict[str, LanguageProfile] = {}
    for path in paths:
        profile = load_profile(path)
        if profile.lang in profiles:
            raise ParseError(f"{path}: duplicate profile for {profile.lang!r}")
        profiles[profile.lang] = profile
    if not profiles:
        raise EmptyInput(f"no {PROFILE_SUFFIX} files in {directory}")
    return ProfileSet(profiles)
