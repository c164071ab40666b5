"""Output checks, written against the documented file formats only.

Nothing here imports codemix: tags are parsed, classes counted and
accuracy recounted independently, so a defect in the program cannot hide
itself by also changing the check. Each check adds to a ledger of
attempted and failed operations instead of raising, so one bad output
costs one count, not the run.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

UND = "und"
_CODE = re.compile(r"^[a-z]{2,8}$")
# Keep the ledger's message list short; the counts carry the totals.
MAX_MESSAGES = 20


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
        return ok


def parse_tag(text: object) -> frozenset[str] | None:
    """The set of codes in a comma-joined tag, or None if it is not a valid tag."""
    if not isinstance(text, str):
        return None
    codes = [c.strip() for c in text.split(",")]
    if not codes or any(not _CODE.match(c) for c in codes) or len(set(codes)) != len(codes):
        return None
    if UND in codes and len(codes) > 1:
        return None
    return frozenset(codes)


def class_label(tag: frozenset[str]) -> str:
    return ",".join(sorted(tag))


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


def _all_finite(value: object) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def strict_loads(text: str) -> object:
    """json.loads that rejects NaN and Infinity and any overflowing float."""
    value = json.loads(text, parse_constant=_reject_constant)
    if not _all_finite(value):
        raise ValueError("non-finite number")
    return value


def read_records(path: Path) -> list[dict | None]:
    """One entry per non-empty line: the record, or None if it is not strict JSON."""
    records: list[dict | None] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                record = strict_loads(line)
            except ValueError:
                record = None
            records.append(record if isinstance(record, dict) else None)
    return records


def check_detect(ledger: Ledger, path: Path, ids: list[str], gold: dict[str, str]) -> list[dict] | None:
    """One record per input, in order, ids matching, finite floats, valid tags.

    Returns the records when every one is valid, else None.
    """
    try:
        records = read_records(path)
    except (OSError, UnicodeDecodeError) as exc:
        ledger.op(False, f"detect output unreadable: {exc}")
        return None
    ok = ledger.op(len(records) == len(ids), f"detect wrote {len(records)} records for {len(ids)} inputs")
    for i, doc_id in enumerate(ids):
        record = records[i] if i < len(records) else None
        valid = (
            record is not None
            and record.get("id") == doc_id
            and record.get("tags") == gold[doc_id]
            and parse_tag(record.get("pred")) is not None
            and isinstance(record.get("code_switched"), bool)
            and isinstance(record.get("chunks"), list)
            and all(
                isinstance(c, dict)
                and (c.get("lang") == UND or _CODE.match(str(c.get("lang"))))
                and isinstance(c.get("avg_log_likelihood"), (int, float))
                and isinstance(c.get("confidence"), (int, float))
                for c in record["chunks"]
            )
        )
        ok &= ledger.op(valid, f"detect record {i} ({doc_id}) missing or invalid: {str(record)[:120]}")
    return records if ok else None


def recount(records: list[dict], gold_field: str, pred_field: str) -> tuple[int, int]:
    """Exact-tag hits and total between two tag fields."""
    hits = sum(
        class_label(parse_tag(r[gold_field])) == class_label(parse_tag(r[pred_field])) for r in records
    )
    return hits, len(records)


def check_evaluate(ledger: Ledger, out: Path, tagged: list[dict]) -> None:
    """evaluate's accuracy and total equal our own recount of the tagged file."""
    try:
        doc = strict_loads(out.read_text(encoding="utf-8"))
        hits, total = recount(tagged, "tags", "pred")
        ok = doc["total"] == total and doc["accuracy"] == hits / total
        message = f"evaluate says {doc['accuracy']!r} of {doc['total']}, recount {hits}/{total}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, message = False, f"evaluate output invalid: {exc}"
    ledger.op(ok, message)


def _is_subsequence(ids: list[str], of: list[str]) -> bool:
    it = iter(of)
    return all(any(x == y for y in it) for x in ids)


def _records_or_empty(path: Path) -> list[dict | None]:
    try:
        return read_records(path)
    except (OSError, UnicodeDecodeError):
        return []


def check_dedupe(ledger: Ledger, out: Path, input_ids: list[str]) -> None:
    """A non-empty subset of the input, in input order."""
    records = _records_or_empty(out)
    ids = [r.get("id") for r in records if r is not None]
    ledger.op(
        len(ids) == len(records) and 0 < len(ids) <= len(input_ids) and _is_subsequence(ids, input_ids),
        f"dedupe output is not an ordered subset of its input ({len(ids)} records)",
    )


def check_sample(ledger: Ledger, out: Path, tagged: list[dict], n: int, langs: list[str]) -> None:
    """Exactly n records, in corpus order, every one a two-language pred over langs."""
    records = _records_or_empty(out)
    ids = [r.get("id") for r in records if r is not None]
    by_id = {r["id"]: r for r in tagged}
    allowed = set(langs)
    in_stratum = all(
        i in by_id and len(parse_tag(by_id[i]["pred"])) == 2 and parse_tag(by_id[i]["pred"]) <= allowed
        for i in ids
    )
    ledger.op(
        len(ids) == len(records) == n and in_stratum and _is_subsequence(ids, [r["id"] for r in tagged]),
        f"sample output wrong: {len(records)} records, wanted {n} in stratum",
    )


def pair_population(tagged: list[dict], langs: list[str]) -> int:
    allowed = set(langs)
    return sum(1 for r in tagged if len(parse_tag(r["pred"])) == 2 and parse_tag(r["pred"]) <= allowed)


def check_distribution(ledger: Ledger, out: Path, tagged: list[dict], classes: list[str]) -> None:
    """Counts per declared class (plus "other") equal our recount of pred."""
    labels = Counter(class_label(parse_tag(r["pred"])) for r in tagged)
    declared = [class_label(parse_tag(c)) for c in classes]
    want = {c: labels.get(c, 0) for c in declared}
    want["other"] = len(tagged) - sum(want.values())
    try:
        doc = strict_loads(out.read_text(encoding="utf-8"))
        ok = doc["total"] == len(tagged) and doc["counts"] == want
        message = f"distribution counts {doc.get('counts')} != recount {want}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, message = False, f"distribution output invalid: {exc}"
    ledger.op(ok, message)


def check_baseline(ledger: Ledger, out: Path, tagged: list[dict]) -> None:
    """Majority gold class (ties to the smallest label) and its frequency."""
    labels = Counter(class_label(parse_tag(r["tags"])) for r in tagged)
    label = min(labels, key=lambda c: (-labels[c], c))
    try:
        doc = strict_loads(out.read_text(encoding="utf-8"))
        ok = doc["majority_class"] == label and doc["baseline_accuracy"] == labels[label] / len(tagged)
        message = f"baseline says {doc.get('majority_class')}, recount {label}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, message = False, f"baseline output invalid: {exc}"
    ledger.op(ok, message)


def check_chisq(ledger: Ledger, out: Path, observed: list[int], expected: list[float]) -> None:
    """Statistic and df recomputed here; p-value finite and within [0, 1]."""
    n, scale = sum(observed), sum(expected)
    statistic = sum((o - n * p / scale) ** 2 / (n * p / scale) for o, p in zip(observed, expected))
    try:
        doc = strict_loads(out.read_text(encoding="utf-8"))
        ok = (
            doc["df"] == len(observed) - 1
            and math.isclose(doc["statistic"], statistic, rel_tol=1e-9)
            and 0.0 <= doc["p_value"] <= 1.0
        )
        message = f"chisq says {doc.get('statistic')} df {doc.get('df')}, recount {statistic}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ok, message = False, f"chisq output invalid: {exc}"
    ledger.op(ok, message)


def check_profile(ledger: Ledger, path: Path, lang: str) -> None:
    """A profile is a JSON object for ``lang`` with a count table."""
    try:
        doc = strict_loads(path.read_text(encoding="utf-8"))
        ok = isinstance(doc, dict) and doc.get("lang") == lang and isinstance(doc.get("counts"), dict)
    except (OSError, ValueError):
        ok = False
    ledger.op(ok, f"profile {path.name} invalid")
