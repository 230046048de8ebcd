"""Small determinism helpers shared across the pipeline, and the one
path every artifact is read and written through."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Union

PathLike = Union[str, Path]


def stable_seed(*parts: Any) -> int:
    """Derive a platform-independent integer seed from arbitrary parts.

    Python's builtin hash() is salted per process, so seeds for
    per-claim rngs are derived from a sha256 digest instead.
    """
    blob = "|".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def dumps_canonical(obj: Any) -> str:
    """Serialize to JSON with a canonical byte representation."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_files(paths: Iterable[PathLike]) -> str:
    """sha256 of the files' bytes read one after another; of a single
    file, its plain sha256."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def feature_schema_hash(names: tuple[str, ...]) -> str:
    return sha256_hex("\n".join(names))


def write_json(path: PathLike, payload: Any) -> None:
    """One indented, key-sorted UTF-8 JSON document; parents are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def read_json(path: PathLike) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_jsonl(path: PathLike, rows: Iterable[Any]) -> None:
    """One key-sorted UTF-8 JSON object per line; parents are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: PathLike) -> Iterator[dict]:
    """The parsed objects of a JSON-lines file; blank lines are skipped.

    Every row must be a JSON object; a row that is not valid JSON, or
    not an object, raises a ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, 1):
            if raw.strip():
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{line_number}: invalid JSON: {exc.msg} at column {exc.colno}") from None
                if not isinstance(obj, dict):
                    raise ValueError(f"{path}:{line_number}: row is not a JSON object")
                yield obj


def save_model(path: PathLike, schema: str, feature_names: tuple[str, ...], fields: dict) -> None:
    """A model file: its schema tag, the feature names and their hash, plus fields."""
    write_json(
        path,
        {
            "schema": schema,
            "feature_names": list(feature_names),
            "feature_schema_hash": feature_schema_hash(feature_names),
            **fields,
        },
    )


def load_model(path: PathLike, schema: str, feature_names: tuple[str, ...]) -> dict:
    """A model file's payload, checked against the expected schema and features."""
    payload = read_json(path)
    if payload.get("schema") != schema:
        raise ValueError(f"unsupported model schema in {path}")
    if payload.get("feature_schema_hash") != feature_schema_hash(feature_names):
        raise ValueError("model was trained with a different feature schema")
    return payload
