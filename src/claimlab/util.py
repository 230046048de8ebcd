"""Small determinism helpers shared across the pipeline, the one type
check of the config dataclasses (`check_fields`), and the one path every
file is read and written through: `read_jsonl` reads every JSON-lines
input and artifact (corpus dumps, claims, KB, docs, selections,
verdicts), so it alone reports malformed rows and repeated keys.

It also holds the package's float kernels, each adding its products
with + left to right so its bits are the same on every Python version:
three built once per width from generated source (`logistic_scores`,
the relevance score; `softmax_probabilities`, the NLI probabilities;
`tfidf_dots`, the TF-IDF dots), plus `sigmoid`, the score kernel's
sigmoid of one logit, which ranking takes of each bound's logit
(`features.logistic_bounds` gives the logits)."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence, Union, get_type_hints

PathLike = Union[str, Path]


def stable_seed(*parts: Any) -> int:
    """Derive a platform-independent integer seed from arbitrary parts.

    Python's builtin hash() is salted per process, so seeds for
    per-claim rngs are derived from a sha256 digest instead.
    """
    blob = "|".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@functools.lru_cache(maxsize=None)
def logistic_scores(width: int) -> Callable[[Sequence[float], float, Iterable[tuple[Any, Sequence[float]]]], dict]:
    """scores(w, bias, items) = {key: sigmoid(bias + dot(w, f))} over the
    (key, f) pairs of items, in one loop; w must have width weights.

    The one kernel a linear relevance model scores with, one vector
    (selection.RelevanceModel.score) or a batch, and the package's
    sigmoid, which only sigmoid repeats, for one logit: z = bias + (0.0
    + w[0] * f[0] + ...), the products added with + left to right (the
    chain a functools.reduce of operator.add makes from 0.0, so the bits
    are the same on every Python version; sum() is compensated from
    Python 3.12 on), with the weights bound once per call; then 1 / (1 +
    exp(-z)) for z >= 0, else e / (1 + e) with e = exp(z). Built once per
    width by compiling a source made from the width alone. A key repeated
    in items keeps its last score.
    """
    # The source depends only on the integer width.
    unpack = "".join(f"w{i}, " for i in range(width))
    terms = "".join(f" + w{i} * f[{i}]" for i in range(width))
    source = (
        "def scores(w, bias, items):\n"
        f"    ({unpack}) = w\n"
        "    out = {}\n"
        "    for key, f in items:\n"
        f"        z = bias + (0.0{terms})\n"
        "        if z >= 0:\n"
        "            out[key] = 1.0 / (1.0 + exp(-z))\n"
        "        else:\n"
        "            e = exp(z)\n"
        "            out[key] = e / (1.0 + e)\n"
        "    return out\n"
    )
    namespace: dict = {"exp": math.exp}
    exec(compile(source, f"<logistic_scores {width}>", "exec"), namespace)
    return namespace["scores"]


def sigmoid(z: float) -> float:
    """logistic_scores' sigmoid of one logit z, with its bits."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@functools.lru_cache(maxsize=None)
def softmax_probabilities(width: int) -> Callable[[Sequence[Sequence[float]], Sequence[float], Sequence[float]], list]:
    """probabilities(rows, biases, f) = the softmax, as a list, of one
    logit b + dot(w, f) per (w, b) of zip(rows, biases); f and each w
    must hold width values.

    The NLI classifier's kernel (nli.NliModel.probabilities, which its
    training steps by too), built once per width like logistic_scores,
    with its chain: each logit is b + (0.0 + w[0] * f[0] + ...), the
    features bound once per call and each row's weights once per row;
    then peak = max(logits), e = exp(z - peak) for each logit, their
    total added with + left to right from 0.0, and e / total for each.
    """
    # The source depends only on the integer width.
    features = "".join(f"f{i}, " for i in range(width))
    weights = "".join(f"w{i}, " for i in range(width))
    terms = "".join(f" + w{i} * f{i}" for i in range(width))
    source = (
        "def probabilities(rows, biases, f):\n"
        f"    ({features}) = f\n"
        "    logits = []\n"
        f"    for ({weights}), b in zip(rows, biases):\n"
        f"        logits.append(b + (0.0{terms}))\n"
        "    peak = max(logits)\n"
        "    exps = [exp(z - peak) for z in logits]\n"
        "    total = 0.0\n"
        "    for e in exps:\n"
        "        total += e\n"
        "    return [e / total for e in exps]\n"
    )
    namespace: dict = {"exp": math.exp}
    exec(compile(source, f"<softmax_probabilities {width}>", "exec"), namespace)
    return namespace["probabilities"]


@functools.lru_cache(maxsize=None)
def tfidf_dots(width: int) -> Callable[[Sequence[tuple[float, float, dict]], Iterable], list[float]]:
    """dots(terms, units) = the list of each unit's TF-IDF dot, in units'
    order, where terms holds width (weight, idf, postings) triples in query
    order and a unit's dot adds weight * tf * idf with += in terms' order
    over the postings that hold it (tf = postings.get(unit)), from 0.0.

    The one TF-IDF kernel, built once per width like logistic_scores: the loop
    over terms unrolled, each postings' get bound once per call, so each
    dot has the bits of that loop. corpus.IndexScorer turns dots into
    cosines.
    """
    # The source depends only on the integer width.
    unpack = "".join(f"(w{i}, i{i}, p{i}), " for i in range(width))
    gets = "".join(f"    g{i} = p{i}.get\n" for i in range(width))
    terms = "".join(
        f"        tf = g{i}(unit)\n        if tf is not None:\n            dot += w{i} * tf * i{i}\n" for i in range(width)
    )
    source = (
        "def dots(terms, units):\n"
        f"    [{unpack}] = terms\n"
        f"{gets}"
        "    out = []\n"
        "    append = out.append\n"
        "    for unit in units:\n"
        "        dot = 0.0\n"
        f"{terms}"
        "        append(dot)\n"
        "    return out\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<tfidf_dots {width}>", "exec"), namespace)
    return namespace["dots"]


# What a config field of each annotated kind must be given, as messages say.
_FIELD_KINDS = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    tuple[str, ...]: "a list of regime names",
}


def check_fields(config_type: type, values: Mapping[str, Any]) -> None:
    """Reject a name the dataclass config_type has no field for, or a value
    not of its field's annotated kind, with a ValueError naming the field.

    The one type rule of the package's configs: true and false are no
    numbers, an integer is a valid float, and a tuple[str, ...] field takes
    a list or tuple of strings.
    """
    kinds = get_type_hints(config_type)
    for name, value in values.items():
        if name not in kinds:
            raise ValueError(f"unknown config field {name!r}")
        kind = kinds[name]
        if kind == tuple[str, ...]:
            valid = isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value)
        else:
            accepted = (int, float) if kind is float else kind
            valid = isinstance(value, accepted) and isinstance(value, bool) == (kind is bool)
        if not valid:
            raise ValueError(f"{name} must be {_FIELD_KINDS[kind]}, got {value!r}")


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


# What json.dumps(row, ensure_ascii=False, sort_keys=True) builds for every
# call; an encoder keeps no state between encode() calls.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_jsonl(path: PathLike, rows: Iterable[Any]) -> None:
    """One key-sorted UTF-8 JSON object per line; parents are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(_JSONL_ENCODER.encode(row))
            handle.write("\n")


def read_jsonl(path: PathLike, parse: Callable[[dict], tuple[Hashable, Any]]) -> dict:
    """{key: value} of a JSON-lines file's rows in file order, parse
    mapping each row to its (key, value); blank lines are skipped.

    A row that is not valid JSON, not a JSON object, that parse rejects
    with a KeyError, ValueError, TypeError or IndexError, or that repeats
    an earlier row's key (whose line is named too) raises a ValueError
    naming the file and the line.
    """
    rows: dict = {}
    first_line: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, 1):
            if not raw.strip():
                continue
            try:
                row = json.loads(raw)
                if not isinstance(row, dict):
                    raise ValueError("row is not a JSON object")
                key, value = parse(row)
                if key in first_line:
                    raise ValueError(f"repeated key {key!r}, first on line {first_line[key]}")
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {exc.msg} at column {exc.colno}") from None
            except KeyError as exc:
                raise ValueError(f"{path}:{line_number}: missing field {exc}") from None
            except (ValueError, TypeError, IndexError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
            rows[key] = value
            first_line[key] = line_number
    return rows


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
