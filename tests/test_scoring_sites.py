"""A relevance model scores, one vector or a batch, through one kernel,
util.logistic_scores, and no module but util computes a sigmoid; the NLI
classifier's logits and probabilities come from one kernel,
util.softmax_probabilities. Lists are ranked by a batch scoring, never
by sorting with a per-item score call; both models train through one SGD
loop, selection.sgd_epochs; claim-unit TF-IDF dots come from two sites in
one chain, weight * tf * idf with weight = count * idf added in the query's
term order: the kernel util.tfidf_dots (behind corpus.IndexScorer) and
features.FeatureExtractor.held's page-store pass (tests/test_features.py
checks the two cosines are equal); and no function but these three
kernels compiles source. The feature and selection kernels name
sentences by the SentenceId objects each corpus.Document holds, never by
ids built per candidate, and only features reads or writes a claim's
memo of selection vectors."""

import ast
from pathlib import Path

import claimlab

PACKAGE = Path(claimlab.__file__).resolve().parent


def constructs(path: Path, name: str) -> bool:
    """Whether the module calls the name, bare or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def test_no_module_reduces_a_dot_product():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert [path.stem for path in sources if "reduce(add, map(mul" in path.read_text(encoding="utf-8")] == []


def test_feature_and_selection_kernels_build_no_sentence_id():
    assert constructs(PACKAGE / "claims.py", "SentenceId")
    assert [stem for stem in ("features", "selection") if constructs(PACKAGE / f"{stem}.py", "SentenceId")] == []


def sorts_by_score(path: Path) -> bool:
    """Whether the module calls sorted(), .sort(), min(), max() or a heapq
    selection with a key that calls a .score( method."""
    orderings = {"sorted", "sort", "min", "max", "nlargest", "nsmallest"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in orderings:
                for keyword in node.keywords:
                    if keyword.arg == "key" and "score" in {
                        inner.func.attr
                        for inner in ast.walk(keyword.value)
                        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                    }:
                        return True
    return False


def test_no_module_sorts_by_a_score_call(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.stem for path in sources if sorts_by_score(path)] == []
    # The check sees the sort _fit used to run.
    probe = tmp_path / "probe.py"
    probe.write_text("hardest = sorted(negatives, key=lambda item: (-model.score(item[1]), item[0]))[:keep]\n")
    assert sorts_by_score(probe)


def weight_updaters(path: Path) -> list[str]:
    """The module's functions that step a subscripted weight with -= in a
    for loop, as a per-example SGD update does."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(function, ast.FunctionDef) and any(
            isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub) and isinstance(node.target, ast.Subscript)
            for loop in ast.walk(function)
            if isinstance(loop, ast.For)
            for node in ast.walk(loop)
        ):
            found.append(f"{path.stem}.{function.name}")
    return found


def test_one_function_updates_weights(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert [name for path in sources for name in weight_updaters(path)] == ["selection.sgd_epochs"]
    # The check sees the update _fit used to run.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def fit(model, batch, lr):\n"
        "    for features, target in batch:\n"
        "        gradient = model.score(features) - target\n"
        "        for i, x in enumerate(features):\n"
        "            model.weights[i] -= lr * gradient * x\n"
        "        model.bias -= lr * gradient\n"
    )
    assert weight_updaters(probe) == ["probe.fit"]


def source_compilers(path: Path) -> list[str]:
    """The module's functions that call the builtin compile(), as a kernel
    built from generated source does (re.compile is an attribute call)."""
    return [
        f"{path.stem}.{function.name}"
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "compile"
            for node in ast.walk(function)
        )
    ]


KERNELS = ["util.logistic_scores", "util.softmax_probabilities", "util.tfidf_dots"]


def test_three_compiled_kernels(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert sorted(name for path in sources for name in source_compilers(path)) == KERNELS
    # The check sees a second cosine kernel kept beside the dots kernel.
    probe = tmp_path / "util.py"
    probe.write_text(
        (PACKAGE / "util.py").read_text(encoding="utf-8")
        + "\n\ndef cosine_scores(width):\n"
        "    source = 'def cosines(terms, query_norm, norms, units):\\n    return {}\\n'\n"
        "    namespace = {}\n"
        "    exec(compile(source, f'<cosine_scores {width}>', 'exec'), namespace)\n"
        "    return namespace['cosines']\n"
    )
    assert sorted(source_compilers(probe)) == sorted(KERNELS + ["util.cosine_scores"])


def sigmoid_sites(path: Path) -> list[str]:
    """The module's divisions by 1 + exp(...) (exp bare or an attribute),
    as a logistic sigmoid computes, by line."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            denominator = node.right
            if (
                isinstance(denominator, ast.BinOp)
                and isinstance(denominator.op, ast.Add)
                and any(isinstance(side, ast.Constant) and side.value == 1 for side in (denominator.left, denominator.right))
                and any(
                    isinstance(call, ast.Call)
                    and (getattr(call.func, "id", None) == "exp" or getattr(call.func, "attr", None) == "exp")
                    for call in ast.walk(denominator)
                )
            ):
                sites.append(f"{path.stem}:{node.lineno}")
    return sites


def test_only_the_kernel_computes_a_sigmoid(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert [site for path in sources if path.stem != "util" for site in sigmoid_sites(path)] == []
    # util's sigmoid is in the kernel's generated source.
    assert "out[key] = 1.0 / (1.0 + exp(-z))" in (PACKAGE / "util.py").read_text(encoding="utf-8")
    # The check sees the sigmoid RelevanceModel.score used to call.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n\n\n"
        "def _sigmoid(z):\n"
        "    if z >= 0:\n"
        "        return 1.0 / (1.0 + math.exp(-z))\n"
        "    e = math.exp(z)\n"
        "    return e / (1.0 + e)\n"
    )
    assert sigmoid_sites(probe) == ["probe:6"]


def memo_readers(path: Path) -> list[str]:
    """The lines of the module that read or write an attribute named vectors."""
    return [
        f"{path.stem}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "vectors"
    ]


def test_only_features_touches_the_memo(tmp_path):
    sources = sorted(PACKAGE.glob("*.py"))
    assert memo_readers(PACKAGE / "features.py")
    assert [site for path in sources if path.stem != "features" for site in memo_readers(path)] == []
    # The check sees the memo read rank_candidates used to make.
    probe = tmp_path / "probe.py"
    probe.write_text("memo = prepared.vectors\nscore = model.score(memo.get(sid) or finish(prepared, sentence))\n")
    assert memo_readers(probe) == ["probe:1"]
