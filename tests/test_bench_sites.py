"""Every binding site the benchmark's tracer wraps resolves, except the
blind sites the CI bench smoke pins.

bench/spans.py LAYERS names each traced callable at each name a caller
binds it to. A site that does not resolve is a layer the tracer cannot
see; .github/workflows/tier1.yml lists the ones known not to resolve. A
src/ rename that hides one more site, or restores one, fails here as well
as in the bench smoke. Nothing is wrapped: the sites are only looked up.
"""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_sites() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [site for sites, _ in spans.LAYERS.values() for site in sites]


def resolves(site: str) -> bool:
    """Whether the site names an attribute, looked up as Tracer.install does."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return hasattr(owner, attr)


def blind_sites() -> set[str]:
    """The sites the bench smoke in tier1.yml expects the tracer to report
    as not found: the words of its printf after the format string."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    match = re.search(r"printf 'trace: binding site claimlab\.%s not found\\n' \\\n(.*?)\| sort", workflow, re.S)
    assert match is not None, "tier1.yml no longer lists the blind sites in the expected printf"
    return {"claimlab." + word for word in match.group(1).replace("\\", " ").split()}


def test_unresolved_sites_are_the_pinned_blind_list():
    sites = traced_sites()
    assert len(sites) > 30
    blind = blind_sites()
    assert blind
    assert {site for site in sites if not resolves(site)} == blind

