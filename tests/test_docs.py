"""Docs-site integrity and public-docstring audit.

The docs under ``docs/`` are built strict in CI (``mkdocs build
--strict``); these tests catch the same classes of rot without needing
mkdocs installed locally: nav entries pointing at missing pages, broken
relative links, benchmark pages describing scripts that no longer exist —
plus the repository's documentation contract that every name exported by
the public ``repro.session`` and ``repro.core`` surfaces carries a
docstring (with usage examples on the major service classes).
"""

from __future__ import annotations

import pathlib
import re

import yaml

import repro
import repro.cache
import repro.core
import repro.serve
import repro.session

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: The service surface whose docstrings must include a usage example
#: (a ``::`` literal block or a doctest-style ``>>>``).
EXAMPLE_REQUIRED = [
    "Session",
    "QueryBuilder",
    "ResultStream",
    "StreamBudget",
    "StreamStats",
    "EngineConfig",
    "QueryScheduler",
    "ProgXeEngine",
    "ExecutionKernel",
    "StreamingKernel",
    "QueryPlan",
    "PlanCache",
    "PartitionStore",
    "CacheStats",
    "Table",
    "Planner",
    "PlanDecision",
    "StatisticsStore",
    "SourceStatistics",
]

#: Same contract for the serving edge (checked against ``repro.serve``).
SERVE_EXAMPLE_REQUIRED = [
    "QueryServer",
    "QueryRequest",
    "FrameFactory",
    "AdmissionPolicy",
    "AdmissionController",
    "OutboundChannel",
]


def nav_pages() -> list[str]:
    config = yaml.safe_load((REPO_ROOT / "mkdocs.yml").read_text())
    pages = []

    def walk(node):
        if isinstance(node, str):
            pages.append(node)
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(config["nav"])
    return pages


class TestDocsSite:
    def test_mkdocs_config_parses(self):
        config = yaml.safe_load((REPO_ROOT / "mkdocs.yml").read_text())
        assert config["site_name"]
        assert config["theme"]["name"] in ("mkdocs", "readthedocs")

    def test_nav_pages_exist(self):
        pages = nav_pages()
        assert "index.md" in pages
        for page in pages:
            assert (DOCS / page).is_file(), f"nav references missing {page}"

    def test_all_doc_pages_are_in_nav(self):
        pages = set(nav_pages())
        on_disk = {p.name for p in DOCS.glob("*.md")}
        assert on_disk == pages, "docs/ and mkdocs nav out of sync"

    def test_relative_links_resolve(self):
        link = re.compile(r"\]\(([^)#]+\.md)(?:#[^)]*)?\)")
        for page in DOCS.glob("*.md"):
            for target in link.findall(page.read_text()):
                if target.startswith(("http://", "https://")):
                    continue
                resolved = (page.parent / target).resolve()
                assert resolved.is_file(), (
                    f"{page.name}: broken link to {target}"
                )

    def test_benchmark_pages_match_scripts(self):
        """Every bench script the docs mention exists, and every script in
        benchmarks/ is documented."""
        text = (DOCS / "benchmarks.md").read_text()
        mentioned = set(re.findall(r"bench_\w+\.py", text))
        on_disk = {
            p.name
            for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        }
        assert mentioned == on_disk, (
            "docs/benchmarks.md out of sync with benchmarks/: "
            f"only-in-docs={sorted(mentioned - on_disk)}, "
            f"undocumented={sorted(on_disk - mentioned)}"
        )

    def test_paper_map_module_references_import(self):
        """Backticked ``repro.<module>`` references in the paper map must
        be importable module paths (attribute tails allowed)."""
        import importlib

        text = (DOCS / "paper-map.md").read_text()
        for ref in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            parts = ref.split(".")
            # Peel attribute tails until the prefix imports.
            for cut in range(len(parts), 0, -1):
                try:
                    module = importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError:
                    continue
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unimportable reference {ref}")
            obj = module
            for attr in parts[cut:]:
                assert hasattr(obj, attr), f"stale reference {ref}"
                obj = getattr(obj, attr)


class TestDocstringAudit:
    def exported(self, package):
        for name in package.__all__:
            obj = getattr(package, name)
            if callable(obj) or isinstance(obj, type):
                yield name, obj

    def test_session_exports_have_docstrings(self):
        for name, obj in self.exported(repro.session):
            assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_core_exports_have_docstrings(self):
        for name, obj in self.exported(repro.core):
            assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_cache_exports_have_docstrings(self):
        for name, obj in self.exported(repro.cache):
            assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_serve_exports_have_docstrings(self):
        for name, obj in self.exported(repro.serve):
            assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_major_surface_docstrings_include_examples(self):
        for name in EXAMPLE_REQUIRED:
            doc = getattr(repro, name).__doc__ or ""
            assert "::" in doc or ">>>" in doc, (
                f"{name}'s docstring should include a usage example"
            )

    def test_serve_surface_docstrings_include_examples(self):
        for name in SERVE_EXAMPLE_REQUIRED:
            doc = getattr(repro.serve, name).__doc__ or ""
            assert "::" in doc or ">>>" in doc, (
                f"repro.serve.{name}'s docstring should include a usage "
                "example"
            )
