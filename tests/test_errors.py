"""Exception hierarchy contracts."""

import importlib

import pytest

from repro import errors

from tests.helpers import run_python

#: The packages whose re-exports resolve on first access (PEP 562).
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.service",
    "repro.cluster",
    "repro.live",
    "repro.graph",
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_lookup_errors_are_catchable_generically(self):
        # Library KeyError/ValueError subclasses keep stdlib semantics.
        assert issubclass(errors.UnknownNodeError, KeyError)
        assert issubclass(errors.UnknownTableError, KeyError)
        assert issubclass(errors.UnknownColumnError, KeyError)
        assert issubclass(errors.EmptyQueryError, ValueError)
        assert issubclass(errors.KeywordNotFoundError, LookupError)

    def test_keyword_not_found_carries_keyword(self):
        exc = errors.KeywordNotFoundError("warphog")
        assert exc.keyword == "warphog"
        assert "warphog" in str(exc)

    def test_integrity_is_schema_error(self):
        assert issubclass(errors.IntegrityError, errors.SchemaError)

    def test_frozen_is_graph_error(self):
        assert issubclass(errors.GraphFrozenError, errors.GraphError)


class TestPublicSurface:
    def test_package_reexports(self):
        import repro

        assert repro.ReproError is errors.ReproError
        assert repro.KeywordNotFoundError is errors.KeywordNotFoundError

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for package in map(importlib.import_module, LAZY_PACKAGES):
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (package, name)
            assert set(package.__all__) <= set(dir(package)), package

    def test_exports_are_the_defining_modules_objects(self):
        import repro
        from repro.core.engine import ALGORITHMS, KeywordSearchEngine, parse_query
        from repro.core.query import ALGORITHM_NAMES
        from repro.service.service import QueryService

        assert repro.KeywordSearchEngine is KeywordSearchEngine
        assert repro.core.parse_query is parse_query is repro.parse_query
        assert repro.ALGORITHMS is ALGORITHMS
        assert tuple(ALGORITHMS) == ALGORITHM_NAMES
        assert repro.service.QueryService is QueryService is repro.QueryService

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_every_export(self, package):
        done = run_python(
            f"from {package} import *\n"
            f"import {package} as pkg\n"
            "missing = [n for n in pkg.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
        )
        assert done.returncode == 0, done.stderr

    def test_subpackages_resolve_after_a_bare_import(self):
        done = run_python(
            "import repro\n"
            "assert repro.service.QueryService.__name__ == 'QueryService'\n"
            "assert repro.cluster.pool.WorkerPool is repro.cluster.WorkerPool\n"
            "assert repro.live.mutations.AddNode is repro.AddNode\n"
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "_no_such_private")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name")
