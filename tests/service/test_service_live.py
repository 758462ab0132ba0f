"""QueryService live-mutation integration: apply, versions, cache keying."""

import pytest

from repro.errors import MutationError, UnknownDatasetError
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, UpdateText
from repro.service import QueryService


@pytest.fixture
def service(toy_engine):
    with QueryService(max_workers=2) as svc:
        svc.register_engine("toy", toy_engine)
        yield svc


def answer_nodes(response) -> set:
    return {
        node
        for answer in response.result.answers
        for path in answer.tree.paths
        for node in path
    }


class TestApply:
    def test_apply_upgrades_and_commits(self, service):
        result = service.apply(
            "toy",
            [
                AddNode(label="Live Paper", table="paper", text="liveterm topic"),
                AddEdge(u=-1, v=3),
            ],
        )
        assert result.version == 1
        assert result.applied == 2
        assert len(result.new_nodes) == 1
        response = service.search("toy", "liveterm")
        assert response.ok
        assert result.new_nodes[0] in answer_nodes(response)

    def test_apply_accepts_wire_dicts(self, service):
        result = service.apply(
            "toy", [{"op": "add_node", "label": "W", "text": "wireterm"}]
        )
        assert result.version == 1
        assert service.search("toy", "wireterm").ok

    def test_apply_unknown_dataset(self, service):
        with pytest.raises(UnknownDatasetError):
            service.apply("nope", [AddNode(label="x")])

    def test_apply_bad_batch_changes_nothing(self, service):
        with pytest.raises(MutationError):
            service.apply(
                "toy", [AddNode(label="x", text="halfdone"), AddEdge(u=-1, v=9999)]
            )
        assert service.dataset_version("toy") == 0
        response = service.search("toy", "halfdone")
        assert response.error_type == "KeywordNotFoundError"

    def test_apply_on_lazy_snapshot_dataset(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("snapped", path)
            result = svc.apply(
                "snapped", [{"op": "add_node", "label": "S", "text": "snapterm"}]
            )
            assert result.version == 1
            assert svc.search("snapped", "snapterm").ok

    def test_register_mutable_directly(self, toy_engine):
        dataset = MutableDataset.from_engine(toy_engine)
        with QueryService() as svc:
            svc.register_mutable("toy", dataset)
            assert svc.datasets() == ["toy"]
            assert svc.engine("toy") is dataset.engine
            svc.apply("toy", [AddNode(label="x", text="directterm")])
            assert svc.search("toy", "directterm").ok


class TestVersionKeyedCache:
    def test_stale_results_never_served_after_commit(self, service):
        """The acceptance-criteria cache test: query, cache, mutate —
        the next query must reflect the mutation, not the cache."""
        first = service.search("toy", "transaction")
        assert first.ok and not first.cached
        assert service.search("toy", "transaction").cached

        result = service.apply(
            "toy",
            [
                AddNode(
                    label="Nested Transaction Model",
                    table="paper",
                    text="Nested Transaction Model",
                ),
                AddEdge(u=-1, v=3),
            ],
        )
        after = service.search("toy", "transaction")
        assert not after.cached
        assert result.new_nodes[0] in answer_nodes(after)
        # and the fresh result is cached under the new version
        assert service.search("toy", "transaction").cached

    def test_cache_purge_counts_old_version_entries(self, service):
        service.search("toy", "transaction")
        service.search("toy", "gray")
        result = service.apply("toy", [AddNode(label="x")])
        assert result.cache_purged == 2
        assert len(service.cache) == 0

    def test_versions_in_metrics_and_datasets(self, service):
        assert service.dataset_versions() == {"toy": {"local": 0}}
        service.apply("toy", [AddNode(label="x")])
        assert service.dataset_versions() == {"toy": {"local": 1}}
        exported = service.metrics()
        assert exported["datasets"]["versions"] == {"toy": 1}

    def test_reregistration_restarts_the_version_under_a_new_cache_key(
        self, service, toy_engine
    ):
        """A registration serves its content's version, so versions
        repeat across registrations; the cache key's generation keeps
        the replaced content's answers from ever being served."""
        service.apply("toy", [AddNode(label="x")])
        stale = service.search("toy", "transaction")
        (key,) = service.cache._entries
        service.register_engine("toy", toy_engine)
        assert service.dataset_version("toy") == 0
        # A search of the replaced registration still in flight caches
        # its answer after the purge...
        service.cache.put(key, stale.result)
        # ...and the replacement reaches the same version.
        assert service.apply("toy", [AddNode(label="y")]).version == 1
        assert not service.search("toy", "transaction").cached

    def test_inflight_epoch_completes_unperturbed(self, service):
        """A search holding the old epoch's engine finishes against it
        even after a commit lands mid-flight."""
        old_engine = service.engine("toy")
        before = old_engine.search("transaction")
        service.apply(
            "toy",
            [AddNode(label="T", table="paper", text="transaction extra")],
        )
        again = old_engine.search("transaction")
        assert [a.tree for a in again.answers] == [a.tree for a in before.answers]
        assert service.engine("toy") is not old_engine


class TestReloadSnapshot:
    def test_reload_noop_on_same_digest(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            outcome = svc.reload("toy", path)
            assert outcome["reloaded"] is False

    def test_failed_batch_keeps_reload_noop_possible(self, toy_engine, tmp_path):
        """Regression: a rolled-back batch upgrades the dataset to
        mutable but changes nothing — the digest no-op must survive,
        or every failed mutation would force fleet-wide rebuilds."""
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            with pytest.raises(MutationError):
                svc.apply("toy", [{"op": "remove_edge", "u": 0, "v": 1}])
            assert svc.reload("toy", path)["reloaded"] is False
            # but a *successful* commit kills the no-op, as it must
            svc.apply("toy", [AddNode(label="x")])
            assert svc.reload("toy", path)["reloaded"] is True

    def test_reload_after_rewrite(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            version_before = svc.dataset_version("toy")

            # Rewrite the snapshot with different content.
            dataset = MutableDataset.from_engine(toy_engine)
            dataset.mutate([AddNode(label="R", text="reloadedterm")])
            epoch = dataset.compact()
            from repro.service.snapshot import save_snapshot

            save_snapshot(path, epoch.graph, epoch.index, version=epoch.version)

            outcome = svc.reload("toy", path)
            assert outcome["reloaded"] is True
            assert svc.dataset_version("toy") > version_before
            assert svc.search("toy", "reloadedterm").ok
            # now a no-op again
            assert svc.reload("toy", path)["reloaded"] is False

    def test_build_stamps_the_digest_of_the_file_it_loaded(self, toy_engine, tmp_path):
        """The digest a reload records is of the file it loaded: a file
        rewritten afterwards is not served until reloaded, and that
        reload must swap — a stamp read from the file later would no-op
        it while the service serves the old content."""
        import shutil

        from repro.service.snapshot import save_engine, save_snapshot

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        original = shutil.copy(path, tmp_path / "original.snap")
        dataset = MutableDataset.from_engine(toy_engine)
        dataset.mutate([AddNode(label="R", text="rewrittenterm")])
        epoch = dataset.compact()
        with QueryService() as svc:
            svc.register_engine("toy", toy_engine)
            assert svc.reload("toy", path)["reloaded"] is True
            save_snapshot(path, epoch.graph, epoch.index)  # rewritten after the load
            assert not svc.search("toy", "rewrittenterm").ok  # what the load read
            assert svc.reload("toy", original)["reloaded"] is False
            assert svc.reload("toy", path)["reloaded"] is True
            assert svc.search("toy", "rewrittenterm").ok
            assert svc.reload("toy", path)["reloaded"] is False

    def test_reload_converges_replicas_with_different_histories(
        self, toy_engine, tmp_path
    ):
        """Two services at different versions reloading the same file
        must land on the file's version — identical content must not
        read as drift (the fleet's health check keys off this)."""
        from repro.service.snapshot import save_engine, snapshot_info

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        behind = QueryService()
        ahead = QueryService()
        try:
            for svc in (behind, ahead):
                svc.register_snapshot("toy", path)
                svc.warmup()
            ahead.apply("toy", [AddNode(label="x")])  # histories diverge

            fresh = ahead.save_snapshot("toy", tmp_path / "fresh.snap")
            a = behind.reload("toy", fresh)
            b = ahead.reload("toy", fresh)
            assert a["reloaded"] and b["reloaded"]
            assert a["version"] == b["version"]
            assert behind.dataset_version("toy") == ahead.dataset_version("toy")
            assert a["version"] == snapshot_info(fresh)["dataset_version"] == 1
        finally:
            behind.close()
            ahead.close()

    def test_reload_of_the_same_content_at_another_version_is_not_a_noop(
        self, toy_engine, tmp_path
    ):
        """The content digest leaves the version out: a file holding the
        served content at another version must reload, or the service
        would serve it at a version the file does not carry."""
        from repro.service.snapshot import save_engine

        at0 = save_engine(tmp_path / "at0.snap", toy_engine)
        at3 = save_engine(tmp_path / "at3.snap", toy_engine, version=3)
        with QueryService() as svc:
            svc.register_snapshot("toy", at0)
            svc.warmup()
            outcome = svc.reload("toy", at3)
            assert (outcome["reloaded"], outcome["version"]) == (True, 3)
            assert svc.reload("toy", at3)["reloaded"] is False

    def test_reload_after_nonsnapshot_reregistration_is_not_a_noop(
        self, toy_engine, tmp_path
    ):
        """Regression: replacing a snapshot-registered dataset with a
        plain engine must forget the recorded digest — a later reload
        against the old file has to actually load it, not no-op and
        keep serving the replacement."""
        from repro.live import MutableDataset
        from repro.live.mutations import AddNode
        from repro.service.snapshot import save_engine

        other = MutableDataset.from_engine(toy_engine)
        other.mutate([AddNode(label="other", text="otherterm")])
        other_engine = other.compact().engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            svc.register_engine("toy", other_engine)
            assert svc.search("toy", "otherterm").ok
            outcome = svc.reload("toy", path)
            assert outcome["reloaded"] is True
            response = svc.search("toy", "otherterm")
            assert response.error_type == "KeywordNotFoundError"

    def test_searches_run_on_the_old_engine_while_a_reload_loads(
        self, toy_engine, tmp_path, monkeypatch
    ):
        """The load runs before the swap and outside the registry lock:
        a search meanwhile answers from the served engine, and the
        reload then installs what it loaded."""
        import threading

        from repro.service import snapshot

        path = snapshot.save_engine(tmp_path / "old.snap", toy_engine)
        dataset = MutableDataset.from_engine(toy_engine)
        dataset.mutate([AddNode(label="new", text="replacementterm")])
        fresh = snapshot.save_engine(tmp_path / "fresh.snap", dataset.compact().engine)
        started, release = threading.Event(), threading.Event()
        load = snapshot.load_engine

        def slow_load(*args, **kwargs):
            started.set()
            release.wait(timeout=10)
            return load(*args, **kwargs)

        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            monkeypatch.setattr(snapshot, "load_engine", slow_load)
            reload = threading.Thread(target=svc.reload, args=("toy", fresh))
            reload.start()
            assert started.wait(timeout=10)
            assert svc.search("toy", "gray", use_cache=False).ok
            response = svc.search("toy", "replacementterm")
            assert response.error_type == "KeywordNotFoundError"
            release.set()
            reload.join(timeout=30)
            assert svc.search("toy", "replacementterm").ok

    def test_reload_force(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            assert svc.reload("toy", path, force=True)["reloaded"] is True

    def test_save_snapshot_of_mutated_dataset(self, service, tmp_path):
        service.apply(
            "toy", [AddNode(label="S", table="paper", text="resnappedterm")]
        )
        path = service.save_snapshot("toy", tmp_path / "mutated.snap")
        from repro.service.snapshot import load_snapshot, snapshot_info

        assert snapshot_info(path)["dataset_version"] == 1
        _, index = load_snapshot(path)
        assert index.lookup("resnappedterm") != frozenset()
