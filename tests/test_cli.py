"""End-to-end CLI tests: generate → index → select → search → stats."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """Run the full CLI pipeline once into a temp directory."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.json.gz")
    index = str(root / "index.json.gz")
    catalog = str(root / "catalog.json.gz")
    assert main([
        "generate", "--docs", "800", "--seed", "9", "--out", corpus
    ]) == 0
    assert main(["index", "--corpus", corpus, "--out", index]) == 0
    assert main([
        "select", "--index", index, "--t-c-percent", "5",
        "--t-v", "128", "--out", catalog,
    ]) == 0
    return {"corpus": corpus, "index": index, "catalog": catalog}


class TestPipeline:
    def test_artefacts_exist(self, artefacts):
        from pathlib import Path

        for path in artefacts.values():
            assert Path(path).exists()

    def test_search_with_catalog(self, artefacts, capsys):
        from repro.storage import load_catalog, load_index

        index = load_index(artefacts["index"])
        catalog = load_catalog(artefacts["catalog"])
        covered = next(iter(catalog)).keyword_set
        predicate = max(sorted(covered), key=index.predicate_frequency)
        term = max(
            list(index.vocabulary)[:100], key=index.document_frequency
        )
        code = main([
            "search", f"{term} | {predicate}",
            "--index", artefacts["index"],
            "--catalog", artefacts["catalog"],
            "--top-k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "context-sensitive results" in out
        assert "path=views" in out

    def test_search_conventional_and_disjunctive(self, artefacts, capsys):
        from repro.storage import load_index

        index = load_index(artefacts["index"])
        predicate = max(
            index.predicate_vocabulary, key=index.predicate_frequency
        )
        term = max(
            list(index.vocabulary)[:100], key=index.document_frequency
        )
        query = f"{term} | {predicate}"
        assert main([
            "search", query, "--index", artefacts["index"], "--conventional",
        ]) == 0
        assert "conventional results" in capsys.readouterr().out
        assert main([
            "search", query, "--index", artefacts["index"],
            "--disjunctive", "--model", "bm25",
        ]) == 0
        assert "disjunctive results" in capsys.readouterr().out

    def test_stats(self, artefacts, capsys):
        assert main([
            "stats", "--index", artefacts["index"],
            "--catalog", artefacts["catalog"],
        ]) == 0
        out = capsys.readouterr().out
        assert "documents: 800" in out
        assert "views:" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestShardedPipeline:
    """CLI sharding: build with --shards, auto-detect, re-shard at load."""

    @pytest.fixture(scope="class")
    def sharded_index_path(self, artefacts, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-sharded") / "sharded.json.gz")
        assert main([
            "index", "--corpus", artefacts["corpus"],
            "--shards", "3", "--partitioner", "hash", "--out", path,
        ]) == 0
        return path

    @pytest.fixture(scope="class")
    def probe_query(self, artefacts):
        from repro.storage import load_index

        index = load_index(artefacts["index"])
        predicate = max(
            index.predicate_vocabulary, key=index.predicate_frequency
        )
        term = max(list(index.vocabulary)[:100], key=index.document_frequency)
        return f"{term} | {predicate}"

    def test_sharded_search_matches_flat(
        self, artefacts, sharded_index_path, probe_query, capsys
    ):
        assert main([
            "search", probe_query, "--index", artefacts["index"],
            "--top-k", "5",
        ]) == 0
        flat_out = capsys.readouterr().out
        assert main([
            "search", probe_query, "--index", sharded_index_path,
            "--top-k", "5", "--executor", "serial",
        ]) == 0
        sharded_out = capsys.readouterr().out
        assert "shards=3 executor=serial" in sharded_out
        flat_hits = [l for l in flat_out.splitlines() if "score=" in l]
        sharded_hits = [l for l in sharded_out.splitlines() if "score=" in l]
        assert flat_hits == sharded_hits

    def test_reshard_flat_index_at_load(
        self, artefacts, probe_query, capsys
    ):
        assert main([
            "search", probe_query, "--index", artefacts["index"],
            "--top-k", "5", "--shards", "4", "--partitioner", "range",
            "--executor", "serial",
        ]) == 0
        assert "shards=4 executor=serial" in capsys.readouterr().out

    def test_sharded_batch(
        self, sharded_index_path, probe_query, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            f"{probe_query}\nnosuchword | NoSuchPredicate\n"
        )
        assert main([
            "batch", "--queries", str(queries),
            "--index", sharded_index_path, "--executor", "serial",
            "--top-k", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok    " in out
        assert "error " in out
        assert "workers=1" in out  # serial: one shard at a time

    def test_batch_workers_cap_the_shard_fan_out(
        self, artefacts, probe_query, tmp_path, capsys
    ):
        """``--workers 1`` over two shards runs one shard at a time, on
        the default executor too, and the report says so."""
        queries = tmp_path / "queries.txt"
        queries.write_text(f"{probe_query}\n")
        assert main([
            "batch", "--queries", str(queries), "--index", artefacts["index"],
            "--shards", "2", "--workers", "1", "--top-k", "5",
        ]) == 0
        assert "workers=1 " in capsys.readouterr().out

    def test_sharded_stats(self, sharded_index_path, capsys):
        assert main(["stats", "--index", sharded_index_path]) == 0
        out = capsys.readouterr().out
        assert "shards: 3 (hash-partitioned)" in out
        assert "documents: 800" in out


class TestLifecyclePipeline:
    """ingest → compact → info → search over a segmented index directory."""

    def test_round_trip(self, artefacts, tmp_path, capsys):
        import json

        from repro.storage import load_documents, save_documents

        documents = load_documents(artefacts["corpus"])
        halves = [tmp_path / "a.json.gz", tmp_path / "b.json.gz"]
        save_documents(documents[:400], halves[0])
        save_documents(documents[400:], halves[1])
        directory = str(tmp_path / "idx.d")
        for half in halves:
            assert main([
                "ingest", "--index", directory, "--corpus", str(half),
                "--flush",
            ]) == 0
        assert main(["compact", "--index", directory, "--full"]) == 0
        capsys.readouterr()
        assert main(["info", "--index", directory]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["live_docs"] == 800
        assert info["storage"]["codec"] == "block-v4"
        assert [f["format"] for f in info["storage"]["files"]] == [4]
        document = documents[0]
        term = document.fields["title"].split()[0].lower()
        predicate = document.fields["mesh"].split()[0]
        assert main([
            "search", f"{term} | {predicate}", "--index", directory,
        ]) == 0
        assert "context-sensitive results" in capsys.readouterr().out

    def test_only_v4_segments_are_writable(self, tmp_path):
        from repro.lifecycle import SegmentedIndex
        from repro.storage import StorageError

        with pytest.raises(StorageError, match="format 3"):
            SegmentedIndex.open(tmp_path / "idx.d", storage_format=3)


class TestServing:
    """The serve/bench-serve commands and the load generator."""

    @pytest.fixture(scope="class")
    def query_file(self, artefacts, tmp_path_factory):
        from repro.storage import load_index

        index = load_index(artefacts["index"])
        predicate = max(
            index.predicate_vocabulary, key=index.predicate_frequency
        )
        terms = sorted(
            list(index.vocabulary)[:200], key=index.document_frequency
        )[-8:]
        path = tmp_path_factory.mktemp("cli-serve") / "queries.txt"
        path.write_text(
            "".join(f"{term} | {predicate}\n" for term in terms)
        )
        return str(path)

    def test_bench_serve(self, artefacts, query_file, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = main([
            "bench-serve", "--index", artefacts["index"],
            "--queries", query_file, "--threads", "4", "--repeat", "2",
            "--max-wait-ms", "5", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench-serve:" in out and "throughput:" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["load"]["errors"] == 0
        assert payload["load"]["ok"] == payload["load"]["sent"] == 16
        assert payload["load"]["qps"] > 0
        assert payload["server"]["ok"] == 16

    def test_serve_command_over_socket(self, artefacts):
        import threading
        import time

        from repro.service import ServiceClient
        from repro.storage import load_index

        # Drive the serve command's own machinery in-process: same
        # engine construction as `python -m repro serve`, but via
        # ServerThread so the test can stop it.
        from repro.cli import build_parser, _load_engine, _service_config
        from repro.service import ServerThread

        args = build_parser().parse_args([
            "serve", "--index", artefacts["index"], "--port", "0",
        ])
        engine, needs_close = _load_engine(args)
        # Flat engines own their (possibly mmap-backed) index now and
        # must be closed by the caller.
        assert needs_close
        assert not hasattr(engine, "sharded_index")
        try:
            with ServerThread(engine, _service_config(args)) as st:
                host, port = st.address
                with ServiceClient(host, port) as client:
                    assert client.healthz()["status"] == "ok"
                    index = load_index(artefacts["index"])
                    predicate = max(
                        index.predicate_vocabulary,
                        key=index.predicate_frequency,
                    )
                    index.close()
                    response = client.query(f"disease | {predicate}")
                    assert response["status"] in ("ok", "error")
        finally:
            engine.close()


class TestErrorExits:
    """Operational failures exit 2 with a readable message, no traceback."""

    def test_missing_index(self, capsys):
        code = main(["stats", "--index", "/nonexistent/index.json.gz"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/nonexistent/index.json.gz" in err

    def test_corrupt_index(self, tmp_path, capsys):
        bad = tmp_path / "index.json.gz"
        bad.write_bytes(b"this is not gzip or json")
        code = main(["stats", "--index", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt artefact" in err

    def test_truncated_gzip_index(self, artefacts, tmp_path, capsys):
        from pathlib import Path

        whole = Path(artefacts["index"]).read_bytes()
        bad = tmp_path / "truncated.json.gz"
        bad.write_bytes(whole[: len(whole) // 2])
        code = main(["search", "a | b", "--index", str(bad)])
        assert code == 2
        assert "corrupt artefact" in capsys.readouterr().err

    def test_wrong_artefact_kind(self, artefacts, capsys):
        code = main(["stats", "--index", artefacts["corpus"]])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "expected a persisted" in err

    def test_bad_query_is_readable(self, artefacts, capsys):
        code = main([
            "search", "no separator here", "--index", artefacts["index"],
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "|" in err

    def test_port_in_use_is_readable(self, artefacts, capsys):
        import socket

        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            code = main([
                "serve", "--index", artefacts["index"],
                "--port", str(port),
            ])
        finally:
            holder.close()
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_query_file(self, artefacts, capsys):
        code = main([
            "bench-serve", "--index", artefacts["index"],
            "--queries", "/nonexistent/queries.txt",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
