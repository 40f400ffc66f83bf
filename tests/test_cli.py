"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    code = main(
        [
            "generate",
            "--output", str(out),
            "--concepts", "25",
            "--docs-per-concept", "3",
            "--seed", "3",
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "x"])
        assert args.concepts == 60
        assert args.seed == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_both_files(self, scenario_dir):
        ontology_path = scenario_dir / "ontology.json"
        corpus_path = scenario_dir / "corpus.jsonl"
        assert ontology_path.exists() and corpus_path.exists()
        payload = json.loads(ontology_path.read_text())
        assert len(payload["concepts"]) == 25
        assert sum(1 for __ in corpus_path.open()) == 75

    def test_output_dir_created(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        code = main(
            ["generate", "--output", str(target), "--concepts", "5",
             "--docs-per-concept", "1"]
        )
        assert code == 0
        assert (target / "ontology.json").exists()

    @pytest.mark.parametrize("flag", ["--concepts", "--docs-per-concept"])
    def test_zero_sizes_exit_2_before_writing(self, tmp_path, capsys, flag):
        target = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--output", str(target), flag, "0"])
        assert exit_info.value.code == 2
        assert f"{flag}: must be an integer >= 1" in capsys.readouterr().err
        assert not target.exists()

    def test_size_the_generator_refuses_exits_2_before_writing(
        self, tmp_path, capsys
    ):
        target = tmp_path / "out"
        code = main(["generate", "--output", str(target), "--concepts", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: n_roots must be in")
        assert not target.exists()


class TestLinkAndEvaluate:
    def test_link_prints_table(self, scenario_dir, capsys):
        payload = json.loads((scenario_dir / "ontology.json").read_text())
        term = payload["concepts"][5]["preferred_term"]
        code = main(
            [
                "link",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--term", term,
                "--top-k", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Propositions" in out
        assert "cosine" in out

    def test_evaluate_runs(self, scenario_dir, capsys):
        code = main(
            [
                "evaluate",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--max-terms", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Top 10" in out

    def test_evaluate_empty_window_fails(self, scenario_dir, capsys):
        code = main(
            [
                "evaluate",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--start-year", "2050",
                "--end-year", "2060",
            ]
        )
        assert code == 1

    # The input paths do not exist: reading either would raise, so
    # exit 2 means the value was refused before any file was read.
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("evaluate", "--max-terms", "0"),
            ("evaluate", "--max-terms", "-3"),
            ("link", "--top-k", "0"),
        ],
    )
    def test_bad_counts_exit_2_before_reading(
        self, tmp_path, capsys, command, flag, value
    ):
        term = ["--term", "x"] if command == "link" else []
        with pytest.raises(SystemExit) as exit_info:
            main([
                command,
                "--ontology", str(tmp_path / "missing.json"),
                "--corpus", str(tmp_path / "missing.jsonl"),
                *term,
                flag, value,
            ])
        assert exit_info.value.code == 2
        assert f"{flag}: must be an integer >= 1" in capsys.readouterr().err

    def test_reversed_years_exit_2_before_reading(self, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--ontology", str(tmp_path / "missing.json"),
                "--corpus", str(tmp_path / "missing.jsonl"),
                "--start-year", "2020",
                "--end-year", "2010",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --start-year 2020 is after --end-year 2010\n"
        )


class TestEnrich:
    def test_enrich_prints_report(self, scenario_dir, capsys):
        code = main(
            [
                "enrich",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--candidates", "3",
                "--top-k", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Enrichment report" in out

    def test_community_backend_flag_is_gone(self, capsys):
        # Louvain is the only community detector, so the flag that
        # chose one is an argparse error now.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "enrich", "--ontology", "o", "--corpus", "c",
                    "--community-backend", "greedy",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --community-backend" in (
            capsys.readouterr().err
        )

    def test_cache_batch_size_flag_is_gone(self, capsys):
        # Every vector request is a /vectors/batch frame of at most 256
        # keys, so the flag that sized the frames is an argparse error.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "enrich", "--ontology", "o", "--corpus", "c",
                    "--cache-batch-size", "1",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache-batch-size" in (
            capsys.readouterr().err
        )

    def test_no_feature_cache_flag_is_gone(self, capsys):
        # Every enricher has a feature cache (in memory by default), so
        # the flag that switched it off is an argparse error.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "enrich", "--ontology", "o", "--corpus", "c",
                    "--no-feature-cache",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-feature-cache" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--context-window", "0"], "context_window must be >= 1"),
            (["--context-window", "-3"], "context_window must be >= 1"),
            (["--min-term-length", "0"], "min_term_length must be >= 1"),
            (["--seed", "-1"], "seed must be >= 0"),
            # A NaN timeout crashed the first lookup with ValueError, an
            # infinite one with OverflowError.
            (["--cache-url", "http://h:1", "--cache-timeout", "nan"],
             "cache_timeout must be finite"),
            (["--cache-url", "http://h:1", "--cache-timeout", "inf"],
             "cache_timeout must be finite"),
        ],
    )
    def test_values_a_run_can_only_fail_on_exit_before_any_work(
        self, tmp_path, capsys, flags, message
    ):
        # Missing paths: exit 2 means the config was checked first.
        code = main(
            [
                "enrich",
                "--ontology", str(tmp_path / "missing.json"),
                "--corpus", str(tmp_path / "missing.jsonl"),
                *flags,
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_classifier_exits_before_any_work(self, tmp_path, capsys):
        # The ontology and corpus paths do not exist: reading either
        # would raise, so exit 2 means the config was checked first.
        code = main(
            [
                "enrich",
                "--ontology", str(tmp_path / "missing.json"),
                "--corpus", str(tmp_path / "missing.jsonl"),
                "--polysemy-classifier", "nope",
            ]
        )
        assert code == 2
        assert "polysemy_classifier must be one of" in capsys.readouterr().err

    def test_cache_flags_default_off(self):
        args = build_parser().parse_args(
            ["enrich", "--ontology", "o", "--corpus", "c"]
        )
        assert args.cache_dir is None
        assert args.cache_max_bytes is None

    def test_enrich_with_cache_dir_warm_second_invocation(
        self, scenario_dir, tmp_path, capsys
    ):
        cache_dir = tmp_path / "feature-cache"
        argv = [
            "enrich",
            "--ontology", str(scenario_dir / "ontology.json"),
            "--corpus", str(scenario_dir / "corpus.jsonl"),
            "--candidates", "3",
            "--top-k", "3",
            "--cache-dir", str(cache_dir),
            "--timings",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert cache_dir.is_dir()
        # A second CLI invocation is a fresh process in spirit: a new
        # enricher warm-started purely from the on-disk store.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "disk_hits" in warm
        report_of = lambda out: out.split("Stage timings")[0]  # noqa: E731
        assert report_of(warm) == report_of(cold)


class TestServeAndCacheInfoParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--cache-dir", "x"])
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.cache_max_bytes is None
        assert args.scenario == []
        assert args.job_workers == 1

    def test_serve_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--port", "70000"),
            ("--port", "65536"),
            ("--port", "-1"),
            ("--port", "http"),
            ("--job-workers", "0"),
        ],
    )
    def test_bad_numbers_exit_2_before_making_a_store(
        self, tmp_path, capsys, flag, value
    ):
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache-dir", str(cache_dir), flag, value])
        assert exit_info.value.code == 2
        message = {
            "--port": "must be a port number from 0 to 65535",
            "--job-workers": "must be an integer >= 1",
        }[flag]
        assert f"{flag}: {message}" in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_serve_scenarios_are_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "x",
             "--scenario", "a=/tmp/a", "--scenario", "b=/tmp/b"]
        )
        assert args.scenario == [("a", Path("/tmp/a")), ("b", Path("/tmp/b"))]

    def test_bad_scenario_spec_rejected(self, tmp_path, capsys, monkeypatch):
        from repro.service import server

        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache-dir", str(cache_dir), "--port", "0",
                  "--scenario", "no-equals-sign"])
        assert exit_info.value.code == 2
        assert "NAME=DIR" in capsys.readouterr().err
        assert not cache_dir.exists()

        seen = {}
        monkeypatch.setattr(
            server, "serve", lambda **kwargs: seen.update(kwargs) or 0
        )
        assert main(["serve", "--cache-dir", str(cache_dir),
                     "--scenario", "demo=/data/demo"]) == 0
        ontology, corpus = seen["corpora"]["demo"]
        assert ontology == Path("/data/demo/ontology.json")
        assert corpus == Path("/data/demo/corpus.jsonl")

    @pytest.mark.parametrize(
        "argv, form",
        [
            (["serve", "--scenario", "bad-spec"], "NAME=DIR"),
            (["serve", "--scenario", "=/tmp/x"], "NAME=DIR"),
            (["serve", "--watch", "nope"], "NAME=DIR"),
            (["serve", "--watch", "nope="], "NAME=DIR"),
            (["serve", "--ontology", "onto.json"], "NAME=PATH"),
            (["recommend", "--text", "-", "--ontology", "onto.json"],
             "NAME=PATH"),
        ],
    )
    def test_spec_without_name_exits_2_before_any_work(
        self, tmp_path, capsys, argv, form
    ):
        cache_dir = tmp_path / "cache"
        if argv[0] == "serve":
            argv = [*argv, "--cache-dir", str(cache_dir), "--port", "0"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and form in err
        assert not cache_dir.exists()

    def test_watch_of_unregistered_scenario_exits_before_binding(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service import server

        def refuse(*args, **kwargs):
            raise AssertionError("serve opened its store before checking --watch")

        monkeypatch.setattr(server, "DiskCacheStore", refuse)
        cache_dir = tmp_path / "cache"
        code = main(["serve", "--cache-dir", str(cache_dir), "--port", "0",
                     "--scenario", f"demo={tmp_path / 'scenario'}",
                     "--watch", f"nope={tmp_path / 'inbox'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'nope'" in err and "demo" in err
        assert not cache_dir.exists()

    @pytest.mark.parametrize(
        "flag, path, missing",
        [
            ("--scenario", "nonexistent", "nonexistent/ontology.json"),
            ("--scenario", "half", "half/corpus.jsonl"),
            ("--ontology", "missing.json", "missing.json"),
        ],
    )
    def test_missing_input_file_exits_before_making_a_store(
        self, tmp_path, capsys, monkeypatch, flag, path, missing
    ):
        # A scenario's files are first read by its first job, so without
        # this check serve would boot and answer as if it were usable.
        from repro.service import server

        def refuse(*args, **kwargs):
            raise AssertionError("serve opened its store before checking inputs")

        monkeypatch.setattr(server, "DiskCacheStore", refuse)
        (tmp_path / "half").mkdir()
        (tmp_path / "half" / "ontology.json").write_text("{}")
        cache_dir = tmp_path / "cache"
        code = main(["serve", "--cache-dir", str(cache_dir), "--port", "0",
                     flag, f"x={tmp_path / path}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'x'" in err and missing in err
        assert not cache_dir.exists()

    def test_watch_poll_must_be_finite_before_binding(self, tmp_path, capsys):
        # The store directory is made before the port is bound, so its
        # absence shows the value was refused before either.
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache-dir", str(cache_dir), "--port", "0",
                  "--watch-poll", "nan"])
        assert exit_info.value.code == 2
        assert "--watch-poll" in capsys.readouterr().err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("seconds", ["nan", "-1", "0", "inf"])
    def test_watch_poll_is_checked_before_connecting(
        self, capsys, monkeypatch, seconds
    ):
        from repro.service import client

        def refuse(*args, **kwargs):
            raise AssertionError("watch connected before checking --poll")

        monkeypatch.setattr(client.ServiceClient, "__init__", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["watch", "--url", "http://127.0.0.1:1", "demo", "--once",
                  "--poll", seconds])
        assert exit_info.value.code == 2
        assert "finite number of seconds > 0" in capsys.readouterr().err

    def test_enrich_cache_url_flags(self):
        args = build_parser().parse_args(
            ["enrich", "--ontology", "o", "--corpus", "c",
             "--cache-url", "http://h:1", "--cache-timeout", "0.5"]
        )
        assert args.cache_url == "http://h:1"
        assert args.cache_timeout == 0.5


class TestIndexCommands:
    def test_build_then_inspect(self, scenario_dir, tmp_path, capsys):
        index_dir = tmp_path / "indexes"
        argv = [
            "index", "build",
            "--corpus", str(scenario_dir / "corpus.jsonl"),
            "--index-dir", str(index_dir),
        ]
        assert main(argv) == 0
        assert "stored" in capsys.readouterr().out
        assert main(["index", "inspect", "--index-dir", str(index_dir)]) == 0
        captured = capsys.readouterr()
        assert "single" in captured.out
        assert captured.err == ""

    def test_inspect_flags_a_leftover_sharded_generation(
        self, tmp_path, capsys
    ):
        from repro.corpus.document import Document
        from repro.corpus.index_store import IndexStore
        from test_index_store import write_sharded_generation

        store = IndexStore(tmp_path / "indexes")
        fingerprint = write_sharded_generation(
            store, [Document("d0", [["wound", "heals"]])]
        )
        assert main(
            ["index", "inspect", "--index-dir", str(store.directory)]
        ) == 0
        captured = capsys.readouterr()
        assert "single" not in captured.out
        assert fingerprint[:12] in captured.err
        assert "'sharded'" in captured.err
        assert "the next build will replace it" in captured.err


class TestCacheInfo:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["cache-info"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["cache-info", "--cache-dir", str(tmp_path),
             "--cache-url", "http://h:1"]
        ) == 2

    def test_prints_disk_layout(self, tmp_path, capsys):
        import numpy as np

        from repro.polysemy.cache_store import DiskCacheStore

        store = DiskCacheStore(tmp_path)
        store.put(("fp-a", "term one", "cfg"), np.arange(4.0))
        store.put(("fp-b", "term two", "cfg"), np.arange(6.0))
        assert main(["cache-info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "generations" in out.lower()
        assert " 2" in out  # two entries across two generations

    def test_missing_cache_dir_is_an_error_not_a_mkdir(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "typo" / "cache"
        assert main(["cache-info", "--cache-dir", str(missing)]) == 1
        assert "no cache store" in capsys.readouterr().err
        # Inspection must not have created the directory it inspected.
        assert not missing.exists()

    def test_unreachable_service_reports_error(self, capsys):
        code = main(["cache-info", "--cache-url", "http://127.0.0.1:1"])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err

    def test_reads_a_live_service(self, tmp_path, capsys):
        import numpy as np

        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.client import RemoteCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(DiskCacheStore(tmp_path), port=0)
        server.start()
        try:
            RemoteCacheStore(server.url).put(
                ("fp", "served term", "cfg"), np.arange(3.0)
            )
            assert main(["cache-info", "--cache-url", server.url]) == 0
            out = capsys.readouterr().out
            assert server.url in out
        finally:
            server.stop()


class TestEnrichThroughService:
    def test_cache_url_warm_second_invocation(
        self, scenario_dir, tmp_path, capsys
    ):
        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(
            DiskCacheStore(tmp_path / "served"), port=0
        )
        server.start()
        try:
            argv = [
                "enrich",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--candidates", "3",
                "--top-k", "3",
                "--cache-url", server.url,
                "--timings",
            ]
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv) == 0
            warm = capsys.readouterr().out
        finally:
            server.stop()
        assert "remote_hits" in warm
        report_of = lambda out: out.split("Stage timings")[0]  # noqa: E731
        assert report_of(warm) == report_of(cold)
