"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import (
    EXIT_BAD_OPTIONS,
    EXIT_ERROR,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    EXIT_UNKNOWN_ALGORITHM,
    main,
)


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        pyproject = (
            pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        )
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                          flags=re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)


class TestParallelFlag:
    def test_query_parallel_matches_serial(self, capsys):
        assert main(["query", "--dataset", "p2p-Gnutella04",
                     "--pattern", "3-clique"]) == 0
        serial = capsys.readouterr().out
        assert main(["query", "--dataset", "p2p-Gnutella04",
                     "--pattern", "3-clique", "--parallel", "2"]) == 0
        partitioned = capsys.readouterr().out
        count = lambda out: out.split(":")[1].split("results")[0].strip()
        assert count(serial) == count(partitioned)
        assert "2 shards" in partitioned

    def test_query_partition_mode_is_selectable(self, capsys):
        assert main(["query", "--dataset", "p2p-Gnutella04",
                     "--pattern", "3-clique", "--parallel", "2",
                     "--partition-mode", "hash"]) == 0
        assert "2 shards" in capsys.readouterr().out


class TestDatasets:
    def test_lists_every_catalog_entry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ca-GrQc" in out and "com-Orkut" in out
        assert "regime" in out


class TestQuery:
    def test_named_pattern(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-clique",
                     "--algorithm", "lftj"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3-clique on ca-GrQc" in out
        assert "lftj" in out

    def test_query_text(self, capsys):
        code = main(["query", "--dataset", "p2p-Gnutella04",
                     "--text", "edge(a,b), edge(b,c), a<c"])
        assert code == 0
        assert "results in" in capsys.readouterr().out

    def test_acyclic_pattern_attaches_samples(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-path",
                     "--selectivity", "8", "--algorithm", "ms"])
        assert code == 0
        assert "3-path" in capsys.readouterr().out

    def test_counts_agree_across_algorithms(self, capsys):
        counts = []
        for algorithm in ("lftj", "ms", "psql"):
            main(["query", "--dataset", "p2p-Gnutella04", "--pattern",
                  "3-clique", "--algorithm", algorithm])
            line = capsys.readouterr().out.strip()
            counts.append(line.split(":")[1].split("results")[0].strip())
        assert len(set(counts)) == 1

    def test_limit_streams_a_prefix(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-clique",
                     "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 results" in out and "limit 3" in out


class TestUniformErrors:
    """Every failure: one stderr line, a failure-specific exit code."""

    def test_unsupported_algorithm_query_returns_error_code(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-path",
                     "--selectivity", "8", "--algorithm", "graphlab"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_timeout_returns_distinct_code(self, capsys):
        code = main(["query", "--dataset", "ego-Twitter", "--pattern",
                     "4-clique", "--algorithm", "naive", "--timeout", "1e-9"])
        assert code == EXIT_TIMEOUT
        err = capsys.readouterr().err
        assert "timed out" in err and err.count("\n") == 1

    def test_zero_timeout_is_invalid_options(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-clique",
                     "--timeout", "0.0"])
        assert code == EXIT_BAD_OPTIONS
        err = capsys.readouterr().err
        assert "timeout" in err and err.count("\n") == 1

    def test_parse_failure_returns_distinct_code(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--text", "edge(a,"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "not-a-dataset", "--pattern", "3-clique"])

    def test_unknown_algorithm_returns_distinct_code(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-clique",
                     "--algorithm", "alien-join"])
        assert code == EXIT_UNKNOWN_ALGORITHM
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and err.count("\n") == 1

    def test_invalid_parallel_returns_distinct_code(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc", "--pattern", "3-clique",
                     "--parallel", "0"])
        assert code == EXIT_BAD_OPTIONS
        err = capsys.readouterr().err
        assert "at least 1" in err and err.count("\n") == 1

    def test_every_failure_code_is_distinct(self):
        codes = {EXIT_ERROR, EXIT_PARSE, EXIT_UNKNOWN_ALGORITHM,
                 EXIT_BAD_OPTIONS, EXIT_TIMEOUT}
        assert len(codes) == 5
        assert 0 not in codes and 2 not in codes  # success / argparse usage


class TestExplain:
    def test_cyclic_pattern_report(self, capsys):
        code = main(["explain", "--dataset", "ca-GrQc",
                     "--pattern", "3-clique"])
        assert code == 0
        out = capsys.readouterr().out
        assert "structure: cyclic" in out
        assert "algorithm: lftj" in out
        assert "partitioning: serial" in out
        assert "output bound (AGM)" in out
        assert "physical plan:" in out

    def test_acyclic_pattern_report_with_partitioning(self, capsys):
        code = main(["explain", "--dataset", "ca-GrQc", "--pattern", "3-path",
                     "--selectivity", "8", "--parallel", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "structure: β-acyclic" in out
        assert "algorithm: ms" in out
        assert "hash[" in out
        assert "4 disjoint shards" in out

    def test_json_output_is_machine_readable(self, capsys):
        code = main(["explain", "--dataset", "ca-GrQc",
                     "--pattern", "3-clique", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "lftj"
        assert report["beta_acyclic"] is False
        assert report["agm_bound"] > 0
        assert report["relation_estimates"][0]["name"] == "edge"

    def test_unknown_algorithm_same_code_as_query(self, capsys):
        code = main(["explain", "--dataset", "ca-GrQc",
                     "--pattern", "3-clique", "--algorithm", "alien-join"])
        assert code == EXIT_UNKNOWN_ALGORITHM


class TestBench:
    def test_small_grid(self, capsys):
        code = main(["bench", "--systems", "lftj,graphlab",
                     "--datasets", "ca-GrQc", "--queries", "3-clique",
                     "--timeout", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3-clique" in out and "ca-GrQc" in out


class TestAnalyze:
    def test_reports_graph_statistics(self, capsys):
        code = main(["analyze", "--dataset", "p2p-Gnutella04", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "triangles:" in out
        assert "PageRank" in out


class TestEvents:
    def test_local_ring_prints_placeholder_when_empty(self, capsys):
        from repro.obs.events import isolated_events

        with isolated_events():
            assert main(["events"]) == 0
        assert "(no recorded events)" in capsys.readouterr().out

    def test_local_ring_prints_recorded_events(self, capsys):
        from repro.obs.events import isolated_events

        with isolated_events() as ring:
            ring.record(source="service", query="edge(a,b)",
                        outcome="ok", seconds=0.002,
                        trace_id="cafe0123cafe0123")
            assert main(["events"]) == 0
        out = capsys.readouterr().out
        assert "cafe0123cafe0123" in out and "'edge(a,b)'" in out

    def test_json_mode_emits_one_object_per_line(self, capsys):
        from repro.obs.events import isolated_events

        with isolated_events() as ring:
            ring.record(n=1)
            ring.record(n=2)
            assert main(["events", "--json", "--limit", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["n"] == 2

    def test_conflicting_targets_exit_bad_options(self, capsys):
        code = main(["events", "--connect", "repro://h:1",
                     "--cluster", "repro://h:1,h:2"])
        assert code == EXIT_BAD_OPTIONS
        assert "pass one of them" in capsys.readouterr().err

    def test_negative_limit_exits_bad_options(self, capsys):
        assert main(["events", "--limit", "-1"]) == EXIT_BAD_OPTIONS
        assert "--limit" in capsys.readouterr().err

    def test_zero_limit_exits_bad_options(self, capsys):
        # limit=0 used to silently mean "everything"; it must fail like
        # any other non-positive limit.
        assert main(["events", "--limit", "0"]) == EXIT_BAD_OPTIONS
        assert "--limit" in capsys.readouterr().err

    def test_metrics_conflicting_targets_exit_bad_options(self, capsys):
        code = main(["metrics", "--connect", "repro://h:1",
                     "--cluster", "repro://h:1,h:2"])
        assert code == EXIT_BAD_OPTIONS
        assert "pass one of them" in capsys.readouterr().err

    def test_analyze_cluster_without_query_exits_bad_options(self, capsys):
        code = main(["analyze", "--cluster", "repro://h:1,h:2"])
        assert code == EXIT_BAD_OPTIONS
        assert "query argument" in capsys.readouterr().err

    def test_analyze_route_without_target_exits_bad_options(self, capsys):
        code = main(["analyze", "edge(a,b)", "--route", "peer"])
        assert code == EXIT_BAD_OPTIONS
        assert "--route" in capsys.readouterr().err

    def test_query_route_without_target_exits_bad_options(self, capsys):
        code = main(["query", "--dataset", "ca-GrQc",
                     "--pattern", "3-clique", "--route", "peer"])
        assert code == EXIT_BAD_OPTIONS
        assert "--route" in capsys.readouterr().err


class TestRemote:
    """query/explain --connect against an in-process wire server."""

    @pytest.fixture(scope="class")
    def server_url(self):
        from repro.data.catalog import load_dataset
        from repro.data.sampling import attach_samples
        from repro.net.server import ServerThread
        from repro.service import QueryService
        from repro.storage import Database

        database = Database([load_dataset("ca-GrQc")])
        attach_samples(database, 10, sample_names=("v1", "v2", "v3", "v4"))
        with QueryService(database) as service:
            with ServerThread(service) as server:
                yield server.url

    def test_query_connect_matches_local(self, server_url, capsys):
        args = ["--pattern", "3-clique"]
        assert main(["query", "--dataset", "ca-GrQc"] + args) == 0
        local = capsys.readouterr().out
        assert main(["query", "--connect", server_url] + args) == 0
        remote = capsys.readouterr().out
        import re
        count = lambda out: re.search(r"([\d,]+) results", out).group(1)
        assert count(local) == count(remote)
        assert server_url in remote

    def test_query_connect_with_text_and_limit(self, server_url, capsys):
        assert main(["query", "--connect", server_url, "--text",
                     "edge(a,b), edge(b,c)", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 results (limit 5)" in out

    def test_explain_connect_matches_local(self, server_url, capsys):
        args = ["--text", "edge(a,b), edge(b,c), edge(a,c), a<b, b<c"]
        assert main(["explain", "--dataset", "ca-GrQc"] + args) == 0
        local = capsys.readouterr().out
        assert main(["explain", "--connect", server_url] + args) == 0
        assert capsys.readouterr().out == local

    def test_explain_connect_json(self, server_url, capsys):
        assert main(["explain", "--connect", server_url, "--json",
                     "--text", "edge(a,b), edge(b,c)"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "ms"

    def test_remote_errors_keep_their_exit_codes(self, server_url, capsys):
        assert main(["query", "--connect", server_url,
                     "--text", "edge(a,"]) == EXIT_PARSE
        capsys.readouterr()
        assert main(["query", "--connect", server_url, "--text", "edge(a,b)",
                     "--algorithm", "alien"]) == EXIT_UNKNOWN_ALGORITHM
        capsys.readouterr()

    def test_unreachable_server_is_a_plain_error(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["query", "--connect", f"repro://127.0.0.1:{free_port}",
                     "--text", "edge(a,b)"])
        assert code == EXIT_ERROR
        assert "could not connect" in capsys.readouterr().err

    def test_dataset_or_connect_required(self, capsys):
        code = main(["query", "--text", "edge(a,b)"])
        assert code == EXIT_BAD_OPTIONS
        assert "either --dataset, --connect, or --cluster" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--selectivity", "8"],
                                      ["--scale", "2.0"]])
    def test_dataset_shaping_flags_rejected_with_connect(self, server_url,
                                                         capsys, flag):
        # The server owns its database: silently ignoring these would
        # answer for a different dataset than the user asked about.
        code = main(["query", "--connect", server_url,
                     "--pattern", "3-path"] + flag)
        assert code == EXIT_BAD_OPTIONS
        assert "server" in capsys.readouterr().err

    def test_local_pattern_defaults_selectivity(self, capsys):
        # Without --selectivity the local path still attaches samples
        # at the documented default of 10.
        assert main(["query", "--dataset", "ca-GrQc",
                     "--pattern", "3-path"]) == 0
        assert "results" in capsys.readouterr().out


class TestWorkload:
    def test_default_mix(self, capsys):
        code = main(["workload", "--dataset", "p2p-Gnutella04",
                     "--operations", "20", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "default-mix" in out
        assert "p99" in out
        assert "plan_hits" in out

    def test_spec_file(self, capsys, tmp_path):
        import json
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "file-mix", "operations": 8,
            "queries": [{"name": "edge-scan", "template": "edge(a, b)"}],
        }))
        code = main(["workload", "--dataset", "p2p-Gnutella04",
                     "--spec", str(spec)])
        assert code == 0
        out = capsys.readouterr().out
        assert "file-mix" in out
        assert "edge-scan" in out

    def test_compare_cold_reports_speedup(self, capsys):
        code = main(["workload", "--dataset", "p2p-Gnutella04",
                     "--operations", "15", "--compare-cold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cached vs cold" in out
        assert "identical answers" in out
