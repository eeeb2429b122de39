"""Tests for the command-line interface."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.engine import RecommendationService
from repro.models import BprMF


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("train", "recommend", "experiment", "models", "datasets",
                        "experiments"):
            assert command in text


class TestListingCommands:
    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "layergcn" in output and "lightgcn" in output

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("mooc", "games", "food", "yelp"):
            assert name in output

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output and "fig6" in output


class TestRecommendCommand:
    def test_recommend_json_output(self, capsys):
        code = main([
            "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0,2", "-k", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["recommendations"]) == {"0", "2"}
        for items in payload["recommendations"].values():
            assert len(items) == 4
            assert len(set(items)) == 4

    def test_recommend_text_output(self, capsys):
        assert main([
            "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "1", "-k", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "user 1:" in output

    def test_recommend_rejects_bad_user(self):
        with pytest.raises(SystemExit):
            main([
                "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
                "--embedding-dim", "8", "--users", "100000",
            ])


class TestShardedRecommend:
    BASE = ["recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0,2", "-k", "4", "--json"]

    def _payload(self, capsys, extra):
        assert main(self.BASE + extra) == 0
        return json.loads(capsys.readouterr().out)

    def test_sharded_matches_unsharded(self, capsys):
        unsharded = self._payload(capsys, [])
        for extra in (["--shards", "4"],
                      ["--shards", "7", "--shard-policy", "strided"],
                      ["--shards", "3", "--parallel"]):
            payload = self._payload(capsys, extra)
            assert payload["recommendations"] == unsharded["recommendations"]

    def test_payload_reports_sharding(self, capsys):
        payload = self._payload(capsys, ["--shards", "2", "--parallel"])
        assert payload["shards"] == 2 and payload["parallel"] is True

    def test_rejects_non_positive_shards(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--shards", "0"])

    def test_rejects_parallel_without_shards(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(self.BASE + ["--parallel"])

    def test_non_factorized_model_fails_cleanly(self):
        with pytest.raises(SystemExit, match="factorised"):
            main([
                "recommend", "--model", "multivae", "--dataset", "tiny",
                "--epochs", "0", "--embedding-dim", "8", "--users", "0",
                "--shards", "2",
            ])

    def test_help_documents_sharding_flags(self):
        import argparse
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        text = subparsers.choices["recommend"].format_help()
        assert "--shards" in text and "--parallel" in text
        assert "--shard-policy" in text


class TestCandidateRecommend:
    BASE = ["recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0,2", "-k", "4", "--json"]

    def _payload(self, capsys, extra):
        assert main(self.BASE + extra) == 0
        return json.loads(capsys.readouterr().out)

    def test_certified_two_stage_matches_exact(self, capsys):
        exact = self._payload(capsys, [])
        for extra in (["--candidates", "float32"],
                      ["--candidates", "int8", "--candidate-factor", "8"],
                      ["--candidates", "float32", "--shards", "3"]):
            payload = self._payload(capsys, extra)
            stats = payload["candidates"]
            # tiny/epochs-0 scores are well separated: everything certifies,
            # so the two-stage lists must equal the exact serving path.
            assert stats["certified_users"] == stats["users"] == 2
            assert payload["recommendations"] == exact["recommendations"]

    def test_text_output_reports_certificates(self, capsys):
        assert main([
            "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "1", "-k", "3",
            "--candidates", "int8",
        ]) == 0
        assert "certified" in capsys.readouterr().out

    def test_rejects_candidate_factor_below_one(self):
        with pytest.raises(SystemExit, match="candidate-factor"):
            main(self.BASE + ["--candidates", "int8", "--candidate-factor", "0"])

    def test_rejects_unknown_candidate_mode(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--candidates", "int4"])

    def test_non_factorized_model_fails_cleanly(self):
        with pytest.raises(SystemExit, match="factorised"):
            main([
                "recommend", "--model", "multivae", "--dataset", "tiny",
                "--epochs", "0", "--embedding-dim", "8", "--users", "0",
                "--candidates", "int8",
            ])

    def test_help_documents_candidate_flags(self):
        import argparse
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        text = subparsers.choices["recommend"].format_help()
        assert "--candidates" in text and "--candidate-factor" in text


class TestTrainCommand:
    def test_train_json_output(self, capsys, tmp_path):
        code = main([
            "train", "--model", "bpr", "--dataset", "tiny", "--epochs", "2",
            "--embedding-dim", "8", "--json",
            "--checkpoint", str(tmp_path / "bpr-checkpoint"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "bpr"
        assert "recall@20" in payload["metrics"]
        assert payload["epochs_run"] >= 1
        assert payload["checkpoint"].endswith(".npz")

    def test_train_layergcn_plain_output(self, capsys):
        code = main([
            "train", "--model", "layergcn", "--dataset", "tiny", "--epochs", "1",
            "--embedding-dim", "8", "--num-layers", "2", "--scale", "1.0",
        ])
        assert code == 0
        assert "test metrics" in capsys.readouterr().out


class TestExperimentCommand:
    def test_run_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        output = capsys.readouterr().out
        assert "mooc" in output

    def test_run_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        output = capsys.readouterr().out
        assert "mooc" in output

    def test_unknown_identifier(self):
        with pytest.raises(KeyError):
            main(["experiment", "table42"])


class TestOnlineRecommend:
    BASE = ["recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0,2", "-k", "4", "--json"]

    def _payload(self, capsys, extra):
        assert main(self.BASE + extra) == 0
        return json.loads(capsys.readouterr().out)

    def _events(self, tmp_path, rows, header="user,item"):
        path = tmp_path / "events.csv"
        lines = ([header] if header else []) + [f"{u},{i}" for u, i in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_ingest_reports_stats_and_dedupes(self, capsys, tmp_path):
        path = self._events(tmp_path, [(0, 3), (1, 5), (0, 3)])
        payload = self._payload(capsys, ["--ingest", path])
        stats = payload["ingest"]
        assert stats["events"] == 3
        assert stats["ingested"] <= 2  # batch duplicate dropped
        assert stats["compactions"] == 0

    def test_ingested_item_excluded_from_recommendations(self, capsys, tmp_path):
        baseline = self._payload(capsys, [])
        consumed = baseline["recommendations"]["0"][0]
        path = self._events(tmp_path, [(0, consumed)])
        payload = self._payload(capsys, ["--ingest", path])
        assert consumed not in payload["recommendations"]["0"]
        assert payload["recommendations"]["2"] == baseline["recommendations"]["2"]

    def test_ingest_serves_new_users(self, capsys, tmp_path):
        # User id beyond the split: created by ingest, then recommendable.
        path = self._events(tmp_path, [(99, 1), (99, 2)])
        assert main([
            "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "99", "-k", "4", "--json",
            "--ingest", path,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ingest"]["new_users"] >= 1
        recs = payload["recommendations"]["99"]
        assert len(recs) == 4 and 1 not in recs and 2 not in recs

    def test_ingest_composes_with_shards_and_candidates(self, capsys, tmp_path):
        path = self._events(tmp_path, [(0, 3), (2, 5)])
        plain = self._payload(capsys, ["--ingest", path])
        for extra in (["--shards", "3"],
                      ["--candidates", "int8", "--adaptive-candidates"]):
            payload = self._payload(capsys, ["--ingest", path] + extra)
            assert payload["recommendations"] == plain["recommendations"]

    def test_compact_threshold_triggers_merge(self, capsys, tmp_path):
        path = self._events(tmp_path, [(0, 1), (0, 2), (1, 3), (1, 4)])
        payload = self._payload(capsys, ["--ingest", path,
                                         "--compact-threshold", "2"])
        assert payload["ingest"]["compacted"] is True
        assert payload["ingest"]["delta_size"] == 0

    def test_wal_makes_ingest_durable_across_invocations(self, capsys,
                                                         tmp_path):
        baseline = self._payload(capsys, [])
        consumed = baseline["recommendations"]["0"][0]
        events = self._events(tmp_path, [(0, consumed)])
        wal = str(tmp_path / "ingest.wal")
        logged = self._payload(capsys, ["--ingest", events, "--wal", wal])
        assert logged["wal"]["records"] == 1
        assert consumed not in logged["recommendations"]["0"]
        # A second invocation with only the WAL replays the ingest: the
        # consumed item stays excluded with no --ingest flag at all.
        recovered = self._payload(capsys, ["--wal", wal])
        assert recovered["wal"]["replayed_records"] == 1
        assert recovered["recommendations"] == logged["recommendations"]

    def test_wal_fsync_flag_and_absent_key(self, capsys, tmp_path):
        events = self._events(tmp_path, [(0, 3)])
        wal = str(tmp_path / "ingest.wal")
        payload = self._payload(capsys, ["--ingest", events, "--wal", wal,
                                         "--wal-fsync", "always"])
        assert payload["wal"]["fsync"] == "always"
        assert payload["wal"]["syncs"] >= 1
        # Without --wal there is no wal section (and no health section
        # without a remote executor).
        plain = self._payload(capsys, [])
        assert "wal" not in plain
        assert "health" not in plain

    def test_text_output_reports_ingest(self, capsys, tmp_path):
        path = self._events(tmp_path, [(0, 3)])
        assert main([
            "recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0", "-k", "3",
            "--ingest", path,
        ]) == 0
        assert "ingested" in capsys.readouterr().out

    def test_rejects_bad_flag_combinations(self, tmp_path):
        with pytest.raises(SystemExit, match="compact-threshold"):
            main(self.BASE + ["--ingest", "x.csv", "--compact-threshold", "0"])
        with pytest.raises(SystemExit, match="adaptive-candidates"):
            main(self.BASE + ["--adaptive-candidates"])
        with pytest.raises(SystemExit, match="max-candidate-factor"):
            main(self.BASE + ["--candidates", "int8",
                              "--candidate-factor", "8",
                              "--max-candidate-factor", "2"])

    def test_rejects_unreadable_and_malformed_events(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(self.BASE + ["--ingest", str(tmp_path / "missing.csv")])
        bad = tmp_path / "bad.csv"
        bad.write_text("user,item\n0,not-an-item\n")
        with pytest.raises(SystemExit, match="integer"):
            main(self.BASE + ["--ingest", str(bad)])
        empty = tmp_path / "empty.csv"
        empty.write_text("user,item\n")
        with pytest.raises(SystemExit, match="no events"):
            main(self.BASE + ["--ingest", str(empty)])

    def test_rejects_out_of_catalogue_items(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,item\n0,999999\n")
        with pytest.raises(SystemExit, match="item id out of range"):
            main(self.BASE + ["--ingest", str(path)])

    def test_help_documents_online_flags(self):
        import argparse
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        text = subparsers.choices["recommend"].format_help()
        assert "--ingest" in text and "--compact-threshold" in text
        assert "--adaptive-candidates" in text
        assert "--max-candidate-factor" in text

    def test_typoed_first_data_row_errors_not_skipped(self, tmp_path):
        # A malformed FIRST line in a headerless file must error like any
        # other line, not silently vanish as a presumed header.
        bad = tmp_path / "events.csv"
        bad.write_text("O,3\n1,5\n")
        with pytest.raises(SystemExit, match="integer"):
            main(self.BASE + ["--ingest", str(bad)])

    def test_blank_line_before_header_tolerated(self, capsys, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("\nuser,item\n0,3\n1,5\n")
        payload = self._payload(capsys, ["--ingest", str(path)])
        assert payload["ingest"]["events"] == 2


class TestSnapshotCommand:
    SAVE = ["snapshot", "save", "--model", "bpr", "--dataset", "tiny",
            "--epochs", "0", "--embedding-dim", "8"]

    def _save(self, capsys, tmp_path, extra=()):
        path = tmp_path / "tiny.snap"
        assert main(self.SAVE + [str(path), "--json"] + list(extra)) == 0
        payload = json.loads(capsys.readouterr().out)
        return path, payload

    def test_save_writes_a_loadable_snapshot(self, capsys, tmp_path):
        path, payload = self._save(capsys, tmp_path)
        assert path.exists()
        assert payload["snapshot"] == str(path)
        assert payload["users"] > 0 and payload["items"] > 0
        assert payload["candidate_modes"] == ["int8"]

    def test_save_without_candidate_blocks(self, capsys, tmp_path):
        _, payload = self._save(capsys, tmp_path,
                                ["--candidate-modes", "none"])
        assert payload["candidate_modes"] == []

    def test_inspect_prints_layout(self, capsys, tmp_path):
        path, _ = self._save(capsys, tmp_path)
        assert main(["snapshot", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "user_embeddings" in out and "exclusion_indptr" in out

    def test_inspect_rejects_garbage(self, tmp_path):
        noise = tmp_path / "noise.snap"
        noise.write_bytes(b"not a snapshot at all, just filler bytes here")
        with pytest.raises(SystemExit, match="not a repro serving"):
            main(["snapshot", "inspect", str(noise)])

    def test_snapshot_requires_subcommand(self):
        with pytest.raises(SystemExit, match="save or inspect"):
            main(["snapshot"])

    def test_recommend_from_snapshot_matches_in_memory(self, capsys, tmp_path):
        path, _ = self._save(capsys, tmp_path)
        base = ["recommend", "--model", "bpr", "--dataset", "tiny",
                "--epochs", "0", "--embedding-dim", "8",
                "--users", "0,2", "-k", "4", "--json"]
        assert main(base) == 0
        in_memory = json.loads(capsys.readouterr().out)
        for extra in ([], ["--shards", "2"],
                      ["--shards", "2", "--executor", "process"],
                      ["--candidates", "int8"]):
            argv = ["recommend", "--snapshot", str(path), "--users", "0,2",
                    "-k", "4", "--json"] + extra
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["recommendations"] == in_memory["recommendations"]
            assert payload["snapshot"] == str(path)
            assert payload["model"] is None

    def test_recommend_snapshot_composes_with_ingest(self, capsys, tmp_path):
        path, _ = self._save(capsys, tmp_path)
        events = tmp_path / "events.csv"
        events.write_text("user,item\n0,3\n")
        argv = ["recommend", "--snapshot", str(path), "--users", "0",
                "-k", "4", "--json", "--ingest", str(events)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 3 not in payload["recommendations"]["0"]

    def test_recommend_rejects_bad_snapshot_combinations(self, tmp_path):
        missing = str(tmp_path / "missing.snap")
        with pytest.raises(SystemExit, match="snapshot"):
            main(["recommend", "--snapshot", missing, "--users", "0"])
        with pytest.raises(SystemExit, match="requires --snapshot"):
            main(["recommend", "--model", "bpr", "--dataset", "tiny",
                  "--epochs", "0", "--users", "0", "--shards", "2",
                  "--executor", "process"])
        with pytest.raises(SystemExit, match="checkpoint"):
            main(["recommend", "--snapshot", missing, "--users", "0",
                  "--checkpoint", "weights.npz"])
        with pytest.raises(SystemExit, match="parallel"):
            main(["recommend", "--model", "bpr", "--dataset", "tiny",
                  "--epochs", "0", "--users", "0", "--shards", "2",
                  "--parallel", "--executor", "threads"])

    def test_help_documents_snapshot_flags(self):
        import argparse
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        recommend_help = subparsers.choices["recommend"].format_help()
        assert "--snapshot" in recommend_help and "--executor" in recommend_help
        assert "snapshot" in parser.format_help()


class TestServeRecommend:
    BASE = ["recommend", "--model", "bpr", "--dataset", "tiny", "--epochs", "0",
            "--embedding-dim", "8", "--users", "0,1,2,3", "-k", "4", "--json"]

    def _payload(self, capsys, extra):
        assert main(self.BASE + extra) == 0
        return json.loads(capsys.readouterr().out)

    def test_serve_matches_direct_serving(self, capsys):
        direct = self._payload(capsys, [])
        served = self._payload(capsys, ["--serve"])
        assert served["recommendations"] == direct["recommendations"]

    def test_serve_coalesces_and_reports_frontend_stats(self, capsys):
        payload = self._payload(capsys, ["--serve", "--max-batch-size", "4"])
        stats = payload["frontend"]
        assert stats["requests"] == 4
        assert stats["batches"] >= 1
        assert stats["batched_requests"] == 4  # nothing was cached up front
        assert stats["shed"] == 0 and stats["pending"] == 0
        assert stats["max_batch_size"] == 4
        assert stats["mean_occupancy"] == 4.0  # one tick, one full batch
        assert "batch_window_ms" not in stats

    def test_serve_matches_direct_with_sharding(self, capsys):
        direct = self._payload(capsys, ["--shards", "3"])
        served = self._payload(capsys, ["--shards", "3", "--serve"])
        assert served["recommendations"] == direct["recommendations"]

    def test_cache_stats_in_payload(self, capsys):
        # Direct serving goes straight through top_k: the LRU stays untouched
        # but its stats are still surfaced.
        payload = self._payload(capsys, [])
        cache = payload["cache"]
        assert set(cache) == {"hits", "misses", "hit_rate", "size", "capacity"}
        assert cache["hits"] == 0 and cache["misses"] == 0
        # The frontend probes and populates the LRU per request.
        served = self._payload(capsys, ["--serve"])["cache"]
        assert served["misses"] == 4 and served["size"] == 4

    def test_text_output_reports_frontend_and_cache(self, capsys):
        argv = [arg for arg in self.BASE if arg != "--json"] + ["--serve"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "frontend:" in output and "cache:" in output

    def test_serve_text_reports_batch_size_and_occupancy(self, capsys):
        argv = [arg for arg in self.BASE if arg != "--json"] + [
            "--serve", "--max-batch-size", "3"]
        assert main(argv) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("frontend:"))
        # Four same-tick requests capped at three rows: batches of 3 and 1.
        assert "4 requests in 2 batches" in line
        assert "max batch size 3" in line and "mean occupancy 2.0" in line
        assert "window" not in line

    def test_rejects_bad_serve_knobs(self):
        with pytest.raises(SystemExit, match="max-batch-size"):
            main(self.BASE + ["--serve", "--max-batch-size", "0"])
        with pytest.raises(SystemExit, match="max-pending"):
            main(self.BASE + ["--serve", "--max-pending", "0"])

    def test_rejects_overflowing_max_pending(self):
        with pytest.raises(SystemExit, match="max-pending"):
            main(self.BASE + ["--serve", "--max-pending", "2"])

    def test_help_documents_serve_flags(self):
        import argparse
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        recommend_help = subparsers.choices["recommend"].format_help()
        for flag in ("--serve", "--max-batch-size", "--max-pending"):
            assert flag in recommend_help
        assert "--batch-window-ms" not in recommend_help


class TestStatsCommand:
    RECOMMEND = ["recommend", "--model", "bpr", "--dataset", "tiny",
                 "--epochs", "0", "--embedding-dim", "8", "--users", "0,2",
                 "-k", "4", "--json"]

    @staticmethod
    def assert_cache_and_metrics(output):
        assert "cache: hits=" in output
        assert "metrics (on):" in output
        assert "service.top_k_calls = " in output
        # *_s histograms hold seconds and print with a time unit.
        assert re.search(r"service\.top_k_s: n=\d+ mean=[\d.]+(us|ms|s) ",
                         output)

    def test_recommend_payload_from_file_and_stdin(self, capsys, monkeypatch,
                                                   tmp_path):
        assert main(self.RECOMMEND) == 0
        payload = capsys.readouterr().out
        path = tmp_path / "payload.json"
        path.write_text(payload)
        assert main(["stats", str(path)]) == 0
        self.assert_cache_and_metrics(capsys.readouterr().out)
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["stats"]) == 0
        self.assert_cache_and_metrics(capsys.readouterr().out)

    def test_bare_service_stats(self, capsys, tmp_path, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=0)
        model.eval()
        service = RecommendationService(model)
        service.recommend(0, k=5)
        service.recommend(0, k=5)  # a cache hit
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(service.stats()))
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        self.assert_cache_and_metrics(output)
        assert "hits=1" in output
