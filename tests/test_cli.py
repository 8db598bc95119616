"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "G12" in out and "C8" in out and "chimera" in out

    def test_plan_gemm_chain(self, capsys):
        assert main(["plan", "G10", "--hw", "xeon-gold-6240"]) == 0
        out = capsys.readouterr().out
        assert "FusionPlan" in out and "sim report" in out

    def test_plan_with_source(self, capsys):
        assert main(["plan", "G10", "--source"]) == 0
        out = capsys.readouterr().out
        assert "fused kernel" in out

    @pytest.mark.slow
    def test_plan_conv_chain(self, capsys):
        assert main(["plan", "C7", "--hw", "a100", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out

    @pytest.mark.slow
    def test_compare_subset(self, capsys):
        assert main([
            "compare", "G10", "--systems", "relay,chimera",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chimera" in out and "Relay" in out

    def test_validate(self, capsys):
        assert main(["validate", "--size", "256", "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "R^2" in out

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["plan", "X9"])

    def test_plan_cores_is_a_compile_argument(self, monkeypatch, capsys):
        import repro.__main__ as cli

        seen = {}
        real = cli.compile_chain

        def spy(chain, hardware, **kwargs):
            seen.update(kwargs)
            return real(chain, hardware, **kwargs)

        monkeypatch.setattr(cli, "compile_chain", spy)
        assert main(["plan", "G10", "--hw", "mesh-npu-16", "--cores", "4"]) == 0
        assert seen == {"cores": 4}
        with pytest.raises(SystemExit, match=">= 1"):
            main(["plan", "G10", "--cores", "0"])
        # Only ``plan`` forces a width; ``compare`` has no such option.
        with pytest.raises(SystemExit):
            main(["compare", "G10", "--cores", "2"])


class TestServiceCli:
    def test_compile_batch_cold_then_warm(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "plans")
        argv = ["compile-batch", "G10", "G11",
                "--cache-dir", cache_dir, "--workers", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "compiled" in cold and "2 ok" in cold
        assert "misses 2" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "disk" in warm or "memory" in warm
        assert "compiled" not in warm.split("\n\n")[0]  # report table
        assert "hit rate 100%" in warm

    def test_compile_batch_without_cache_dir(self, capsys):
        assert main(["compile-batch", "G10"]) == 0
        out = capsys.readouterr().out
        assert "1 ok, 0 fallback, 0 failed" in out
        assert "<none>" in out  # no persistent tier configured

    def test_search_stats(self, capsys):
        assert main(["search-stats", "G10"]) == 0
        out = capsys.readouterr().out
        assert "compiled G10" in out
        assert "orders enumerated" in out
        assert "pruned" in out and "memo hits" in out and "solves" in out

    def test_cache_stats_list_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "plans")
        main(["compile-batch", "G10", "--cache-dir", cache_dir])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "1 cached plan(s)" in capsys.readouterr().out

        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "G10" in out and "xeon-gold-6240" in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 cached plan(s)" in capsys.readouterr().out


class TestNetworkCli:
    def test_compile_network_table_then_warm_json(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "plans")
        out_path = tmp_path / "bert-small.network.json"
        assert main([
            "compile-network", "--network", "bert-small",
            "--hw", "xeon-gold-6240", "--cache-dir", cache_dir,
            "--out", str(out_path),
        ]) == 0
        cold = capsys.readouterr().out
        assert "attention_score+attention_softmax+attention_value" in cold
        assert "stitched" in cold
        assert "end-to-end" in cold
        assert out_path.exists()

        assert main([
            "compile-network", "--network", "bert-small",
            "--hw", "xeon-gold-6240", "--cache-dir", cache_dir, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "Bert-Small"
        assert payload["service"]["hit_rate"] == 1.0
        assert payload["total_time"] <= payload["unfused_total_time"]
        saved = json.loads(out_path.read_text())
        assert payload["total_time"] == pytest.approx(
            sum(n["time"] * n["repeat"] for n in saved["nodes"])
        )

    def test_compile_network_unknown_network(self):
        with pytest.raises(KeyError):
            main(["compile-network", "--network", "GPT-3"])


class TestServingCli:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.__main__ as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_workloads", interrupted)
        assert main(["workloads"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_cache_stats_prints_bytes_and_shards(self, capsys, tmp_path):
        from repro.runtime.serialization import FORMAT_VERSION
        from repro.service import ShardedPlanCache

        cache = ShardedPlanCache(cache_dir=tmp_path, shards=2)
        for i in range(4):
            key = f"{i:08x}" + "0" * 56
            cache.put(key, {
                "format_version": FORMAT_VERSION,
                "key": key,
                "use_fusion": True,
                "fused_plan": {},
                "unfused_plans": [],
            })

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 cached plan(s)" in out
        assert "2 shard(s)" in out
        assert "bytes on disk" in out
        assert "shard 00:" in out and "shard 01:" in out
        assert "memory tier:" in out

    def test_cache_clear_handles_sharded_layout(self, capsys, tmp_path):
        from repro.runtime.serialization import FORMAT_VERSION
        from repro.service import ShardedPlanCache

        cache = ShardedPlanCache(cache_dir=tmp_path, shards=2)
        key = "deadbeef" + "0" * 56
        cache.put(key, {
            "format_version": FORMAT_VERSION,
            "key": key,
            "use_fusion": True,
            "fused_plan": {},
            "unfused_plans": [],
        })
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_serve_drains_on_sigterm(self, tmp_path):
        import os
        import signal
        import socket
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--compact-interval", "0",
             "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            host, port = line.strip().rsplit(" ", 1)[-1].split(":")
            with socket.create_connection((host, int(port)), timeout=10) as s:
                s.sendall(b'{"op":"ping","id":1}\n')
                reply = json.loads(s.makefile("rb").readline())
            assert reply["ok"] is True
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "drained cleanly" in out
