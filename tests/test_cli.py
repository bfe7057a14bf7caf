"""Black-box tests of the command-line surface and its exit-code contract."""

import csv
import json
import os
import resource
import struct
import subprocess
import sys

import numpy as np
import pytest

import chai
from chai.cli import main
from chai.model import load_weights, save_weights
from helpers import fixture_profile, redundant_fixture, rewrite_header_config, small_weights


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_small_model(tmp_path, seed=0):
    weights = small_weights(seed=seed)
    path = tmp_path / "weights.bin"
    save_weights(weights, path)
    return path, weights


def write_fixture_model(tmp_path, counts=(2, 2), seed=0):
    weights, plan = redundant_fixture(list(counts), seed=seed)
    wpath = tmp_path / "weights.bin"
    save_weights(weights, wpath)
    ppath = tmp_path / "profile.json"
    fixture_profile(weights, plan).save(ppath)
    return wpath, ppath, weights, plan


def run_capped_cli(*args):
    """Run `chai ARGS` in a child whose address space is capped at 512 MiB,
    so an allocation sized by a hostile input fails there instead of
    exhausting the machine."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(chai.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "chai.cli", *args],
        env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True,
        preexec_fn=cap_address_space, timeout=120,
    )


class TestInit:
    def test_creates_loadable_weights(self, tmp_path):
        out = tmp_path / "w.bin"
        code = main([
            "init", "--layers", "2", "--heads", "4", "--head-dim", "8",
            "--ffn-dim", "32", "--vocab-size", "64", "--max-seq-len", "32",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        weights = load_weights(out)
        assert weights.config.model_dim == 32

    def test_bad_config_is_usage_error(self, tmp_path):
        code = main([
            "init", "--layers", "0", "--heads", "4", "--head-dim", "8",
            "--out", str(tmp_path / "w.bin"),
        ])
        assert code == 2


class TestCalibrate:
    def _corpus(self, tmp_path, weights, samples=4, length=8):
        rng = np.random.default_rng(7)
        corpus = [
            rng.integers(0, weights.config.vocab_size, size=length).tolist()
            for _ in range(samples)
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        return path

    def test_writes_profile_and_elbow_csv(self, tmp_path):
        wpath, weights = write_small_model(tmp_path)
        cpath = self._corpus(tmp_path, weights)
        out = tmp_path / "profile.json"
        code = main([
            "calibrate", "--weights", str(wpath), "--corpus", str(cpath),
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        profile = read_json(out)
        assert len(profile["cluster_counts"]) == weights.config.num_layers
        rows = read_csv(tmp_path / "profile_elbow.csv")
        assert {r["layer"] for r in rows} == {"0", "1"}
        assert len(rows) == 2 * weights.config.num_heads

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        wpath, _ = write_small_model(tmp_path)
        code = main([
            "calibrate", "--weights", str(wpath), "--corpus", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        wpath, weights = write_small_model(tmp_path)
        cpath = self._corpus(tmp_path, weights)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main([
                "calibrate", "--weights", str(wpath), "--corpus", str(cpath),
                "--seed", "9", "--out", str(out),
            ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def _rejected_threshold_message(self, tmp_path, capsys, monkeypatch, threshold):
        """stderr of a calibrate run that must exit 2 before tracing and
        write no profile."""
        import chai.engine as engine_mod

        def no_tracing(*args, **kwargs):
            raise AssertionError("calibrate traced a sample")

        monkeypatch.setattr(engine_mod, "_traced_prefix", no_tracing)
        wpath, weights = write_small_model(tmp_path)
        cpath = self._corpus(tmp_path, weights)
        out = tmp_path / "profile.json"
        assert main([
            "calibrate", "--weights", str(wpath), "--corpus", str(cpath),
            "--threshold", threshold, "--out", str(out),
        ]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_rejected_before_tracing(
        self, tmp_path, capsys, monkeypatch, threshold
    ):
        err = self._rejected_threshold_message(tmp_path, capsys, monkeypatch, threshold)
        assert f"threshold must be finite, got {threshold}" in err

    def test_negative_threshold_rejected_before_tracing(self, tmp_path, capsys, monkeypatch):
        err = self._rejected_threshold_message(tmp_path, capsys, monkeypatch, "-1")
        assert "threshold must be >= 0, got -1.0" in err

    @pytest.mark.parametrize("at", [0, 5])  # inside and past the 5-token window
    @pytest.mark.parametrize("token", ["a", None, 1.5, True])
    def test_non_integer_corpus_token_is_usage_error(self, tmp_path, capsys, token, at):
        # 1.5 and true are not coerced to 1
        wpath, _ = write_small_model(tmp_path)
        sample = [1, 2, 3, 4, 5, 6]
        sample[at] = token
        cpath = tmp_path / "corpus.json"
        cpath.write_text(json.dumps([sample, [1, 2, 3, 4, 5, 6]]))
        out = tmp_path / "profile.json"
        assert main([
            "calibrate", "--weights", str(wpath), "--corpus", str(cpath), "--out", str(out),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"corpus sample 0 has token id {token!r}" in lines[0]
        assert not out.exists()

    def test_recovers_fixture_counts(self, tmp_path):
        weights, plan = redundant_fixture([1, 3], seed=17)
        wpath = tmp_path / "weights.bin"
        save_weights(weights, wpath)
        cpath = self._corpus(tmp_path, weights, samples=6)
        out = tmp_path / "profile.json"
        assert main([
            "calibrate", "--weights", str(wpath), "--corpus", str(cpath),
            "--seed", "0", "--out", str(out),
        ]) == 0
        assert read_json(out)["cluster_counts"] == [1, 3]


class TestGenerate:
    def test_mha_minimal_run(self, tmp_path):
        wpath, _ = write_small_model(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "generate", "--weights", str(wpath), "--mode", "MHA",
            "--text", "hi", "--steps", "6", "--out", str(out),
        ])
        # byte fallback needs vocab >= 256; the small model has 32
        assert code == 2

        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt_path)
        code = main([
            "generate", "--weights", str(wpath), "--mode", "MHA",
            "--prompt", str(prompt_path), "--steps", "6", "--out", str(out),
        ])
        assert code == 0
        result = read_json(out)
        assert len(result["tokens"]) == 6
        assert result["mode"] == "MHA"

    def test_chai_without_profile_is_usage_error(self, tmp_path, capsys):
        wpath, _ = write_small_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        code = main([
            "generate", "--weights", str(wpath), "--mode", "CHAI",
            "--prompt", str(prompt_path), "--steps", "6",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "--profile" in capsys.readouterr().err

    def test_non_finite_logits_are_runtime_failure(self, tmp_path, capsys):
        weights = small_weights()
        weights.output_projection[:, 5] = np.nan
        wpath = tmp_path / "weights.bin"
        save_weights(weights, wpath)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt_path)
        out = tmp_path / "r.json"
        assert main([
            "generate", "--weights", str(wpath), "--prompt", str(prompt_path),
            "--steps", "4", "--out", str(out),
        ]) == 1
        assert "non-finite logits at cache position 2" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_profile_matches_mha_tokens(self, tmp_path):
        from helpers import degenerate_profile

        wpath, weights = write_small_model(tmp_path)
        ppath = tmp_path / "profile.json"
        degenerate_profile(weights.config).save(ppath)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2, 3, 4], dtype="<i4").tofile(prompt_path)

        out_mha, out_chai = tmp_path / "mha.json", tmp_path / "chai.json"
        assert main([
            "generate", "--weights", str(wpath), "--mode", "MHA",
            "--prompt", str(prompt_path), "--steps", "10", "--out", str(out_mha),
        ]) == 0
        assert main([
            "generate", "--weights", str(wpath), "--mode", "CHAI",
            "--profile", str(ppath), "--prompt", str(prompt_path),
            "--steps", "10", "--out", str(out_chai),
        ]) == 0
        assert read_json(out_mha)["tokens"] == read_json(out_chai)["tokens"]

    def test_idempotent_outside_timing(self, tmp_path):
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([2, 3], dtype="<i4").tofile(prompt_path)
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([
                "generate", "--weights", str(wpath), "--mode", "CHAI",
                "--profile", str(ppath), "--prompt", str(prompt_path),
                "--steps", "9", "--seed", "4", "--out", str(out),
            ]) == 0
            payload = read_json(out)
            payload.pop("timing")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_trace_export(self, tmp_path):
        wpath, _ = write_small_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        trace_path = tmp_path / "trace.csv"
        assert main([
            "generate", "--weights", str(wpath), "--mode", "MHA",
            "--prompt", str(prompt_path), "--steps", "8",
            "--trace", str(trace_path), "--out", str(tmp_path / "r.json"),
        ]) == 0
        rows = read_csv(trace_path)
        assert {r["step"] for r in rows} == {str(s) for s in range(1, 9)}


class TestBench:
    def test_csv_format_and_flop_ordering(self, tmp_path):
        wpath, ppath, weights, plan = write_fixture_model(tmp_path)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--weights", str(wpath), "--profile", str(ppath),
            "--seq-lens", "8,16", "--modes", "MHA,CHAI", "--repeats", "3",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4  # one per (mode, seq_len)
        by_key = {(r["mode"], r["seq_len"]): r for r in rows}
        for seq_len in ("8", "16"):
            mha = by_key[("MHA", seq_len)]
            chai = by_key[("CHAI", seq_len)]
            assert int(chai["flops"]) < int(mha["flops"])
            assert int(chai["kv_bytes"]) < int(mha["kv_bytes"])
            # speedup column is computed from the same file's medians
            want = float(mha["median_ms"]) / float(chai["median_ms"])
            assert float(chai["speedup"]) == pytest.approx(want, rel=1e-9)

    def test_missing_profile_for_clustered_modes(self, tmp_path):
        wpath, _ = write_small_model(tmp_path)
        code = main([
            "bench", "--weights", str(wpath), "--seq-lens", "8",
            "--modes", "MHA,CHAI", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == 2

    def test_sweep_beyond_capacity_rejected(self, tmp_path):
        wpath, _ = write_small_model(tmp_path)  # max_seq_len 64
        code = main([
            "bench", "--weights", str(wpath), "--seq-lens", "64",
            "--modes", "MHA", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == 2


class TestAnalyze:
    def _trace_from_fixture(self, tmp_path, steps=12):
        wpath, ppath, weights, plan = write_fixture_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt_path)
        trace_path = tmp_path / "trace.csv"
        assert main([
            "generate", "--weights", str(wpath), "--mode", "MHA",
            "--prompt", str(prompt_path), "--steps", str(steps),
            "--trace", str(trace_path), "--out", str(tmp_path / "r.json"),
        ]) == 0
        return trace_path, ppath

    def test_correlation_of_identical_heads(self, tmp_path):
        # two heads with identical rows at 5 steps
        from chai.attention import AttentionTrace, export_trace_csv

        trace = AttentionTrace(1, 2, 5)
        for step in range(1, 6):
            row = np.zeros(step, dtype=np.float32)
            row[0] = 0.75
            row[-1] += 0.25
            trace.record(0, step - 1, slice(None), np.array([[row], [row]]))
        trace_path = tmp_path / "trace.csv"
        export_trace_csv(trace, trace_path)
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "correlation",
            "--out", str(tmp_path / "out"),
        ]) == 0
        rows = read_csv(tmp_path / "out" / "correlation.csv")
        assert all(float(r["correlation"]) == 1.0 for r in rows)

    def test_stability_on_fixture_is_zero(self, tmp_path):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "stability",
            "--profile", str(ppath), "--out", str(tmp_path / "out"),
        ]) == 0
        rows = read_csv(tmp_path / "out" / "stability.csv")
        assert rows and all(r["changes"] == "0" for r in rows)
        assert min(int(r["step"]) for r in rows) == 5

    def test_stability_past_last_step_rejected_before_clustering(
        self, tmp_path, capsys, monkeypatch
    ):
        import chai.clustering as clustering_mod

        def no_clustering(*args, **kwargs):
            raise AssertionError("stability clustered a step")

        trace_path, ppath = self._trace_from_fixture(tmp_path, steps=10)
        monkeypatch.setattr(clustering_mod, "kmeans", no_clustering)
        out = tmp_path / "out"
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "stability",
            "--profile", str(ppath), "--to-step", "50", "--out", str(out),
        ]) == 2
        assert "stability range ends at step 50, past the trace's last step 10" in (
            capsys.readouterr().err
        )
        assert not (out / "stability.csv").exists()

    def test_stability_requires_profile(self, tmp_path):
        trace_path, _ = self._trace_from_fixture(tmp_path)
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "stability",
            "--out", str(tmp_path / "out"),
        ]) == 2

    @pytest.mark.parametrize("what", ["stability", "histogram"])
    @pytest.mark.parametrize("profile", [None, "malformed"])
    def test_profile_is_checked_before_the_trace_is_read(
        self, tmp_path, capsys, monkeypatch, what, profile
    ):
        def unread(path):
            raise AssertionError(f"read the trace {path} before the profile")

        monkeypatch.setattr("chai.attention.load_trace_csv", unread)
        argv = ["analyze", "--trace", str(tmp_path / "trace.csv"), "--what", what,
                "--out", str(tmp_path / "out")]
        if profile:
            (tmp_path / "profile.json").write_text("{")
            argv += ["--profile", str(tmp_path / "profile.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("profile file" if profile else f"--what {what} requires --profile") in err

    def test_histogram_from_profile(self, tmp_path):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "histogram",
            "--profile", str(ppath), "--out", str(tmp_path / "out"),
        ]) == 0
        payload = read_json(tmp_path / "out" / "histogram.json")
        assert payload["0"] == [2, 2]

    def test_elbow_over_trace(self, tmp_path):
        trace_path, _ = self._trace_from_fixture(tmp_path)
        assert main([
            "analyze", "--trace", str(trace_path), "--what", "elbow",
            "--out", str(tmp_path / "out"),
        ]) == 0
        rows = read_csv(tmp_path / "out" / "elbow.csv")
        errors = [float(r["error"]) for r in rows if r["layer"] == "0"]
        assert errors == sorted(errors, reverse=True)

    def test_unknown_what_lists_valid_values(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--trace", "x.csv", "--what", "sparkline", "--out", "o"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "correlation" in err and "histogram" in err

    @pytest.mark.parametrize(
        "what, written", [("histogram", "histogram.json"), ("stability", "stability.csv")]
    )
    def test_profile_for_other_layer_count_than_trace_is_usage_error(
        self, tmp_path, capsys, what, written
    ):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        profile = read_json(ppath)
        for key in ("cluster_counts", "elbow_curves"):
            profile[key] = profile[key][:1]
        profile["static_assignment"]["layers"] = profile["static_assignment"]["layers"][:1]
        ppath.write_text(json.dumps(profile))
        assert main([
            "analyze", "--trace", str(trace_path), "--what", what,
            "--profile", str(ppath), "--out", str(tmp_path / "out"),
        ]) == 2
        assert "the trace has 2 layers of 4 heads" in capsys.readouterr().err
        assert not (tmp_path / "out" / written).exists()

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("no_position_column", "no position column"),
            ("non_numeric_probability", "'abc'"),
            ("missing_position", "layer 0, head 0, step 2 are not 0..3"),
            ("short_row", "rows of layer 0, step 2 differ in length"),
            ("missing_head", "layer 0, step 8 has no head 1"),
            ("missing_step", "layer 0 has step 8 of 11 positions where step 7 of 10"),
            ("short_step", "layer 0 has step 8 of 10 positions where step 8 of 11"),
            ("header_only", "has no rows"),
            ("layers_stop_apart", "layer 1 has steps 1..3 where layer 0 has steps 1..12"),
            ("late_start", "layer 0 has step 2 of 5 positions where step 1 of 4 positions"),
            ("negative_layer", "line 2: negative layer -1 or head 0"),
        ],
        ids=[
            "no_position_column", "non_numeric_probability", "missing_position",
            "short_row", "missing_head", "missing_step", "short_step", "header_only",
            "layers_stop_apart", "late_start", "negative_layer",
        ],
    )
    def test_malformed_trace_is_usage_error(self, tmp_path, capsys, defect, message):
        # a 3-token prompt: step s rows span positions 0..s+2 of layers 0-1, heads 0-3
        dropped = {
            "missing_position": lambda f: f[:4] == ["0", "0", "2", "1"],
            "short_row": lambda f: f[:4] == ["0", "0", "2", "4"],
            "missing_head": lambda f: f[:3] == ["0", "1", "8"],
            "missing_step": lambda f: f[0] == "0" and f[2] == "7",
            "short_step": lambda f: f[0] == "0" and f[2:4] == ["8", "10"],
            "header_only": lambda f: f[0] != "layer",
            "layers_stop_apart": lambda f: f[0] == "1" and int(f[2]) > 3,
            "late_start": lambda f: f[2] == "1",
        }
        trace_path, _ = self._trace_from_fixture(tmp_path)
        lines = trace_path.read_text().splitlines()
        if defect == "no_position_column":
            lines = [",".join(line.split(",")[:3] + line.split(",")[4:]) for line in lines]
        elif defect == "non_numeric_probability":
            lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
        elif defect == "negative_layer":  # would otherwise land in the last layer's rows
            lines[1] = "-1," + lines[1].split(",", 1)[1]
        else:
            lines = [line for line in lines if not dropped[defect](line.split(","))]
        trace_path.write_text("\n".join(lines) + "\n")
        for what in ("correlation", "elbow"):
            assert main([
                "analyze", "--trace", str(trace_path), "--what", what,
                "--out", str(tmp_path / "out"),
            ]) == 2
            err = capsys.readouterr().err
            assert message in err and err.count("error:") == 1
            assert not (tmp_path / "out" / f"{what}.csv").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "has probability nan outside [0, 1]"),
            ("7.5", "has probability 7.5 outside [0, 1]"),
            ("1.0", "sums to 1.83"),
        ],
        ids=["nan", "above_one", "sum_above_one"],
    )
    def test_non_probability_row_is_usage_error(self, tmp_path, capsys, value, message):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        lines = trace_path.read_text().splitlines()
        # a 3-token prompt: the step-3 row of layer 1, head 2 spans positions 0..5
        target = next(i for i, line in enumerate(lines) if line.startswith("1,2,3,1,"))
        lines[target] = "1,2,3,1," + value
        trace_path.write_text("\n".join(lines) + "\n")
        for what in ("correlation", "elbow", "stability"):
            assert main([
                "analyze", "--trace", str(trace_path), "--what", what,
                "--profile", str(ppath), "--out", str(tmp_path / "out"),
            ]) == 2
            err = capsys.readouterr().err
            assert f"row of layer 1, head 2, step 3 {message}" in err
            assert not (tmp_path / "out" / f"{what}.csv").exists()

    @pytest.mark.parametrize(
        "field, value, command",
        [
            ("seed", -1, "stability"),
            ("seed", -1, "generate"),
            ("seed", "abc", "stability"),
            ("seed", 1.5, "stability"),
            ("window", "x", "stability"),
            ("cluster_counts", [2.0, 2.0], "generate"),
        ],
        ids=[
            "negative_seed", "negative_seed_generate", "text_seed", "fractional_seed",
            "text_window", "float_counts",
        ],
    )
    def test_malformed_profile_scalar_is_usage_error(
        self, tmp_path, capsys, field, value, command
    ):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        profile = read_json(ppath)
        profile[field] = value
        ppath.write_text(json.dumps(profile))
        out = tmp_path / "out"
        if command == "generate":
            code = main([
                "generate", "--weights", str(tmp_path / "weights.bin"), "--mode", "CHAI",
                "--profile", str(ppath), "--prompt", str(tmp_path / "prompt.bin"),
                "--steps", "8", "--out", str(out),
            ])
            written = out
        else:
            code = main([
                "analyze", "--trace", str(trace_path), "--what", "stability",
                "--profile", str(ppath), "--out", str(out),
            ])
            written = out / "stability.csv"
        assert code == 2
        err = capsys.readouterr().err
        assert f"profile file {ppath} is malformed: profile {field.replace('_', ' ')}" in err
        assert not written.exists()

    @pytest.mark.parametrize("command", ["generate", "histogram"])
    @pytest.mark.parametrize(
        "field, value", [("assignment", [0, 0, True, 1]), ("representatives", [False, 2])]
    )
    def test_boolean_cluster_id_is_malformed_profile(
        self, tmp_path, capsys, field, value, command
    ):
        # JSON's true and false would pass as the ids 1 and 0
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        profile = read_json(ppath)
        assert profile["static_assignment"]["layers"][0] == {
            "assignment": [0, 0, 1, 1], "representatives": [0, 2]
        }
        profile["static_assignment"]["layers"][0][field] = value
        ppath.write_text(json.dumps(profile))
        out = tmp_path / "out"
        if command == "generate":
            code = main([
                "generate", "--weights", str(tmp_path / "weights.bin"), "--mode",
                "CHAI_STATIC", "--profile", str(ppath), "--prompt",
                str(tmp_path / "prompt.bin"), "--steps", "8", "--out", str(out),
            ])
            written = out
        else:
            code = main([
                "analyze", "--trace", str(trace_path), "--what", "histogram",
                "--profile", str(ppath), "--out", str(out),
            ])
            written = out / "histogram.json"
        assert code == 2
        err = capsys.readouterr().err
        assert f"profile file {ppath} is malformed: " in err and err.count("error:") == 1
        assert "non-integer cluster id or representative in LayerPlan(" in err
        assert not written.exists()

    def test_stability_idempotent(self, tmp_path):
        trace_path, ppath = self._trace_from_fixture(tmp_path)
        outputs = []
        for name in ("s1", "s2"):
            assert main([
                "analyze", "--trace", str(trace_path), "--what", "stability",
                "--profile", str(ppath), "--out", str(tmp_path / name),
            ]) == 0
            outputs.append((tmp_path / name / "stability.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def _run_generate(self, tmp_path, wpath, profile: dict, mode="CHAI_STATIC"):
        ppath = tmp_path / "bad_profile.json"
        ppath.write_text(json.dumps(profile))
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        return main([
            "generate", "--weights", str(wpath), "--mode", mode,
            "--profile", str(ppath), "--prompt", str(prompt_path),
            "--steps", "8", "--out", str(tmp_path / "r.json"),
        ])

    def test_profile_for_other_head_count_is_usage_error(self, tmp_path, capsys):
        # A well-formed profile whose plan covers the wrong head count passes
        # loading and the fingerprint check; it is rejected before decoding.
        wpath, weights = write_small_model(tmp_path)
        bad = {
            "fingerprint": weights.config.fingerprint(),
            "window": 5,
            "threshold": 0.05,
            "sample_count": 1,
            "seed": 0,
            "cluster_counts": [2, 2],
            "elbow_curves": [[1.0, 0.0], [1.0, 0.0]],
            "static_assignment": {
                "layers": [
                    {"assignment": [0, 1], "representatives": [0, 1]},
                    {"assignment": [0, 1], "representatives": [0, 1]},
                ]
            },
        }
        code = self._run_generate(tmp_path, wpath, bad)
        assert code == 2
        assert "heads" in capsys.readouterr().err

    def test_profile_covering_fewer_layers_is_usage_error(self, tmp_path, capsys):
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        profile = read_json(ppath)
        for key in ("cluster_counts", "elbow_curves"):
            profile[key] = profile[key][:1]
        profile["static_assignment"]["layers"] = profile["static_assignment"]["layers"][:1]
        for mode in ("CHAI", "CHAI_STATIC"):
            assert self._run_generate(tmp_path, wpath, profile, mode) == 2
            assert "1 layers" in capsys.readouterr().err
            assert not (tmp_path / "r.json").exists()

    def test_representative_out_of_range_is_usage_error(self, tmp_path, capsys):
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        profile = read_json(ppath)
        profile["static_assignment"]["layers"][0]["representatives"][0] = 99
        assert self._run_generate(tmp_path, wpath, profile, "CHAI") == 2
        assert "representative 99" in capsys.readouterr().err
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("layer,head,step,position,probability\n0,0,1,0,1.0\n")
        code = main([
            "analyze", "--trace", str(trace_path), "--what", "histogram",
            "--profile", str(tmp_path / "bad_profile.json"), "--out", str(tmp_path / "a"),
        ])
        assert code == 2
        assert "representative 99" in capsys.readouterr().err

    def test_static_mode_trace_rejected_before_generating(self, tmp_path, capsys):
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        out = tmp_path / "r.json"
        code = main([
            "generate", "--weights", str(wpath), "--mode", "CHAI_STATIC",
            "--profile", str(ppath), "--prompt", str(prompt_path), "--steps", "8",
            "--trace", str(tmp_path / "trace.csv"), "--out", str(out),
        ])
        assert code == 2
        assert "--trace" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "compare"])
    def test_prompt_file_with_a_partial_token_is_usage_error(self, tmp_path, capsys, command):
        # a trailing partial token id is an error, not dropped
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        prompt_path.write_bytes(np.array([1], dtype="<i4").tobytes() + b"\x00")
        out = tmp_path / "r.json"
        assert main([
            command, "--weights", str(wpath), "--profile", str(ppath),
            "--prompt", str(prompt_path), "--steps", "4", "--out", str(out),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"prompt file {prompt_path} is 5 bytes" in lines[0]
        assert not out.exists()

    def test_header_with_a_billion_layers_is_usage_error(self, tmp_path):
        # The header claims 10**9 layers over a 2-layer file. Loading must
        # compare sizes before building anything sized by the header, so
        # building such a manifest fails in the capped child instead of
        # exhausting the machine.
        wpath, _ = write_small_model(tmp_path)
        rewrite_header_config(wpath, num_layers=10**9)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        proc = run_capped_cli(
            "generate", "--weights", str(wpath), "--prompt", str(prompt_path),
            "--steps", "2", "--out", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "header declares 21 tensors, its config implies 9000000003" in lines[0]

    def test_header_with_a_boolean_field_is_usage_error(self, tmp_path, capsys):
        # JSON's true is a bool, not a one-position model
        wpath, _ = write_small_model(tmp_path)
        rewrite_header_config(wpath, max_seq_len=True)
        out = tmp_path / "r.json"
        assert main([
            "generate", "--weights", str(wpath), "--text", "ab", "--steps", "2",
            "--out", str(out),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "max_seq_len must be a positive integer, got True" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["bad magic", "truncated", "header not UTF-8"])
    def test_weight_file_error_names_the_file(self, tmp_path, capsys, defect):
        wpath, _ = write_small_model(tmp_path)
        raw = wpath.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        bad = tmp_path / "bad.bin"
        bad.write_bytes({
            "bad magic": b"NOTCHAI!" + raw[8:],
            "truncated": raw[:-4],
            "header not UTF-8": raw[:12] + b"\xff" * header_len + raw[12 + header_len :],
        }[defect])
        out = tmp_path / "r.json"
        assert main([
            "generate", "--weights", str(bad), "--text", "ab", "--steps", "2", "--out", str(out),
        ]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: weights {bad}: "), lines
        assert not out.exists()

    def test_header_with_a_billion_positions_runs_at_request_size(self, tmp_path):
        # max_seq_len is only the model's limit: caches are sized to the
        # request, so a header allowing 10**9 positions calibrates and
        # decodes in the capped child.
        wpath = tmp_path / "weights.bin"
        save_weights(small_weights(max_seq_len=10**9), wpath)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]]))
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt_path)
        profile = tmp_path / "profile.json"
        runs = [("calibrate", "--corpus", str(corpus), "--out", str(profile))]
        runs += [
            ("generate", "--mode", mode, "--profile", str(profile), "--prompt", str(prompt_path),
             "--steps", "8", "--out", str(tmp_path / f"{mode}.json"))
            for mode in ("MHA", "CHAI")
        ]
        for command, *args in runs:
            proc = run_capped_cli(command, "--weights", str(wpath), *args)
            assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "CHAI.json")["kv_cache_summary"]["length"] == 11


def exit_code(argv) -> int:
    """main's exit code, whether it returns one or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestNegativeInputs:
    @pytest.mark.parametrize(
        "command",
        ["init", "calibrate", "generate", "compare", "bench", "elbow", "stability", "seq_lens"],
    )
    def test_negative_seed_or_length_is_usage_error(self, tmp_path, capsys, command):
        wpath, ppath, _, _ = write_fixture_model(tmp_path)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([[1, 2, 3, 4, 5, 6]] * 3))
        trace = tmp_path / "trace.csv"
        prompt = tmp_path / "prompt.bin"
        np.array([1, 2, 3], dtype="<i4").tofile(prompt)
        assert main([
            "generate", "--weights", str(wpath), "--prompt", str(prompt), "--steps", "6",
            "--trace", str(trace), "--out", str(tmp_path / "mha.json"),
        ]) == 0
        model, out = ["--weights", str(wpath)], ["--out", str(tmp_path / "out")]
        clustered = [*model, "--profile", str(ppath), "--prompt", str(prompt), "--steps", "8"]
        argv = {
            "init": ["init", "--layers", "1", "--heads", "2", "--head-dim", "2", *out],
            "calibrate": ["calibrate", *model, "--corpus", str(corpus), "--samples", "2", *out],
            "generate": ["generate", "--mode", "CHAI", *clustered, *out],
            "compare": ["compare", *clustered, *out],
            "bench": [
                "bench", *model, "--profile", str(ppath), "--seq-lens", "4", "--repeats", "1",
                *out,
            ],
            "elbow": ["analyze", "--trace", str(trace), "--what", "elbow", *out],
            "stability": [
                "analyze", "--trace", str(trace), "--what", "stability",
                "--profile", str(ppath), *out,
            ],
        }
        if command == "seq_lens":
            args, flag = argv["bench"][:-2] + ["--seq-lens=-5", *out], "--seq-lens"
        else:
            args, flag = argv[command] + ["--seed", "-1"], "--seed"
        assert exit_code(args) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_fixture_comparison(self, tmp_path):
        wpath, ppath, *_ = write_fixture_model(tmp_path)
        prompt_path = tmp_path / "prompt.bin"
        np.array([1, 2], dtype="<i4").tofile(prompt_path)
        out = tmp_path / "compare.json"
        assert main([
            "compare", "--weights", str(wpath), "--profile", str(ppath),
            "--prompt", str(prompt_path), "--steps", "10", "--out", str(out),
        ]) == 0
        report = read_json(out)
        assert report["first_divergence_step"] is None
        assert max(report["per_step_max_abs_logit_delta"]) < 1e-4
