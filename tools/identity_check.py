"""Byte-identity check: run a fixed `chai` CLI pipeline and hash its artifacts.

Usage: python tools/identity_check.py SRC_DIR OUT_DIR

Runs every command, and one Python step that writes a redundant weight
file (which is then calibrated too), against the package under SRC_DIR
(put first on PYTHONPATH, with PYTHONDONTWRITEBYTECODE=1 so the tree stays
clean) in a temporary directory, and writes OUT_DIR/SHA256SUMS: one `sha256  artifact`
line per artifact. Wall-clock fields are removed before hashing (`timing` of
the generate JSON, the timed columns of the bench CSV). Two trees compute
the same thing when their SHA256SUMS files are equal:

    python tools/identity_check.py old/src out-old
    python tools/identity_check.py src out-new
    diff out-old/SHA256SUMS out-new/SHA256SUMS

It also writes OUT_DIR/BUILD.json, the numpy version and BLAS build the sums
were made with. tests/identity holds the sums of the engine as it stands,
which tests/test_identity.py checks; a change that means to alter what the
engine computes remakes them at one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python tools/identity_check.py src tests/identity
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = ("MHA", "CHAI", "CHAI_STATIC", "CHAI_QKV")
CLUSTERED = MODES[1:]
TEXT = "Clustered heads share one attention row per cluster."
BENCH_COLUMNS = ("mode", "seq_len", "flops", "kv_bytes", "savings_fraction")

# (name, prompt flags, steps, profile, extra flags); long.bin holds 300
# tokens, ragged.bin 280: with a 1 MiB score budget the 8-head model
# prefills them in head groups of 2, 2, 2, 2 and of 3, 3, 2. past512.bin
# holds 600 tokens, prefilled one head per group, whose positions run past
# 512; two_tokens prefills two rows. boundary's steps are identify_at + 1,
# so its frozen epoch is one step long.
INPUTS = (
    ("text", ["--text", TEXT], 24, "w5", []),
    ("boundary", ["--text", TEXT], 6, "w5", ["--identify-at", "5"]),
    ("long", ["--prompt", "long.bin"], 24, "w5", []),
    ("ragged", ["--prompt", "ragged.bin"], 8, "w5", []),
    ("one_byte", ["--text", "a"], 9, "w5", ["--identify-at", "3"]),
    ("three_bytes", ["--text", "abc"], 4, "w5", []),
    ("window1", ["--text", TEXT], 12, "w1", ["--identify-at", "1"]),
    ("two_tokens", ["--text", "ab"], 8, "w5", []),
    ("past512", ["--prompt", "past512.bin"], 8, "w5", []),
)
PAST_512 = [(13 * t + 7) % 256 for t in range(600)]


# The weight path the benchmark's set-up takes, which no CLI command runs:
# init (as weights.bin), make_redundant under a static assignment, save.
REDUNDANT = """
from chai.engine import CalibrationProfile
from chai.model import load_weights, make_redundant, save_weights
plan = CalibrationProfile.load("w5.json").static_assignment
save_weights(make_redundant(load_weights("weights.bin"), plan), "redundant.bin")
"""


def _python(src: Path, work: Path, name: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *args], cwd=work, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name} exited {proc.returncode}:\n{proc.stderr}")


def _chai(src: Path, work: Path, *args: str) -> None:
    _python(src, work, f"chai {' '.join(args)}", "-m", "chai.cli", *args)


def _without_timing(path: Path) -> bytes:
    payload = json.loads(path.read_text())
    payload.pop("timing")
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def _bench_columns(path: Path) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            writer.writerow([row[c] for c in BENCH_COLUMNS])
    return out.getvalue().encode()


def _variant_trace(source: Path, target: Path) -> None:
    """`source`'s rows as (probability, step, note, layer, position, head),
    one LF-terminated line each."""
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for index, (layer, head, step, position, probability) in enumerate(rows):
            note = "note" if index == 0 else f"row {index}"
            writer.writerow([probability, step, note, layer, position, head])


def run_pipeline(src: Path, work: Path) -> dict[str, bytes]:
    """Every artifact's name and the bytes that are compared."""
    artifacts: dict[str, bytes] = {}

    def keep(name: str, content: bytes | None = None) -> None:
        artifacts[name] = (work / name).read_bytes() if content is None else content

    _chai(src, work, "init", "--layers", "2", "--heads", "8", "--head-dim", "8",
          "--vocab-size", "256", "--seed", "3", "--out", "weights.bin")
    keep("weights.bin")
    corpus = [[(37 * i + 11 * j + i * j) % 256 for j in range(12)] for i in range(6)]
    (work / "corpus.json").write_text(json.dumps(corpus))
    long_prompt = [(7 * t + 5) % 256 for t in range(300)]
    (work / "long.bin").write_bytes(struct.pack("<300i", *long_prompt))
    ragged_prompt = [(11 * t + 3) % 256 for t in range(280)]
    (work / "ragged.bin").write_bytes(struct.pack("<280i", *ragged_prompt))
    (work / "past512.bin").write_bytes(struct.pack(f"<{len(PAST_512)}i", *PAST_512))
    for window in ("5", "1"):
        _chai(src, work, "calibrate", "--weights", "weights.bin", "--corpus", "corpus.json",
              "--window", window, "--out", f"w{window}.json")
        keep(f"w{window}.json")
        keep(f"w{window}_elbow.csv")
    _python(src, work, "make_redundant", "-c", REDUNDANT)
    keep("redundant.bin")
    # Heads that share wq/wk give duplicate features: this calibration meets
    # the all-duplicates k-means++ draw and repairs empty clusters, as the
    # benchmark's does; the calibrations above do neither.
    _chai(src, work, "calibrate", "--weights", "redundant.bin", "--corpus", "corpus.json",
          "--out", "redundant_w5.json")
    keep("redundant_w5.json")
    keep("redundant_w5_elbow.csv")

    for name, prompt, steps, profile, extra in INPUTS:
        for mode in MODES:
            out = f"generate_{name}_{mode}.json"
            traced = name == "text" and mode != "CHAI_STATIC"
            trace = ["--trace", f"trace_{mode}.csv"] if traced else []
            _chai(src, work, "generate", "--weights", "weights.bin", "--mode", mode,
                  "--profile", f"{profile}.json", *prompt, "--steps", str(steps),
                  *extra, *trace, "--out", out)
            keep(out, _without_timing(work / out))
            if traced:
                keep(f"trace_{mode}.csv")

    # the compare runs carry the logits' bits, through their divergences
    for mode in CLUSTERED:
        out = f"compare_{mode}.json"
        _chai(src, work, "compare", "--weights", "weights.bin", "--profile", "w5.json",
              "--text", TEXT, "--steps", "24", "--mode", mode, "--out", out)
        keep(out)
    for mode in CLUSTERED:
        out = f"compare_past512_{mode}.json"
        _chai(src, work, "compare", "--weights", "weights.bin", "--profile", "w5.json",
              "--prompt", "past512.bin", "--steps", "8", "--mode", mode, "--out", out)
        keep(out)

    # The same model with a 2**20-position limit: caches sized by the request
    # and caches sized by the limit differ most here, so any batch stride
    # reaching the BLAS bits would show.
    _chai(src, work, "init", "--layers", "2", "--heads", "8", "--head-dim", "8",
          "--vocab-size", "256", "--seed", "3", "--max-seq-len", str(1 << 20),
          "--out", "wide.bin")
    keep("wide.bin")
    _chai(src, work, "calibrate", "--weights", "wide.bin", "--corpus", "corpus.json",
          "--out", "wide_w5.json")
    keep("wide_w5.json")
    keep("wide_w5_elbow.csv")
    name, prompt, steps, _, extra = INPUTS[0]
    for mode in MODES:
        out = f"wide_generate_{name}_{mode}.json"
        _chai(src, work, "generate", "--weights", "wide.bin", "--mode", mode,
              "--profile", "wide_w5.json", *prompt, "--steps", str(steps), *extra, "--out", out)
        keep(out, _without_timing(work / out))

    _chai(src, work, "bench", "--weights", "weights.bin", "--profile", "w5.json",
          "--seq-lens", "16,64", "--modes", ",".join(MODES), "--repeats", "2",
          "--out", "bench.csv")
    keep("bench.csv", _bench_columns(work / "bench.csv"))

    # trace_CHAI.csv's rows are decode steps, prompt + s positions long
    outputs = {"correlation": "correlation.csv", "elbow": "elbow.csv",
               "stability": "stability.csv", "histogram": "histogram.json"}
    for trace, out_dir in (("trace_MHA.csv", "analysis"), ("trace_CHAI.csv", "analysis_CHAI")):
        for what, written in outputs.items():
            _chai(src, work, "analyze", "--trace", trace, "--what", what,
                  "--profile", "w5.json", "--out", out_dir)
            keep(f"{out_dir}/{written}")
    # a valid trace in a grammar export does not write: LF line endings,
    # permuted columns and an extra column
    _variant_trace(work / "trace_MHA.csv", work / "trace_variant.csv")
    for what in ("correlation", "stability"):
        _chai(src, work, "analyze", "--trace", "trace_variant.csv", "--what", what,
              "--profile", "w5.json", "--out", "analysis_variant")
        keep(f"analysis_variant/{outputs[what]}")
    return artifacts


def build() -> dict[str, str]:
    """The numpy version and the BLAS name and version numpy was built with."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def sums(artifacts: dict[str, bytes]) -> str:
    """The SHA256SUMS text of the artifacts, one line each, in pipeline order."""
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n"
                   for name, data in artifacts.items())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/identity_check.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out_dir = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "chai" / "cli.py").is_file():
        print(f"error: {src} holds no chai package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_pipeline(src, Path(tmp))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "SHA256SUMS").write_text(sums(artifacts))
    (out_dir / "BUILD.json").write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {len(artifacts)} hashes to {out_dir / 'SHA256SUMS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
