"""Seeded mutation test of every input loader: profile JSON, trace CSV,
calibration corpus JSON and the CHAIWGT1 weight header. Every mutant must
exit 0, or 2 with one `error:` line; a traceback or exit 1 means a malformed
input got past the loaders."""

import copy
import csv
import io
import json
import struct

import numpy as np
import pytest

from chai.cli import main
from chai.model import MAGIC, save_weights
from helpers import fixture_profile, redundant_fixture

# 10**9 is an integer no input may size an allocation by
LEAVES = (-1, 0, 1.5, float("nan"), 1e20, 10**9, "x", None, True, [1], {"a": 1})
MUTATIONS = ("drop", "replace", "duplicate", "truncate", "span")


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _nodes(doc, path=()):
    """(path, value) of every node below `doc`."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _parent(doc, path):
    """The container holding the node at `path`."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _span_dropped(data: bytes, rng) -> bytes:
    lo = int(rng.integers(len(data)))
    return data[:lo] + data[lo + int(rng.integers(1, 17)) :]


def mutate_json(doc, rng) -> bytes:
    """One seeded mutation of a JSON document, serialized: a dropped key or
    element, a leaf replaced by one of LEAVES, a list element duplicated, a
    list truncated, or a byte span dropped from the text."""
    doc = copy.deepcopy(doc)
    kind = _pick(rng, MUTATIONS)
    nodes = list(_nodes(doc))
    if kind == "drop":
        path = _pick(rng, nodes)[0]
        del _parent(doc, path)[path[-1]]
    elif kind == "replace":
        path = _pick(rng, [path for path, value in nodes if not isinstance(value, (dict, list))])
        _parent(doc, path)[path[-1]] = _pick(rng, LEAVES)
    elif kind in ("duplicate", "truncate"):
        items = _pick(rng, [value for _, value in nodes if isinstance(value, list) and value])
        at = int(rng.integers(len(items)))
        if kind == "duplicate":
            items.insert(at, copy.deepcopy(items[at]))
        else:
            del items[at:]
    text = json.dumps(doc, sort_keys=True).encode()
    return _span_dropped(text, rng) if kind == "span" else text


def mutate_csv(text: str, rng) -> bytes:
    """One seeded mutation of a CSV file: a dropped line, a field replaced by
    one of LEAVES, a duplicated line, the lines cut short, or a byte span
    dropped."""
    rows = list(csv.reader(io.StringIO(text)))
    kind = _pick(rng, MUTATIONS)
    at = int(rng.integers(len(rows)))
    if kind == "drop":
        del rows[at]
    elif kind == "replace":
        leaf = _pick(rng, LEAVES)
        rows[at][int(rng.integers(len(rows[at])))] = "" if leaf is None else str(leaf)
    elif kind == "duplicate":
        rows.insert(at, list(rows[at]))
    elif kind == "truncate":
        del rows[at:]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    data = out.getvalue().encode()
    return _span_dropped(data, rng) if kind == "span" else data


def weight_header_mutants(data: bytes, rng, count: int):
    """Every config field of a weight file's header replaced by every leaf,
    then `count` seeded mutants: a byte span dropped from the magic, length
    prefix or header, or the JSON header mutated (re-prefixed with its new
    length)."""
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    end = len(MAGIC) + 4 + header_len
    header = json.loads(data[len(MAGIC) + 4 : end])

    def packed(text: bytes) -> bytes:
        return MAGIC + struct.pack("<I", len(text)) + text + data[end:]

    for field in header["config"]:
        for leaf in LEAVES:
            config = {**header["config"], field: leaf}
            yield packed(json.dumps({**header, "config": config}).encode())
    for _ in range(count):
        if rng.random() < 0.2:
            yield _span_dropped(data[:end], rng) + data[end:]
        else:
            yield packed(mutate_json(header, rng))


@pytest.fixture
def inputs(tmp_path):
    """A valid 2-layer, 4-head model, its profile, a prompt, the trace of an
    MHA run over it and a calibration corpus; returns each input's path and
    the argv of every command it feeds."""
    weights, plan = redundant_fixture([2, 3], seed=4)
    wpath, ppath = tmp_path / "weights.bin", tmp_path / "profile.json"
    save_weights(weights, wpath)
    fixture_profile(weights, plan).save(ppath)
    prompt, trace = tmp_path / "prompt.bin", tmp_path / "trace.csv"
    np.array([1, 2, 3], dtype="<i4").tofile(prompt)
    out = ["--out", str(tmp_path / "out.json")]

    def generate(mode):
        return ["generate", "--weights", str(wpath), "--mode", mode, "--profile", str(ppath),
                "--prompt", str(prompt), "--steps", "7", *out]

    assert main([*generate("MHA"), "--trace", str(trace)]) == 0

    def analyze(what):
        return ["analyze", "--trace", str(trace), "--what", what, "--profile", str(ppath),
                "--out", str(tmp_path / "analysis")]

    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]]))
    calibrate = ["calibrate", "--weights", str(wpath), "--corpus", str(corpus), *out]
    return {
        "profile": (ppath, [generate("CHAI"), generate("CHAI_STATIC"), analyze("histogram"),
                            analyze("stability")]),
        "trace": (trace, [analyze(what) for what in
                          ("correlation", "elbow", "stability", "histogram")]),
        "corpus": (corpus, [calibrate]),
        "weights": (wpath, [generate("MHA"), generate("CHAI_QKV"), calibrate]),
    }


@pytest.mark.parametrize("loader", ["profile", "trace", "corpus", "weights"])
def test_every_mutant_exits_0_or_2_with_one_error_line(inputs, capsys, loader):
    path, commands = inputs[loader]
    original = path.read_bytes()
    for argv in commands:  # the unmutated input runs everywhere it feeds
        assert main(argv) == 0, capsys.readouterr().err
    rng = np.random.default_rng(len(loader))
    mutants = {
        "profile": (mutate_json(json.loads(original), rng) for _ in range(150)),
        "trace": (mutate_csv(original.decode(), rng) for _ in range(150)),
        "corpus": (mutate_json(json.loads(original), rng) for _ in range(150)),
        "weights": weight_header_mutants(original, rng, 80),
    }[loader]
    exits = []
    for index, mutant in enumerate(mutants):
        path.write_bytes(mutant)
        argv = commands[index % len(commands)]
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{loader} mutant {index} raised {exc!r} under {argv[0]}: {mutant[:400]!r}")
        err = capsys.readouterr().err
        assert code in (0, 2), (loader, index, argv, err)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (loader, index, err)
        else:
            assert "error:" not in err, (loader, index, err)
        exits.append(code)
    assert 0 in exits and 2 in exits
