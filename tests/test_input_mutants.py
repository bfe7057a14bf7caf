"""Seeded mutation test of every input loader: profile JSON, trace CSV,
calibration corpus JSON and the CHAIWGT1 weight header. Every mutant must
exit 0, or 2 with one `error:` line; a traceback or exit 1 means a malformed
input got past the loaders. The trace mutants, and valid traces in the
grammar export does not write, also load as under the per-row reference
loader, bar the listed fields only Python's parsers take."""

import copy
import csv
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

from chai.attention import TRACE_COLUMNS, load_trace_csv
from chai.cli import main
from chai.errors import ValidationError
from chai.model import MAGIC, save_weights
from helpers import fixture_profile, redundant_fixture, reference_load_trace_csv

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


def _loaded(load, path):
    """What `load` makes of the trace at `path`: its rows' bits, `recorded`
    and `base_position`, or its ValidationError's message."""
    try:
        trace = load(path)
    except ValidationError as exc:
        return str(exc)
    return trace.rows.shape, trace.rows.tobytes(), trace.recorded, trace.base_position


def _rewritten(text: str, edit) -> str:
    """The trace CSV `text` with `edit` applied to every row's field list,
    the header included, joined with LF line endings."""
    rows = list(csv.reader(io.StringIO(text)))
    return "".join(",".join(edit(index, fields)) + "\n" for index, fields in enumerate(rows))


def test_trace_loader_matches_reference_on_every_mutant(inputs, tmp_path):
    original = inputs["trace"][0].read_bytes().decode()
    rng = np.random.default_rng(len("trace"))  # the trace mutants of the test above
    path = tmp_path / "mutant.csv"
    outcomes = []
    for index in range(150):
        path.write_bytes(mutate_csv(original, rng))
        expected = _loaded(reference_load_trace_csv, path)
        assert _loaded(load_trace_csv, path) == expected, (index, path.read_bytes()[:400])
        outcomes.append(isinstance(expected, str))
    assert True in outcomes and False in outcomes


def _permuted(index, fields):
    return [fields[i] for i in (4, 2, 0, 3, 1)]


def _extra_column(index, fields):
    return fields[:2] + ["note" if index == 0 else f"row {index}"] + fields[2:]


def _quoted(index, fields):
    return [f'"{field}"' for field in fields]


def _spaced(index, fields):
    return fields if index == 0 else [f" {field}\t" for field in fields]


@pytest.mark.parametrize("edit", [_permuted, _extra_column, _quoted, _spaced, None],
                         ids=["permuted", "extra_column", "quoted", "spaced", "lf"])
def test_trace_loader_matches_reference_on_valid_variants(inputs, tmp_path, edit):
    text = inputs["trace"][0].read_bytes().decode()
    assert "\r\n" in text  # exported with CRLF; every variant is LF
    path = tmp_path / "variant.csv"
    path.write_text(_rewritten(text, edit or (lambda index, fields: fields)))
    loaded = _loaded(load_trace_csv, path)
    assert loaded == _loaded(reference_load_trace_csv, path)
    assert loaded == _loaded(load_trace_csv, inputs["trace"][0])


def test_trace_loader_matches_reference_with_blank_lines(inputs, tmp_path):
    lines = inputs["trace"][0].read_text().splitlines()
    path = tmp_path / "blank.csv"
    path.write_text("\n\n".join(lines[:7]) + "\n\n\n" + "\n".join(lines[7:]) + "\n\n")
    loaded = _loaded(load_trace_csv, path)
    assert not isinstance(loaded, str)
    assert loaded == _loaded(reference_load_trace_csv, path)
    # a bad row after blank lines is numbered by its own line
    lines[20] = "x," + lines[20].split(",", 1)[1]
    path.write_text("\n".join(lines[:20]) + "\n\n\n" + "\n".join(lines[20:]) + "\n")
    assert _loaded(load_trace_csv, path) == _loaded(reference_load_trace_csv, path)
    assert "line 23: invalid literal for int() with base 10: 'x'" in _loaded(load_trace_csv, path)


HEADER = "layer,head,step,position,probability\n"
EDGE_FILES = {
    "empty": "",
    "blank_header": "\n" + HEADER + "0,0,1,0,1.0\n",
    "blank_body": HEADER + "\n\n",
    "whitespace_line": HEADER + "0,0,1,0,1.0\n  \n",
    "repeated_column": "layer,head,step,position,probability,layer\n0,0,1,0,1.0,0\n",
    "repeated_column_short_row": "layer,head,step,position,probability,layer\n0,0,1,0,1.0\n",
    "cr_endings": HEADER.replace("\n", "\r") + "0,0,1,0,1.0\r",
    "quoted_newline": HEADER + '0,0,1,0,"1.0\n"\n',
    "negative_step": HEADER + "0,0,-1,0,1.0\n",
    "largest_step": HEADER + f"0,0,{2**63 - 1},0,1.0\n",
    "smallest_step": HEADER + f"0,0,{-2**63},0,1.0\n",
    "largest_position": HEADER + f"0,0,1,{2**63 - 1},1.0\n",
    "no_layer_0": HEADER + "1,0,1,0,1.0\n",
    "layer_gap": HEADER + "0,0,1,0,1.0\n2,0,1,0,1.0\n",
    "step_2_first": HEADER + "0,0,2,0,0.5\n0,0,2,1,0.5\n",
}


@pytest.mark.parametrize("name", EDGE_FILES)
def test_trace_loader_matches_reference_on_edge_files(tmp_path, name):
    path = tmp_path / "edge.csv"
    path.write_bytes(EDGE_FILES[name].encode())
    assert _loaded(load_trace_csv, path) == _loaded(reference_load_trace_csv, path)


# The columnar loader's one narrowing: a field only Python's `int` or
# `float` takes. Digit underscores and non-ASCII digits load under the
# reference; an id beyond int64 meets its structure checks instead.
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
SPELLINGS = {
    "underscore": lambda field: "0_" + field,  # float("0_0.25") == 0.25 too
    "arabic_indic_digits": lambda field: field.translate(ARABIC_INDIC),
}
NARROWED = [(column, spelling) for column in TRACE_COLUMNS for spelling in SPELLINGS]


@pytest.mark.parametrize("column, spelling", NARROWED, ids=[f"{c}-{s}" for c, s in NARROWED])
def test_trace_loader_rejects_what_only_python_parses(inputs, tmp_path, column, spelling):
    lines = inputs["trace"][0].read_text().splitlines()
    fields = lines[5].split(",")
    at = TRACE_COLUMNS.index(column)
    fields[at] = SPELLINGS[spelling](fields[at])
    lines[5] = ",".join(fields)
    path = tmp_path / "narrowed.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _loaded(reference_load_trace_csv, path) == _loaded(load_trace_csv, inputs["trace"][0])
    with pytest.raises(ValidationError, match=f"could not convert string '{fields[at]}' to"):
        load_trace_csv(path)


def test_trace_loader_rejects_ids_beyond_int64(inputs, tmp_path):
    lines = inputs["trace"][0].read_text().splitlines()
    lines[5] = ",".join(["0", str(2**63)] + lines[5].split(",")[2:])
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="has no head 4"):
        reference_load_trace_csv(path)
    with pytest.raises(ValidationError, match=f"could not convert string '{2**63}' to int64"):
        load_trace_csv(path)


def test_trace_of_one_far_head_exits_2_without_sizing_by_it(tmp_path, capsys):
    """No array is sized by a file's largest id before every head is found
    present: a lone row of head 10**9 fails the missing-head check."""
    path = tmp_path / "trace.csv"
    path.write_text("layer,head,step,position,probability\n0,1000000000,1,0,1.0\n")
    tracemalloc.start()
    try:
        code = main(["analyze", "--trace", str(path), "--what", "correlation",
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "layer 0, step 1 has no head 0" in capsys.readouterr().err
    assert peak < 1 << 20
