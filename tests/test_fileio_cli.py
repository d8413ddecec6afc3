import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import torusrig
from torusrig import errors, fileio
from torusrig.catalog import build_H
from torusrig.complexes import TorusComplex, cut_hole, rectangular_torus
from torusrig.corpus import CorpusSpec, corpus_records
from torusrig.fileio import hole_to_record, record_to_hole, to_dot
from torusrig.reduction import (contract, contractible_edges,
                                find_critical_cycle_through, reduce_greedy)

from helpers import (check_record_oracle, corrupt, raised, run_main,
                     surface_complex_oracle)


DATA = pathlib.Path(__file__).resolve().parent / "data"

# the CLI subprocess imports the same package as the tests, with or
# without PYTHONPATH set by the caller
SRC = str(pathlib.Path(torusrig.__file__).resolve().parent.parent)
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args, stdin=None):
    return subprocess.run([sys.executable, "-m", "torusrig.cli", *args],
                          capture_output=True, text=True, input=stdin,
                          env=CLI_ENV)


def test_record_round_trip():
    hole = cut_hole(rectangular_torus(3, 4), [0, 1, 2])
    rec = hole_to_record(hole)
    again = record_to_hole(rec)
    assert again.graph == hole.graph
    assert again.boundary_edges == hole.boundary_edges
    assert hole_to_record(again) == rec


def test_record_round_trip_with_keep_edges():
    h4 = build_H(4)
    rec = hole_to_record(h4)
    assert any(isinstance(h, dict) for h in rec["holes"])
    again = record_to_hole(rec)
    assert again.graph == h4.graph


def test_record_round_trip_over_catalog_corpus_and_contractions(tight_corpus):
    # H1-H17, the tight corpus, and what contract returns on them at every
    # contractible edge with both ends on the hole's walk, where contraction
    # reshapes the hole; many of these holes have exposed edges
    base = [build_H(i) for i in range(1, 18)] + tight_corpus
    holes = base + [contract(h, e) for h in base for e in contractible_edges(h)
                    if set(e) <= set(h.detachment_walk().vertices)]
    exposed = 0
    for h in holes:
        rec = hole_to_record(h)
        again = record_to_hole(rec)
        assert hole_to_record(again) == rec
        assert again.graph == h.graph
        assert again.faces == h.faces
        assert again.detachment_walk().vertices == h.detachment_walk().vertices
        exposed += any(isinstance(x, dict) for x in rec["holes"])
    assert exposed >= 40


def _base_record():
    return hole_to_record(cut_hole(rectangular_torus(3, 3), [0]))


def _with(**changes):
    rec = _base_record()
    rec.update(changes)
    return json.dumps({k: v for k, v in rec.items() if v is not None})


def _two_corner_face():
    rec = _base_record()
    rec["faces"][3] = rec["faces"][3][:2]
    return json.dumps(rec)


@pytest.mark.parametrize("stdin, field", [
    (_with(holes=[[0, 18]]), "holes[0][1]"),
    (_with(holes=[[-1]]), "holes[0][0]"),
    (_with(holes=[{"faces": [0, 18], "keep": []}]), "holes[0].faces[1]"),
    (_with(faces=None), "faces"),
    (_two_corner_face(), "faces[3]"),
    (_with(holes=[{"faces": [0, 1], "keep": [[0]]}]), "holes[0].keep[0]"),
    ("{", "Expecting"),
    ('{"vertices": 0, "faces": []}', "no faces"),
    (_with(meta=5), "meta"),
], ids=["index-past-end", "index-negative", "dict-index-past-end",
        "no-faces", "two-corner-face", "one-vertex-keep", "not-json",
        "empty-torus", "meta-not-object"])
def test_cli_malformed_record_is_typed_error(stdin, field):
    r = run_cli(["classify", "-"], stdin=stdin)
    assert r.returncode == 1
    assert r.stderr.startswith("error:")
    assert field in r.stderr
    assert "Traceback" not in r.stderr


@pytest.fixture(scope="module")
def clean_records(corpus_cuts):
    return ([hole_to_record(build_H(i)) for i in range(1, 18)]
            + [hole_to_record(h) for h in corpus_cuts[:40]])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_records_raise_the_oracle_error(clean_records, data):
    # every corruption is an error; the first bad field or face decides
    # it, type and message, as the field-by-field record check and the
    # face-by-face surface checks decide it
    record = corrupt(data, data.draw(st.sampled_from(clean_records), label="record"))
    want = raised(check_record_oracle, record) \
        or raised(surface_complex_oracle, record["faces"])
    assert want is not None and raised(record_to_hole, record) == want


def test_cli_batch_check_meta_not_object():
    rec = json.loads(_with(meta=5))
    r = run_cli(["batch-check"], stdin=json.dumps(rec) + "\n")
    assert r.returncode == 1
    assert r.stderr == "error: meta must be an object\n"


def test_cli_missing_file_is_error(tmp_path):
    r = run_cli(["check", str(tmp_path / "missing.json")])
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "missing.json" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("content, why", [
    (b"\xff\xfe{}", b"text"),
    (_with(meta={"note": "X"}).encode().replace(b"X", b"\xff"), b"text"),
    (b"[" * 200_000, b"JSON"), (b'{"vertices": 1' + b"0" * 5000 + b"}", b"JSON")],
    ids=["not-utf8", "not-utf8-in-meta", "nested-too-deep", "integer-too-long"])
@pytest.mark.parametrize("command", ["check-file", "check-stdin", "batch-check"])
def test_cli_undecodable_record_is_typed_error(tmp_path, content, why, command):
    # files and stdin are read as bytes and decoded as UTF-8 whatever the
    # locale; under the C locale a text stdin would pass a stray byte in
    # ``meta`` through as a surrogate
    path = tmp_path / "record.json"
    path.write_bytes(content)
    args = {"check-file": ["check", str(path)], "check-stdin": ["check", "-"],
            "batch-check": ["batch-check"]}[command]
    env = {k: v for k, v in CLI_ENV.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
    r = subprocess.run([sys.executable, "-m", "torusrig.cli", *args],
                       capture_output=True, input=content,
                       env={**env, "LC_ALL": "C", "LANG": "C"})
    assert (r.returncode, r.stdout) == (1, b"")
    assert r.stderr.startswith(b"error: record is not " + why)
    assert b"Traceback" not in r.stderr


def test_cli_homology_on_h5():
    # H5 is not a grid torus
    r = run_cli(["homology", "-"], stdin=json.dumps(hole_to_record(build_H(5))))
    assert r.returncode == 0
    edges = json.loads(r.stdout)["crossover_edges"]
    assert len(edges) == 6
    for item in edges:
        assert item["classes"] and [0, 0] not in item["classes"]


def test_dot_export_styles_boundary():
    hole = cut_hole(rectangular_torus(3, 3), [0])
    dot = to_dot(hole)
    assert dot.startswith("graph G {")
    assert dot.count("style=bold") == len(hole.boundary_edges)


def test_corpus_determinism():
    spec = CorpusSpec(seed=5, count=6)
    a = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                  for r in corpus_records(spec))
    b = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                  for r in corpus_records(spec))
    assert a == b


# sha256 of `torusrig gen` stdout, first computed at commit 0ad16d3; a change
# to these is a change to every generated corpus
GEN_DIGESTS = [
    (["--seed", "3", "--count", "200"],
     "cf1a60ab4d896d81941480bd2ef27cefa09f4c8052665dfcd26acfc0927e5d60"),
    (["--seed", "11", "--count", "120", "--grids", "4x4", "5x5", "6x6",
      "--boundary-lengths", *map(str, range(3, 13))],
     "90b449845b200d047fb6254aa609a1e62bf58e9cdd5b7eb08c161a3c8eefae8d"),
]


@pytest.mark.parametrize("args, digest", GEN_DIGESTS, ids=["default", "lengths-3-12"])
def test_gen_output_is_pinned(args, digest):
    r = run_cli(["gen", *args])
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


#: sha256 of ``gen --seed 3 --count 200 | batch-check``, whose 116
#: violations carry their witnesses, each the component of the first failing
#: placement in sorted edge order (``sparsity``)
BATCH_CHECK_DIGEST = "edc70159caf7ca8975db185f5c1cc187d5056de392db1a8e74beaef5c0dbf36b"


def test_batch_check_output_is_pinned():
    records = run_cli(["gen", "--seed", "3", "--count", "200"]).stdout
    r = run_cli(["batch-check"], stdin=records)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == BATCH_CHECK_DIGEST


def test_batch_check_prints_what_check_prints_for_each_record(monkeypatch):
    # one batch-check process shares a torus among the records of each
    # shape; check - on each record, with a torus built afresh for it,
    # prints the same line, less the record's index
    gen = run_cli(["gen", "--seed", "8", "--count", "24", "--grids", "3x4", "4x4"])
    lines = gen.stdout.splitlines()
    checked = run_cli(["batch-check"], stdin=gen.stdout)
    assert gen.returncode == checked.returncode == 0
    assert len(checked.stdout.splitlines()) == len(lines) == 24
    monkeypatch.setattr(fileio, "_torus", TorusComplex)
    statuses = set()
    for line, got in zip(lines, checked.stdout.splitlines()):
        record = json.loads(line)
        _, out, err = run_main(["check", "-"], record)
        assert not err
        want = {**json.loads(out), "index": record["meta"]["index"]}
        assert got == json.dumps(want, sort_keys=True)
        statuses.add(want["status"])
    assert statuses == {"Tight", "Violation"}


def test_corpus_metadata_identity():
    spec = CorpusSpec(seed=5, count=6, boundary_lengths=(7, 9, 11))
    for rec in corpus_records(spec):
        assert rec["meta"]["freedom"] == rec["meta"]["boundary_length"] - 3


def test_cli_check_exit_codes(tmp_path):
    h1 = tmp_path / "h1.json"
    h1.write_text(json.dumps(hole_to_record(build_H(1))))
    r = run_cli(["check", str(h1)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "Tight"

    # a trivially cut torus keeps all 3|V| edges, so the whole graph violates
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(hole_to_record(
        cut_hole(rectangular_torus(3, 3), [0]))))
    r = run_cli(["check", str(flat)])
    assert r.returncode == 2
    assert json.loads(r.stdout)["status"] == "Violation"


def test_cli_rank_and_classify(tmp_path):
    pth = tmp_path / "h4.json"
    pth.write_text(json.dumps(hole_to_record(build_H(4))))
    r = run_cli(["rank", str(pth)])
    assert r.returncode == 0
    body = json.loads(r.stdout)
    assert body["minimally_rigid"] is True
    r = run_cli(["classify", str(pth)])
    assert json.loads(r.stdout)["word"] == "e3e4"


def test_cli_pipeline_gen_check_reduce():
    gen = run_cli(["gen", "--seed", "3", "--count", "4", "--grids", "3x4"])
    assert gen.returncode == 0
    lines = [ln for ln in gen.stdout.splitlines() if ln]
    assert len(lines) == 4
    checked = run_cli(["batch-check"], stdin=gen.stdout)
    assert checked.returncode == 0
    for gen_line, chk_line in zip(lines, checked.stdout.splitlines()):
        rec, chk = json.loads(gen_line), json.loads(chk_line)
        assert rec["meta"]["status"] == chk["status"]
        if chk["status"] == "Tight":
            reduced = run_cli(["reduce", "-"], stdin=gen_line)
            assert reduced.returncode == 0
            body = json.loads(reduced.stdout)
            assert body["leaf"]["vertices"] >= 4
            certified = run_cli(["certify", "-", "--validate"], stdin=gen_line)
            assert certified.returncode == 0
            splits = json.loads(certified.stdout)["splits"]
            assert len(splits) >= len(body["moves"]) + 1


def test_cli_reduce_has_no_validate_option():
    # the contraction replay it ran could not fail; certify --validate
    # checks the reduction by rank instead
    r = run_cli(["reduce", "-", "--validate"], stdin="")
    assert r.returncode == 2
    assert "unrecognized arguments: --validate" in r.stderr


def test_cli_certify_h17(tmp_path):
    pth = tmp_path / "h17.json"
    pth.write_text(json.dumps(hole_to_record(build_H(17))))
    r = run_cli(["certify", str(pth), "--validate"])
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["splits"]) == 1


def test_cli_catalog_lists_17():
    r = run_cli(["catalog"])
    lines = [json.loads(ln) for ln in r.stdout.splitlines() if ln]
    assert len(lines) == 17
    assert lines[0]["word"] == "v9" and lines[16]["word"] == "ef1ge1fg1"


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": 4, "faces": [[0, 1, 2]], "holes": []}))
    r = run_cli(["check", str(bad)])
    assert r.returncode == 1
    assert "error" in r.stderr


def test_cli_check_rejects_pinched_surface():
    # chi = 0 and every edge in two faces, but three surfaces meet at vertex 3
    r = run_cli(["check", "-"], stdin=(DATA / "pinched_wedge.json").read_text())
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "link of vertex 3" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_check_pins_violation_witness():
    # the fourth seed-7 record on the 4x4 torus violates (3,6); its witness
    # is the component of the first placement, in sorted edge order, that
    # leaves the placed edges not (3,6)-sparse
    gen = run_cli(["gen", "--seed", "7", "--count", "4", "--grids", "4x4"])
    record = gen.stdout.splitlines()[3]
    out = run_cli(["check", "-"], stdin=record)
    assert out.returncode == 2
    assert out.stdout == (
        '{"freedom": 6, "status": "Violation", "witness": '
        '[0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]}\n')


@pytest.fixture(scope="module")
def gen7_4x4():
    """The four seed-7 records on the 4x4 torus; the fourth is a Violation."""
    gen = run_cli(["gen", "--seed", "7", "--count", "4", "--grids", "4x4"])
    return gen.stdout.splitlines()


@pytest.mark.parametrize("command", ["reduce", "tree", "certify", "homology"])
def test_cli_reduction_of_violation_is_typed_error(gen7_4x4, command):
    r = run_cli([command, "-"], stdin=gen7_4x4[3])
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "tight" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("status, gen_args", [
    ("Violation", ["--seed", "7", "--count", "4"]),
    ("SparseNotTight", ["--seed", "7", "--count", "1",
                        "--boundary-lengths", "10"]),
])
def test_not_tight_carries_its_record(status, gen_args):
    # the key-lemma search and the greedy reduction refuse a non-tight graph
    # with NotTight, whose message ends with the record; the record rebuilds
    # the graph, and piping it into torusrig reduce - fails the same way
    line = run_cli(["gen", "--grids", "4x4", *gen_args]).stdout.splitlines()[-1]
    record = json.loads(line)
    assert record["meta"]["status"] == status
    hole = record_to_hole(record)
    e = contractible_edges(hole)[0]
    for search in (lambda: find_critical_cycle_through(hole, e),
                   lambda: reduce_greedy(hole)):
        with pytest.raises(errors.NotTight) as info:
            search()
        _, _, carried = str(info.value).partition("; record: ")
        again = record_to_hole(json.loads(carried))
        assert again.graph == hole.graph
        assert hole_to_record(again) == json.loads(carried)
    r = run_cli(["reduce", "-"], stdin=carried)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: {info.value}\n"
    # torusrig homology - refuses it too, carrying the same record
    r = run_cli(["homology", "-"], stdin=carried)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == ("error: homology needs a tight single-hole graph; "
                        f"record: {carried}\n")


@pytest.mark.parametrize("command", ["reduce", "tree", "certify"])
def test_cli_reduction_of_two_holes_is_typed_error(command):
    # a tight two-hole graph is not the greedy reduction's input: it can be
    # flexible, so the single-hole check comes before the contraction loop
    r = run_cli([command, str(DATA / "two_octahedra.json")])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: graph has 2 holes\n"


@pytest.mark.parametrize("args, name", [
    (["--grids", "3"], "--grids"),
    (["--grids", "3x4x5"], "--grids"),
    (["--grids", "3xa"], "--grids"),
    (["--grids", "\uff13x\uff14"], "--grids"),
    (["--boundary-lengths"], "--boundary-lengths"),
    (["--grids"], "--grids needs at least one value"),
    (["--count", "-1"], "--count"),
    (["--boundary-lengths", "2"], "boundary length 2 is below 3"),
    (["--boundary-lengths", "0"], "boundary length 0 is below 3"),
    (["--grids", "8x8", "--boundary-lengths", "27"], "boundary length 27 is above 26"),
    (["--grids", "8x8", "--boundary-lengths", "9", "30"],
     "boundary length 30 is above 26"),
], ids=["no-x", "three-parts", "not-a-number", "fullwidth-digits", "no-lengths", "no-grids",
        "negative-count", "length-2", "length-0", "length-27", "length-30"])
def test_cli_gen_rejects_bad_arguments(args, name):
    r = run_cli(["gen", "--count", "1", *args])
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and name in r.stderr
    assert "Traceback" not in r.stderr
