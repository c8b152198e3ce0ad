"""Tests for workspace documents and the bundled corpus.

The corpus files shipped with the package must load cleanly, validate,
and be byte-identical to what the corpus builders regenerate.  Broken
documents must be reported object-by-object in collect mode, while
structural damage (bad JSON, unknown sections, dangling references)
raises MalformedInputError outright.
"""

import copy
import json

import pytest

from waldcat.algebra import validate_algebra, zero_module, zero_morphism
from waldcat.errors import MalformedInputError, ValidationError
from waldcat.workspace import (
    corpus_dir,
    corpus_path,
    dump_workspace,
    load_workspace,
    module_to_entry,
    morphism_to_entry,
    standard_corpus,
    write_corpus,
)

CORPUS_NAMES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]


def fx2_doc():
    return json.loads(corpus_path("fx2").read_text())


def test_corpus_files_present():
    found = sorted(p.stem for p in corpus_dir().glob("*.json"))
    assert found == CORPUS_NAMES


def test_write_corpus_reproduces_the_committed_files(tmp_path):
    written = write_corpus(tmp_path)
    assert [path.name for path in written] == [n + ".json" for n in CORPUS_NAMES]
    for path in written:
        assert path.read_bytes() == corpus_path(path.stem).read_bytes()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_file_loads_without_failures(name):
    ws, failures = load_workspace(corpus_path(name), collect_failures=True)
    assert failures == ()
    assert ws.name == name
    for algebra in ws.algebras.values():
        report = validate_algebra(algebra)
        assert report["ok"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_file_matches_builder_bytes(name):
    # regeneration determinism: the shipped file is exactly what the
    # builder emits today
    on_disk = corpus_path(name).read_text()
    rebuilt = dump_workspace(standard_corpus()[name])
    assert on_disk == rebuilt


def test_corpus_contents_fx2():
    ws = load_workspace(corpus_path("fx2"))
    assert set(ws.modules) == {"S", "A", "AS"}
    assert ws.module("A").dim == 2
    assert ws.module("AS").dim == 3
    assert "mul_x" in ws.morphisms
    assert "socle_span" in ws.spans
    assert "xcx" in ws.complexes
    assert ws.config["dim_bound"] == 4
    assert ws.only_algebra() is ws.algebra("fx2")


def test_quiver_corpus_algebra_shape():
    ws = load_workspace(corpus_path("quiver_a1"))
    a = ws.only_algebra()
    assert a.p == 2
    # two vertices, two arrows -> 4-dimensional path algebra
    assert a.dim == 4
    assert ws.module("A").dim == 4
    assert ws.module("s0").dim == 1
    assert ws.module("s1").dim == 1


def test_load_from_dict_and_json_text_equivalent():
    doc = fx2_doc()
    ws = load_workspace(doc)
    assert set(ws.modules) == {"S", "A", "AS"}
    assert ws.name == "fx2"


@pytest.mark.parametrize("from_file", [True, False])
def test_loaded_workspace_tables_are_read_only(from_file):
    ws = load_workspace(corpus_path("fx2") if from_file else fx2_doc())
    for table in ("config", "algebras", "modules", "morphisms", "spans", "complexes"):
        with pytest.raises(TypeError):
            getattr(ws, table)["new"] = None
    assert not hasattr(ws, "raw")


def test_file_loads_share_one_workspace_per_text(tmp_path):
    assert load_workspace(corpus_path("fx2")) is load_workspace(str(corpus_path("fx2")))
    ws, failures = load_workspace(corpus_path("fx2"), collect_failures=True)
    assert failures == ()
    assert ws is not load_workspace(corpus_path("fx2"))
    # dicts are built afresh
    doc = fx2_doc()
    assert load_workspace(doc) is not load_workspace(doc)
    # an edited file misses the memo
    path = tmp_path / "fx2.json"
    path.write_text(json.dumps(doc))
    before = load_workspace(path)
    doc["config"]["dim_bound"] = 3
    path.write_text(json.dumps(doc))
    after = load_workspace(path)
    assert (before.config["dim_bound"], after.config["dim_bound"]) == (4, 3)


def test_unknown_section_rejected():
    doc = fx2_doc()
    doc["gadgets"] = {}
    with pytest.raises(MalformedInputError):
        load_workspace(doc)


def test_missing_file_raises_malformed():
    with pytest.raises(MalformedInputError):
        load_workspace("/tmp/definitely-does-not-exist.json")


def test_bad_json_raises_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(MalformedInputError):
        load_workspace(path)


def test_dangling_reference_always_malformed():
    doc = fx2_doc()
    doc["morphisms"]["ghost"] = {"dom": "S", "cod": "missing", "matrix": [[1]]}
    with pytest.raises(MalformedInputError):
        load_workspace(doc, collect_failures=True)


def test_collect_mode_reports_broken_objects():
    doc = fx2_doc()
    # action matrices that do not satisfy the module axioms
    doc["modules"]["badmod"] = {"algebra": "fx2", "action": [[[1]], [[1]]]}
    # a matrix that is not equivariant
    doc["morphisms"]["badmap"] = {"dom": "A", "cod": "S", "matrix": [[1, 1]]}
    ws, failures = load_workspace(doc, collect_failures=True)
    kinds = {(f["kind"], f["name"]) for f in failures}
    assert ("module", "badmod") in kinds
    assert ("morphism", "badmap") in kinds
    assert "badmod" not in ws.modules
    assert "badmap" not in ws.morphisms
    # healthy objects still load
    assert "mul_x" in ws.morphisms


def test_collect_mode_cascades_through_failed_objects():
    doc = fx2_doc()
    doc["modules"]["badmod"] = {"algebra": "fx2", "action": [[[1]], [[1]]]}
    doc["morphisms"]["uses_bad"] = {"dom": "badmod", "cod": "S", "matrix": [[1]]}
    ws, failures = load_workspace(doc, collect_failures=True)
    cascaded = [f for f in failures if f["name"] == "uses_bad"]
    assert len(cascaded) == 1
    assert "failed" in cascaded[0]["problem"]
    assert "uses_bad" not in ws.morphisms


def test_strict_mode_raises_on_first_broken_object():
    doc = fx2_doc()
    doc["modules"]["badmod"] = {"algebra": "fx2", "action": [[[1]], [[1]]]}
    with pytest.raises(ValidationError):
        load_workspace(doc)


def test_dump_workspace_canonical_bytes():
    doc = {"b": 1, "a": {"z": [1, 2], "y": None}}
    text = dump_workspace(doc)
    assert text == dump_workspace(json.loads(text))
    assert text.endswith("\n")
    # key order in the source dict is irrelevant
    assert dump_workspace({"a": {"y": None, "z": [1, 2]}, "b": 1}) == text


def test_label_of_prefers_names():
    ws = load_workspace(corpus_path("fx2"))
    assert ws.label_of(ws.module("A")) == "A"
    assert ws.label_of(ws.module("S")) == "S"


def test_only_algebra_requires_uniqueness():
    doc = fx2_doc()
    other = copy.deepcopy(doc["algebras"]["fx2"])
    doc["algebras"]["fx2b"] = other
    ws = load_workspace(doc)
    with pytest.raises(MalformedInputError):
        ws.only_algebra()


def test_counts_match_sections():
    ws = load_workspace(corpus_path("fx2"))
    counts = ws.counts()
    assert counts["modules"] == len(ws.modules) == 3
    assert counts["morphisms"] == len(ws.morphisms)
    assert counts["spans"] == 1
    assert counts["complexes"] == 1


def test_zero_module_and_maps_into_it_round_trip():
    # a matrix with no rows is written as []; loading reads its width from
    # the referenced domain
    doc = fx2_doc()
    ws = load_workspace(doc)
    a = ws.module("A")
    zero = zero_module(ws.algebra("fx2"))
    doc["modules"]["Z"] = module_to_entry("fx2", zero)
    doc["morphisms"]["to_zero"] = morphism_to_entry("A", "Z", zero_morphism(a, zero))
    doc["morphisms"]["from_zero"] = morphism_to_entry("Z", "A", zero_morphism(zero, a))
    doc["spans"]["onto_zero"] = {"left": "Z", "apex": "A", "right": "Z",
                                 "g": [], "f": []}
    doc["complexes"]["a_to_zero"] = {"algebra": "fx2", "lo": 0, "objects": ["Z", "A"],
                                     "differentials": [[]]}
    back = load_workspace(json.loads(dump_workspace(doc)))
    assert back.module("Z").digest == zero.digest
    assert back.morphism("to_zero") == zero_morphism(a, zero)
    assert back.morphism("from_zero") == zero_morphism(zero, a)
    assert back.span("onto_zero").g == zero_morphism(a, zero)
    assert back.complex("a_to_zero").differentials[0] == zero_morphism(a, zero)
