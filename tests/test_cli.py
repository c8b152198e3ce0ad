"""End-to-end tests for the command-line interface.

Each test drives main() with real argv against the bundled corpus and
checks the exit code plus the JSON payload.  The exit-code contract:
0 success, 1 failed validation or hypothesis, 2 budget exceeded,
3 malformed input (including bad flags).  Reports must be byte-identical
across repeat runs with the same input and seed.
"""

import contextlib
import copy
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import waldcat
import waldcat.algebra as alg
from waldcat.cli import _SUBCOMMANDS, _parser, build_parser, main
from waldcat.errors import MalformedInputError
from waldcat.linalg import kernel_basis
from waldcat.workspace import corpus_path

FX2 = str(corpus_path("fx2"))
FX3 = str(corpus_path("fx3"))
QA1 = str(corpus_path("quiver_a1"))
F2C2 = str(corpus_path("f2c2"))

CORPUS_NAMES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def runj(*argv):
    code, text = run(*argv)
    return code, json.loads(text)


def _readme_commands():
    """The ``waldcat`` lines of the README's CLI block, with continuation
    lines joined and trailing comments dropped, as argument lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [ln.split("#", 1)[0].split()[1:] for ln in lines
                if ln.startswith("waldcat ")]
    assert commands, "the README's CLI block lists no waldcat command"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_commands_succeed(argv):
    # $C in the README is the fx2 corpus workspace
    code, text = run(*[FX2 if a == "$C" else a for a in argv])
    assert code == 0
    assert isinstance(json.loads(text), dict)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_validate_corpus(name):
    code, out = runj("validate", "--input", str(corpus_path(name)))
    assert code == 0
    assert out["ok"] is True
    assert out["failures"] == []
    assert all(out["algebra_checks"].values())


def test_validate_broken_document_exits_one(tmp_path):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["modules"]["badmod"] = {"algebra": "fx2", "action": [[[1]], [[1]]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = runj("validate", "--input", str(path))
    assert code == 1
    assert out["ok"] is False
    assert any(f["name"] == "badmod" for f in out["failures"])


def _nonassociative_document():
    """One F_2-algebra with basis 1, x, y, x·x = y and y·x = x, so that
    (x·x)·x = x but x·(x·x) = 0: it loads, and only `validate` rejects it."""
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        structure[0][i][i] = structure[i][0][i] = 1
    structure[1][1][2] = 1
    structure[2][1][1] = 1
    return {"algebras": {"bad": {"p": 2, "structure": structure, "unit": [1, 0, 0]}}}


def test_validate_twice_reports_the_same_failures(tmp_path):
    # the memoized load hands out one failure tuple; appending the algebra
    # failure to it would make the second report list that failure twice
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(_nonassociative_document()))
    first = run("validate", "--input", str(path))
    second = run("validate", "--input", str(path))
    assert first == second
    assert first[0] == 1
    out = json.loads(first[1])
    assert [(f["kind"], f["name"]) for f in out["failures"]] == [("algebra", "bad")]


def test_rewritten_workspace_file_is_read_again(tmp_path):
    doc = json.loads(corpus_path("fx2").read_text())
    small = {"algebras": doc["algebras"],
             "modules": {k: doc["modules"][k] for k in ("S", "A")}}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small))
    code, out = runj("ext", "--input", str(path), "--quot", "S", "--sub", "S")
    assert code == 0 and out["dimension"] == 1
    del small["modules"]["S"]
    path.write_text(json.dumps(small))
    code, out = runj("ext", "--input", str(path), "--quot", "S", "--sub", "S")
    assert code == 3
    assert "unknown module 'S'" in out["error"]["message"]
    path.unlink()
    code, out = runj("ext", "--input", str(path), "--quot", "A", "--sub", "A")
    assert code == 3
    assert "does not exist" in out["error"]["message"]


def test_equal_files_under_two_stems_keep_their_names(tmp_path):
    # a document without "name" is named by its file stem, which is part of
    # the memo key even when the text is the same
    text = json.dumps(_nonassociative_document())
    for stem in ("first", "second"):
        (tmp_path / (stem + ".json")).write_text(text)
    for stem in ("first", "second", "first"):
        code, out = runj("validate", "--input", str(tmp_path / (stem + ".json")))
        assert code == 1
        assert out["workspace"] == stem


# Commands on the corpus that fill every memo: Ext¹ and its oracle, span
# resolutions on both sides, chain verdicts, loading with failures, K₀ and
# localization.
WARM_COLD_COMMANDS = [
    ("ext", "--input", FX2, "--quot", "A", "--sub", "S", "--oracle"),
    ("ext", "--input", QA1, "--quot", "s0", "--sub", "s1", "--oracle"),
    ("span", "--op", "resolve", "--input", FX2, "--span", "socle_span"),
    ("span", "--op", "resolve", "--input", FX2, "--span", "socle_span", "--dual"),
    ("chain", "--op", "qiso", "--input", FX2, "--dom", "xcx", "--cod", "xcx",
     "--components", "0:mul_x,1:mul_x"),
    ("chain", "--op", "weq", "--input", FX2, "--dom", "xcx", "--cod", "xcx",
     "--components", "0:id_A,1:id_A"),
    ("validate", "--input", FX2),
    ("validate", "--input", QA1),
    ("k0", "--input", FX2, "--acyclics", "projectives", "--dim-bound", "3"),
    ("k0", "--input", QA1, "--dim-bound", "3"),
    ("localize", "--input", FX2, "--acyclics", "projectives", "--dim-bound", "3"),
    ("localize", "--input", QA1, "--dim-bound", "3"),
]


def _clear_every_memo():
    """Empty the table of every memoized function in the package; returns
    the names of the functions cleared."""
    cleared = set()
    for info in pkgutil.iter_modules(waldcat.__path__):
        module = importlib.import_module("waldcat." + info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.add(name)
    return cleared


def test_repeated_chain_query_adds_no_kernel_basis_call(monkeypatch):
    # algebra is the one module that calls kernel_basis
    calls = []

    def spy(m):
        calls.append(m.shape)
        return kernel_basis(m)

    monkeypatch.setattr(alg, "kernel_basis", spy)
    _clear_every_memo()
    argv = ("chain", "--op", "qiso", "--input", FX2, "--dom", "xcx", "--cod", "xcx",
            "--components", "0:id_A,1:id_A")
    first = run(*argv)
    cold = len(calls)
    assert first[0] == 0 and cold > 0
    assert run(*argv) == first
    assert len(calls) == cold


def test_warm_caches_answer_as_cold_ones():
    warm = {argv: run(*argv) for argv in WARM_COLD_COMMANDS}
    cleared = _clear_every_memo()
    assert {"_workspace_from_text", "_hom_matrices", "ext1", "enumerate_modules",
            "class_index", "_automorphism_count", "kernel", "cokernel",
            "submodule_from_columns", "indecomposable_summands",
            "injective_embedding", "zero_module", "identity_morphism"} <= cleared
    cold = {argv: run(*argv) for argv in reversed(WARM_COLD_COMMANDS)}
    assert cold == warm
    assert all(code == 0 for code, _ in warm.values())


def test_weq_verdict_yes():
    code, out = runj("weq", "--input", FX2, "--map", "mul_x")
    assert code == 0
    assert out["verdict"] == "yes"


def test_weq_oracle_agreement():
    code, out = runj("weq", "--input", FX2, "--map", "mul_x", "--oracle")
    assert code == 0
    assert out["oracle_verdict"] == "yes"
    assert out["oracle_agrees"] is True


def test_weq_no_for_non_equivalence():
    # the socle inclusion S -> A has cone S + S, not acyclic
    code, out = runj("weq", "--input", FX2, "--map", "socle")
    assert code == 0
    assert out["verdict"] == "no"


def test_ext_with_oracle():
    code, out = runj("ext", "--input", FX2, "--quot", "S", "--sub", "S",
                     "--oracle")
    assert code == 0
    assert out["dimension"] == 1
    assert out["class_count"] == 2
    assert out["oracle_class_count"] == 2
    assert out["oracle_agrees"] is True


def test_class_module_frobenius():
    code, out = runj("class", "--input", F2C2, "--module", "A")
    assert code == 0
    assert out["projective"] is True
    assert out["injective"] is True


def test_factor_produces_verified_sequences():
    code, out = runj("factor", "--input", FX2, "--map", "socle")
    assert code == 0
    assert out["middle_dim"] == out["kernel_dim"] + 2  # cod A has dim 2
    assert out["middle_dim"] == out["cokernel_dim"] + 1  # dom S has dim 1
    assert len(out["sequences"]) == 2


def test_lift_on_commuting_square():
    code, out = runj("lift", "--input", FX2, "--i", "pad_incl",
                     "--p", "pad_proj", "--top", "pad_incl",
                     "--bottom", "pad_proj")
    assert code == 0
    assert out["verified"] is True


def test_axioms_all_pass():
    code, out = runj("axioms", "--input", FX2, "--samples", "3", "--seed", "7")
    assert code == 0
    assert out["summary"]["FAIL"] == 0
    assert out["summary"]["PASS"] >= 1


def test_axioms_deterministic_bytes():
    _, first = run("axioms", "--input", FX2, "--samples", "4", "--seed", "11")
    _, second = run("axioms", "--input", FX2, "--samples", "4", "--seed", "11")
    assert first == second


def test_k0_exact_category_projectives():
    code, out = runj("k0", "--input", FX2, "--class", "projectives",
                     "--dim-bound", "4")
    assert code == 0
    assert out["kind"] == "exact_category"
    assert out["description"] == "Z"


def test_k0_waldhausen_kill_acyclics():
    code, out = runj("k0", "--input", FX2, "--acyclics", "projectives",
                     "--dim-bound", "4")
    assert code == 0
    assert out["kind"] == "waldhausen"
    assert out["description"] == "Z/2"


def test_localize_truncation_degree_two():
    code, out = runj("localize", "--input", FX2, "--acyclics", "projectives",
                     "--dim-bound", "4")
    assert code == 0
    assert out["ok"] is True
    assert out["verdicts"] == {
        "composite_zero": True, "surjective": True, "im_eq_ker": True,
    }
    assert out["cokernel"]["description"] == "Z/2"


def test_localize_truncation_degree_three_uses_config():
    # fx3's workspace config supplies dim_bound and acyclics defaults
    code, out = runj("localize", "--input", FX3)
    assert code == 0
    assert out["ok"] is True
    assert out["cokernel"]["description"] == "Z/3"


def test_localize_deterministic_bytes():
    args = ("localize", "--input", FX2, "--acyclics", "projectives",
            "--dim-bound", "4")
    _, first = run(*args)
    _, second = run(*args)
    assert first == second


def test_localize_failed_hypotheses_exit_one():
    code, out = runj("localize", "--input", FX2, "--acyclics", "explicit:S",
                     "--dim-bound", "3")
    assert code == 1
    assert out["ok"] is False
    assert out["hypotheses"]["failures"]
    assert out["groups"] is None
    assert out["verdicts"] is None


def test_span_membership_and_resolve():
    code, out = runj("span", "--input", FX2, "--op", "membership",
                     "--span", "socle_span")
    assert code == 0
    assert out["in_P"] is True and out["in_I"] is False
    code, out = runj("span", "--input", FX2, "--op", "resolve",
                     "--span", "socle_span")
    assert code == 0
    assert out["validated"] is True


def test_span_factor_verified():
    code, out = runj("span", "--input", FX2, "--op", "factor",
                     "--dom", "socle_span", "--cod", "socle_span",
                     "--left", "id_S", "--apex", "id_S", "--right", "id_A")
    assert code == 0
    assert out["verified"] is True


def test_span_lift_identity_square():
    spec = "socle_span,socle_span,id_S,id_S,id_A"
    code, out = runj("span", "--input", FX2, "--op", "lift", "--i", spec,
                     "--p", spec, "--top", spec, "--bottom", spec)
    assert code == 0
    assert out["components"]["apex"] == [[1]]


def test_chain_homology_and_weq():
    code, out = runj("chain", "--input", FX2, "--op", "homology",
                     "--complex", "xcx")
    assert code == 0
    assert out["homology_dims"] == {"0": 1, "1": 1}
    code, out = runj("chain", "--input", FX2, "--op", "qiso", "--dom", "xcx",
                     "--cod", "xcx", "--components", "0:id_A,1:id_A")
    assert code == 0
    assert out["is_quasi_iso"] is True
    code, out = runj("chain", "--input", FX2, "--op", "weq", "--dom", "xcx",
                     "--cod", "xcx", "--components", "0:id_A,1:id_A")
    assert code == 0
    assert out["verdict"] == "yes"


def test_resolve_zp_two_step_ladder():
    code, out = runj("resolve-zp", "--input", FX2, "--module", "A",
                     "--resolution", "pad_incl:pad_proj,socle:socle_quot",
                     "--acyclics", "projectives", "--p-class", "all")
    assert code == 0
    assert out["steps"] == 2
    assert all(d[0] + d[2] == d[1] for d in out["dims"])


def test_resolve_zp_precondition_error_exit_one():
    # with projective acyclics the resolved object itself must be acyclic
    code, out = runj("resolve-zp", "--input", FX2, "--module", "S",
                     "--resolution", "socle:socle_quot",
                     "--acyclics", "projectives", "--p-class", "all")
    assert code == 1
    assert "Z-intersect-C" in out["error"]["message"]


def test_class_map_flags_on_the_socle_sequence():
    code, out = runj("class", "--input", FX2, "--map", "socle")
    assert code == 0
    assert out == {
        "command": "class", "map": "socle",
        "is_admissible_mono": True, "is_admissible_epi": False,
        "is_cofibration": True, "is_acyclic_cofibration": False,
        "is_acyclic_fibration": False,
    }
    code, out = runj("class", "--input", FX2, "--map", "socle_quot")
    assert code == 0
    assert out == {
        "command": "class", "map": "socle_quot",
        "is_admissible_mono": False, "is_admissible_epi": True,
        "is_cofibration": False, "is_acyclic_cofibration": False,
        "is_acyclic_fibration": False,
    }


def test_weq_oracle_agrees_with_projective_cofibrant_class():
    code, out = runj("weq", "--input", FX2, "--map", "mul_x", "--class",
                     "projectives", "--acyclics", "all", "--oracle")
    assert code == 0
    assert out["verdict"] == "yes"
    assert out["oracle_verdict"] == "yes"
    assert out["oracle_agrees"] is True


@pytest.mark.parametrize(
    "path, map_name, acyclics, middle_dim",
    [(QA1, "proj_s0", "all", 17), (str(corpus_path("quiver_a2")), "proj_s1", "injectives", 10)],
    ids=["quiver_a1", "quiver_a2"],
)
def test_weq_oracle_searches_up_to_the_canonical_middle(path, map_name, acyclics, middle_dim):
    # the canonical factorization's middle is larger than dim dom + dim cod,
    # so an oracle stopping there answered "no" to a weak equivalence
    flags = ("--input", path, "--map", map_name, "--class", "all", "--acyclics", acyclics)
    code, out = runj("factor", *flags)
    assert code == 0
    assert out["middle_dim"] == middle_dim
    code, out = runj("weq", *flags, "--oracle")
    assert code == 2
    assert out["error"]["type"] == "budget"
    assert out["error"]["message"] == (
        "module enumeration for dimension %d exceeds budget 100000000" % middle_dim
    )


@pytest.mark.parametrize("dual", [False, True])
def test_span_resolve_with_projective_class(dual):
    code, out = runj("span", "--input", FX2, "--op", "resolve", "--span",
                     "socle_span", "--class", "projectives", *(["--dual"] if dual else []))
    assert code == 0
    assert out["dual"] is dual
    assert out["validated"] is True
    dims = {key: out[key] for key in ("sub_dims", "mid_dims", "quot_dims")}
    if dual:
        assert dims == {
            "sub_dims": {"left": 1, "apex": 1, "right": 2},
            "mid_dims": {"left": 1, "apex": 3, "right": 4},
            "quot_dims": {"left": 0, "apex": 2, "right": 2},
        }
    else:
        assert dims == {
            "sub_dims": {"left": 1, "apex": 3, "right": 4},
            "mid_dims": {"left": 2, "apex": 4, "right": 6},
            "quot_dims": {"left": 1, "apex": 1, "right": 2},
        }


def test_resolve_zp_with_projective_resolving_class():
    flags = ("--input", FX2, "--module", "A", "--p-class", "projectives")
    code, out = runj("resolve-zp", *flags)
    assert code == 0
    assert out == {
        "command": "resolve-zp", "module": "A", "steps": 0,
        "sequences": [], "dims": [],
    }
    code, out = runj("resolve-zp", *flags, "--resolution",
                     "pad_incl:pad_proj,socle:socle_quot")
    assert code == 1
    assert out["error"] == {
        "type": "HypothesisError",
        "message": "resolution middle at index 0 is not in P",
    }


@pytest.mark.parametrize("seed", ["0", "1"])
def test_axioms_draw_objects_from_the_cofibrant_class(seed):
    # with C = projectives, gluing drew its apex from every module, so it
    # met a map leaving C (seed 0) or an apex with no cofibration (seed 1)
    code, out = runj("axioms", "--input", FX2, "--class", "projectives",
                     "--acyclics", "all", "--checks", "gluing", "--seed", seed)
    assert code == 0
    assert out["summary"] == {"PASS": 10, "FAIL": 0, "INAPPLICABLE": 0}


def test_axioms_with_an_empty_sample_pool_exits_one():
    # no nonzero projective of F2[x]/(x^3) has dimension <= 2
    code, out = runj("axioms", "--input", FX3, "--class", "projectives",
                     "--acyclics", "all", "--checks", "extension", "--samples", "1")
    assert code == 1
    assert out["error"] == {
        "type": "ValidationError",
        "message": "no module of the required class to sample from",
    }


def test_enumerate_small_bound():
    code, out = runj("enumerate", "--input", FX2, "--dim-bound", "2")
    assert code == 0
    assert [m["dim"] for m in out["modules"]] == [0, 1, 2, 2]


def test_exit_three_missing_file():
    code, out = runj("validate", "--input", "/tmp/no-such-workspace.json")
    assert code == 3
    assert out["error"]["type"] == "malformed"


def test_exit_three_input_is_a_directory(tmp_path, capsys):
    code, out = runj("enumerate", "--input", str(tmp_path))
    assert code == 3
    assert out["error"]["type"] == "malformed"
    assert "cannot read input file" in out["error"]["message"]
    assert capsys.readouterr().err == ""


def test_exit_three_input_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out = runj("enumerate", "--input", str(path))
    assert code == 3
    assert out["error"]["type"] == "malformed"
    assert "utf-8" in out["error"]["message"]
    assert capsys.readouterr().err == ""


def test_exit_three_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out = runj("validate", "--input", str(path))
    assert code == 3


def test_exit_three_unknown_name():
    code, out = runj("class", "--input", FX2, "--module", "nosuch")
    assert code == 3
    assert "nosuch" in out["error"]["message"]


def test_exit_three_bad_flag_value():
    code, out = runj("weq", "--input", FX2, "--map", "mul_x",
                     "--format", "yaml")
    assert code == 3


def test_exit_three_unknown_subcommand():
    code, out = runj("frobnicate", "--input", FX2)
    assert code == 3


@pytest.mark.parametrize(
    "p, reason",
    [(4, "not prime"), (2.5, "integer"), ("2", "integer"), (True, "integer"),
     (65537, "too large")],
)
def test_exit_three_bad_prime(tmp_path, p, reason):
    doc = {"algebras": {"a": {"p": p, "structure": [[[1]]], "unit": [1]}}}
    path = tmp_path / "badp.json"
    path.write_text(json.dumps(doc))
    code, out = runj("validate", "--input", str(path))
    assert code == 3
    assert out["error"]["type"] == "malformed"
    assert reason in out["error"]["message"]


_ALGEBRA = {"p": 2, "structure": [[[1]]], "unit": [1]}
_MODULE = {"algebra": "a", "action": [[[1]]]}
_LOOP = {"vertices": 1, "arrows": [[0, 0, "x"]], "nil_bound": 3}


@pytest.mark.parametrize(
    "doc",
    [
        {"algebras": {"a": dict(_ALGEBRA, unit="ab")}},
        {"algebras": {"a": dict(_ALGEBRA, structure=None)}},
        {"algebras": {"a": {"p": 2, "quiver": {"vertices": "x", "arrows": []}}}},
        {"algebras": {"a": _ALGEBRA}, "modules": {"m": dict(_MODULE, action=None)}},
        {"algebras": {"a": _ALGEBRA}, "modules": {"m": dict(_MODULE, action=["x"])}},
        {
            "algebras": {"a": _ALGEBRA},
            "modules": {"m": _MODULE},
            "morphisms": {"f": {"dom": "m", "cod": "m", "matrix": None}},
        },
        {"algebras": {"a": {"p": 2, "quiver": dict(_LOOP, relations="x")}}},
        {"algebras": {"a": {"p": 2, "quiver": dict(_LOOP, relations=[[["x", ["x"]]]])}}},
        {"algebras": {"a": dict(_ALGEBRA, basis_labels=5)}},
    ],
    ids=["unit_ab", "structure_null", "vertices_x", "action_null", "action_entry_x",
         "matrix_null", "relations_x", "relation_coefficient_x", "basis_labels_5"],
)
def test_exit_three_malformed_workspace_data(tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out = runj("validate", "--input", str(path))
    assert code == 3
    assert out["error"]["type"] == "malformed"


@pytest.mark.parametrize("command", ["validate", "enumerate"])
@pytest.mark.parametrize("doc", [[], 5, "x", True], ids=["list", "int", "str", "bool"])
def test_exit_three_workspace_not_an_object(tmp_path, command, doc):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    code, out = runj(command, "--input", str(path))
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "workspace document must be a JSON object",
    }


@pytest.mark.parametrize("algebra", [5, ["fx2"], True])
def test_exit_three_bad_config_algebra(tmp_path, algebra):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["algebra"] = algebra
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out = runj("enumerate", "--input", str(path), "--dim-bound", "1")
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "config 'algebra' must be a string",
    }


@pytest.mark.parametrize("command", ["validate", "enumerate"])
@pytest.mark.parametrize("name", [[1, 2], 5, None], ids=["list", "int", "null"])
def test_exit_three_workspace_name_not_a_string(tmp_path, command, name):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["name"] = name
    path = tmp_path / "name.json"
    path.write_text(json.dumps(doc))
    code, out = runj(command, "--input", str(path), "--dim-bound", "1")
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "workspace 'name' must be a string",
    }


@pytest.mark.parametrize("budget", ["x", [1], 2.5, True])
def test_exit_three_bad_config_budget(tmp_path, budget):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["budget"] = budget
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    code, out = runj("enumerate", "--input", str(path))
    assert code == 3
    assert out["error"]["type"] == "malformed"


@pytest.mark.parametrize("budget, code, kind", [(10, 2, "budget"), ("x", 3, "malformed")])
def test_ext_oracle_reads_config_budget(tmp_path, budget, code, kind):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["budget"] = budget
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    got, out = runj("ext", "--input", str(path), "--quot", "S", "--sub", "S",
                    "--oracle")
    assert got == code
    assert out["error"]["type"] == kind


def test_weq_oracle_reads_config_budget(tmp_path):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["budget"] = 10
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    args = ("weq", "--input", str(path), "--map", "mul_x", "--oracle")
    code, out = runj(*args)
    assert code == 2
    assert out["error"]["type"] == "budget"
    # --budget caps the enumeration, as on every command, and wins over config
    code, out = runj(*args, "--budget", "100000")
    assert code == 0
    assert out["oracle_agrees"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--samples", "2"],
        ["resolve-zp", "--module", "A", "--resolution",
         "pad_incl:pad_proj,socle:socle_quot", "--acyclics", "projectives",
         "--p-class", "all"],
    ],
    ids=["axioms", "resolve-zp"],
)
def test_waldhausen_commands_read_config_budget(tmp_path, argv):
    assert runj(argv[0], "--input", FX2, *argv[1:])[0] == 0
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["budget"] = 10
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    code, out = runj(argv[0], "--input", str(path), *argv[1:])
    assert code == 2
    assert out["error"] == {
        "type": "budget",
        "message": "module enumeration for dimension 2 exceeds budget 10",
    }


def _fresh_interpreter(code, args=(), environ=None):
    """``python -c code *args`` with waldcat on the path, in ``environ``
    (default: this process's environment); killed after 120 s."""
    src = str(Path(waldcat.__file__).resolve().parents[1])
    env = dict(os.environ if environ is None else environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )


def _separate_process(argv):
    """Exit code and stdout of ``main(argv)`` in a fresh interpreter."""
    code = "import sys; from waldcat.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _fresh_interpreter(code, argv)
    return proc.returncode, proc.stdout


# prints the process's thread count (None without /proc) after importing
# waldcat.cli, and whether os.environ is what it was before; with the
# argument "numpy-first" it imports numpy before waldcat
_THREAD_PROBE = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1:] == ["numpy-first"]:
    import numpy
import waldcat.cli
tasks = "/proc/self/task"
print(json.dumps({
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "environ_unchanged": dict(os.environ) == before,
    "blas_variables": [v for v in %r if v in os.environ],
}))
""" % (waldcat._BLAS_THREAD_VARIABLES,)


def _probe_threads(preset=None, args=()):
    environ = {k: v for k, v in os.environ.items()
               if k not in waldcat._BLAS_THREAD_VARIABLES}
    environ.update(preset or {})
    proc = _fresh_interpreter(_THREAD_PROBE, args, environ)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_waldcat_loads_numpy_with_one_blas_thread_and_restores_the_environment():
    # the package's arithmetic is int64 mod p, so OpenBLAS's worker pool is
    # never used; tests/conftest.py imports numpy first, so only a fresh
    # interpreter reaches the pinning branch
    out = _probe_threads()
    assert out["environ_unchanged"] and out["blas_variables"] == []
    if out["threads"] is not None and (os.cpu_count() or 1) >= 2:
        assert out["threads"] == 1


@pytest.mark.parametrize(
    "preset, args",
    [({"OMP_NUM_THREADS": "2"}, ()), (None, ("numpy-first",))],
    ids=["thread-count-preset", "numpy-imported-first"],
)
def test_waldcat_leaves_a_chosen_blas_setup_alone(preset, args):
    out = _probe_threads(preset, args)
    assert out["environ_unchanged"]
    assert out["blas_variables"] == sorted(preset or {})


def test_one_parser_serves_every_main_call_in_a_process():
    calls = [
        ["class", "--input", FX2, "--module", "A"],
        ["k0", "--input", FX2, "--dim-bound", "2", "--format", "text"],
        ["enumerate", "--input", FX2, "--bogus"],
        ["ext", "--input", FX2, "--quot", "S", "--sub", "S"],
    ]
    in_process = [run(*argv) for argv in calls]
    assert _parser() is _parser()
    assert in_process == [_separate_process(argv) for argv in calls]


# the options each subcommand requires beyond --input
_REQUIRED_OPTIONS = {
    "validate": [], "class": [], "axioms": [], "k0": [], "localize": [], "enumerate": [],
    "ext": ["--quot", "A", "--sub", "S"],
    "factor": ["--map", "socle"],
    "weq": ["--map", "socle"],
    "lift": ["--i", "f", "--p", "g", "--top", "t", "--bottom", "b"],
    "span": ["--op", "resolve"],
    "chain": ["--op", "homology"],
    "resolve-zp": ["--module", "A"],
}


def _parse_outcome(parser, argv):
    """The namespace, or the ``MalformedInputError`` text, or the help text
    on a ``SystemExit``, of ``parser.parse_args(argv)``."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            return ("namespace", vars(parser.parse_args(argv)))
    except MalformedInputError as err:
        return ("malformed", str(err))
    except SystemExit:
        return ("help", buf.getvalue())


@pytest.mark.parametrize("command", sorted(_REQUIRED_OPTIONS))
def test_one_command_parser_parses_as_the_full_parser(command):
    required = _REQUIRED_OPTIONS[command]
    valid = [command, "--input", FX2, *required, "--dim-bound", "3", "--format", "text"]
    argvs = [
        valid,
        [command, "--input", FX2, *required, "--bogus"],
        [command, "--input", FX2, *required, "--seed", "x"],
        [command, *required],
        [command, "-h"],
    ]
    assert set(_REQUIRED_OPTIONS) == set(_SUBCOMMANDS)
    one, full = build_parser(command), build_parser()
    outcomes = [_parse_outcome(one, argv) for argv in argvs]
    assert outcomes == [_parse_outcome(full, argv) for argv in argvs]
    assert [kind for kind, _ in outcomes] == ["namespace", "malformed", "malformed",
                                              "malformed", "help"]
    assert "--input" in outcomes[3][1]
    # main builds only the parser of the command it runs
    _parser.cache_clear()
    assert run(*argvs[1])[0] == 3
    assert _parser(command) is _parser(command) is not _parser()
    assert _parser.cache_info().misses == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factor", "--map", "socle", "--class", "bogus"],
         "the cofibrant class must be 'all' or 'projectives'; got 'bogus'"),
        (["span", "--op", "resolve", "--span", "socle_span", "--class", "bogus"],
         "the class must be 'all' or 'projectives'; got 'bogus'"),
        (["resolve-zp", "--module", "A", "--p-class", "bogus"],
         "--p-class must be 'all' or 'projectives'; got 'bogus'"),
    ],
    ids=["factor", "span", "resolve-zp"],
)
def test_exit_three_unknown_pair_class(argv, message):
    code, out = runj(argv[0], "--input", FX2, *argv[1:])
    assert code == 3
    assert out["error"] == {"type": "malformed", "message": message}


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_exits_three(tmp_path, where):
    path, extra = FX2, ["--seed", "-1"]
    if where == "config":
        doc = json.loads(corpus_path("fx2").read_text())
        doc["config"]["seed"] = -1
        path, extra = tmp_path / "seed.json", []
        path.write_text(json.dumps(doc))
    code, out = runj("axioms", "--input", str(path), "--samples", "1", *extra)
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "seed must be a nonnegative integer, got -1",
    }


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_finite_inj_dim_exits_three(tmp_path, where):
    path, extra = FX2, ["--acyclics", "finite-inj-dim:-1"]
    if where == "config":
        doc = json.loads(corpus_path("fx2").read_text())
        doc["config"]["acyclics"] = "finite-inj-dim:-1"
        path, extra = tmp_path / "acyclics.json", []
        path.write_text(json.dumps(doc))
    code, out = runj("localize", "--input", str(path), "--dim-bound", "2", *extra)
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "finite-inj-dim bound must be nonnegative, got -1",
    }


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", ["enumerate", "k0"])
def test_negative_budget_exits_three(tmp_path, where, command):
    path, extra = FX2, ["--budget", "-1"]
    if where == "config":
        doc = json.loads(corpus_path("fx2").read_text())
        doc["config"]["budget"] = -1
        path, extra = tmp_path / "budget.json", []
        path.write_text(json.dumps(doc))
    code, out = runj(command, "--input", str(path), *extra)
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "budget must be a nonnegative integer, got -1",
    }


def test_negative_samples_exits_three():
    code, out = runj("axioms", "--input", FX2, "--samples", "-1")
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "samples must be a nonnegative integer, got -1",
    }


@pytest.mark.parametrize("bound", ["2", "3"])
def test_localize_finite_inj_dim_zero_matches_injectives_on_quiver_a1(bound):
    # injective dimension 0 means injective, also where injectives are not
    # projective; the class goes through cosyzygies and summand stripping
    args = ("localize", "--input", QA1, "--dim-bound", bound, "--acyclics")
    code, by_inj_dim = runj(*args, "finite-inj-dim:0")
    assert code == 0
    _, by_injectives = runj(*args, "injectives")
    assert by_inj_dim.pop("acyclics") == "finite_inj_dim<=0"
    assert by_injectives.pop("acyclics") == "injectives"
    assert by_inj_dim == by_injectives


def test_localize_finite_inj_dim_one_collapses_on_hereditary_quiver_a2():
    # over a hereditary algebra every module has injective dimension <= 1
    code, out = runj("localize", "--input", str(corpus_path("quiver_a2")),
                     "--acyclics", "finite-inj-dim:1")
    assert code == 1
    assert out["ok"] is False
    assert out["hypotheses"]["degenerate_overlap"] is True
    assert out["hypotheses"]["failures"] == [
        "every module up to the bound is acyclic; the acyclic subcategory"
        " coincides with the whole category and the localization collapses"
    ]


def test_localize_finite_inj_dim_matches_projectives_on_self_injective_fx2():
    # over the self-injective fx2, finite injective dimension means injective,
    # and injective means projective
    args = ("localize", "--input", FX2, "--dim-bound", "3", "--acyclics")
    code, by_inj_dim = runj(*args, "finite-inj-dim:1")
    assert code == 0 and by_inj_dim["ok"] is True
    _, by_projectives = runj(*args, "projectives")
    assert by_inj_dim.pop("acyclics") == "finite_inj_dim<=1"
    assert by_projectives.pop("acyclics") == "projectives"
    assert by_inj_dim == by_projectives


@pytest.mark.parametrize("path", [FX2, QA1], ids=["fx2", "quiver_a1"])
def test_localize_finite_inj_dim_stops_at_the_first_repeated_cosyzygy(path):
    # every reduced cosyzygy sequence here either reaches 0 or repeats an
    # isomorphism class within a few steps, so a huge cutoff answers as
    # fast as a small one; in a fresh interpreter, so a walk to the cutoff
    # is cut off by the timeout instead of hanging the suite
    args = ["localize", "--input", path, "--dim-bound", "3", "--acyclics"]
    start = time.perf_counter()
    code, text = _separate_process([*args, "finite-inj-dim:99999999"])
    assert code == 0
    assert time.perf_counter() - start < 30
    huge = json.loads(text)
    _, small = runj(*args, "finite-inj-dim:20")
    assert huge["groups"] == small["groups"]
    assert huge["cokernel"] == small["cokernel"]


_BOUNDED_COMMANDS = [
    ("enumerate",),
    ("k0",),
    ("localize", "--acyclics", "projectives"),
]


@pytest.mark.parametrize("bound", [-1, -(10**6)])
@pytest.mark.parametrize("command", _BOUNDED_COMMANDS, ids=lambda c: c[0])
def test_negative_dim_bound_exits_three(command, bound):
    code, out = runj(command[0], "--input", FX2, *command[1:],
                     "--dim-bound", str(bound))
    assert code == 3
    assert out["error"] == {
        "type": "malformed",
        "message": "dim_bound must be a nonnegative integer, got %d" % bound,
    }


@pytest.mark.parametrize("command", _BOUNDED_COMMANDS, ids=lambda c: c[0])
def test_negative_config_dim_bound_exits_three(tmp_path, command):
    doc = json.loads(corpus_path("fx2").read_text())
    doc["config"]["dim_bound"] = -1
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(doc))
    code, out = runj(command[0], "--input", str(path), *command[1:])
    assert code == 3
    assert out["error"]["message"] == "dim_bound must be a nonnegative integer, got -1"


@pytest.mark.parametrize("command", _BOUNDED_COMMANDS, ids=lambda c: c[0])
def test_huge_dim_bound_exits_two_at_once(command):
    start = time.perf_counter()
    code, out = runj(command[0], "--input", FX2, *command[1:],
                     "--dim-bound", str(10**6))
    assert code == 2
    assert out["error"]["type"] == "budget"
    assert time.perf_counter() - start < 5.0


_CHEAP_COMMANDS = [
    ("class", "--module", "A"),
    ("ext", "--quot", "S", "--sub", "A", "--oracle"),
    ("enumerate",),
    ("k0",),
    ("axioms", "--samples", "1"),
]
_ANY_INT = st.one_of(st.integers(-10, 10), st.integers(-(2**80), 2**80))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(_CHEAP_COMMANDS),
    seed=_ANY_INT,
    budget=_ANY_INT,
    dim_bound=st.integers(-3, 3),
)
@example(command=("axioms", "--samples", "1"), seed=-1, budget=10**8, dim_bound=2)
def test_cli_contract_for_any_seed_budget_and_bound(command, seed, budget, dim_bound):
    """Whatever the integers, main answers with a documented exit code and a
    JSON body, and never lets an exception escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            command[0], "--input", FX2, *command[1:], "--seed", str(seed),
            "--budget", str(budget), "--dim-bound", str(dim_bound),
        ])
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()


_CORPUS_MAPS = {
    name: sorted(json.loads(corpus_path(name).read_text())["morphisms"])
    for name in CORPUS_NAMES
}


@st.composite
def _class_flag_commands(draw):
    """argv of a command that reads the class flags, on a corpus algebra."""
    kind = draw(st.sampled_from(["axioms", "class", "factor", "weq", "span"]))
    if kind == "span":  # fx2 is the corpus algebra with a span
        name, tail = "fx2", ["--op", "resolve", "--span", "socle_span"]
    else:
        name = draw(st.sampled_from(CORPUS_NAMES))
        if kind == "axioms":
            checks = st.sampled_from(["gluing", "extension", "saturation", "properness"])
            tail = ["--samples", "1", "--checks", draw(checks)]
        else:
            tail = ["--map", draw(st.sampled_from(_CORPUS_MAPS[name]))]
    c_class = draw(st.sampled_from(["all", "projectives"]))
    acyclics = draw(
        st.sampled_from(["all", "projectives", "injectives", "finite-inj-dim:1"])
    )
    return [kind, "--input", str(corpus_path(name)), *tail,
            "--class", c_class, "--acyclics", acyclics]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=_class_flag_commands())
@example(argv=["axioms", "--input", FX3, "--samples", "1", "--checks", "extension",
               "--class", "projectives", "--acyclics", "all"])
def test_cli_contract_for_any_class_flags(argv):
    """Whatever the classes, main answers with a documented exit code and a
    JSON body, and never lets an exception escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()


_CORPUS_DOCS = {name: json.loads(corpus_path(name).read_text()) for name in CORPUS_NAMES}
# wrong types, values out of range, a float, a huge int, empty and ragged
# lists and a tensor of the wrong rank
_LEAF_POOL = [None, True, False, -1, 0, 2, 65537, 1.5, "", 10**30,
              [], [[]], [[1], [0, 1]], [[[[1]]]]]
_DOCUMENT_COMMANDS = [
    ["validate"],
    ["enumerate", "--dim-bound", "2"],
    ["k0", "--dim-bound", "2"],
    ["localize", "--acyclics", "projectives", "--dim-bound", "2"],
    ["axioms", "--samples", "1", "--seed", "0"],
]


def _leaf_paths(node, path=()):
    """Key paths to every scalar and every empty list or object in a
    JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)) and child:
            yield from _leaf_paths(child, path + (key,))
        else:
            yield path + (key,)


@st.composite
def _mutated_documents(draw):
    """(corpus name, document): a corpus document with one or two leaves
    replaced from ``_LEAF_POOL`` or deleted."""
    name = draw(st.sampled_from(CORPUS_NAMES))
    doc = copy.deepcopy(_CORPUS_DOCS[name])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_leaf_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_LEAF_POOL)))
    return name, doc


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_mutated_documents())
def test_cli_contract_for_any_mutated_workspace_document(document_dir, case):
    """Whatever a workspace document holds, every command answers with a
    documented exit code and a JSON body, and never lets an exception
    escape."""
    name, doc = case
    path = document_dir / (name + ".json")
    path.write_text(json.dumps(doc))
    for command in _DOCUMENT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--input", str(path), *command[1:]])
        assert code in (0, 1, 2, 3)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert "Traceback" not in err.getvalue()


def test_exit_two_budget_exceeded():
    code, out = runj("k0", "--input", FX2, "--dim-bound", "4",
                     "--budget", "10")
    assert code == 2
    assert out["error"]["type"] == "budget"


def test_text_format_renders_sequences():
    code, text = run("factor", "--input", FX2, "--map", "socle",
                     "--format", "text")
    assert code == 0
    rows = [ln for ln in text.splitlines() if "0 -> " in ln]
    assert len(rows) == 2
    # columns are aligned across rows
    arrows = [[i for i, ch in enumerate(ln) if ch == ">"] for ln in rows]
    assert arrows[0] == arrows[1]


def test_json_reports_end_with_newline_and_sorted_keys():
    _, text = run("weq", "--input", FX2, "--map", "mul_x")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
