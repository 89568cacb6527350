import dataclasses
import json
from pathlib import Path

import pytest

from helly_topo import polygon_draws, transversal_plane
from helly_topo.cli import THEOREM_TAGS, build_parser, main
from helly_topo.errors import GenerationFailure
from helly_topo.helly_engine import THEOREMS
from helly_topo.transversal_plane import TRANSVERSALS


@pytest.fixture
def family_file(tmp_path):
    data = {
        "ambient": [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        "embedding_dim": 2,
        "members": [
            {"label": "A1", "simplices": [[0, 1, 2], [1, 2, 3]]},
            {"label": "A2", "simplices": [[1, 2, 3], [2, 3, 4]]},
            {"label": "A3", "simplices": [[2, 3, 4]]},
        ],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def disjoint_family_file(tmp_path):
    data = {
        "ambient": [[0, 1, 2], [3, 4, 5]],
        "embedding_dim": 2,
        "members": [
            {"label": "A1", "simplices": [[0, 1, 2]]},
            {"label": "A2", "simplices": [[3, 4, 5]]},
        ],
    }
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def polygon_file(tmp_path):
    data = {
        "members": [
            {"label": "P1", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            {"label": "P2", "vertices": [[5, 0], [6, 0], [6, 1], [5, 1]]},
        ]
    }
    path = tmp_path / "polys.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_homology_command(family_file, capsys):
    code, out = run(["homology", "--in", family_file, "--member", "A1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "helly-topo"
    assert report["command"] == "homology"
    assert report["result"]["betti"] == {"0": 0, "1": 0, "2": 0}
    assert "convention" in report


def test_homology_requires_member_for_multimember(family_file, capsys):
    code, _ = run(["homology", "--in", family_file], capsys)
    assert code == 3


def test_verify_helly_exit_zero(family_file, capsys):
    code, out = run(["verify", "helly", "--in", family_file, "--d", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["theorem"] == "helly"
    assert report["result"]["hypotheses_hold"] is True
    assert report["result"]["conclusion_holds"] is True


def test_verify_helly_below_d_plus_1_members_exits_three(disjoint_family_file, capsys):
    code = main(["verify", "helly", "--in", disjoint_family_file, "--d", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "input error: family size must be >= 3\n"
    code = main(["sweep", "--theorem", "helly", "--m", "2", "--trials", "3", "--growth", "12"])
    assert code == 3
    assert capsys.readouterr().err == "input error: family size must be >= 3\n"


def _stopped_at_d(row):
    """``row`` with the sizes of its one hypothesis block stopping at d,
    the `_sizes_to_d_plus_1` mutant."""
    ((kind, _, degree),) = row.hypotheses
    stop_at_d = ((kind, lambda m, p: range(1, min(p, m) + 1), degree),)
    return dataclasses.replace(row, hypotheses=stop_at_d)


def test_tight_helly_instance_fails_only_its_d_plus_1_block(monkeypatch, capsys):
    # three 6-cell arcs of the 12-cell ring around the central 2x2 hole of
    # grid_complex(6): every proper subfamily meets in a disk, the triple
    # is empty.  Only the size-(d+1) block tells this from a violation.
    argv = ["verify", "helly", "--in", str(Path(__file__).parent / "helly_ring_arcs.json"),
            "--d", "2"]
    code, out = run(argv, capsys)
    result = json.loads(out)["result"]
    assert code == 2 and not result["conclusion_holds"]
    failed = [e for e in result["ledger"]["entries"] if e["status"] != "pass"]
    assert [(e["indices"], e["degree"], e["status"]) for e in failed] == [([0, 1, 2], -1, "fail")]
    monkeypatch.setitem(THEOREMS, "helly", _stopped_at_d(THEOREMS["helly"]))
    assert run(argv, capsys)[0] == 1


def test_sweep_tallies_a_planted_violation(monkeypatch, capsys):
    # breen with its union blocks stopped at size d: three members whose
    # union wraps a hole and that share no point then pass every
    # hypothesis, and the sweep must tally them as a violation
    monkeypatch.setitem(THEOREMS, "breen", _stopped_at_d(THEOREMS["breen"]))
    code = main(["sweep", "--theorem", "breen", "--grid", "8", "--m", "3", "--growth", "20",
                 "--trials", "200", "--seed", "5"])
    captured = capsys.readouterr()
    counts = json.loads(captured.out)["result"]["counts"]
    assert code == 1
    assert counts["conclusion_violated"] >= 1
    assert counts["hypotheses_satisfied"] == counts["conclusion_held"] + counts["conclusion_violated"]
    assert captured.err == (f"breen sweep: {counts['hypotheses_satisfied']}/200 satisfied, "
                            f"{counts['conclusion_violated']} violations\n")


def test_sweep_generation_failure_exits_one(monkeypatch, capsys):
    def fail(m, seed, jitter):
        raise GenerationFailure("could not place member 1 of a stabbed family")

    monkeypatch.setattr(transversal_plane, "random_stabbed_family", fail)
    code = main(["sweep", "--theorem", "thm-321", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("generation failure:")


def test_lemma_sweep_generation_failure_exits_one(monkeypatch, capsys):
    # random_disjoint_pair gives up when none of its draws is disjoint
    monkeypatch.setattr(polygon_draws, "polygons_disjoint", lambda a, b: False)
    code = main(["sweep", "--theorem", "lemma-312", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("generation failure:")


def _surface_file(tmp_path, triangles, declared):
    """A closed surface as ambient, its triangles as members."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({
        "ambient": triangles,
        "embedding_dim": declared,
        "members": [{"label": f"A{i + 1}", "simplices": [t]} for i, t in enumerate(triangles)],
    }))
    return str(path)


SPHERE = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
RP2 = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
       [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]


@pytest.mark.parametrize("theorem", ["helly", "breen"])
@pytest.mark.parametrize("triangles, field, false", [
    (SPHERE, "gf2", True),
    (SPHERE, "q", True),
    (RP2, "gf2", True),  # RP^2 has a 2-cycle mod 2 only
    (RP2, "q", False),
], ids=["sphere-gf2", "sphere-q", "rp2-gf2", "rp2-q"])
def test_verify_rejects_a_false_embedding_dim(tmp_path, capsys, theorem, triangles, field, false):
    # a surface's fundamental cycle is homology of a subcomplex in degree 2,
    # so an embedding dimension of 2 is false wherever the cycle exists
    argv = ["verify", theorem, "--field", field, "--in", _surface_file(tmp_path, triangles, 2)]
    code = main([*argv, "--d", "2"])
    captured = capsys.readouterr()
    if false:
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "input error: ambient declared embedding dimension 2 is false: the ambient "
            f"has a nonzero 2-cycle over {field}\n"
        )
    else:
        assert code in (0, 2)
        assert json.loads(captured.out)["result"]["theorem"] == theorem
    # declared 3, the surface runs at d = 3
    argv[-1] = _surface_file(tmp_path, triangles, 3)
    code, out = run([*argv, "--d", "3"], capsys)
    assert code in (0, 2)
    assert json.loads(out)["params"]["d"] == 3


def test_sphere_declared_three_fails_its_hypotheses_at_d_three(tmp_path, capsys):
    # at d = 3 the four faces' intersection must be nonempty (helly) and
    # their union, the sphere, must have b_2 = 0 (breen): both fail
    path = _surface_file(tmp_path, SPHERE, 3)
    for theorem, failed in (("helly", {"j": 4, "degree": -1}), ("breen", {"j": 4, "degree": 2})):
        code, out = run(["verify", theorem, "--in", path, "--d", "3"], capsys)
        assert code == 2
        entries = json.loads(out)["result"]["ledger"]["entries"]
        assert [{"j": e["j"], "degree": e["degree"]} for e in entries
                if e["status"] == "fail"] == [failed]


def test_verify_exit_two_on_failed_hypotheses(disjoint_family_file, capsys):
    code, out = run(["verify", "sigma", "--in", disjoint_family_file], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["result"]["hypotheses_hold"] is False


def test_verify_rational_field_flag(family_file, capsys):
    code, out = run(["verify", "prop-a", "--in", family_file, "--field", "q"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["field"] == "q"


def test_verify_lemma_312(polygon_file, capsys):
    code, out = run(["verify", "lemma-312", "--in", polygon_file], capsys)
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_missing_input_file_exits_three(capsys):
    code, _ = run(["verify", "sigma", "--in", "/nonexistent/fam.json"], capsys)
    assert code == 3


def test_invalid_json_exits_three(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _ = run(["verify", "sigma", "--in", str(path)], capsys)
    assert code == 3


@pytest.mark.parametrize("argv, kind", [
    (["verify", "helly"], "family"),
    (["homology"], "family"),
    (["verify", "thm-321"], "polygon"),
    (["transversal", "components"], "polygon"),
])
def test_non_utf8_input_exits_three(tmp_path, capsys, argv, kind):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {kind} file is not valid UTF-8: ")


def test_sweep_byte_identical(capsys):
    argv = ["sweep", "--theorem", "sigma", "--grid", "8", "--m", "3",
            "--growth", "25", "--trials", "15", "--seed", "42"]
    code1, out1 = run(argv, capsys)
    code2, out2 = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"]["counts"]["total"] == 15
    assert report["result"]["counts"]["conclusion_violated"] == 0


def test_sweep_transversal_tag(capsys):
    code, out = run(["sweep", "--theorem", "lemma-311", "--trials", "5", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["counts"]["conclusion_held"] == 5


def test_transversal_components(polygon_file, capsys):
    code, out = run(
        ["transversal", "components", "--in", polygon_file, "--resolution", "2048"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["exact"]["component_count"] == 1
    assert report["result"]["counts_agree"] is True


def test_transversal_profile(polygon_file, capsys):
    code, out = run(["transversal", "profile", "--in", polygon_file], capsys)
    assert code == 0
    report = json.loads(out)
    panels = report["result"]["panels"]
    assert panels and all("upper" in p and "lower" in p for p in panels)
    assert report["result"]["identification"] == "(theta, p) ~ (theta + pi, -p)"


def test_out_flag_writes_file(family_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(
        ["verify", "helly", "--in", family_file, "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["result"]["conclusion_holds"] is True


def test_seed_is_echoed_in_sweep(capsys):
    code, out = run(["sweep", "--theorem", "sigma", "--grid", "8", "--m", "2",
                     "--growth", "20", "--trials", "5", "--seed", "77"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["seed"] == 77


@pytest.mark.parametrize(
    "change",
    [
        {"ambient": 5},
        {"members": [{"label": "A1", "simplices": 7}]},
        {"members": [{"label": "A1", "simplices": [3]}]},
        {"embedding_dim": True},
    ],
    ids=["int-ambient", "int-simplices", "bare-int-simplex", "bool-embedding-dim"],
)
def test_malformed_family_file_exits_three(tmp_path, capsys, change):
    # a one-dimensional family, so that a bool embedding_dim read as 1 would load
    data = {
        "ambient": [[0, 1], [1, 2]],
        "embedding_dim": 1,
        "members": [{"label": "A1", "simplices": [[0, 1]]}],
    }
    data.update(change)
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(data))
    code, _ = run(["homology", "--in", str(path), "--member", "A1"], capsys)
    assert code == 3


_FAMILY = {
    "ambient": [[0, 1], [1, 2]],
    "embedding_dim": 1,
    "members": [{"label": "A1", "simplices": [[0, 1]]}],
}


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["homology", "--member", "A1"], "[]", "family file must be a JSON object"),
        (["homology", "--member", "A1"], json.dumps({"ambient": [[0, 1]], "embedding_dim": 1}),
         "family file is missing the 'members' key"),
        (["homology", "--member", "A1"], json.dumps({**_FAMILY, "ambient": [[0, 0]]}),
         "bad ambient complex: duplicate vertex inside simplex [0, 0]"),
        (["homology", "--member", "A1"], json.dumps({**_FAMILY, "members": {}}),
         "members must be a list"),
        (["homology", "--member", "A1"], json.dumps({**_FAMILY, "members": [7]}),
         "member #0 must be an object with 'label' and 'simplices'"),
        (["homology", "--member", "A1"],
         json.dumps({**_FAMILY, "members": [{"label": 1, "simplices": [[0, 1]]}]}),
         "member #0 label must be a string"),
        (["homology", "--member", "A1"],
         json.dumps({**_FAMILY, "members": [{"label": "A1", "simplices": [[0, 0]]}]}),
         "member 'A1': duplicate vertex inside simplex [0, 0]"),
        (["homology", "--member", "B1"], json.dumps(_FAMILY), "no member labeled 'B1'"),
        (["transversal", "components"], "",
         "polygon file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (["transversal", "components"], json.dumps({"members": [7]}),
         "member #0 must be an object with 'label' and 'vertices'"),
        (["transversal", "components"],
         json.dumps({"members": [{"label": 1, "vertices": [[0, 0], [1, 0], [0, 1]]}]}),
         "member #0 label must be a string"),
        (["homology", "--member", "A1"], json.dumps({**_FAMILY, "members": []}),
         "family file declares zero members"),
        (["transversal", "components"], "[]", "polygon file must be a JSON object"),
        (["transversal", "components"], "{}", "polygon file is missing the 'members' key"),
        (["transversal", "components"], json.dumps({"members": {}}), "members must be a list"),
        (["transversal", "components"], json.dumps({"members": []}),
         "polygon file declares zero members"),
    ],
    ids=["family-not-object", "family-missing-key", "family-bad-ambient", "members-not-list",
         "member-not-object", "member-label-not-string", "member-bad-simplex", "unknown-member",
         "polygons-not-json", "polygon-not-object", "polygon-label-not-string",
         "family-zero-members", "polygon-file-not-object", "polygon-missing-key",
         "polygon-members-not-list", "polygon-zero-members"],
)
def test_input_file_rejections_exit_three(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def _polygon_file(tmp_path, corners):
    """Side-2 squares with the given lower-left corners."""
    data = {
        "members": [
            {"label": f"P{i + 1}", "vertices": [[x, y], [x + 2, y], [x + 2, y + 2], [x, y + 2]]}
            for i, (x, y) in enumerate(corners)
        ]
    }
    path = tmp_path / "polys.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "tag, corners, message",
    [
        ("lemma-311", [(0, 0), (5, 0)],
         "lemma-311 needs a family with exactly 1 member"),
        ("lemma-312", [(0, 0), (5, 0), (10, 0)],
         "lemma-312 needs a family with exactly 2 members"),
        ("lemma-313", [(0, 0), (5, 0)],
         "lemma-313 needs a family with exactly 3 members "
         "(the first two form the disjoint pair)"),
        ("thm-321", [(5 * k, 0) for k in range(5)],
         "the theorem needs a family of at least 6 members"),
        ("lemma-312", [(0, 0), (1, 1)],
         "pair is not separated: the interiors intersect"),
        ("lemma-313", [(0, 0), (1, 1), (5, 0)],
         "designated pair is not disjoint"),
    ],
    ids=["311-two", "312-three", "313-two", "321-five", "312-overlapping",
         "313-overlapping"],
)
def test_verify_transversal_input_errors(tmp_path, capsys, tag, corners, message):
    path = _polygon_file(tmp_path, corners)
    code = main(["verify", tag, "--in", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_theorem_tags_partition_the_two_tables():
    for tag in THEOREM_TAGS:
        assert (tag in THEOREMS) != (tag in TRANSVERSALS), tag
    assert sorted(THEOREM_TAGS) == sorted([*THEOREMS, *TRANSVERSALS])


@pytest.mark.parametrize("argv", [["transversal", "components"], ["verify", "lemma-311"]])
@pytest.mark.parametrize(
    "verts",
    # each would unpack to the triangle (1, 0), (3, 2), (0, 1)
    [["10", "32", "01"], {"10": [0, 0], "32": [0, 0], "01": [0, 0]}],
    ids=["two-character-strings", "object"],
)
def test_polygon_vertices_must_be_coordinate_pairs(tmp_path, capsys, argv, verts):
    path = tmp_path / "polys.json"
    path.write_text(json.dumps({"members": [{"label": "a", "vertices": verts}]}))
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "input error: member 'a': bad vertex list\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transversal", "profile", "--resolution", "100"],
         "--resolution applies to transversal components only"),
        (["sweep", "--theorem", "lemma-311", "--m", "3", "--trials", "1"],
         "lemma-311 has a fixed family size; m does not apply"),
        # the first option the row ignores is named
        (["sweep", "--theorem", "thm-321", "--trials", "3", "--seed", "1", "--field", "q",
          "--grid", "5", "--growth", "9", "--d", "7", "--lambda", "3"],
         "--field does not apply to thm-321"),
        (["sweep", "--theorem", "breen", "--lambda", "3", "--trials", "1"],
         "--lambda does not apply to breen"),
        (["verify", "lemma-311", "--field", "q"], "--field does not apply to lemma-311"),
    ],
    ids=["profile-resolution", "lemma-m", "thm-321-sweep", "breen-lambda", "lemma-field"],
)
def test_options_a_command_ignores_exit_three(polygon_file, capsys, argv, message):
    if argv[0] in ("transversal", "verify"):
        argv = [*argv, "--in", polygon_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


# (option strings, dest, default, choices, type, required) of every argument
# of each subcommand, argparse's own -h/--help left out
FIELDS = ["gf2", "q"]
TAGS = ["breen", "helly", "lemma-311", "lemma-312", "lemma-313", "prop-a", "sigma",
        "thm-321", "thm-b"]
OPTION_TABLE = {
    "homology": [
        (("--in",), "infile", None, None, None, True),
        (("--member",), "member", None, None, None, False),
        (("--field",), "field", "gf2", FIELDS, None, False),
        (("--out",), "out", None, None, None, False),
    ],
    "verify": [
        ((), "theorem", None, TAGS, None, True),
        (("--in",), "infile", None, None, None, True),
        (("--field",), "field", None, FIELDS, None, False),
        (("--d",), "d", None, None, int, False),
        (("--lambda",), "lam", None, None, int, False),
        (("--out",), "out", None, None, None, False),
    ],
    "sweep": [
        (("--theorem",), "theorem", None, TAGS, None, True),
        (("--trials",), "trials", 100, None, int, False),
        (("--seed",), "seed", 0, None, int, False),
        (("--field",), "field", None, FIELDS, None, False),
        (("--grid",), "grid", None, None, int, False),
        (("--m",), "m", None, None, int, False),
        (("--growth",), "growth", None, None, int, False),
        (("--d",), "d", None, None, int, False),
        (("--lambda",), "lam", None, None, int, False),
        (("--out",), "out", None, None, None, False),
    ],
    "transversal": [
        ((), "action", None, ["profile", "components"], None, True),
        (("--in",), "infile", None, None, None, True),
        (("--resolution",), "resolution", None, None, int, False),
        (("--out",), "out", None, None, None, False),
    ],
}


def test_option_table_is_pinned():
    # read from the parser's actions, not --help, whose wording varies
    # across Python versions; a new option must show up in this table
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    table = {
        name: [
            (tuple(a.option_strings), a.dest, a.default, a.choices, a.type, a.required)
            for a in sub._actions if a.dest != "help"
        ]
        for name, sub in commands.items()
    }
    assert table == OPTION_TABLE
