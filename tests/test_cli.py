import json

import pytest

from helly_topo.cli import THEOREM_TAGS, main
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
