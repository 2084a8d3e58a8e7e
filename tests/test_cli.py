"""CLI dispatch, reports, exit codes and determinism."""

from __future__ import annotations

import json

import pytest

from ggtkit.cli import run
from ggtkit.groups import heisenberg_group


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_dims_payload(capsys):
    code, out, _ = run_cli(capsys, ["homology", "--group", "Z2", "--nmax", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["results"]["hochschild"]["total"] == [2, 0, 0]
    assert payload["results"]["cyclic"]["total"] == [2, 0, 2]
    assert payload["results"]["identities"]["b2b3"] == "0"


def test_bounds_eval_payload(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "eval", "--k", "1", "--delta", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["n_tilde"] == pytest.approx(15.67629, abs=1e-4)
    assert payload["results"]["epsilon"] == pytest.approx(51420.2014, abs=1e-3)
    assert payload["warnings"]


def test_conj_solve_auto_picks_nilpotent(capsys):
    heis = json.dumps(heisenberg_group().to_dict())
    code, out, _ = run_cli(
        capsys, ["conj", "solve", "--group", heis, "--u", "1,0|0", "--v", "1,0|5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["solver"] == "nilpotent"
    assert payload["results"]["status"] == "conjugate"
    assert payload["results"]["witness"] == "0,5|0"


def test_not_conjugate_is_success_not_error(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conj", "solve", "--group", '{"type":"free","rank":2}', "--u", "a", "--v", "b"],
    )
    assert code == 0
    assert json.loads(out)["results"]["status"] == "not_conjugate"


def test_malformed_group_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "two_step_nilpotent", "m": 2, "n": 1}')
    code, out, err = run_cli(capsys, ["ball", "--group", str(bad), "--radius", "1"])
    assert code == 2
    assert "C" in err  # names the missing field


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run_cli(capsys, ["ball", "--group", "NOPE", "--radius", "1"])
    assert code == 2
    assert "NOPE" in err


def test_ball_cap_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        ["ball", "--group", '{"type":"free","rank":2}', "--radius", "6", "--cap-ball", "40"],
    )
    assert code == 3


def test_profile_csv_schema(capsys, tmp_path):
    csv_path = tmp_path / "records.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "profile",
            "--group",
            '{"type":"free_abelian","rank":2}',
            "--radius",
            "2",
            "--csv",
            str(csv_path),
        ],
    )
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "input_length,u,v,min_conj_length,class_rep"
    assert json.loads(out)["results"]["fit_degree"] == 0


def test_reports_byte_identical_across_runs(capsys):
    battery = [
        ["ball", "--group", '{"type":"free","rank":2}', "--radius", "3"],
        ["graph", "--group", '{"type":"free_abelian","rank":2}', "--radius", "2"],
        ["delta", "--group", '{"type":"free","rank":2}', "--radius", "2", "--seed", "7"],
        ["coned", "--group", '{"type":"free","rank":2}', "--radius", "3", "--cone", "cyclic:a"],
        ["bounds", "eval", "--k", "2", "--delta", "1/2"],
        ["rd", "check", "--group", '{"type":"free","rank":2}', "--trials", "25", "--f", "(1+x)^2"],
        ["homology", "--group", "Z3", "--split"],
        ["profile", "--group", '{"type":"free_abelian","rank":2}', "--radius", "2"],
    ]
    outputs = []
    for _ in range(2):
        blob = []
        for argv in battery:
            code, out, _ = run_cli(capsys, argv)
            assert code == 0, argv
            blob.append(out)
        outputs.append("".join(blob))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "group,radius,cone",
    [
        ('{"type":"free_product","factors":[{"type":"free_abelian","rank":2},'
         '{"type":"free_abelian","rank":1}]}', "2", "cyclic:0:1,0"),
        ('{"type":"free_product","factors":["Z2","Z3"]}', "3", "cyclic:0:g*1:g"),
    ],
    ids=["factor", "product"],
)
def test_free_product_cyclic_cones_exit_0(capsys, group, radius, cone):
    code, out, _ = run_cli(capsys, ["coned", "--group", group, "--radius", radius, "--cone", cone])
    assert code == 0
    assert json.loads(out)["results"]["cosets_per_factor"]


def test_delta_exhaustive_report_has_no_bound_label(capsys):
    code, out, _ = run_cli(
        capsys, ["delta", "--group", '{"type":"free","rank":2}', "--radius", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["mode"] == "exhaustive"
    assert payload["results"]["delta"] == "0"
    assert "lower_bound" not in payload["results"]


def test_delta_sampled_report_is_labelled_a_lower_bound(capsys):
    # 221 vertices; the largest biconnected block has 217, above
    # DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP
    code, out, _ = run_cli(
        capsys,
        ["delta", "--group", '{"type":"free_abelian","rank":2}', "--radius", "10",
         "--sample-vertices", "24"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["mode"] == "sampled"
    assert payload["results"]["vertices"] == 221
    assert payload["results"]["lower_bound"] is True


def test_delta_is_exhaustive_when_every_block_fits_the_cap(capsys):
    # F2 r=5: 485 vertices, but a tree, so every block is one edge
    code, out, _ = run_cli(
        capsys, ["delta", "--group", '{"type":"free","rank":2}', "--radius", "5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["mode"] == "exhaustive"
    assert payload["results"] == {"delta": "0", "vertices": 485}


def test_timing_only_with_flag(capsys):
    _, out, err = run_cli(capsys, ["bounds", "eval", "--k", "1"])
    assert "wall_time_s" not in json.loads(out)
    assert "wall_time_s" in err
    _, out, _ = run_cli(capsys, ["bounds", "eval", "--k", "1", "--timing"])
    assert "wall_time_s" in json.loads(out)
