"""CLI dispatch, reports, exit codes and determinism."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from ggtkit.cayley import ball
from ggtkit.cli import SOLVERS, _load_group, run
from ggtkit.conjugacy import conjugacy_entry
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


def test_runs_in_one_process_share_no_parsed_values(capsys):
    # the parser is built once per process; a repeatable flag's values
    # from one run must not reach the next
    argv = ["bounds", "theorem", "--lu", "2", "--lv", "3"]
    reports = [run_cli(capsys, argv + extra)[1] for extra in (["--q", "x", "--q", "x"], [], [])]
    assert [json.loads(out)["inputs"]["q"] for out in reports] == [["x", "x"], [], []]
    assert reports[1] == reports[2]


def test_bounds_eval_payload(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "eval", "--k", "1", "--delta", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["n_tilde"] == pytest.approx(15.67629, abs=1e-4)
    assert payload["results"]["epsilon"] == pytest.approx(51420.2014, abs=1e-3)
    assert payload["warnings"]


def test_conj_solve_nilpotent_search_past_cap_exits_3(capsys, monkeypatch):
    from ggtkit import conjugacy

    monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", 1000)
    heis = '{"type":"two_step_nilpotent","m":2,"n":1,"C":[[[0],[-1]],[[1],[0]]]}'
    code, out, err = run_cli(capsys, ["conj", "solve", "--group", heis, "--u", "1,0|0", "--v", "1,0|64"])
    assert (code, out) == (3, "")
    assert "resource cap: nilpotent conjugator search" in err


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


def test_basis_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, ["homology", "--group", "S3", "--nmax", "3", "--cap-basis", "100"])
    assert code == 3
    assert "resource cap" in err


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


@pytest.mark.parametrize("index", ["5", "2", "-1", "x", ""])
def test_factor_cone_index_outside_the_product_exits_2(capsys, index):
    group = '{"type":"free_product","factors":["Z2","Z3"]}'
    code, out, err = run_cli(
        capsys, ["coned", "--group", group, "--radius", "2", "--cone", f"factor:{index}"]
    )
    assert (code, out) == (2, "")
    assert err == f"ggtkit: config error: factor index {index!r} must be an integer in [0, 2)\n"


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


def test_graph_labels_a_sampled_delta_a_lower_bound(capsys):
    group = '{"type":"free_abelian","rank":2}'
    code, out, _ = run_cli(capsys, ["graph", "--group", group, "--radius", "10"])
    assert code == 0
    graph = json.loads(out)["results"]
    code, out, _ = run_cli(capsys, ["delta", "--group", group, "--radius", "10"])
    assert code == 0
    delta = json.loads(out)
    assert delta["inputs"]["mode"] == "sampled"
    assert graph["delta_estimate"] == delta["results"]["delta"]
    assert graph["lower_bound"] is True


@pytest.mark.parametrize("extra", [[], ["--no-delta"]], ids=["exact", "no-delta"])
def test_graph_without_a_sampled_delta_has_no_bound_label(capsys, extra):
    code, out, _ = run_cli(capsys, ["graph", "--group", "Z6", "--radius", "6"] + extra)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["delta_estimate"] == (None if extra else "1")
    assert "lower_bound" not in results


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


# -- per-subcommand flag sets --------------------------------------------------

# A small run of each subcommand, and the flags shared between subcommands
# that it reads besides --group.
BASE_ARGV = {
    "ball": ["ball", "--group", "Z2", "--radius", "1"],
    "graph": ["graph", "--group", "Z3", "--radius", "1"],
    "delta": ["delta", "--group", "Z3", "--radius", "1"],
    "coned": ["coned", "--group", '{"type":"free","rank":2}', "--radius", "1", "--cone", "cyclic:a"],
    "bounds eval": ["bounds", "eval", "--k", "1"],
    "bounds theorem": ["bounds", "theorem", "--lu", "2", "--lv", "3"],
    "conj solve": ["conj", "solve", "--group", "Z3", "--u", "1", "--v", "1"],
    "rd check": ["rd", "check", "--group", "Z2", "--trials", "2"],
    "homology": ["homology", "--group", "Z2", "--nmax", "1"],
    "profile": ["profile", "--group", "Z2", "--radius", "1"],
}
KEPT_FLAGS = {
    "ball": ["--timing", "--cap-ball"],
    "graph": ["--timing", "--cap-ball", "--seed"],
    "delta": ["--timing", "--cap-ball", "--seed"],
    "coned": ["--timing", "--cap-ball"],
    "bounds eval": ["--timing"],
    "bounds theorem": ["--timing"],
    "conj solve": ["--timing", "--cap-ball"],
    "rd check": ["--timing", "--cap-ball", "--seed"],
    "homology": ["--timing", "--cap-basis"],
    "profile": ["--timing", "--cap-ball"],
}
FLAG_ARGS = {
    "--group": ["--group", "Z2"],
    "--cap-ball": ["--cap-ball", "1000"],
    "--cap-basis": ["--cap-basis", "1000"],
    "--seed": ["--seed", "3"],
    "--timing": ["--timing"],
}
REMOVED = [
    (cmd, flag)
    for cmd, argv in BASE_ARGV.items()
    for flag in FLAG_ARGS
    if flag not in KEPT_FLAGS[cmd] and flag not in argv
]
KEPT = [(cmd, flag) for cmd, flags in KEPT_FLAGS.items() for flag in flags]


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code


@pytest.mark.parametrize("cmd,flag", REMOVED, ids=[f"{c}-{f}" for c, f in REMOVED])
def test_flag_a_subcommand_does_not_read_exits_2(capsys, cmd, flag):
    assert _exit_code(BASE_ARGV[cmd] + FLAG_ARGS[flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag", KEPT, ids=[f"{c}-{f}" for c, f in KEPT])
def test_kept_flag_runs(capsys, cmd, flag):
    code, out, _ = run_cli(capsys, BASE_ARGV[cmd] + FLAG_ARGS[flag])
    assert code == 0
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("cmd", [c for c, argv in BASE_ARGV.items() if "--group" in argv])
def test_group_is_required(capsys, cmd):
    argv = BASE_ARGV[cmd]
    i = argv.index("--group")
    assert _exit_code(argv[:i] + argv[i + 2:]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        BASE_ARGV["ball"] + ["--cap-ball", "0"],
        BASE_ARGV["ball"] + ["--cap-ball", "-5"],
        BASE_ARGV["ball"] + ["--cap-ball", "ten"],
        BASE_ARGV["homology"] + ["--cap-basis", "0"],
        ["profile", "--group", "Z6", "--radius", "1", "--solver", "xyz"],
        BASE_ARGV["delta"] + ["--sample-vertices", "-4"],
        BASE_ARGV["rd check"] + ["--trials", "-1"],
    ],
    ids=[
        "cap-ball-0", "cap-ball-negative", "cap-ball-text", "cap-basis-0", "profile-solver-xyz",
        "sample-vertices-negative", "trials-negative",
    ],
)
def test_bad_flag_value_exits_2(argv):
    assert _exit_code(argv) == 2


Z2_Z3 = '{"type":"free_product","factors":["Z2","Z3"]}'
# argv -> the texts that its error line must name
MALFORMED = {
    **{(*BASE_ARGV["rd check"], "--f", text): [text] for text in ["(1+x)^y", "x+", "(1+x)junk", "2^xy"]},
    **{(*BASE_ARGV["bounds theorem"], "--c", text): [text] for text in ["abc", "((1+x)^2", "1/0"]},
    (*BASE_ARGV["bounds theorem"], "--q", "x+"): ["x+"],
    **{
        (*argv, flag, text): [flag, text]
        for text in ["x", "1/0", "inf", "nan"]
        for argv, flag in [
            (["bounds", "eval"], "--k"),
            (["bounds", "theorem", "--lv", "3"], "--lu"),
            (["bounds", "theorem", "--lu", "2"], "--lv"),
            *[(BASE_ARGV["bounds eval"], flag) for flag in
              ["--delta", "--L", "--M", "--C", "--Mball", "--Kaxis", "--Kh", "--dtrans"]],
        ]
    },
    ("coned", "--group", Z2_Z3, "--radius", "2", "--cone", "cyclic:x:g"): ["'x'"],
    ("coned", "--group", Z2_Z3, "--radius", "2", "--cone", "factor:0", "--pair", "x:g", "e"): ["'x'"],
    ("conj", "solve", "--group", Z2_Z3, "--v", "1:g", "--u", "0:g*x:g"): ["'x'"],
    **{
        ("ball", "--group", spec, "--radius", "1"): named
        for spec, named in [
            ('{"type":"free","rank":"x"}', ["'free'", "'rank'"]),
            ('{"type":"free","rank":[1]}', ["'free'", "'rank'"]),
            ('{"type":"free","rank":2.5}', ["'free'", "'rank'"]),
            ('{"type":"free","rank":true}', ["'free'", "'rank'"]),
            ('{"type":"free_abelian","rank":"2"}', ["'free_abelian'", "'rank'"]),
            ('{"type":"two_step_nilpotent","m":false,"n":1,"C":[[[0]]]}', ["'two_step_nilpotent'", "'m'"]),
            ('{"type":"two_step_nilpotent","m":1,"n":1,"C":5}', ["'two_step_nilpotent'", "'C'"]),
            ('{"type":"two_step_nilpotent","m":1,"n":1,"C":[5]}', ["'two_step_nilpotent'", "'C'"]),
            ('{"type":"finite","table":5}', ["'finite'", "'table'"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"names":5}', ["'finite'", "'names'"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"generators":5}', ["'finite'", "'generators'"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"generators":["a"]}', ["generators"]),
            # spec integers are never truncated or converted
            ('{"type":"two_step_nilpotent","m":2,"n":1,"C":[[[0],[-1.7]],[[1.2],[0]]]}',
             ["structure constant"]),
            ('{"type":"two_step_nilpotent","m":2,"n":1,"C":[[[0],["-1"]],[[1],[0]]]}',
             ["structure constant"]),
            ('{"type":"finite","table":[[0,true],[true,0]]}', ["table row"]),
            ('{"type":"finite","table":[[0,1],[1,0.0]]}', ["table row"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"generators":[1.0]}', ["generators"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"names":[1,2]}', ["names"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"names":["e","e"]}', ["names"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"names":["e"," x"]}', ["names"]),
            ('{"type":"finite","table":[[0,1],[1,0]],"label":3}', ["label"]),
            ('{"type":"free_product","factors":5}', ["'free_product'", "'factors'"]),
        ]
    },
}


@pytest.mark.parametrize(
    "argv", list(MALFORMED), ids=[a[2] if a[0] == "ball" else " ".join(a[-2:]) for a in MALFORMED]
)
def test_malformed_value_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, list(argv))
    assert (code, out) == (2, "")
    assert err.startswith("ggtkit: config error: ") and "Traceback" not in err
    for text in MALFORMED[argv]:
        assert text in err


@pytest.mark.parametrize(
    "argv",
    [
        BASE_ARGV["bounds theorem"] + ["--c", "-1"],
        BASE_ARGV["bounds theorem"] + ["--q", "(1+x)^-1"],
        ["homology", "--group", "Z2", "--nmax", "0"],
        ["homology", "--group", "Z2", "--nmax", "-1"],
    ],
    ids=["c-negative", "q-negative-exponent", "nmax-zero", "nmax-negative"],
)
def test_value_outside_the_domain_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("ggtkit: error: ")


def test_profile_solver_for_another_model_exits_1(capsys):
    code, _, err = run_cli(capsys, ["profile", "--group", "Z6", "--radius", "1", "--solver", "free"])
    assert code == 1
    assert "does not apply" in err


@pytest.mark.parametrize(
    "group,element,solver",
    [("Z6", "1", "free"), ('{"type":"free","rank":2}', "a", "nilpotent")],
    ids=["free-on-Z6", "nilpotent-on-F2"],
)
def test_misfit_solver_is_one_domain_error(capsys, group, element, solver):
    errors = []
    for argv in (
        ["conj", "solve", "--group", group, "--u", element, "--v", element, "--solver", solver],
        ["profile", "--group", group, "--radius", "1", "--solver", solver],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors[0] == errors[1]
    assert f"solver {solver!r} does not apply" in errors[0]


def test_solver_choices_read_off_the_table():
    assert SOLVERS == ["auto", "brute", "free", "nilpotent"]


GROUP_PER_CLASS = [
    '{"type":"free","rank":2}',
    '{"type":"free_abelian","rank":2}',
    json.dumps(heisenberg_group().to_dict()),
    "Z2",
    '{"type":"free_product","factors":["Z2","Z3"]}',
]


def test_negative_search_radius_is_one_domain_error(capsys):
    # 2 * radius + slack < 0: every model class fails alike, before any
    # class-specific path (the free path builds no search ball)
    errors = []
    for group in GROUP_PER_CLASS:
        code, out, err = run_cli(capsys, ["profile", "--group", group, "--radius", "1", "--slack", "-5"])
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == ["ggtkit: error: radius must be >= 0\n"] * len(GROUP_PER_CLASS)


def test_negative_conj_solve_radius_is_one_domain_error(capsys):
    # u = v, a pair with unequal keys and a conjugate pair u != v (Z^2 and
    # Z2 have none), under the model's own solver and the ball scan: every
    # one fails alike, before any shortcut
    for group in GROUP_PER_CLASS:
        model = _load_group(group)
        key = conjugacy_entry(model).key
        elems = ball(model, 3).elements
        u = elems[1]
        pairs = [(u, u), next((u, v) for v in elems if key(model, v) != key(model, u))]
        pairs += [(u, v) for v in elems if v != u and key(model, v) == key(model, u)][:1]
        for a, b in pairs:
            for solver in ("auto", "brute"):
                argv = ["conj", "solve", "--group", group, "--u", model.element_str(a),
                        "--v", model.element_str(b), "--solver", solver, "--radius", "-1"]
                assert run_cli(capsys, argv) == (1, "", "ggtkit: error: radius must be >= 0\n")


# Exit code, stdout and (on failure) stderr of `conj solve` and `profile`
# over all five model classes, recorded before the conjugacy table replaced
# the per-class branches.  The intended changes since: `profile` on F2 at
# radius 1, slack -5 exits 1 (it exited 0 with 5 unknown pairs); `conj
# solve --solver brute` refutes every pair with unequal complete keys, with
# no search radius and the one certificate "the conjugacy keys differ"
# (entries 8, 11 and 12 had per-class texts; entry 16, Z2*Z3 `0:g` vs
# `1:g`, was unknown); and free-product profiles (entries 30, 32 and 39)
# have keys, so they carry no "no exact solver" warning.  The last entry,
# `conj solve --solver nilpotent` on an m=3, n=1 group whose central
# system has a rank-2 kernel, pins the brute-force minimum `0,0,-1|0`
# (length 1).
GOLDEN = json.loads((Path(__file__).parent / "golden_conj_profile.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_golden_replay(capsys, case):
    code, out, err = run_cli(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    if code:
        assert err == case["stderr"]


# Exit code, stdout, stderr (on failure) and `--csv` edge list of `coned`
# over cyclic cones on all five model classes and factor cones on free
# products, recorded while only free-group cyclic subgroups had a coset key
# and every other cone took the generic coset scan.
GOLDEN_CONED = json.loads((Path(__file__).parent / "golden_coned.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_CONED, ids=[f"{i}-{c['argv'][6]}" for i, c in enumerate(GOLDEN_CONED)]
)
def test_golden_coned_replay(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    if code:
        assert err == case["stderr"]
    csv_path = tmp_path / "edges.csv"
    assert (csv_path.read_text() if csv_path.exists() else None) == case["csv"]


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("ggtkit ")]


README_LINES = _readme_cli_lines()


def test_readme_cli_block_found():
    assert len(README_LINES) == 11


@pytest.mark.parametrize("line", README_LINES, ids=[" ".join(line.split()[1:3]) for line in README_LINES])
def test_readme_cli_line_exits_0(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, shlex.split(line)[1:])
    assert code == 0, err
    json.loads(out)


def _readme_library_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments(capsys):
    # every print line of the example ends in "# <what it prints>"
    block = _readme_library_block()
    want = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 6
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
