import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modglue import cli, gen, morita, serial, suite
from modglue.cstar import algebra, cover
from modglue.cli import main
from modglue.errors import InvalidInputError, ModelViolationError, NotAMorphismError
from modglue.gen import GenConfig
from modglue.glue import descent_identities_check, glue, make_gluing_datum
from modglue.rng import Rng

import oracles
from test_glue import phase_witness

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, env=None):
    """Run the CLI in a child process on the same modglue copy as this one."""
    e = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    e["PYTHONPATH"] = os.pathsep.join(p for p in (src, e.get("PYTHONPATH")) if p)
    if env:
        e.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "modglue.cli", *args],
        capture_output=True, text=True, env=e,
    )
    return proc


class TestSerialization:
    @pytest.mark.parametrize("kind,mode", [
        ("gluing", "coherent"),
        ("gluing", "random_unitary"),
        ("bimodule", "random_unitary"),
        ("module", "coherent"),
    ])
    def test_round_trip_byte_identical(self, kind, mode):
        cfg = GenConfig(seed=88, kind=kind, twist_mode=mode)
        inst = gen.random_instance(cfg)
        blob = serial.canonical_dumps(serial.instance_to_json(inst))
        parsed = serial.parse_instance(json.loads(blob))
        assert blob == serial.canonical_dumps(serial.instance_to_json(parsed))

    def test_matrix_round_trip(self):
        M = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
        back = serial.matrix_from_json(serial.matrix_to_json(M), (2, 2))
        assert np.array_equal(M, back)

    def test_unknown_kind_rejected(self):
        with pytest.raises(serial.FormatError):
            serial.parse_instance({"kind": "nonsense"})

    def test_mirror_transitions_defaulted(self):
        cfg = GenConfig(seed=89, twist_mode="random_unitary")
        D = gen.random_gluing_instance(cfg).datum
        obj = serial.gluing_to_json(D)
        # only i<j entries are stored
        assert all(e["i"] < e["j"] for e in obj["zeta"])
        D2 = serial.gluing_from_json(obj)
        for (i, j, k, M) in D.entries():
            assert np.allclose(D2.zeta_block(i, j, k), M)


#: sha256 of the concatenated `modglue gen --kind K --mode M` files for seeds
#: 0-4 (prescribed_phases with the (1, 1, -1) witness phases).  They pin the
#: random stream and the file format together: a changed draw, draw order or
#: float rendering changes them.  Computed with numpy's OpenBLAS build on
#: x86-64 Linux; another BLAS or libm may change the last bits of a unitary.
GEN_SHA256 = {
    ("gluing", "coherent"): "713a62cbb4b6ebd206ea41a8a9941fd7d881314917ef0a961b5c102a0a970594",
    ("gluing", "random_unitary"): "ba9f76238d88ad45bd5576c42ac835d20aeefd613f83b1f2c5e97e3305e8b137",
    ("gluing", "prescribed_phases"): "41bb7b23073d0127f4213a5cc611599b2060793dc45f60f9605a346278d1c742",
    ("bimodule", "coherent"): "b07b1c5983320723fc4aa2e43f9d4cbc12580b0966d0b8dd8ed5b7ee5207cbe4",
    ("bimodule", "random_unitary"): "0d1823d4eb3af4e88c68874e28d41fe066bd44f98ec449acc12e5d42edb7caf2",
    ("bimodule", "prescribed_phases"): "66896bff6653c895f3a0e1adfa5aea84d782731ec5b5e4ccee16008c91f0d107",
    ("module", "coherent"): "b08d60c0cd2e984e7334ed63bbf9634515a55a2ad60256e873eda1521af2b676",
    ("module", "random_unitary"): "b08d60c0cd2e984e7334ed63bbf9634515a55a2ad60256e873eda1521af2b676",
    ("module", "prescribed_phases"): "287996ea6e29bc3121562f54d71985e1cec9601fba3ebf8a94691a03dead70ad",
}


@pytest.mark.parametrize("kind,mode", list(GEN_SHA256))
def test_gen_output_is_pinned(tmp_path, kind, mode):
    h = hashlib.sha256()
    out = tmp_path / "inst.json"
    for seed in range(5):
        argv = ["gen", "--seed", str(seed), "--kind", kind, "--mode", mode, "--out", str(out)]
        if mode == "prescribed_phases":
            argv += ["--phases", "[[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0], [0, 2, -1.0, 0.0]]"]
        assert main(argv) == 0
        h.update(out.read_bytes())
    assert h.hexdigest() == GEN_SHA256[(kind, mode)]


def overflowing_gluing_file(tmp_path):
    """A generated random-unitary gluing file with every transition scaled by 1e200."""
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--mode", "random_unitary", "--out", str(inst)]) == 0
    obj = json.loads(inst.read_text())
    assert obj["zeta"]
    for e in obj["zeta"]:
        e["matrix"] = [[[1e200 * re, 1e200 * im] for re, im in row] for row in e["matrix"]]
    inst.write_text(json.dumps(obj))
    return inst


def test_glue_refuses_an_overflowing_root_holonomy_stack(tmp_path):
    # the file that every CLI command's validation refuses, taken past it:
    # the products zeta_ab zeta_b0 of glue's root-holonomy stack overflow,
    # and glue refuses the stack
    D = serial.load_instance_file(str(overflowing_gluing_file(tmp_path)))
    with pytest.raises(InvalidInputError, match="root-holonomy stack is not finite"):
        glue(D)


class TestCli:
    def test_gen_validate_glue_pipeline(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "5", "--mode", "coherent", "--out", str(inst)]) == 0
        assert main(["validate", str(inst)]) == 0
        assert main(["glue", str(inst)]) == 0

    def test_twisted_single_block_glue_exits_zero(self, tmp_path):
        inst = tmp_path / "tw.json"
        rep = tmp_path / "rep.jsonl"
        assert main([
            "gen", "--seed", "1", "--mode", "prescribed_phases",
            "--phases", "[[0,1,1,0],[1,2,1,0],[0,2,-1,0]]",
            "--out", str(inst),
        ]) == 0
        assert main(["glue", str(inst), "--out", str(rep)]) == 0
        record = json.loads(rep.read_text().splitlines()[0])
        # the designated block glues to multiplicity zero
        assert record["details"]["glued_mult"][0] == 0
        assert record["details"]["cocycle"] is False

    def test_glue_reports_a_failing_datum(self, tmp_path, capsys):
        # one doubled transition: unitarity residual 3, a glue report, exit 2
        D = gen.random_gluing_instance(GenConfig(seed=6, twist_mode="random_unitary")).datum
        i, j, k, _ = next(D.entries())
        entries = [(a, b, lab, 2.0 * U if (a, b, lab) == (i, j, k) else U)
                   for (a, b, lab, U) in D.entries() if (b, a, lab) != (i, j, k)]
        bad = make_gluing_datum(D.algebra, D.cover, oracles.datum_mult(D), entries)
        inst, rep = tmp_path / "bad.json", tmp_path / "rep.jsonl"
        inst.write_text(serial.canonical_dumps(serial.gluing_to_json(bad)))
        assert main(["glue", str(inst), "--out", str(rep)]) == 2
        records = [json.loads(line) for line in rep.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        residuals = record["details"]["residuals"]
        assert record["check"] == "glue" and record["pass"] is False
        assert abs(residuals["unitary"] - 3.0) < 1e-12
        assert record["max_residual"] == max(
            residuals["unitary"], residuals["identity"], residuals["involutive"])
        assert capsys.readouterr().out.startswith("FAIL glue residual=")

    def test_glue_report_carries_the_rank_margin(self, tmp_path):
        inst, rep = tmp_path / "w.json", tmp_path / "rep.jsonl"
        inst.write_text(serial.canonical_dumps(serial.gluing_to_json(phase_witness(1e-6))))
        assert main(["glue", str(inst), "--out", str(rep)]) == 0
        record = json.loads(rep.read_text())
        expected = glue(phase_witness(1e-6)).rank_margin[0]
        assert record["details"]["rank_margin"] == {"0": list(expected)}
        assert record["details"]["rank_margin"]["0"][1] is None

    def test_validate_bimodule_report_carries_defects_and_rank_margins(self, tmp_path):
        # twist 2 I on a block of dimension 2: defect 3, imprimitivity 3 (4 + 1)
        M = morita.EquivalenceBimodule(algebra((2,)), algebra((1,)),
                                       (2.0 * np.eye(2, dtype=np.complex128),))
        inst, rep = tmp_path / "m.json", tmp_path / "rep.jsonl"
        inst.write_text(serial.canonical_dumps(serial.bimodule_to_json(M)))
        assert main(["validate", str(inst), "--out", str(rep)]) == 2
        record = json.loads(rep.read_text())
        assert record["max_residual"] == 15.0
        assert record["details"] == {
            "unitarity_defect": {"0": 3.0},
            "rank_margin": {"0": list(morita.validate_bimodule(M).rank_margin[0])},
        }
        assert record["details"]["rank_margin"]["0"][1] is None

    @pytest.mark.parametrize("doubled,expected", [("transition", 3.0), ("twist", 15.0)])
    def test_validate_bimodule_datum_reports_its_largest_required_residual(
            self, tmp_path, capsys, doubled, expected):
        # two sets over M_2 / C, identity twists and transition: a doubled
        # transition has unitarity defect 3, a doubled member twist 2 I has
        # imprimitivity 3 (4 + 1) = 15; either fails the report
        left, right, cov = algebra((2,)), algebra((1,)), cover(1, [{0}, {0}])
        eye = np.eye(2, dtype=np.complex128)
        twists = [eye, 2.0 * eye if doubled == "twist" else eye]
        bims = [morita.EquivalenceBimodule(left, right, (u,)) for u in twists]
        W = 2.0 * eye if doubled == "transition" else eye
        D = morita.make_bimodule_datum(left, right, cov, bims, [(0, 1, 0, W)])
        inst, rep = tmp_path / "bd.json", tmp_path / "rep.jsonl"
        inst.write_text(serial.canonical_dumps(serial.bimodule_datum_to_json(D)))
        assert main(["validate", str(inst), "--out", str(rep)]) == 2
        record = json.loads(rep.read_text())
        assert record["pass"] is False
        assert abs(record["max_residual"] - expected) < 1e-12
        assert record["max_residual"] == max(record["details"]["residuals"].values())
        assert capsys.readouterr().out.startswith("FAIL validate_bimodule_datum residual=")

    def test_roundtrip_on_seeds(self):
        assert main(["roundtrip", "--trials", "3"]) == 0

    def test_descent_command(self):
        assert main(["descent", "--seed", "3", "--mode", "random_unitary"]) == 0

    def test_descent_refuses_a_datum_that_fails_its_required_laws(self, tmp_path, capsys):
        # one entry of a transition scaled by 1.01: no longer unitary, so
        # validate and glue fail the datum, and descent fails it the same way
        inst, rep, out = tmp_path / "bad.json", tmp_path / "validate.jsonl", tmp_path / "rep.jsonl"
        assert main(["gen", "--seed", "3", "--mode", "random_unitary", "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        obj["zeta"][0]["matrix"][0][0][0] *= 1.01
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst), "--out", str(rep)]) == cli.EXIT_CHECK_FAILED
        capsys.readouterr()
        assert main(["descent", str(inst), "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out.startswith("FAIL descent_identities residual=")
        validated, record = json.loads(rep.read_text()), json.loads(out.read_text())
        assert record["check"] == "descent_identities" and record["pass"] is False
        assert record["max_residual"] == validated["max_residual"] > record["tol"]
        assert record["details"] == validated["details"]
        assert set(record["details"]) == {"cocycle", "residuals"}

    def test_roundtrip_fails_a_datum_that_fails_its_required_laws(self, tmp_path, capsys):
        # the 1.01-scaled file above: roundtrip validates it first, as
        # validate, glue and descent do, and prints the same failing report
        # with the residuals named instead of running epsilon_iso on it
        inst = tmp_path / "bad.json"
        assert main(["gen", "--seed", "3", "--mode", "random_unitary", "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        obj["zeta"][0]["matrix"][0][0][0] *= 1.01
        inst.write_text(json.dumps(obj))
        records = {}
        for command in ("validate", "glue", "descent", "roundtrip"):
            rep = tmp_path / f"{command}.jsonl"
            assert main([command, str(inst), "--out", str(rep)]) == cli.EXIT_CHECK_FAILED
            records[command] = json.loads(rep.read_text())
        lines = capsys.readouterr().out.splitlines()[-4:]
        assert [line.split(" residual=")[1] for line in lines] == ["3.371e-03 tol=1e-09"] * 4
        assert lines[-1].startswith("FAIL roundtrip_epsilon residual=")
        record = records["roundtrip"]
        assert record["check"] == "roundtrip_epsilon" and record["pass"] is False
        assert record["details"] == records["validate"]["details"]
        assert set(record["details"]) == {"cocycle", "residuals"}

    def test_descent_fail_line_carries_the_judged_coassociativity(self, tmp_path):
        # transition (0, 1) at block 3 turned by e^{i 9e-7}: the cocycle
        # residual 9e-7 is within --tol 1e-6, so the datum counts as coherent
        # and coassoc, not coassoc_glued, is judged against 1e-12
        inst, out = tmp_path / "near.json", tmp_path / "rep.jsonl"
        assert main(["gen", "--seed", "2", "--mode", "coherent", "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        phase = np.exp(1j * 9e-7)
        (e,) = [e for e in obj["zeta"] if (e["i"], e["j"], e["k"]) == (0, 1, 3)]
        e["matrix"] = [[[(phase * complex(*z)).real, (phase * complex(*z)).imag] for z in row]
                       for row in e["matrix"]]
        inst.write_text(json.dumps(obj))
        args = ["descent", str(inst), "--tol", "1e-6", "--out", str(out)]
        assert main(args) == cli.EXIT_CHECK_FAILED
        record = json.loads(out.read_text())
        details = record["details"]
        assert details["tolerances"] == {"counit": 1e-12, "coassoc": 1e-12, "kernel": 1e-6}
        assert details["cocycle_residual"] <= 1e-6 < details["coassoc"]
        assert not record["pass"]
        assert record["max_residual"] == details["coassoc"]

    def test_obstruction_and_morita_glue(self, tmp_path):
        inst = tmp_path / "bd.json"
        assert main([
            "gen", "--seed", "2", "--kind", "bimodule", "--mode", "prescribed_phases",
            "--phases", "[[0,1,1,0],[1,2,1,0],[0,2,-1,0]]",
            "--out", str(inst),
        ]) == 0
        assert main(["obstruction", str(inst)]) == 0
        # twisted datum cannot be glued to a bimodule: check failure
        assert main(["morita-glue", str(inst)]) == 2

    def test_morita_glue_coherent(self, tmp_path):
        inst = tmp_path / "bd.json"
        assert main(["gen", "--seed", "6", "--kind", "bimodule",
                     "--mode", "coherent", "--out", str(inst)]) == 0
        assert main(["morita-glue", str(inst)]) == 0

    def test_picard_conjugate_command(self, tmp_path):
        from modglue import morita
        from modglue.cstar import algebra, cover
        from modglue.rng import Rng

        left, right = algebra((2, 1)), algebra((1, 2))
        cov = cover(2, [{0, 1}, {0}, {0, 1}])
        D = morita.random_bimodule_datum(
            Rng(11), left, right, cov, GenConfig(seed=11, twist_mode="random_unitary")
        )
        Mdat = morita.pull_apart_bimodule(morita.identity_bimodule(left), cov)
        d_file, m_file = tmp_path / "D.json", tmp_path / "M.json"
        d_file.write_text(serial.canonical_dumps(serial.bimodule_datum_to_json(D)))
        m_file.write_text(serial.canonical_dumps(serial.bimodule_datum_to_json(Mdat)))
        out = tmp_path / "out.json"
        assert main(["picard-conjugate", str(d_file), str(m_file), "--out", str(out)]) == 0
        conj = serial.parse_instance(json.loads(out.read_text()))
        assert morita.validate_bimodule_datum(conj).cocycle <= 1e-10

    def test_picard_conjugate_uses_tol_as_given(self, tmp_path, capsys):
        from modglue import morita
        from modglue.cstar import algebra, cover

        # identity twists and transitions: every residual is exactly zero
        A = algebra((2, 1))
        D = morita.pull_apart_bimodule(morita.identity_bimodule(A), cover(2, [{0, 1}, {0}]))
        d_file = tmp_path / "D.json"
        d_file.write_text(serial.canonical_dumps(serial.bimodule_datum_to_json(D)))
        assert main(["picard-conjugate", str(d_file), str(d_file), "--tol", "1e-30"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "PASS picard_conjugate residual=0.000e+00 tol=1e-30"

    @pytest.mark.parametrize("corrupt,what", [
        ("datum", "transition"), ("self_datum", "right-factor transition"),
    ])
    def test_picard_conjugate_names_a_transition_that_is_no_bimodule_map(
            self, tmp_path, capsys, corrupt, what):
        # one unitary transition at pair (1,2), block 1, is made no bimodule
        # map; the command exits 1 naming it, with the oracle's message
        A = algebra((2, 3))
        cov = cover(2, [{0, 1}] * 3)
        data = {
            "datum": morita.random_bimodule_datum(
                Rng(90), A, algebra((1, 2)), cov, GenConfig(seed=90, twist_mode="random_unitary")),
            "self_datum": morita.random_bimodule_datum(
                Rng(91), A, A, cov, GenConfig(seed=91, twist_mode="coherent")),
        }
        bad = data[corrupt]
        bad.nu[1][1, 2] = np.eye(3)[[1, 0, 2]] @ bad.nu[1][1, 2]
        bad.nu[1][2, 1] = bad.nu[1][1, 2].conj().T
        files = []
        for name, D in data.items():
            files.append(tmp_path / f"{name}.json")
            files[-1].write_text(serial.canonical_dumps(serial.bimodule_datum_to_json(D)))
        with pytest.raises(ModelViolationError) as err:
            oracles.matrix_picard_conjugate(data["datum"], data["self_datum"])
        assert str(err.value).startswith(f"{what} (1,2) block 1 is not a bimodule unitary")
        assert main(["picard-conjugate", *map(str, files)]) == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_descent_runs_the_trials_asked_for(self, monkeypatch):
        seen = []

        def check(D, **kwargs):
            seen.append(kwargs["trials"])
            return descent_identities_check(D, **kwargs)

        monkeypatch.setattr(cli, "descent_identities_check", check)
        assert main(["descent", "--seed", "3", "--trials", "120"]) == 0
        assert seen == [120]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["validate", str(bad)]) == 3
        assert main(["validate", str(tmp_path / "missing.json")]) == 3

    def test_pullapart_roundtrip_files(self, tmp_path):
        mod = tmp_path / "mod.json"
        pa = tmp_path / "pa.json"
        assert main(["gen", "--seed", "12", "--kind", "module", "--out", str(mod)]) == 0
        assert main(["pullapart", str(mod), "--out", str(pa)]) == 0
        assert main(["roundtrip", str(mod)]) == 0
        assert main(["roundtrip", str(pa)]) == 0

    def test_rank_ambiguous_datum_exits_4(self, tmp_path, capsys):
        inst = tmp_path / "near.json"
        inst.write_text(serial.canonical_dumps(serial.gluing_to_json(phase_witness(1e-10))))
        for command in ("glue", "roundtrip", "descent"):
            assert main([command, str(inst)]) == cli.EXIT_RANK_AMBIGUOUS == 4
            assert "error: block 0 on cover sets [0, 1, 2]" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NotAMorphismError])
    def test_map_errors_exit_invalid(self, monkeypatch, capsys, error):
        def refuse(args):
            raise error("residual 1.000e+00", residual=1.0)

        monkeypatch.setitem(cli._COMMANDS, "glue", refuse)
        assert main(["glue", "unused.json"]) == cli.EXIT_INVALID
        assert "error: residual" in capsys.readouterr().err

    def test_suite_tol_overrides_every_criterion(self, monkeypatch, tmp_path):
        monkeypatch.setattr(suite, "ALL_CRITERIA", (
            suite.criterion_1_round_trip_phi, suite.criterion_7_degeneracy_witness,
        ))
        rep = tmp_path / "rep.jsonl"
        code = main(["suite", "--trials", "2", "--tol", "1e-30", "--out", str(rep)])
        records = [json.loads(line) for line in rep.read_text().splitlines()]
        assert [r["tol"] for r in records] == [1e-30, 1e-30]
        assert all(r["pass"] == (r["max_residual"] <= 1e-30) for r in records)
        assert code == (0 if all(r["pass"] for r in records) else 2)

    def test_suite_trials_and_tol_default_to_each_criterion(self, monkeypatch):
        monkeypatch.delenv("MODGLUE_TOL", raising=False)
        seen = []

        def criterion(trials=30, tol=1e-10):
            seen.append((trials, tol))
            return serial.Report("stub", True, 0.0, tol, "stub", 0.0)

        monkeypatch.setattr(suite, "ALL_CRITERIA", (criterion,))
        assert main(["suite", "--trials", "200"]) == 0
        assert main(["suite"]) == 0
        assert main(["suite", "--tol", "1e-9"]) == 0
        assert seen == [(200, 1e-10), (30, 1e-10), (30, 1e-9)]

    def test_env_tolerance_override(self, tmp_path):
        inst = tmp_path / "inst.json"
        proc = run_cli(["gen", "--seed", "5", "--mode", "coherent", "--out", str(inst)])
        assert proc.returncode == 0
        # an absurdly small tolerance makes the unitarity validation fail
        proc = run_cli(["validate", str(inst)], env={"MODGLUE_TOL": "1e-30"})
        assert proc.returncode == 2

    def test_report_lines_are_json(self, tmp_path):
        inst = tmp_path / "inst.json"
        rep = tmp_path / "rep.jsonl"
        main(["gen", "--seed", "5", "--mode", "coherent", "--out", str(inst)])
        main(["validate", str(inst), "--out", str(rep)])
        for line in rep.read_text().splitlines():
            record = json.loads(line)
            assert {"check", "pass", "max_residual", "tol", "fingerprint",
                    "wall_time"} <= set(record)
            assert record["pass"] == (record["max_residual"] <= record["tol"])

    def test_report_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = run_cli(["descent", "--seed", "9", "--mode", "coherent", "--out", str(out1)])
        r2 = run_cli(["descent", "--seed", "9", "--mode", "coherent", "--out", str(out2)])
        assert r1.returncode == r2.returncode == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_validate_refuses_nan_entries(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "5", "--mode", "coherent", "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        assert obj["zeta"]
        obj["zeta"][0]["matrix"][0][0] = [float("nan"), 0.0]
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst)]) == cli.EXIT_INVALID

        bim = tmp_path / "bimodule.json"
        obj = serial.bimodule_to_json(morita.identity_bimodule(algebra((2, 1))))
        obj["twist"][0][1][0] = [float("nan"), 0.0]
        bim.write_text(json.dumps(obj))
        assert main(["validate", str(bim)]) == cli.EXIT_INVALID
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key", [("gluing", "zeta"), ("bimodule", "nu")])
    @pytest.mark.parametrize("entry", [[1.0, 0.0, 5.0], [1.0], [True, 0.0], [0.0, False],
                                       "1", None, [[1.0, 0.0]]])
    def test_malformed_complex_entry_exits_parse(self, tmp_path, capsys, kind, key, entry):
        # a complex entry is a list of exactly two numbers, booleans excluded
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "3", "--kind", kind, "--mode", "random_unitary",
                     "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        obj[key][0]["matrix"][0][0] = entry
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst)]) == cli.EXIT_PARSE
        assert "matrix entry (0, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,path,value,name", [
        ("gluing", ("algebra", "blocks", 0), 3.7, "algebra.blocks[0]"),
        ("gluing", ("algebra", "blocks", 0), 3.0, "algebra.blocks[0]"),
        ("gluing", ("cover", "sets", 0, 1), True, "cover.sets[0][1]"),
        ("gluing", ("modules", 0, "mult", 0), "3", "modules[0].mult[0]"),
        ("gluing", ("zeta", 0, "i"), "0", "zeta[0].i"),
        ("gluing", ("zeta", 0, "k"), 0.5, "zeta[0].k"),
        ("module", ("module", "mult", 0), 2.0, "module.mult[0]"),
        ("bimodule", ("left_blocks", 0), 3.9, "left_blocks[0]"),
        ("bimodule", ("nu", 0, "j"), 1.0, "nu[0].j"),
    ])
    def test_non_integer_integer_field_exits_parse(self, tmp_path, capsys, kind, path, value, name):
        # block dims, cover labels, multiplicities and transition keys are
        # JSON integers; 3.7 used to be read as 3, and true and "3" as 1 and 3
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "2", "--kind", kind, "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        field = obj
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst)]) == cli.EXIT_PARSE
        assert f"{name} is {value!r}, not an integer" in capsys.readouterr().err

    def test_integer_entry_beyond_float_range_exits_parse(self, tmp_path, capsys):
        # a JSON integer too large for a float used to escape as a traceback
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "3", "--mode", "random_unitary", "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        obj["zeta"][0]["matrix"][0][0] = [10 ** 400, 0]
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst)]) == cli.EXIT_PARSE
        assert "too large" in capsys.readouterr().err

    def test_overflowing_datum_exit_codes(self, tmp_path):
        # transitions scaled by 1e200: every judged residual is non-finite,
        # so each command's validation refuses the datum
        inst = overflowing_gluing_file(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            for command in ("validate", "glue", "descent", "roundtrip"):
                assert main([command, str(inst)]) == cli.EXIT_INVALID

    @pytest.mark.parametrize("kind,key", [("gluing", "zeta"), ("bimodule", "nu")])
    def test_non_identity_diagonal_transition_exits_invalid(self, tmp_path, capsys, kind, key):
        # both datum kinds refuse a diagonal transition 3 I, far outside
        # DIAGONAL_IDENTITY_TOL of the identity
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "5", "--kind", kind, "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        e = dict(obj[key][0], j=obj[key][0]["i"])
        m = len(e["matrix"])
        e["matrix"] = serial.matrix_to_json(3 * np.eye(m))
        obj[key].append(e)
        inst.write_text(json.dumps(obj))
        assert main(["validate", str(inst)]) == cli.EXIT_INVALID
        assert "diagonal transitions must be the identity" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,command", [("gluing", "zeta", "glue"),
                                                  ("bimodule", "nu", "morita-glue")])
    @pytest.mark.parametrize("field,shift", [("i", -1), ("j", -1), ("i", 1), ("j", 1)])
    def test_out_of_range_transition_set_exits_invalid(self, tmp_path, capsys, kind, key,
                                                       command, field, shift):
        # a copy of a listed transition whose i or j is moved outside
        # 0..num_sets-1; a negative index used to alias a set from the end
        inst = tmp_path / "inst.json"
        assert main(["gen", "--seed", "5", "--kind", kind, "--mode", "random_unitary",
                     "--out", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        n = len(obj["cover"]["sets"])
        e = dict(obj[key][0])
        e[field] += shift * n
        obj[key].append(e)
        inst.write_text(json.dumps(obj))
        for cmd in ("validate", command):
            assert main([cmd, str(inst)]) == cli.EXIT_INVALID
            assert f"names a set outside 0..{n - 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,env", [
        (["validate", "{gluing}", "--tol", "abc"], None),
        (["validate", "{gluing}"], "abc"),
        (["validate", "{gluing}", "--tol", "-1"], None),
        (["validate", "{bimodule}", "--tol", "-1"], None),
        (["validate", "{gluing}", "--tol", "0"], None),
        (["validate", "{gluing}", "--tol", "nan"], None),
        (["glue", "{gluing}"], "inf"),
        (["descent", "--trials", "-3"], None),
        (["roundtrip", "--trials", "-1"], None),
        (["suite", "--trials", "-1"], None),
        (["suite", "--tol", "abc"], None),
        (["gen", "--mode", "prescribed_phases", "--phases", "[[0,9,1,0]]"], None),
    ])
    def test_bad_numbers_exit_invalid(self, tmp_path, monkeypatch, capsys, argv, env):
        files = {}
        for kind in ("gluing", "bimodule"):
            files[kind] = str(tmp_path / f"{kind}.json")
            assert main(["gen", "--seed", "5", "--kind", kind, "--out", files[kind]]) == 0
        capsys.readouterr()
        if env is None:
            monkeypatch.delenv("MODGLUE_TOL", raising=False)
        else:
            monkeypatch.setenv("MODGLUE_TOL", env)
        assert main([a.format(**files) for a in argv]) == cli.EXIT_INVALID
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and not out.out

    @pytest.mark.parametrize("case,commands,message", [
        ("mixed_mult", ("validate", "glue", "descent", "roundtrip"),
         "block 0 has different multiplicities on the cover sets owning it "
         "(set 0: 2, set 1: 1)"),
        ("missing_twist", ("validate", "morita-glue", "obstruction"),
         "bimodule 0 has 1 twists for the 2 blocks of its left algebra"),
        ("extra_twist", ("validate", "morita-glue", "obstruction"),
         "bimodule 0 has 4 twists for the 3 blocks of its left algebra"),
        ("non_unit_phase", ("gen",), "phase (0, 1) must be a unit complex number"),
        ("repeated_phase", ("gen",), "phase (1, 0) joins a pair of sets listed before"),
        ("lone_missing_twist", ("validate",),
         "bimodule has 1 twists for the 2 blocks of its left algebra"),
        ("off_overlap", ("validate", "glue", "descent"),
         "block 1 is not in the overlap of sets 0, 1"),
        ("off_overlap_bimodule", ("validate", "morita-glue", "obstruction"),
         "block 1 is not in the overlap of sets 0, 1"),
        ("fractional_phase_sets", ("gen",),
         "bad --phases: entry 0 is [0.7, 1.9, -1, 0], whose set indices are not both integers"),
        ("boolean_phase_set", ("gen",),
         "bad --phases: entry 0 is [true, 1, -1, 0], whose set indices are not both integers"),
        ("modules_short", ("validate", "glue", "descent"), "modules has 2 entries; the cover has 3 sets"),
        ("modules_long", ("validate", "glue", "descent"), "modules has 4 entries; the cover has 3 sets"),
        ("bimodules_short", ("validate", "morita-glue", "obstruction"),
         "bimodules has 2 entries; the cover has 3 sets"),
        ("bimodules_long", ("validate", "morita-glue", "obstruction"),
         "bimodules has 4 entries; the cover has 3 sets"),
    ])
    def test_refused_inputs_exit_invalid(self, tmp_path, capsys, case, commands, message):
        # each input is refused where it is read, with one error line; a
        # per-set list of the wrong length is a malformed file (exit 3)
        inst = tmp_path / "inst.json"
        if case == "mixed_mult":
            # block 0 has multiplicity 2 in set 0 and 1 in set 1: no
            # transition between them is unitary
            inst.write_text(json.dumps({
                "kind": "gluing", "algebra": {"blocks": [1]}, "cover": {"sets": [[0], [0]]},
                "modules": [{"mult": [2]}, {"mult": [1]}],
                "zeta": [{"i": 0, "j": 1, "k": 0, "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}],
            }))
        elif case.startswith("off_overlap"):
            # entry (0, 1) names block 1, which set 0 does not own; it used
            # to be refused as "label 1 not in algebra"
            one = [[[1.0, 0.0]]]
            obj = {"cover": {"sets": [[0], [0, 1]]},
                   "transitions": [{"i": 0, "j": 1, "k": k, "matrix": one} for k in (0, 1)]}
            if case == "off_overlap":
                obj.update(kind="gluing", algebra={"blocks": [1, 1]},
                           modules=[{"mult": [1]}, {"mult": [1, 1]}], zeta=obj.pop("transitions"))
            else:
                obj.update(kind="bimodule_datum", left_blocks=[1, 1], right_blocks=[1, 1],
                           bimodules=[{"twist": [one]}, {"twist": [one, one]}],
                           nu=obj.pop("transitions"))
            inst.write_text(json.dumps(obj))
        elif case == "lone_missing_twist":
            # a bimodule file alone: no cover set to name
            inst.write_text(json.dumps({
                "kind": "bimodule", "left_blocks": [1, 2], "right_blocks": [1, 1],
                "twist": [[[[1.0, 0.0]]]],
            }))
        elif case.endswith(("_short", "_long")):
            # 3 cover sets at these seeds; a missing entry used to be refused
            # as "list index out of range" and an extra one as "tuple index
            # out of range"
            kind, key, seed = (("bimodule", "bimodules", "0") if case.startswith("bi")
                               else ("gluing", "modules", "2"))
            assert main(["gen", "--kind", kind, "--seed", seed, "--out", str(inst)]) == 0
            obj = json.loads(inst.read_text())
            assert len(obj["cover"]["sets"]) == 3
            if case.endswith("_short"):
                obj[key].pop()
            else:
                obj[key].append(obj[key][0])
            inst.write_text(json.dumps(obj))
        elif case.endswith("twist"):
            # member 0 has two twists at seed 0 and three at seed 3
            seed = 0 if case == "missing_twist" else 3
            assert main(["gen", "--kind", "bimodule", "--seed", str(seed), "--out", str(inst)]) == 0
            obj = json.loads(inst.read_text())
            twist = obj["bimodules"][0]["twist"]
            if case == "extra_twist":
                twist.append(twist[0])
            else:
                twist.pop()
            inst.write_text(json.dumps(obj))
        # 0.7 and true used to be read as set indices 0 and 1
        phases = {"non_unit_phase": "[[0,1,2,0]]", "fractional_phase_sets": "[[0.7,1.9,-1,0]]",
                  "boolean_phase_set": "[[true,1,-1,0]]"}.get(case, "[[0,1,0,1],[1,0,0,1]]")
        code = cli.EXIT_PARSE if case.endswith(("_short", "_long")) else cli.EXIT_INVALID
        capsys.readouterr()
        for command in commands:
            argv = ([command, "--seed", "3", "--mode", "prescribed_phases", "--phases", phases]
                    if command == "gen" else [command, str(inst)])
            assert main(argv) == code
            out = capsys.readouterr()
            assert out.err.startswith(f"error: {message}") and out.err.count("\n") == 1
            assert not out.out

    def test_descent_accepts_zero_trials(self):
        D = gen.random_gluing_instance(GenConfig(seed=3, twist_mode="coherent")).datum
        rep = descent_identities_check(D, trials=0)
        assert (rep.counit, rep.coassoc, rep.coassoc_glued) == (0.0, 0.0, 0.0) and rep.passed
        assert main(["descent", "--trials", "0"]) == 0


def load_tracer():
    """perfbench/tracer.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_spans_resolve():
    # the traced benchmark run wraps every (module, attribute) of SPANS; a
    # library name deleted or renamed under it would break that run
    tracer = load_tracer()
    assert tracer.SPANS
    for name, modname, attr in tracer.SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), name
        assert callable(getattr(owner, attr)), name


def test_descent_ladder_spans_are_called():
    # the descent-ladder workload requires each of these spans to be called,
    # and its per-layer metrics split kernel_basis and subspace_gap time by
    # their direct caller; a refactor that drops one fails here, in tier-1
    tree = ast.parse((ROOT / "perfbench" / "test_perfbench.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "LADDER_SPANS")
    tracer = load_tracer()
    D = gen.random_gluing_instance(GenConfig(seed=7, twist_mode="random_unitary")).datum
    tr = tracer.Tracer()
    tr.install()
    try:
        importlib.import_module("modglue.glue").descent_identities_check(D, trials=2)
    finally:
        tr.uninstall()
    for span in spans["descent-ladder"]:
        assert tr.calls[span] >= 1, span
    for span in ("numlin.kernel_basis", "numlin.subspace_gap"):
        assert tr.split[(span, "glue.descent_identities_check")] > 0, span


def library_layout_names() -> set:
    """Every name declared in README's "Library layout" table: each part of
    a backticked dotted name, so `TensorFactor.unit_maps` declares both."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    return {part for name in re.findall(r"`([A-Za-z_][\w.]*)`", table) for part in name.split(".")}


def test_every_public_name_is_called_or_declared():
    # the public surface is what the library and its benchmark call plus
    # what README's layout table declares; a name that is neither is dead
    # code or undocumented API.  A re-export from __init__ is no call.
    library = ROOT / "src" / "modglue"
    used = {attr for _, _, dotted in load_tracer().SPANS for attr in dotted.split(".")}
    for path in [*library.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    declared = library_layout_names()
    known = used | declared
    unused = []
    for path in sorted(library.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [d for d in node.body if isinstance(d, ast.FunctionDef)]
            unused += [f"{path.stem}.{d.name}" for d in defs
                       if not d.name.startswith("_") and d.name not in known]
    assert unused == []
    init = ast.parse((library / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(exported - declared) == []


def test_only_numlin_calls_numpy_decompositions():
    # every rank decision goes through numlin, which owns the threshold
    # convention: no other library module calls np.linalg.svd, qr or eig*
    # (np.linalg.norm is no decomposition and may be called anywhere)
    def decomposition(name):
        return name in ("svd", "qr") or name.startswith("eig")

    calls = []
    for path in sorted((ROOT / "src" / "modglue").glob("*.py")):
        if path.name == "numlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and decomposition(node.attr):
                calls.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                calls += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if decomposition(a.name)]
    assert calls == []


def library_callers(function: str) -> list:
    """module.name of the top-level definition around each call of function
    in the library, once per call."""
    def calls(node):
        return sum(isinstance(n, ast.Call) and function in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None)) for n in ast.walk(node))

    callers = []
    for path in sorted((ROOT / "src" / "modglue").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "<module>")
            callers += [f"{path.stem}.{name}"] * calls(node)
    return callers


def test_only_the_boundary_calls_make_bimodule_datum():
    # a bimodule datum derived from valid data (dual, tensor, conjugate,
    # pull-apart, criterion 11's coboundary twist) is put together from its
    # stacks directly; only the file reader and the generator go through
    # the re-checking constructor
    assert library_callers("make_bimodule_datum") == [
        "morita.random_bimodule_datum", "serial.bimodule_datum_from_json"]


def test_no_datum_constructor_restricts_a_module():
    # a gluing datum is its stacks: the per-set modules are derived on
    # demand from the label multiplicities, never built by a constructor
    constructors = {"glue.pull_apart", "glue.make_gluing_datum", "gen.random_gluing_datum",
                    "morita._derived_datum"}
    assert constructors & set(library_callers("restrict_module")) == set()


def test_only_hmod_calls_restrict_map():
    # a morphism of gluing data is one map stack per label, so P on
    # morphisms broadcasts each block over its members instead of
    # restricting the map once per cover set
    assert [c for c in library_callers("restrict_map") if not c.startswith("hmod.")] == []
