import json
import os
import subprocess
import sys

import numpy as np
import pytest

from modglue import cli, gen, serial, suite
from modglue.cli import main
from modglue.errors import NotAModuleMapError, NotAMorphismError
from modglue.gen import GenConfig
from modglue.glue import descent_identities_check, glue, make_gluing_datum

from test_glue import phase_witness


def run_cli(args, env=None):
    e = dict(os.environ)
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
        blob2 = serial.canonical_dumps(serial.instance_to_json(
            parsed if not isinstance(parsed, tuple) else gen.ModuleInstance(*parsed)
        ))
        assert blob == blob2

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
        for (i, j), entries in D.zeta.items():
            for k, M in entries.items():
                assert np.allclose(D2.zeta_block(i, j, k), M)


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
        (i, j), per = next(iter(D.zeta.items()))
        k = next(iter(per))
        entries = [(a, b, lab, 2.0 * U if (a, b, lab) == (i, j, k) else U)
                   for (a, b), blocks in D.zeta.items() for lab, U in blocks.items()
                   if (b, a, lab) != (i, j, k)]
        bad = make_gluing_datum(D.algebra, D.cover, D.modules, entries)
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

    def test_roundtrip_on_seeds(self):
        assert main(["roundtrip", "--trials", "3"]) == 0

    def test_descent_command(self):
        assert main(["descent", "--seed", "3", "--mode", "random_unitary"]) == 0

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
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["tol"] == 1e-30

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

    @pytest.mark.parametrize("error", [NotAMorphismError, NotAModuleMapError])
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
