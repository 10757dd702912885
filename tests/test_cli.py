"""CLI contract: CSV schemas, determinism, exit codes, validation diagnostics."""

import json
import math

import pytest

from htpriv import instances
from htpriv.cli import main, validate_instance
from htpriv.probcore import JointPmf, binary_entropy


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[0].startswith("# htpriv-csv schema=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return header, rows


class TestExample1:
    def test_first_row_values(self, tmp_path):
        out = tmp_path / "ex1.csv"
        rc = main(["run", "--experiment", "example1", "--out", str(out),
                   "--param", "p=0.25", "--param", "q=0", "--param", "r_step=0.25"])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["p", "q", "r", "rate_bits", "exponent_bits",
                          "equivocation_bits"]
        first = [float(x) for x in rows[0]]
        assert first[2] == 0.0
        assert first[3] == pytest.approx(1.0)
        assert first[4] == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)
        assert first[5] == pytest.approx(0.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--experiment", "example1", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExample2:
    def test_tuple_row(self, tmp_path):
        out = tmp_path / "ex2.csv"
        rc = main(["run", "--experiment", "example2", "--out", str(out),
                   "--param", "n_max=2"])
        assert rc == 0
        _, rows = read_rows(out)
        tup = rows[0]
        assert tup[0] == "tuple"
        assert [float(x) for x in tup[2:]] == pytest.approx([1.0, 1.0, 2.0, 2.0],
                                                            abs=1e-10)
        eq_rows = [r for r in rows if r[0].startswith("equivocation_n")]
        assert len(eq_rows) == 4  # n in {1, 2} x both hypotheses
        for r in eq_rows:
            assert float(r[4]) == pytest.approx(2.0, abs=1e-10)


class TestFrontierExperiment:
    def test_rows_revalidate_through_taci_point(self, tmp_path):
        inst = tmp_path / "taci.json"
        pair = instances.example1_pair(0.25, 0.0)
        p4 = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), pair.p.probs[..., None])
        q4 = JointPmf((("S", 2), ("U", 2), ("Y", 2), ("Z", 1)), pair.q.probs[..., None])
        instances.save_instance(
            type(pair)(p4, q4, distortion=pair.distortion), str(inst)
        )
        out = tmp_path / "front.csv"
        rc = main(["run", "--experiment", "frontier", "--instance", str(inst),
                   "--out", str(out), "--seed", "3",
                   "--param", "random_seeds=10", "--param", "structured_seeds=21",
                   "--param", "w_sizes=2"])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["rate_bits", "exponent_bits", "privacy0", "privacy1",
                          "channel_id"]
        assert rows
        # spot-check closed-form consistency: rate >= exponent along the frontier
        for r in rows[:20]:
            assert float(r[0]) >= float(r[1]) - 1e-9
        # every emitted row reproduces through the frontier search in memory
        from htpriv.regions import FrontierConfig, taci_frontier
        pts = taci_frontier(
            instances.load_instance(str(inst)).p,
            instances.conditional_s_given_rest(instances.load_instance(str(inst)).q),
            FrontierConfig(random_seeds=10, structured_seeds=21, rng_seed=3,
                           w_sizes=(2,)),
        )
        ln2 = math.log(2.0)
        for row, pt in zip(rows, pts):
            assert float(row[0]) == pytest.approx(pt.rate / ln2, abs=1e-10)
            assert float(row[1]) == pytest.approx(pt.exponent / ln2, abs=1e-10)
            assert float(row[2]) == pytest.approx(pt.privacy0 / ln2, abs=1e-10)


class TestSimulateAndZeroRate:
    def test_zero_rate_summary(self, tmp_path):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "zr.csv"
        rc = main(["run", "--experiment", "zero_rate", "--instance", str(inst),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header[0] == "exponent_bits"
        assert float(rows[0][0]) > 0

    def test_simulate_smoke(self, tmp_path):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "sim.csv"
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst),
                   "--out", str(out), "--seed", "2",
                   "--param", "scheme=zero_rate", "--param", "n=4",
                   "--param", "trials=2000", "--param", "delta=0.2"])
        assert rc == 0
        header, rows = read_rows(out)
        stats = dict(zip(header, rows[0]))
        assert stats["record"] == "trials"
        assert 0.0 <= float(stats["alpha_hat"]) <= 1.0
        assert int(stats["trials"]) == 2000

    @pytest.mark.parametrize("scheme", ["zero_rate", "likelihood"])
    def test_simulate_privacy_rows(self, tmp_path, scheme):
        # at n=4 some typical blocks have no codeword of positive likelihood;
        # the likelihood encoder sends them the error message
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "simp.csv"
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst),
                   "--out", str(out), "--seed", "2",
                   "--param", f"scheme={scheme}", "--param", "n=4",
                   "--param", "trials=500", "--param", "delta=0.2",
                   "--param", "privacy=exact"])
        assert rc == 0
        header, rows = read_rows(out)
        priv = [dict(zip(header, r)) for r in rows if r[0] == "privacy"]
        assert {p["hypothesis"] for p in priv} == {"0", "1"}
        for p in priv:
            assert p["exact"] == "True"
            assert 0.0 <= float(p["equivocation_bits_per_letter"]) <= 1.0
            assert 0.0 <= float(p["distortion_per_letter"]) <= 0.5 + 1e-12


    @pytest.mark.parametrize("value", ["exat", "Exact", ""])
    def test_unknown_privacy_mode_fails(self, tmp_path, capsys, value):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "simp.csv"
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst),
                   "--out", str(out), "--param", "n=4", "--param", "trials=100",
                   "--param", f"privacy={value}"])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError" and repr(value) in rec["message"]

    @pytest.mark.parametrize("scheme,params,warning", [
        # the typical set is empty below the 1/3 type resolution at n=3; the
        # likelihood encoder tests typicality at delta' = delta/2
        ("zero_rate", ["n=3"], {"warning": "empty_typical_set", "n": 3, "delta": 0.05}),
        ("likelihood", ["n=3"], {"warning": "empty_typical_set", "n": 3, "delta": 0.025}),
        ("zero_rate", ["n=6", "delta=0.15"], None),          # the README command
    ], ids=["zero_rate_n3", "likelihood_n3", "readme"])
    def test_empty_typical_set_warning(self, tmp_path, capsys, scheme, params, warning):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "sim.csv"
        argv = ["run", "--experiment", "simulate", "--instance", str(inst),
                "--out", str(out), "--param", f"scheme={scheme}", "--param", "trials=200"]
        rc = main(argv + [a for p in params for a in ("--param", p)])
        assert rc == 0
        err = capsys.readouterr().err
        assert [json.loads(line) for line in err.splitlines()] == ([warning] if warning else [])
        header, rows = read_rows(out)
        assert len(rows) == 1 and rows[0][0] == "trials"


    def test_biased_privacy_estimate_warning(self, tmp_path, capsys):
        # at n=13 the zero-rate block table (2 * 4^13 cells) exceeds the
        # budget, so each hypothesis falls back to the biased estimate
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "sim.csv"
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst), "--out", str(out),
                   "--param", "scheme=zero_rate", "--param", "n=13",
                   "--param", "privacy=mc", "--param", "privacy_trials=20"])
        assert rc == 0
        err = capsys.readouterr().err
        assert [json.loads(line) for line in err.splitlines()] == [
            {"warning": "biased_privacy_estimate", "n": 13, "hypothesis": h} for h in (0, 1)]
        header, rows = read_rows(out)
        priv = [dict(zip(header, r)) for r in rows if r[0] == "privacy"]
        assert len(priv) == 2
        for p in priv:
            # a binary S leaves at most one bit per letter to equivocate
            assert p["exact"] == "False"
            assert 0.0 <= float(p["equivocation_bits_per_letter"]) <= 1.0


class TestCounterexampleExperiment:
    def test_counterexample_rows(self, tmp_path):
        inst = tmp_path / "ce.json"
        instances.save_instance(instances.counterexample_pair(), str(inst))
        out = tmp_path / "ce.csv"
        rc = main(["run", "--experiment", "counterexample", "--instance", str(inst),
                   "--out", str(out), "--param", "n_list=2,4",
                   "--param", "epsilon_star=0.25", "--param", "delta=0.2"])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        for r in rows:
            assert float(r[2]) > float(r[3])  # equivocation above weak-converse level


class TestErrorHandling:
    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "nope", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_runtime_failure_returns_one_and_removes_partial(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["run", "--experiment", "frontier", "--instance",
                   str(tmp_path / "missing.json"), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()[-1]
        rec = json.loads(err)
        assert "error" in rec and "message" in rec

    def test_error_record_is_single_json_line(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["run", "--experiment", "zero_rate", "--instance", str(bad),
                   "--out", str(out)])
        assert rc == 1
        line = capsys.readouterr().err.strip()
        json.loads(line)


class TestValidate:
    def test_well_formed_instance(self, tmp_path, capsys):
        inst = tmp_path / "good.json"
        instances.save_instance(instances.counterexample_pair(), str(inst))
        rc = main(["validate", "--instance", str(inst)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "normalized=True" in text
        assert "u_marginals_equal=True" in text
        assert "counterexample_assumption=True" in text

    def test_normalization_diagnostic_names_offender(self, tmp_path):
        inst = tmp_path / "bad.json"
        rec = {
            "p_suv": {"axes": [{"name": "S", "size": 1}, {"name": "U", "size": 2},
                               {"name": "V", "size": 1}],
                      "probs": [0.5, 0.49]},
            "q_suv": {"axes": [{"name": "S", "size": 1}, {"name": "U", "size": 2},
                               {"name": "V", "size": 1}],
                      "probs": [0.5, 0.5]},
        }
        inst.write_text(json.dumps(rec), encoding="utf-8")
        diags = validate_instance(str(inst))
        assert diags["p_suv_mass_residual"] == pytest.approx(0.01)
        assert diags["q_suv_mass_residual"] == pytest.approx(0.0, abs=1e-15)
        assert not diags["normalized"]

    def test_parse_error_has_location(self, tmp_path):
        inst = tmp_path / "broken.json"
        inst.write_text('{"p_suv": \n  oops', encoding="utf-8")
        from htpriv.cli import ExperimentError
        with pytest.raises(ExperimentError, match=r"line \d+ column \d+"):
            validate_instance(str(inst))

    def test_indicator_reported(self, tmp_path, capsys):
        inst = tmp_path / "eq.json"
        instances.save_instance(instances.example1_pair(0.25, 0.1), str(inst))
        rc = main(["validate", "--instance", str(inst)])
        assert rc == 0
        assert "u_marginals_equal=True" in capsys.readouterr().out

    @pytest.mark.parametrize("p_names, q_names", [
        (("S", "U", "V"), ("S", "U", "Y")),   # axes differ between hypotheses
        (("S", "X", "V"), ("S", "X", "V")),   # no U axis
    ], ids=["axes_differ", "no_u_axis"])
    def test_normalized_but_invalid_pair_is_json_error(self, tmp_path, capsys,
                                                      p_names, q_names):
        def record(names):
            return {"axes": [{"name": n, "size": 2} for n in names], "probs": [0.125] * 8}

        inst = tmp_path / "invalid.json"
        inst.write_text(json.dumps({"p_suv": record(p_names), "q_suv": record(q_names)}),
                        encoding="utf-8")
        rc = main(["validate", "--instance", str(inst)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        rec = json.loads(captured.err.strip())
        assert rec["error"] == "ValueError" and rec["message"]
