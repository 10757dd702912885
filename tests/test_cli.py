"""CLI contract: CSV schemas, determinism, exit codes, validation diagnostics."""

import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htpriv import adversary, cli, instances, regions, schemes
from htpriv.cli import PARAM_KEYS, SCHEME_KEYS, main, validate_instance
from htpriv.probcore import Channel, JointPmf, binary_entropy
from htpriv.regions import FrontierConfig, HypothesisPair


def stderr_records(err):
    """Each stderr line parsed as strict JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return [json.loads(line, parse_constant=reject) for line in err.splitlines()]


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

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_fails(self, tmp_path, capsys, n_max):
        # n_max < 1 would write the tuple row and no equivocation row
        out = tmp_path / "ex2.csv"
        rc = main(["run", "--experiment", "example2", "--out", str(out),
                   "--param", f"n_max={n_max}"])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError" and "'n_max'" in rec["message"]


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
                   "--param", "random_seeds=10", "--param", "w_sizes=2"])
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
            FrontierConfig(random_seeds=10, rng_seed=3, w_sizes=(2,)),
        )
        ln2 = math.log(2.0)
        for row, pt in zip(rows, pts):
            assert float(row[0]) == pytest.approx(pt.rate / ln2, abs=1e-10)
            assert float(row[1]) == pytest.approx(pt.exponent / ln2, abs=1e-10)
            assert float(row[2]) == pytest.approx(pt.privacy0 / ln2, abs=1e-10)


    @pytest.mark.parametrize("param, field", [
        ("w_sizes=0", "w_sizes"), ("w_sizes=2,-1", "w_sizes"), ("w_sizes=2,2", "w_sizes"),
        ("random_seeds=-3", "random_seeds"),
    ])
    def test_bad_search_size_fails(self, tmp_path, capsys, param, field):
        out = tmp_path / "front.csv"
        rc = main(["run", "--experiment", "frontier", "--instance",
                   str(ROOT / "instances" / "example1_taci.json"), "--out", str(out),
                   "--param", param])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ValueError" and field in rec["message"]

    def test_alternate_law_of_other_form_fails(self, tmp_path, capsys):
        # the search evaluates Q_{S|UYZ} P_{U|Z} P_{Y|Z} P_Z, so a Q that is
        # not of that form would be replaced silently
        rec = json.loads((ROOT / "instances" / "example1_taci.json").read_text())
        rng = np.random.default_rng(5)
        q = rng.dirichlet(np.ones(8))
        rec["q_suv"]["probs"] = q.tolist()
        inst = tmp_path / "not_taci.json"
        inst.write_text(json.dumps(rec))
        pair = instances.load_instance(str(inst))
        q_taci = regions.taci_alternate_law(pair.p, instances.conditional_s_given_rest(pair.q))
        deviation = np.abs(q_taci.probs - q.reshape(2, 2, 2, 1)).max()
        assert deviation > 0.01
        out = tmp_path / "front.csv"
        rc = main(["run", "--experiment", "frontier", "--instance", str(inst),
                   "--out", str(out), "--param", "w_sizes=2", "--param", "random_seeds=1"])
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ExperimentError"
        assert f"by {deviation:.3g} in one cell" in err["message"]

    def test_any_declared_axis_order_gives_the_same_rows(self, tmp_path):
        # Q_{S|UYZ} is read in the (S, U, Y, Z) layout, so a CI pair declared
        # (S, U, Z, Y) is no longer taken for a Q of another form
        rng = np.random.default_rng(31)
        p = rng.gamma(1.0, 1.0, (2, 3, 2, 2))
        p_suyz = JointPmf((("S", 2), ("U", 3), ("Y", 2), ("Z", 2)), p / p.sum())
        q_cond = rng.gamma(1.0, 1.0, (3, 2, 2, 2))
        q_suyz = regions.taci_alternate_law(p_suyz, q_cond / q_cond.sum(-1, keepdims=True))
        csvs = []
        for names in (("S", "U", "Y", "Z"), ("S", "U", "Z", "Y")):
            laws = [JointPmf(tuple((n, law.axis_size(n)) for n in names), law.marginal_array(names))
                    for law in (p_suyz, q_suyz)]
            inst, out = tmp_path / f"{''.join(names)}.json", tmp_path / f"{''.join(names)}.csv"
            instances.save_instance(HypothesisPair(*laws), str(inst))
            assert main(["run", "--experiment", "frontier", "--instance", str(inst),
                         "--out", str(out), "--param", "w_sizes=2",
                         "--param", "random_seeds=2"]) == 0
            csvs.append(read_rows(out))
        (_, want), (_, got) = csvs
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[-1] == w[-1]
            np.testing.assert_allclose([float(x) for x in g[:-1]], [float(x) for x in w[:-1]],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("names", [("S", "U", "Y"), ("S", "U", "Y", "Z", "X")],
                             ids=["no_z", "extra_axis"])
    def test_other_axes_fail(self, tmp_path, capsys, names):
        # an extra observation axis would be summed out of the search silently
        law = JointPmf(tuple((n, 2) for n in names), np.full((2,) * len(names), 0.5 ** len(names)))
        inst, out = tmp_path / "other.json", tmp_path / "front.csv"
        instances.save_instance(HypothesisPair(law, law), str(inst))
        rc = main(["run", "--experiment", "frontier", "--instance", str(inst), "--out", str(out),
                   "--param", "w_sizes=2", "--param", "random_seeds=1"])
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ExperimentError" and '("S","U","Y","Z")' in err["message"]

    def test_structured_seeds_is_unknown_key(self, tmp_path, capsys):
        # the structured seed family is fixed; it is no parameter of the search
        out = tmp_path / "front.csv"
        rc = main(["run", "--experiment", "frontier", "--instance",
                   str(ROOT / "instances" / "example1_taci.json"), "--out", str(out),
                   "--param", "structured_seeds=5"])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError" and "structured_seeds" in rec["message"]


class TestEmptyListParams:
    # an empty list or list item is an error naming its key, never a CSV
    # with a header and no rows or a silent fall-back to the defaults
    @pytest.mark.parametrize("experiment, instance, param", [
        ("counterexample", "counterexample_binary.json", "n_list="),
        ("counterexample", "counterexample_binary.json", "n_list=2,,4"),
        ("counterexample", "counterexample_binary.json", "n_list=2,4,"),
        ("example1", None, "p="),
        ("example1", None, "q=0,"),
        ("frontier", "example1_taci.json", "w_sizes="),
    ])
    def test_empty_list_fails(self, tmp_path, capsys, experiment, instance, param):
        out = tmp_path / "out.csv"
        argv = ["run", "--experiment", experiment, "--out", str(out), "--param", param]
        if instance:
            argv += ["--instance", str(ROOT / "instances" / instance)]
        assert main(argv) == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError"
        assert param.split("=")[0] in rec["message"]


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

    @pytest.mark.parametrize("p_u, p_v, q_uv, warned", [
        # the one coupling with uniform marginals lies on the support boundary,
        # which 300 sweeps do not reach
        ([0.5, 0.5], [0.5, 0.5], [[0.4, 0.3], [0.3, 0.0]], True),
        # a diagonal support cannot carry unequal marginals: a proven +inf
        ([0.5, 0.5], [0.2, 0.8], [[0.5, 0.0], [0.0, 0.5]], False),
    ], ids=["sweep_cap", "certificate"])
    def test_unproven_infinity_warning(self, tmp_path, capsys, monkeypatch,
                                       p_u, p_v, q_uv, warned):
        monkeypatch.setattr("htpriv.regions._MAX_SWEEPS", 300)
        axes = (("S", 2), ("U", 2), ("V", 2))
        # S = U under both laws
        pj, qj = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        pj[[0, 1], [0, 1]], qj[[0, 1], [0, 1]] = np.outer(p_u, p_v), q_uv
        inst = tmp_path / "boundary.json"
        instances.save_instance(HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj)), str(inst))
        out = tmp_path / "zr.csv"
        rc = main(["run", "--experiment", "zero_rate", "--instance", str(inst),
                   "--out", str(out)])
        assert rc == 0
        warnings = stderr_records(capsys.readouterr().err)
        assert [w["warning"] for w in warnings] == (["unproven_infinity"] if warned else [])
        assert all(w["residual"] > 1e-11 for w in warnings)
        _, rows = read_rows(out)
        assert rows[0][0] == "inf"

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

    @pytest.mark.parametrize("scheme,params,warnings", [
        # each box is empty below the 1/3 type resolution at n=3: the zero-rate
        # scheme's u and v boxes at delta, the likelihood encoder's u box at
        # delta' = delta/2
        ("zero_rate", ["n=3"], [{"warning": "empty_typical_set", "n": 3, "delta": 0.05,
                                 "box": box} for box in ("u", "v")]),
        ("likelihood", ["n=3"], [{"warning": "empty_typical_set", "n": 3, "delta": 0.025,
                                  "box": "u"}]),
        ("zero_rate", ["n=6", "delta=0.15"], []),          # the README command
    ], ids=["zero_rate_n3", "likelihood_n3", "readme"])
    def test_empty_typical_set_warning(self, tmp_path, capsys, scheme, params, warnings):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "sim.csv"
        argv = ["run", "--experiment", "simulate", "--instance", str(inst),
                "--out", str(out), "--param", f"scheme={scheme}", "--param", "trials=200"]
        rc = main(argv + [a for p in params for a in ("--param", p)])
        assert rc == 0
        err = capsys.readouterr().err
        assert stderr_records(err) == warnings
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
        assert stderr_records(err) == [
            {"warning": "biased_privacy_estimate", "n": 13, "hypothesis": h} for h in (0, 1)]
        header, rows = read_rows(out)
        priv = [dict(zip(header, r)) for r in rows if r[0] == "privacy"]
        assert len(priv) == 2
        for p in priv:
            # a binary S leaves at most one bit per letter to equivocate
            assert p["exact"] == "False"
            assert 0.0 <= float(p["equivocation_bits_per_letter"]) <= 1.0


    def test_law_over_budget_fails(self, tmp_path, capsys):
        # 2^26 u-blocks by 2 messages exceed MAX_JOINT_CELLS: the dense law
        # is refused before it is enumerated, not allocated
        out = tmp_path / "sim.csv"
        rc = main(["run", "--experiment", "simulate", "--instance",
                   str(ROOT / "instances" / "zero_rate_binary.json"), "--out", str(out),
                   "--param", "scheme=zero_rate", "--param", "n=26", "--param", "trials=1000",
                   "--param", "privacy=mc"])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "BudgetExceededError" and "67108864 u-blocks" in rec["message"]

    def simulate_likelihood(self, tmp_path, name, *params):
        inst = tmp_path / "ex1.json"
        instances.save_instance(instances.example1_pair(0.2, 0.0), str(inst))
        out = tmp_path / name
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst), "--out", str(out),
                   "--seed", "3", "--param", "scheme=likelihood", "--param", "n=6",
                   "--param", "trials=300", "--param", "delta=0.3"]
                  + [a for p in params for a in ("--param", p)])
        return rc, out

    def test_inactive_binning_warning(self, tmp_path, capsys):
        # at 5 nats the n=6 codebook is not binned: the message names the codeword
        rc, out = self.simulate_likelihood(tmp_path, "unbinned.csv", "rate_nats=5")
        assert rc == 0
        pair = instances.example1_pair(0.2, 0.0)
        cfg = schemes.SchemeConfig(scheme="likelihood", delta=0.3, rate_nats=5.0)
        cb = schemes.make_scheme(cfg, pair, 6, 3).codebook
        assert cb.identity_binning
        assert stderr_records(capsys.readouterr().err) == [
            {"warning": "inactive_binning", "n": 6, "codewords": cb.size, "rate_nats": 5.0}]
        header, rows = read_rows(out)
        stats = dict(zip(header, rows[0]))
        want = schemes.run_trials(cfg, pair, 6, 300, 3)
        assert (int(stats["type1_errors"]), int(stats["type2_errors"])) == \
            (want.type1_errors, want.type2_errors)
        # at the default rate of 1 nat the codebook is binned, and nothing is printed
        rc, _ = self.simulate_likelihood(tmp_path, "binned.csv")
        assert rc == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("param", ["rate_nats=nan", "rate_nats=inf", "rate_nats=-1",
                                       "eta=nan", "eta=inf", "eta=0"])
    def test_likelihood_knob_out_of_range_fails(self, tmp_path, capsys, param):
        # a NaN rate would run an unbinned codebook and warn "rate_nats": NaN
        rc, out = self.simulate_likelihood(tmp_path, "bad.csv", param)
        assert rc == 1
        assert not out.exists()
        (rec,) = stderr_records(capsys.readouterr().err)
        assert rec["error"] == "ValueError" and param.split("=")[0] in rec["message"]

    # at n=4 no block pair is within 2 delta = 0.1 of P_UV = (.375, .125, .125,
    # .375): the timeshare detector never accepts, and its UV box is named
    EMPTY = {("timeshare", 0.05): [{"warning": "empty_typical_set", "n": 4, "delta": 0.1,
                                    "box": "uv"}]}

    @pytest.mark.parametrize("scheme, instance, delta, warned", [
        # Q_U = (0.8, 0.2) against P_U = (0.5, 0.5); Q_V is within 0.09 of P_V
        ("zero_rate", "zero_rate_binary.json", 0.29, False),
        ("zero_rate", "zero_rate_binary.json", 0.3, True),
        # every cell of Q_UV is within 0.125 of P_UV, and Q_U = P_U
        ("timeshare", "counterexample_binary.json", 0.2, True),
        ("timeshare", "counterexample_binary.json", 0.05, False),
        # the likelihood detector has no fixed acceptance box
        ("likelihood", "counterexample_binary.json", 0.2, False),
    ])
    def test_vacuous_test_warning(self, tmp_path, capsys, scheme, instance, delta, warned):
        out = tmp_path / "sim.csv"
        rc = main(["run", "--experiment", "simulate", "--instance",
                   str(ROOT / "instances" / instance), "--out", str(out),
                   "--param", f"scheme={scheme}", "--param", f"delta={delta}",
                   "--param", "trials=100"])
        assert rc == 0
        warning = {"warning": "vacuous_test", "scheme": scheme, "delta": delta}
        assert stderr_records(capsys.readouterr().err) == \
            self.EMPTY.get((scheme, delta), []) + ([warning] if warned else [])

    def test_warning_with_a_non_finite_field_is_an_error(self):
        with pytest.raises(ValueError):
            cli._warn("inactive_binning", rate_nats=math.nan)

    def test_identity_w_channel_is_the_default(self, tmp_path):
        rc, default = self.simulate_likelihood(tmp_path, "default.csv")
        assert rc == 0
        rc, identity = self.simulate_likelihood(tmp_path, "identity.csv", "w_channel=1,0;0,1")
        assert rc == 0
        assert identity.read_bytes() == default.read_bytes()

    def test_noisy_w_channel_runs_likelihood_scheme(self, tmp_path):
        rc, out = self.simulate_likelihood(tmp_path, "noisy.csv", "w_channel=0.9,0.1;0.1,0.9")
        assert rc == 0
        header, rows = read_rows(out)
        stats = dict(zip(header, rows[0]))
        assert stats["scheme"] == "likelihood"
        cfg = schemes.SchemeConfig(scheme="likelihood", delta=0.3,
                                   w_channel=Channel([[0.9, 0.1], [0.1, 0.9]]))
        want = schemes.run_trials(cfg, instances.example1_pair(0.2, 0.0), 6, 300, 3)
        assert (int(stats["type1_errors"]), int(stats["type2_errors"])) == \
            (want.type1_errors, want.type2_errors)
        rc, default = self.simulate_likelihood(tmp_path, "default.csv")
        assert rc == 0 and default.read_bytes() != out.read_bytes()

    @pytest.mark.parametrize("scheme, value", [
        ("likelihood", "1,0;0"), ("likelihood", "1,0;0,1;0,1"),
        ("likelihood", "0.5,0.6;0,1"), ("likelihood", "1.5,-0.5;0,1"),
        ("zero_rate", "1,0;0,1"),
    ], ids=["ragged", "rows", "sum", "negative", "not_likelihood"])
    def test_bad_w_channel_fails(self, tmp_path, capsys, scheme, value):
        inst = tmp_path / "ex1.json"
        instances.save_instance(instances.example1_pair(0.2, 0.0), str(inst))
        out = tmp_path / "bad.csv"
        rc = main(["run", "--experiment", "simulate", "--instance", str(inst), "--out", str(out),
                   "--param", f"scheme={scheme}", "--param", "trials=100",
                   "--param", f"w_channel={value}"])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError" and "w_channel" in rec["message"]

    @pytest.mark.parametrize("scheme, params", [
        ("zero_rate", ["epsilon_star=0.7", "eta=-3", "rate_nats=-1"]),
        ("zero_rate", ["w_channel=1,0;0,1"]),
        ("likelihood", ["epsilon_star=0.7"]),
        ("timeshare", ["epsilon_star=0.25", "eta=0.1"]),
        ("timeshare", ["rate_nats=1"]),
        ("timeshare", ["w_channel=1,0;0,1"]),
    ], ids=["zero_rate", "zero_rate_w_channel", "likelihood", "timeshare_eta",
            "timeshare_rate_nats", "timeshare_w_channel"])
    def test_key_of_another_scheme_fails(self, tmp_path, capsys, scheme, params):
        out = tmp_path / "sim.csv"
        rc = main(["run", "--experiment", "simulate", "--instance",
                   str(ROOT / "instances" / "zero_rate_binary.json"), "--out", str(out),
                   "--param", f"scheme={scheme}", "--param", "trials=100"]
                  + [a for p in params for a in ("--param", p)])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        foreign = sorted(p.split("=")[0] for p in params if p.split("=")[0]
                         not in SCHEME_KEYS[scheme])
        assert rec["error"] == "ExperimentError"
        assert repr(foreign[0]) in rec["message"] and repr(scheme) in rec["message"]

    def test_scheme_keys_cover_the_config(self):
        # every scheme reads the scheme name and delta, and each other config
        # field belongs to exactly one scheme
        fields = {f.name for f in dataclasses.fields(schemes.SchemeConfig)}
        assert set(SCHEME_KEYS) == {"likelihood", "zero_rate", "timeshare"}
        common = {"scheme", "delta"}
        assert all(keys >= common for keys in SCHEME_KEYS.values())
        own = [keys - common for keys in SCHEME_KEYS.values()]
        assert sum(len(k) for k in own) == len(set().union(*own))
        assert set().union(*SCHEME_KEYS.values()) == fields


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

    def run_counterexample(self, tmp_path, *params):
        out = tmp_path / "ce.csv"
        rc = main(["run", "--experiment", "counterexample", "--instance",
                   str(ROOT / "instances" / "counterexample_binary.json"), "--out", str(out)]
                  + [a for p in params for a in ("--param", p)])
        return rc, out

    @pytest.mark.parametrize("delta", ["-1", "nan", "inf"])
    def test_bad_delta_fails(self, tmp_path, capsys, delta):
        rc, out = self.run_counterexample(tmp_path, f"delta={delta}")
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ValueError" and "delta" in rec["message"]

    @pytest.mark.parametrize("delta, warned", [(0.2, True), (0.05, False)])
    def test_vacuous_test_warning(self, tmp_path, capsys, delta, warned):
        # the timeshare detector accepts within 2 delta of P_UV in every cell,
        # and every cell of Q_UV lies within 0.125 of P_UV.  At delta = 0.05 no
        # pair of 2 or 4 letters is within 0.1 of P_UV = (.375, .125, .125,
        # .375), so alpha_n = 1 and the empty UV box is named at each n
        rc, out = self.run_counterexample(tmp_path, "n_list=2,4", f"delta={delta}")
        assert rc == 0
        warning = {"warning": "vacuous_test", "scheme": "timeshare", "delta": delta}
        empty = [{"warning": "empty_typical_set", "n": n, "delta": 0.1, "box": "uv"}
                 for n in (2, 4)]
        assert stderr_records(capsys.readouterr().err) == ([warning] if warned else empty)
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["2", "4"]
        assert warned or [r[1] for r in rows] == ["1", "1"]

    def test_empty_typical_set_warning(self, tmp_path, capsys):
        # no block of 3 letters is within 0.01 of P_U; at n=4 one is, but no
        # pair of 3 or 4 letters is within 0.02 of P_UV, so alpha_3 = alpha_4 = 1
        rc, out = self.run_counterexample(tmp_path, "n_list=3,4", "delta=0.01")
        assert rc == 0
        err = capsys.readouterr().err
        assert stderr_records(err) == [
            {"warning": "empty_typical_set", "n": 3, "delta": 0.01, "box": "u"},
            {"warning": "empty_typical_set", "n": 3, "delta": 0.02, "box": "uv"},
            {"warning": "empty_typical_set", "n": 4, "delta": 0.02, "box": "uv"}]
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["3", "4"]
        assert [r[1] for r in rows] == ["1", "1"]


class TestOneBuildPerRun:
    """simulate and counterexample build each scheme once, in run_trials and
    counterexample_curve, and read it back from the results."""

    @staticmethod
    def count_calls(monkeypatch, name, *modules):
        calls = []
        wrapped = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_likelihood_simulate_draws_one_codebook(self, tmp_path, monkeypatch):
        built = self.count_calls(monkeypatch, "make_scheme", schemes, adversary)
        drawn = self.count_calls(monkeypatch, "build_codebook", schemes)
        rc = main(["run", "--experiment", "simulate", "--instance",
                   str(ROOT / "instances" / "example1_suv.json"), "--out", str(tmp_path / "s.csv"),
                   "--param", "scheme=likelihood", "--param", "n=8", "--param", "delta=0.3",
                   "--param", "trials=200", "--param", "privacy=exact"])
        assert rc == 0 and len(built) == 1 and len(drawn) == 1

    def test_counterexample_builds_one_scheme_per_n(self, tmp_path, monkeypatch):
        built = self.count_calls(monkeypatch, "make_scheme", schemes, adversary)
        rc = main(["run", "--experiment", "counterexample", "--instance",
                   str(ROOT / "instances" / "counterexample_binary.json"),
                   "--out", str(tmp_path / "ce.csv"), "--param", "n_list=2,4,6"])
        assert rc == 0 and [args[2] for args in built] == [2, 4, 6]


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

    @pytest.mark.parametrize("argv", [
        ["--experiment", "example1", "--param", "r_stp=0.1"],
        ["--experiment", "frontier", "--instance", "missing.json"],
    ], ids=["unknown_key", "missing_instance"])
    def test_failed_run_keeps_existing_out(self, tmp_path, capsys, argv):
        out = tmp_path / "prev.csv"
        out.write_bytes(b"# an earlier result\n1,2\n")
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main(["run", *argv, "--out", str(out)]) == 1
        assert out.read_bytes() == b"# an earlier result\n1,2\n"
        assert os.listdir(tmp_path) == ["prev.csv"]
        json.loads(capsys.readouterr().err.strip())

    def test_successful_run_replaces_existing_out(self, tmp_path):
        out, fresh = tmp_path / "prev.csv", tmp_path / "fresh.csv"
        out.write_bytes(b"# an earlier result\n")
        argv = ["run", "--experiment", "example1", "--param", "r_step=0.1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv + ["--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "prev.csv"]

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

    @pytest.mark.parametrize("field, spoil", [
        ("axes", lambda law: law.pop("axes")),
        ("probs", lambda law: law["probs"].pop()),
    ], ids=["missing_axes", "short_probs"])
    def test_malformed_instance_names_file_and_field(self, tmp_path, capsys, field, spoil):
        inst = tmp_path / "malformed.json"
        instances.save_instance(instances.counterexample_pair(), str(inst))
        rec = json.loads(inst.read_text(encoding="utf-8"))
        spoil(rec["p_suv"])
        inst.write_text(json.dumps(rec), encoding="utf-8")
        out = tmp_path / "zr.csv"
        rc = main(["run", "--experiment", "zero_rate", "--instance", str(inst),
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert str(inst) in err["message"] and field in err["message"]
        assert main(["validate", "--instance", str(inst)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert str(inst) in err["message"] and field in err["message"]

    def test_validate_and_run_agree_on_rounding_negative_entry(self, tmp_path, capsys):
        # an entry of -1e-13 is within the mass tolerance that run applies
        pair = instances.zero_rate_binary_pair()
        inst = tmp_path / "tiny.json"
        instances.save_instance(pair, str(inst))
        rec = json.loads(inst.read_text(encoding="utf-8"))
        rec["p_suv"]["probs"][rec["p_suv"]["probs"].index(0.0)] = -1e-13
        inst.write_text(json.dumps(rec), encoding="utf-8")
        diags = validate_instance(str(inst))
        assert diags["p_suv_min_entry"] == -1e-13
        assert diags["normalized"] and diags["u_marginals_equal"] is False
        out = tmp_path / "zr.csv"
        assert main(["run", "--experiment", "zero_rate", "--instance", str(inst),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

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


class TestInstanceErrors:
    """A rejected instance file exits 1 under run and validate with an error
    that names the file, and the field where one field is at fault."""

    @pytest.mark.parametrize("field, spoil", [
        ("'distortion'", lambda rec: rec.update(distortion="abc")),
        ("'d_max'", lambda rec: rec.update(d_max="x")),
        ("distortion", lambda rec: rec.update(distortion=[[0.0, 1.0, 1.0]])),
        ("distortion", lambda rec: rec.update(distortion=[[0.0, math.nan], [1.0, 0.0]])),
        ("d_max", lambda rec: rec.update(d_max=math.nan)),
        ("axes differ", lambda rec: rec["q_suv"]["axes"][2].update(name="Y")),
    ], ids=["distortion_text", "d_max_text", "distortion_shape", "distortion_nan",
            "d_max_nan", "axes_differ"])
    def test_run_and_validate_name_file_and_field(self, tmp_path, capsys, field, spoil):
        inst = tmp_path / "spoilt.json"
        instances.save_instance(instances.counterexample_pair(), str(inst))
        rec = json.loads(inst.read_text(encoding="utf-8"))
        spoil(rec)
        inst.write_text(json.dumps(rec), encoding="utf-8")
        out = tmp_path / "zr.csv"
        for argv in (["run", "--experiment", "zero_rate", "--instance", str(inst),
                      "--out", str(out)], ["validate", "--instance", str(inst)]):
            assert main(argv) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ValueError"
            assert err["message"].startswith(f"{inst}: ") and field in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", [0.5, math.nan], ids=["mass", "nan"])
    def test_law_that_is_no_pmf(self, tmp_path, capsys, bad):
        # validate reports it as not normalized; run names the file and the law
        inst = tmp_path / "spoilt.json"
        instances.save_instance(instances.counterexample_pair(), str(inst))
        rec = json.loads(inst.read_text(encoding="utf-8"))
        rec["p_suv"]["probs"][0] = bad
        inst.write_text(json.dumps(rec), encoding="utf-8")
        assert main(["validate", "--instance", str(inst)]) == 0
        assert "normalized=False" in capsys.readouterr().out
        out = tmp_path / "zr.csv"
        assert main(["run", "--experiment", "zero_rate", "--instance", str(inst),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith(f"{inst}: field 'p_suv': probabilities sum to")
        assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]


def readme_run_argvs():
    """The arguments after `htpriv` of each `htpriv run` example in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line.split("#")[0])[1:] for line in text.splitlines()
            if line.startswith("htpriv run") and "NAME" not in line]


def readme_run_commands():
    """(experiment, --param keys) of each `htpriv run` example in README.md."""
    out = []
    for argv in readme_run_argvs():
        experiment = argv[argv.index("--experiment") + 1]
        keys = [argv[i + 1].split("=", 1)[0] for i, a in enumerate(argv) if a == "--param"]
        out.append((experiment, keys))
    return out


class TestParams:
    @pytest.mark.parametrize("r_step", ["0", "-0.1", "nan", "inf"])
    def test_bad_r_step_fails_without_hanging(self, tmp_path, r_step):
        # a step of 0 or below never ends the r sweep, so run it with a timeout
        out = tmp_path / "ex1.csv"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "htpriv.cli", "run", "--experiment", "example1",
             "--out", str(out), "--param", f"r_step={r_step}"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert not out.exists()
        rec = json.loads(proc.stderr.strip())
        assert rec["error"] == "ExperimentError" and "r_step" in rec["message"]

    @pytest.mark.parametrize("experiment, params", [
        ("simulate", ["shceme=likelihood", "n=4", "trials=100"]),
        ("zero_rate", ["n=4"]),
    ], ids=["simulate", "zero_rate"])
    def test_unknown_key_fails(self, tmp_path, capsys, experiment, params):
        inst = tmp_path / "zr.json"
        instances.save_instance(instances.zero_rate_binary_pair(), str(inst))
        out = tmp_path / "out.csv"
        argv = ["run", "--experiment", experiment, "--instance", str(inst), "--out", str(out)]
        rc = main(argv + [a for p in params for a in ("--param", p)])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        unknown = params[0].split("=")[0]
        assert rec["error"] == "ExperimentError" and repr(unknown) in rec["message"]

    @pytest.mark.parametrize("experiment, instance, param", [
        ("simulate", "zero_rate_binary.json", "n=abc"),
        ("frontier", "example1_taci.json", "random_seeds=x"),
        ("simulate", "zero_rate_binary.json", "delta=abc"),
        # a block length or trial count below 1, rejected before any warning
        ("simulate", "zero_rate_binary.json", "n=-1"),
        ("simulate", "zero_rate_binary.json", "trials=0"),
        ("counterexample", "counterexample_binary.json", "n_list=2,0"),
    ])
    def test_rejected_value_names_key(self, tmp_path, capsys, experiment, instance, param):
        out = tmp_path / "out.csv"
        rc = main(["run", "--experiment", experiment, "--instance",
                   str(ROOT / "instances" / instance), "--out", str(out), "--param", param])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        key, value = param.split("=")
        assert rec["error"] == "ExperimentError"
        assert repr(key) in rec["message"] and repr(value) in rec["message"]

    @pytest.mark.parametrize("experiment", ["example1", "example2"])
    def test_instance_rejected_where_not_read(self, tmp_path, capsys, experiment):
        out = tmp_path / "out.csv"
        rc = main(["run", "--experiment", experiment, "--out", str(out), "--instance",
                   str(ROOT / "instances" / "example1_suv.json")])
        assert rc == 1
        assert not out.exists()
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "ExperimentError" and "--instance" in rec["message"]

    def test_config_keys_are_config_fields(self):
        # keys forwarded to a config keep its defaults, so the CLI states none
        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert set(PARAM_KEYS["frontier"]) == fields(FrontierConfig) - {"rng_seed"}
        cli_only = {"n", "trials", "privacy", "privacy_trials"}
        assert set(PARAM_KEYS["simulate"]) - cli_only == fields(schemes.SchemeConfig)

    def test_readme_commands_use_accepted_keys(self):
        commands = readme_run_commands()
        assert {e for e, _ in commands} >= {"example1", "frontier", "simulate",
                                            "counterexample"}
        for experiment, keys in commands:
            assert set(keys) <= set(PARAM_KEYS[experiment]), (experiment, keys)


class TestReadmeCsvs:
    # SHA-256 of the CSV each README `htpriv run` example writes.  The frontier
    # example runs with random_seeds=10 here (the full search takes about 11 s).
    SHA256 = {
        "example1": "a6631a915dbdc9be7f47ca9641063183a678e3db927fe95e2b3607e99f65d31e",
        "frontier": "b4f2ec160208e463a1c2c90d2595a556bd98c7f924e2593684d0fbcc43d26bbf",
        "simulate": "050a8bba5b7f528bf274a8033e47ec14391cf7612b014bfb2116d34d53501e81",
        "counterexample": "35f4fd4b8c9d7320ee296c709a1a0ba4f226c329c5a5e08238d16e610489290a",
    }

    @pytest.mark.parametrize("experiment", list(SHA256))
    def test_readme_csv_is_byte_identical(self, tmp_path, capsys, experiment):
        (argv,) = [a for a in readme_run_argvs()
                   if a[a.index("--experiment") + 1] == experiment]
        out = tmp_path / "out.csv"
        argv = [str(ROOT / a) if a.startswith("instances/") else a for a in argv]
        argv[argv.index("--out") + 1] = str(out)
        if experiment == "frontier":
            argv += ["--param", "random_seeds=10"]
        assert main(argv) == 0
        # at delta = 0.2 every cell of Q_UV lies within 2 delta of P_UV
        vacuous = {"warning": "vacuous_test", "scheme": "timeshare", "delta": 0.2}
        assert stderr_records(capsys.readouterr().err) == \
            ([vacuous] if experiment == "counterexample" else [])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[experiment]
