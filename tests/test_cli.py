"""Command-line contract: payloads, formats, exit codes, reproducibility."""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dercent
from dercent import __version__, oracle
from dercent.cli import main, write_json
from dercent.derivation import Derivation
from dercent.linearder import (
    jordan_nilpotent,
    linear_derivation,
    matrix,
    matrix_mul,
    matrix_to_json,
)
from dercent.poly import Poly
from dercent.registry import KernelEntry, load_registry, registry_to_json
from dercent.weitzenboeck import CentralizerGenerator, sl2_triple

from support import count_calls, random_derivation, random_poly, write_registry


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_inputs(directory):
    """The input files of the pinned `rank`, `bracket` and `decompose` runs.

    `rank_q.json` holds four n=4 derivations with rational coefficients,
    two independent ones and two combinations of them, so rank 2.
    `dec.json` takes the peel path of `decompose`; `solved.json`, with
    A = P J P^-1 and T = sum_j q_j * D_(A^j), the fraction-free solve.
    """
    t = sl2_triple(4)
    (directory / "rank.json").write_text(
        json.dumps({"derivations": [sl2_triple(3).d.to_json()]})
    )
    y1, y2, y3, y4 = Poly.variables(4)
    half, third = Fraction(1, 2), Fraction(1, 3)
    # the minor of the first two coordinates is half * y2 * (y1 - 3/4) != 0
    t1 = Derivation((half * y2, Fraction(-2, 3) * y3**2, Poly.zero(4),
                     Fraction(1, 5) * y1 * y4))
    t2 = Derivation((Poly.zero(4), y1 - Fraction(3, 4), Fraction(7, 2) * y4,
                     y2 * y3))
    members = [t1 * (y3 - third) + t2 * (Fraction(2, 7) * y1 * y2), t2,
               t1 * Fraction(5, 6) - t2 * (third * y4**2), t1]
    (directory / "rank_q.json").write_text(
        json.dumps({"derivations": [T.to_json() for T in members]})
    )
    (directory / "pair.json").write_text(
        json.dumps({"left": t.d.to_json(), "right": t.dhat.to_json()})
    )
    x1, x2, _ = Poly.variables(3)
    T = Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2))
    (directory / "dec.json").write_text(
        json.dumps(
            {"derivation": T.to_json(), "matrix": matrix_to_json(jordan_nilpotent(3))}
        )
    )
    p = matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    p_inv = matrix([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
    a = matrix_mul(matrix_mul(p, jordan_nilpotent(3)), p_inv)
    ell = x1 - x2 + Poly.variable(3, 2)  # (P^-1 x)_1, a constant of D_A
    q = [2 - ell, Poly.constant(3, 3), ell * Fraction(1, 2)]
    T = Derivation.zero(3)
    power = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for c in q:
        T = T + linear_derivation(power) * c
        power = matrix_mul(power, a)
    (directory / "solved.json").write_text(
        json.dumps({"derivation": T.to_json(), "matrix": matrix_to_json(a)})
    )


class TestEnvelope:
    def test_report_embeds_config_seed_and_version(self, capsys):
        data = payload(capsys, "verify", "--n", "2", "--deg", "2", "--seed", "5")
        assert data["version"] == __version__
        assert data["config"]["seed"] == 5
        assert data["config"]["n"] == 2
        assert data["command"] == "verify"

    def test_seed_present_even_without_sampling(self, capsys):
        data = payload(capsys, "sl2", "--n", "3")
        assert data["config"]["seed"] == 0

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "sl2", "--n", "2")
        assert "elapsed_ms=" in err
        assert "elapsed_ms" not in out

    def test_stdout_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "2", "--seed", "9")
        _, out2, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "2", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "centralizer", "--n", "4")
        _, out4, _ = run_cli(capsys, "centralizer", "--n", "4")
        assert out3 == out4


class TestSl2Command:
    def test_json(self, capsys):
        data = payload(capsys, "sl2", "--n", "3")
        dhat = Derivation.from_json(data["result"]["dhat"])
        assert dhat == sl2_triple(3).dhat

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "sl2", "--n", "3", "--format", "text")
        assert code == 0
        assert "Dhat = 2*x2*d1 + 2*x3*d2" in out


class TestCentralizerCommand:
    def test_n3_emits_four_generators(self, capsys):
        data = payload(capsys, "centralizer", "--n", "3")
        assert data["result"]["count"] == 4

    def test_n2_emits_construction_output(self, capsys):
        data = payload(capsys, "centralizer", "--n", "3")
        for g in data["result"]["generators"]:
            Derivation.from_json(g["derivation"])  # parses

    def test_n1_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "centralizer", "--n", "1")
        assert code == 2

    def test_unregistered_n(self, capsys):
        code, _, err = run_cli(capsys, "centralizer", "--n", "9")
        assert code == 2
        assert "registered" in err


class TestGensCommand:
    def test_default_level_is_n(self, capsys):
        data = payload(capsys, "gens", "--n", "3")
        assert data["result"]["level"] == 3
        assert len(data["result"]["set"]["elements"]) == 4

    def test_explicit_level(self, capsys):
        data = payload(capsys, "gens", "--n", "3", "--level", "2")
        polys = [Poly.from_json(e["poly"]) for e in data["result"]["set"]["elements"]]
        assert polys == [Poly.constant(3, 1), Poly.variable(3, 1)]


class TestInputCommands:
    def test_bracket(self, capsys, tmp_path):
        t = sl2_triple(3)
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({"left": t.d.to_json(), "right": t.dhat.to_json()}))
        data = payload(capsys, "bracket", "--input", str(f))
        assert Derivation.from_json(data["result"]["bracket"]) == t.h

    def test_decompose(self, capsys, tmp_path):
        x1, x2, x3 = Poly.variables(3)
        T = Derivation((8 * x1**2, 8 * x1 * x2, 4 * x2**2))
        f = tmp_path / "dec.json"
        f.write_text(
            json.dumps(
                {
                    "derivation": T.to_json(),
                    "matrix": matrix_to_json(jordan_nilpotent(3)),
                }
            )
        )
        data = payload(capsys, "decompose", "--input", str(f))
        assert data["result"]["verified"] is True
        coeffs = data["result"]["decomposition"]["coefficients"]
        assert len(coeffs) == 3

    def test_decompose_noncommuting_is_precondition_error(self, capsys, tmp_path):
        f = tmp_path / "dec.json"
        f.write_text(
            json.dumps(
                {
                    "derivation": Derivation.partial(3, 0).to_json(),
                    "matrix": matrix_to_json(jordan_nilpotent(3)),
                }
            )
        )
        code, _, err = run_cli(capsys, "decompose", "--input", str(f))
        assert code == 3
        assert "precondition" in err

    def test_rank(self, capsys, tmp_path):
        t = sl2_triple(3)
        f = tmp_path / "rank.json"
        f.write_text(
            json.dumps({"derivations": [t.d.to_json(), (t.d * 2).to_json()]})
        )
        data = payload(capsys, "rank", "--input", str(f))
        assert data["result"]["rank"] == 1
        assert data["result"]["certificate"]["method"] == "sampled"

    @pytest.mark.parametrize(
        "command, document",
        [
            # a float is already rounded, a bool is no number, and a zero
            # denominator is malformed: all three are input errors
            ("decompose", {"derivation": Derivation.zero(2).to_json(),
                           "matrix": {"n": 2, "entries": [[0.1, "0"], ["0", "1"]]}}),
            ("decompose", {"derivation": Derivation.zero(2).to_json(),
                           "matrix": {"n": 2, "entries": [[True, "0"], ["0", "1"]]}}),
            ("decompose", {"derivation": Derivation.zero(2).to_json(),
                           "matrix": {"n": 2, "entries": [["1/0", "0"], ["0", "1"]]}}),
            ("rank", {"derivations": [
                {"nvars": 1, "coeffs": [{"nvars": 1, "terms": [
                    {"coeff": 0.1, "exp": [1]}]}]}]}),
            ("rank", {"derivations": [
                {"nvars": 1, "coeffs": [{"nvars": 1, "terms": [
                    {"coeff": "1/0", "exp": [1]}]}]}]}),
            ("bracket", {"left": Derivation.zero(1).to_json(),
                         "right": {"nvars": 1, "coeffs": [{"nvars": 1, "terms": [
                             {"coeff": 0.5, "exp": [0]}]}]}}),
            # exponents, variable counts and sizes are JSON integers: a
            # float or a bool there is an input error, not truncated
            ("bracket", {"left": Derivation.zero(2).to_json(),
                         "right": {"nvars": 2, "coeffs": [
                             {"nvars": 2, "terms": [{"coeff": "1", "exp": [1.5, 0]}]},
                             Poly.zero(2).to_json()]}}),
            ("bracket", {"left": Derivation.zero(2).to_json(),
                         "right": {"nvars": 2, "coeffs": [
                             {"nvars": 2, "terms": [{"coeff": "1", "exp": [True, 0]}]},
                             Poly.zero(2).to_json()]}}),
            ("bracket", {"left": Derivation.zero(2).to_json(),
                         "right": {"nvars": 2.0, "coeffs": [Poly.zero(2).to_json()] * 2}}),
            ("decompose", {"derivation": Derivation.zero(3).to_json(),
                           "matrix": {**matrix_to_json(jordan_nilpotent(3)), "n": 3.0}}),
            # so is a value of the wrong JSON type, or a top level that is
            # not an object: malformed input, not a failed verification
            ("bracket", {"left": {"nvars": 1, "coeffs": 5},
                         "right": Derivation.zero(1).to_json()}),
            ("bracket", [Derivation.zero(1).to_json()]),
            ("decompose", "derivation"),
            ("rank", [1, 2]),
            ("rank", {"derivations": [{"nvars": 1, "coeffs": [
                {"nvars": 1, "terms": [{"coeff": "1", "exp": 7}]}]}]}),
            ("decompose", {"derivation": Derivation.zero(1).to_json(),
                           "matrix": {"n": 1, "entries": [5]}}),
        ],
    )
    def test_inexact_or_zero_denominator_is_input_error(
        self, capsys, tmp_path, command, document
    ):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, command, "--input", str(f))
        assert code == 2
        assert out == ""
        assert "input error: " in err

    def test_decompose_shift_plus_corner(self, capsys, tmp_path):
        # A = J + 3*E_14 takes the fraction-free solve
        a = [[0, 0, 0, 3], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        T = linear_derivation(matrix(a)) * 2 + Derivation(tuple(Poly.variables(4)))
        f = tmp_path / "dec.json"
        f.write_text(json.dumps(
            {"derivation": T.to_json(), "matrix": {"n": 4, "entries": a}}
        ))
        data = payload(capsys, "decompose", "--input", str(f))
        assert data["result"]["verified"] is True
        assert len(data["result"]["decomposition"]["coefficients"]) == 4

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, _ = run_cli(capsys, "rank", "--input", str(f))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "bracket", "--input", "/nonexistent.json")
        assert code == 2


class TestVerifyCommand:
    def test_passes_for_registered_n(self, capsys):
        data = payload(capsys, "verify", "--n", "3", "--deg", "3")
        assert data["result"]["ok"] is True
        names = {item["name"] for item in data["result"]["items"]}
        assert "sl2-relations" in names
        assert "fraction-rank" in names

    def test_corrupted_registry_fails_order_check(self, capsys, tmp_path):
        generators = load_registry()[3].generators + (Poly.variable(3, 1),)
        bad = write_registry(tmp_path / "bad_registry.json", 3, generators)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--deg", "3", "--registry", bad
        )
        assert code == 1
        data = json.loads(out)
        failure = data["result"]["first_failure"]
        assert failure["name"] == "centralizer-commutation"
        assert "not annihilated" in failure["detail"]

    def test_non_integer_search_degree_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "registry.json"
        write_registry(path, 3, load_registry()[3].generators)
        raw = json.loads(path.read_text())
        raw["3"]["search_degree"] = 1.5
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(
            capsys, "verify", "--n", "3", "--deg", "2", "--registry", str(path)
        )
        assert code == 2
        assert out == ""
        assert "malformed kernel registry" in err

    def test_text_format_prints_pass_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--deg", "2", "--format", "text"
        )
        assert code == 0
        assert out.count("PASS") == len(out.strip().splitlines()) - 1

    def test_derived_registry_passes_for_n4(self, capsys):
        data = payload(capsys, "verify", "--n", "4", "--deg", "3")
        assert data["result"]["ok"] is True

    def test_span_failures_match_oracle_verify_thm2(self, capsys, tmp_path):
        # without its last generator the n=3 registry no longer spans
        generators = load_registry()[3].generators[:-1]
        bad = write_registry(tmp_path / "short_registry.json", 3, generators)
        argv = ("--n", "3", "--deg", "3", "--registry", bad)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        from_verify = {
            int(item["name"].removeprefix("power-kernel-span-i")):
                item["certificate"]
            for item in json.loads(out)["result"]["items"]
            if item["name"].startswith("power-kernel-span-") and not item["ok"]
        }
        code, out, _ = run_cli(capsys, "oracle", "verify-thm2", *argv)
        assert code == 1
        from_oracle = {
            check["i"]: check["certificate"]
            for check in json.loads(out)["result"]["certificate"]
            if not check["ok"]
        }
        assert from_verify
        assert from_verify == from_oracle

    @pytest.mark.parametrize(
        "command", [("verify",), ("oracle", "verify-thm2"), ("oracle", "verify-prop1")]
    )
    def test_negative_degree_is_precondition_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--n", "3", "--deg", "-1")
        assert code == 3
        assert out == ""
        assert "degree must be >= 0" in err

    @pytest.mark.parametrize("document", [[], "3", 3])
    @pytest.mark.parametrize(
        "command", [("gens", "--n", "3"), ("verify", "--n", "3", "--deg", "2")]
    )
    def test_registry_that_is_not_an_object_is_input_error(
        self, capsys, tmp_path, command, document
    ):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *command, "--registry", str(path))
        assert code == 2
        assert out == ""
        assert "input error: malformed kernel registry" in err

    @pytest.mark.parametrize("mismatch", ["entry", "generators"])
    @pytest.mark.parametrize(
        "command", [("gens", "--n", "3"), ("verify", "--n", "3", "--deg", "2")]
    )
    def test_registry_entry_must_match_its_key(self, capsys, tmp_path, command,
                                               mismatch):
        # key "3" holds the n=4 entry, or an n=3 entry with 4-variable generators
        registry = dict(load_registry())
        four = registry[4]
        registry[3] = four if mismatch == "entry" else KernelEntry(
            3, four.generators, four.source, four.search_degree
        )
        path = tmp_path / "registry.json"
        path.write_text(registry_to_json(registry))
        code, out, err = run_cli(capsys, *command, "--registry", str(path))
        assert code == 2
        assert out == ""
        assert "malformed kernel registry: the entry under key 3" in err


class TestPinnedOutput:
    """Default stdout of the checking commands, pinned by SHA-256.

    A change to one of these reports has to be deliberate and update its
    digest here.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "--n", "3", "--deg", "3"),
             "e5607f1467c153bbba2f8cdf215263b2de0d7ca3c59e5e3bbd344d9f62aca77e"),
            (("verify", "--n", "4", "--deg", "3", "--seed", "7"),
             "e0d934f88b33316d6a933bc4437b51c607568e3e624aa774b4868c9f8d1ae244"),
            (("oracle", "verify-thm2", "--n", "3", "--deg", "4"),
             "85267c89c6372b8424cd12b5201f719827477c8f8f682cea8396917e1933ef12"),
            (("oracle", "verify-prop1", "--n", "4", "--deg", "3"),
             "03752c4bde88544b9939b0a8345f873ad1982c7e9852f9ea3bd265fd99eea71e"),
            (("oracle", "rank", "--input", "rank.json"),
             "648976170e7628202b799cadfe051d8d0ca43df9888df1a340fa9bf074b7aaa0"),
            # the op sizes of the verify benchmark workload
            (("verify", "--n", "4", "--deg", "5"),
             "baa47ad7e60b2926ae560cfefe71144beb0ef9e4a6479771de17562b4d4d1af9"),
            (("verify", "--n", "5", "--deg", "4"),
             "6ae495001aa59d260579bafe4c88ccda2320016fbe3339c47b51ded93315e108"),
            (("oracle", "verify-thm2", "--n", "4", "--deg", "5"),
             "4162cec0336dd4265a6207c0f080a9aec734690c81ce5fcb2fd5dd6c25e6f947"),
            # the emitting commands, json and text
            (("centralizer", "--n", "5"),
             "1267fcc57631bcff8a48bd87b6ca0123ba9aef0b661e2e2beb33b688a1228ff7"),
            (("gens", "--n", "6", "--level", "4"),
             "e0e320e3158635e7f67c0aeb733049afe78ace9467eda418dc182ce0b5d53481"),
            (("centralizer", "--n", "4", "--format", "text"),
             "0f4be6c2d12d844a8898cabd1a07b99ffc5d4b9f9f1564e030d50b261557d28e"),
            (("gens", "--n", "5", "--format", "text"),
             "42b0b028a17c980e430d51520c60d3ad8942261ed2a1b1d1b7d56a00348b3268"),
            (("sl2", "--n", "4"),
             "0a8ebcd9e5aa72fb8e5c219944b4fb09d9d1170563cee40bb60025bc0382fd77"),
            (("bracket", "--input", "pair.json"),
             "31ed576d838d69db61afa30566928c3ba4ddae0a8909a85652de2ee70e346217"),
            (("decompose", "--input", "dec.json"),
             "72d9a4708c4f20a6053847f43a9c560e07199621be7ec0a89d76eb15c84a14a9"),
            # off the peel path: the fraction-free solve
            (("decompose", "--input", "solved.json"),
             "028f5a4c80574c7533667634cb31bf085481f3ca3b84c7131c9004e472ae128a"),
            # rational coefficients: pins the sampled points, ranks and method
            (("rank", "--input", "rank_q.json", "--seed", "5"),
             "77edff65a1c7326841144cb7088e8c57a1d39cbf51019a6fe3eb51beb08f9119"),
            (("oracle", "kernel", "--n", "3", "--power", "2", "--deg", "4"),
             "50809b15b97164e312e40c9b750c51681277369fc3de1cee6e439f6fab5d3012"),
            # larger span and ladder items, recorded while they were solved
            # over Q and now certified by counting
            (("verify", "--n", "4", "--deg", "7"),
             "5644e5ea38dc7e96a44828e1bc4768c3b6df23c12f774036d8e56bf3a6600dc7"),
            (("oracle", "verify-prop1", "--n", "5", "--deg", "5"),
             "8232163365d6da4e7df07bc5a0e1fc1efa339f6190cc36797595a8e61416240f"),
        ],
    )
    def test_stdout_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        # the input path is part of the report, so it is kept relative
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, digest",
        [
            (("verify",),
             "a100e6bc8d14b30c7765dc73e89a7cd6307d4500f7d73f486c98b9bc1cc93589"),
            (("oracle", "verify-thm2"),
             "ad9894853eebc773e9ece9ce886687f9f38535a3c681d24c1fee8f0fa9cb4859"),
        ],
    )
    def test_span_failure_digest(self, capsys, tmp_path, monkeypatch, command, digest):
        # without its last generator the n=4 registry no longer spans, so
        # the reports carry failure certificates next to witnesses
        monkeypatch.chdir(tmp_path)
        write_registry(tmp_path / "short_registry.json", 4,
                       load_registry()[4].generators[:-1])
        code, out, err = run_cli(capsys, *command, "--n", "4", "--deg", "4",
                                 "--registry", "short_registry.json")
        assert code == 1, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCountingFallback:
    """When counting certifies nothing, the exact solve gives the same report."""

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--n", "4", "--deg", "5"),
         "baa47ad7e60b2926ae560cfefe71144beb0ef9e4a6479771de17562b4d4d1af9"),
        (("oracle", "verify-prop1", "--n", "4", "--deg", "3"),
         "03752c4bde88544b9939b0a8345f873ad1982c7e9852f9ea3bd265fd99eea71e"),
    ])
    def test_modulus_two(self, capsys, monkeypatch, argv, digest):
        # mod 2 the counts fall short, so every item is solved over Q
        ladder_solves = count_calls(monkeypatch, "derivation_span_equal")
        monkeypatch.setattr(oracle, "MODULUS", 2)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert ladder_solves
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_modulus_in_a_denominator(self, capsys, tmp_path, monkeypatch):
        # a generator scaled by 1/p has no residue mod p, so the span items
        # whose products use it go exact; the report stays that of the
        # unscaled registry
        generators = list(load_registry()[4].generators)
        span_solves = count_calls(monkeypatch, "module_span_check")
        outputs = []
        for name, scale in (("certified", 1), ("scaled", Fraction(1, oracle.MODULUS))):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # the report echoes the path
            write_registry(tmp_path / name / "registry.json", 4,
                           [generators[0] * scale, *generators[1:]])
            span_solves.clear()
            code, out, err = run_cli(capsys, "verify", "--n", "4", "--deg", "4",
                                     "--registry", "registry.json")
            assert code == 0, err
            outputs.append(out)
            assert bool(span_solves) == (scale != 1)
        assert outputs[0] == outputs[1]


class TestParserReuse:
    def test_parser_built_once(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        bracket = ("bracket", "--input", "pair.json")
        assert run_cli(capsys, *bracket)[0] == 0  # warm-up
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [
            run_cli(capsys, *bracket)[0],
            run_cli(capsys, "verify", "--deg", "2")[0],
            run_cli(capsys, "--version")[0],
            run_cli(capsys, "bracket", "--input", "missing.json")[0],
        ]
        code, out, err = run_cli(capsys, *bracket)
        assert codes + [code] == [0, 2, 0, 2, 0], err
        assert built == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "31ed576d838d69db61afa30566928c3ba4ddae0a8909a85652de2ee70e346217"
        )


def written(obj) -> str:
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


# quotes, backslashes, control characters, non-ASCII and astral characters
json_text = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
              st.characters()),
    max_size=6,
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    json_text,
)
# objects the writer encodes through their to_json()
seeds_and_nvars = st.tuples(st.integers(0, 2**32), st.integers(1, 4))
json_objects = st.one_of(
    seeds_and_nvars.map(lambda a: random_poly(random.Random(a[0]), a[1])),
    seeds_and_nvars.map(lambda a: random_derivation(random.Random(a[0]), a[1])),
)
json_trees = st.recursive(
    json_scalars | st.lists(st.integers(), max_size=4) | json_objects,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """`write_json` writes the bytes of the stdlib's indented, sorted dump."""

    @given(json_trees)
    @example({})
    @example(())
    @example({"a": {}, "b": [[[]]], "c": [{}, ()]})
    @example([[0, -1], [True, 1], [2**70]])
    def test_matches_stdlib(self, obj):
        expected = json.dumps(obj, indent=2, sort_keys=True,
                              default=lambda o: o.to_json())
        assert written(obj) == expected + "\n"

    @pytest.mark.parametrize(
        "obj", [1.5, [0, 2.0], {"a": {"b": float("nan")}}, {1: "x"}, {"a": {(1,): 0}},
                object(), [set()]],
    )
    def test_rejects_floats_non_str_keys_and_other_objects(self, obj):
        with pytest.raises(TypeError):
            written(obj)

    def test_rejects_to_json_returning_a_float(self):
        class Inexact:
            def to_json(self):
                return 0.5

        with pytest.raises(TypeError):
            written({"a": [Inexact()]})


class TestReportStreaming:
    def test_json_reports_never_build_text(self, capsys, tmp_path, monkeypatch):
        write_inputs(tmp_path)

        def refuse(self):
            raise AssertionError("text rendering built for a JSON report")

        monkeypatch.setattr(Poly, "__str__", refuse)
        monkeypatch.setattr(Derivation, "__str__", refuse)
        for argv in (("centralizer", "--n", "3"), ("gens", "--n", "4"),
                     ("bracket", "--input", str(tmp_path / "pair.json"))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            json.loads(out)

    def test_report_is_written_in_bounded_blocks(self, monkeypatch):
        writes = []

        class Spy(io.StringIO):
            def write(self, s):
                writes.append(len(s))
                return super().write(s)

        spy = Spy()
        monkeypatch.setattr(sys, "stdout", spy)
        assert main(["centralizer", "--n", "5"]) == 0
        out = spy.getvalue()
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1267fcc57631bcff8a48bd87b6ca0123ba9aef0b661e2e2beb33b688a1228ff7"
        )
        assert len(out) > 800_000
        assert max(writes) <= 128 * 1024

    def test_first_block_precedes_last_generator_encoding(self, monkeypatch):
        # each generator is encoded when the writer reaches it, so output
        # starts before the last generator has been turned into JSON
        events = []
        to_json = CentralizerGenerator.to_json

        def spied_to_json(self):
            events.append("encode")
            return to_json(self)

        class Spy(io.StringIO):
            def write(self, s):
                events.append("write")
                return super().write(s)

        monkeypatch.setattr(CentralizerGenerator, "to_json", spied_to_json)
        spy = Spy()
        monkeypatch.setattr(sys, "stdout", spy)
        assert main(["centralizer", "--n", "5"]) == 0
        last_encode = len(events) - 1 - events[::-1].index("encode")
        assert events.index("write") < last_encode
        assert hashlib.sha256(spy.getvalue().encode()).hexdigest() == (
            "1267fcc57631bcff8a48bd87b6ca0123ba9aef0b661e2e2beb33b688a1228ff7"
        )


class TestOracleCommands:
    def test_kernel(self, capsys):
        data = payload(
            capsys, "oracle", "kernel", "--n", "3", "--power", "1", "--deg", "2"
        )
        assert data["result"]["dimension"] == 4
        assert "certificate" in data["result"]

    def test_kernel_power_beyond_the_block_size(self, capsys):
        # the largest block, degree 2 in 3 variables, has 6 monomials, so
        # Ker D^i stops growing at i = 6 (Fitting's lemma): a power of a
        # million gives the same report, and without applying D a million times
        def result(power):
            data = payload(capsys, "oracle", "kernel", "--n", "3",
                           "--power", str(power), "--deg", "2")
            assert data["config"].pop("power") == data["result"].pop("power") == power
            return data

        assert result(10**6) == result(6)

    def test_verify_thm2(self, capsys):
        data = payload(capsys, "oracle", "verify-thm2", "--n", "3", "--deg", "3")
        assert data["result"]["ok"] is True
        assert len(data["result"]["certificate"]) == 3

    def test_verify_prop1(self, capsys):
        data = payload(capsys, "oracle", "verify-prop1", "--n", "3", "--deg", "2")
        assert data["result"]["ok"] is True

    def test_verify_prop1_unknowns_over_cap(self, capsys, monkeypatch):
        # 21 monomials fit a cap of 100, the 5 x 21 unknowns do not
        monkeypatch.setattr(oracle, "MONOMIAL_COUNT_CAP", 100)
        code, out, err = run_cli(capsys, "oracle", "verify-prop1", "--n", "5",
                                 "--deg", "2")
        assert code == 2
        assert out == ""
        assert "105 unknowns" in err

    def test_oracle_rank(self, capsys, tmp_path):
        t = sl2_triple(3)
        f = tmp_path / "rank.json"
        f.write_text(json.dumps({"derivations": [t.d.to_json()]}))
        data = payload(capsys, "oracle", "rank", "--input", str(f))
        assert data["result"]["rank"] == 1


class TestConsoleEntryPoint:
    @staticmethod
    def run_module(*argv):
        # the child imports the same package as the tests, installed or not
        src = str(Path(dercent.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "dercent", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_invocation(self):
        result = self.run_module("--version")
        assert result.returncode == 0
        assert __version__ in result.stdout

    def test_usage_error_exit_code(self):
        result = self.run_module("no-such-command")
        assert result.returncode == 2
