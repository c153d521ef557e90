"""Command line behavior: artifacts, exit codes, output formats."""

import json
import os

import numpy as np
import pytest

from gaeq.cli import _sample_motion, main
from gaeq.transformer import VARIANTS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

TABLE_FILES = ("cayley_ega.json", "cayley_pga.json", "cayley_cga.json", "join_pga.json")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTables:
    def test_matches_golden_files(self, tmp_path):
        rc = main(["tables", "--out", str(tmp_path)])
        assert rc == 0
        for name in TABLE_FILES:
            got = read_bytes(tmp_path / name)
            want = read_bytes(os.path.join(GOLDEN, name))
            assert got == want, f"{name} drifted from the golden copy"

    def test_rerun_is_byte_identical(self, tmp_path):
        main(["tables", "--out", str(tmp_path / "a")])
        main(["tables", "--out", str(tmp_path / "b")])
        for name in TABLE_FILES:
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    def test_row_counts(self):
        for name, count in [
            ("cayley_ega.json", 64),
            ("cayley_pga.json", 256),
            ("cayley_cga.json", 1024),
            ("join_pga.json", 256),
        ]:
            rows = json.loads(read_bytes(os.path.join(GOLDEN, name)))
            assert len(rows) == count

    def test_single_algebra_writes_one_table(self, tmp_path):
        rc = main(["tables", "--algebra", "ega", "--out", str(tmp_path)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cayley_ega.json"]

    def test_known_products_in_golden(self):
        rows = json.loads(read_bytes(os.path.join(GOLDEN, "cayley_ega.json")))
        by_pair = {(r["a"], r["b"]): r["product"] for r in rows}
        assert by_pair[("e23", "e12")] == "-e13"
        assert by_pair[("e1", "e1")] == "+1"
        assert by_pair[("e12", "e12")] == "-1"
        join_rows = json.loads(read_bytes(os.path.join(GOLDEN, "join_pga.json")))
        by_pair = {(r["a"], r["b"]): r["product"] for r in join_rows}
        assert by_pair[("e0123", "1")] == "+1"
        assert by_pair[("e0", "e0")] == "0"


class TestSolveBasis:
    @pytest.mark.parametrize(
        "algebra,dim", [("ega", 4), ("pga", 9), ("cga", 20)]
    )
    def test_e3_dimension_and_distance(self, algebra, dim, capsys):
        rc = main(["solve-basis", "--algebra", algebra, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["passed"] is True
        assert out["dim"] == dim
        assert out["expected_dim"] == dim
        assert out["closed_form_distance"] < 1e-8

    def test_kernel_gap_is_clean(self, capsys):
        main(["solve-basis", "--algebra", "ega", "--json"])
        out = json.loads(capsys.readouterr().out)
        gap = out["kernel_gap"]
        assert gap["largest_kernel"] < 1e-10 * gap["smallest_kept"]

    def test_text_report_mentions_dimension(self, capsys):
        rc = main(["solve-basis", "--algebra", "ega"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "equivariant map dimension: 4" in text
        assert "PASS" in text

    def test_writes_basis_file(self, tmp_path, capsys):
        path = tmp_path / "basis.json"
        rc = main(["solve-basis", "--algebra", "ega", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(read_bytes(path))
        assert doc["algebra"] == "ega"
        assert doc["group"] == "e3"
        assert doc["dim"] == 4
        maps = np.asarray(doc["maps"])
        assert maps.shape == (4, 8, 8)

    def test_se3_family_lies_in_solved_span(self, capsys):
        rc = main(["solve-basis", "--algebra", "ega", "--group", "se3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        residuals = out["family_residuals"]
        # mirror-free group admits pseudoscalar maps on top of the projections
        assert any(name.startswith("pseudoscalar") for name in residuals)
        assert all(v < 1e-8 for v in residuals.values())

    def test_unreachable_tolerance_fails(self, capsys):
        rc = main(["solve-basis", "--algebra", "ega", "--tol", "1e-18"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in text


class TestVerifyConjecture:
    def test_default_run_passes(self, capsys):
        rc = main(["verify-conjecture"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in text
        # the join-free projective case is the one expected gap
        gap_rows = [l for l in text.splitlines() if "gap" in l and "[ok]" in l]
        assert len(gap_rows) == 1
        assert "pga" in gap_rows[0] and "false" in gap_rows[0]

    def test_json_report_structure(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main(["verify-conjecture", "--json", "--out", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["passed"] is True
        reports = out["reports"]
        assert len(reports) == 4
        for r in reports:
            assert r["l"] == 2
            if r["algebra"] == "pga" and not r["with_join"]:
                assert r["expectation"] == "gap"
                assert r["span_dim"] < r["nullspace_dim"]
            else:
                assert r["expectation"] == "equal"
                assert r["span_dim"] == r["nullspace_dim"]
            assert r["passed"] is True
        assert json.loads(read_bytes(path)) == out

    def test_arity_4_refused_without_long(self, capsys):
        rc = main(["verify-conjecture", "--l-max", "4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "long" in err

    def test_bad_arity_refused(self, capsys):
        rc = main(["verify-conjecture", "--l-max", "7"])
        assert rc == 2
        assert capsys.readouterr().err == "gaeq: l_max 7 outside 2..4\n"


class TestCheckEquivariance:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_sampled_motions_stay_in_the_variant_group(self, variant):
        # an se3 variant is only covariant for rototranslations: an even
        # number of planes; the others draw mirrors too
        rng = np.random.default_rng(0)
        counts = {len(_sample_motion(variant, rng).planes) for _ in range(50)}
        if VARIANTS[variant]["group"] == "se3":
            assert counts and all(c % 2 == 0 for c in counts)
        else:
            assert any(c % 2 for c in counts)

    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_default_model_passes(self, variant, capsys):
        rc = main(
            ["check-equivariance", "--variant", variant, "--samples", "4", "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["passed"] is True
        assert out["identity_error"] == 0.0
        assert out["max_error"] < 1e-9

    def test_euclidean_reports_uncompensated_translation(self, capsys):
        rc = main(["check-equivariance", "--variant", "E", "--samples", "2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        # informative failure mode: stale center breaks covariance badly
        assert out["uncompensated_translation_error"] > 1e-3

    def test_unreachable_tolerance_fails(self, capsys):
        rc = main(
            [
                "check-equivariance", "--variant", "P", "--samples", "2",
                "--blocks", "1", "--tol", "1e-18",
            ]
        )
        text = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in text

    def test_seeded_runs_repeat(self, capsys):
        args = ["check-equivariance", "--variant", "P", "--samples", "3",
                "--blocks", "1", "--seed", "11", "--json"]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_size_overrides_are_applied(self, capsys):
        rc = main(
            [
                "check-equivariance", "--variant", "C", "--samples", "2",
                "--blocks", "1", "--mv-channels", "4", "--scalar-channels", "4",
                "--heads", "1", "--json",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["blocks"] == 1


class TestDemoAttention:
    def test_ega_distance_identity(self, capsys):
        rc = main(["demo-attention", "--variant", "ega_distance", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["logits"][0][1] == -1.0
        assert out["max_deviation"] == 0.0

    def test_cga_inner_half_distance(self, capsys):
        rc = main(["demo-attention", "--variant", "cga_inner", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["logits"][0][1] == -0.5

    def test_pga_plain_is_constant(self, capsys):
        rc = main(["demo-attention", "--variant", "plain_inner", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        logits = np.asarray(out["logits"])
        assert np.ptp(logits) == 0.0

    def test_csv_points_with_header(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z\n0,0,0\n3,4,0\n")
        rc = main(
            ["demo-attention", "--variant", "ega_distance", "--points", str(path),
             "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["logits"][0][1] == -25.0

    def test_json_points_file(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text("[[0, 0, 0], [1, 1, 0], [2, 0, 0]]")
        rc = main(
            ["demo-attention", "--variant", "cga_inner", "--points", str(path),
             "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        logits = np.asarray(out["logits"])
        assert logits[0, 2] == -2.0
        assert abs(logits[0, 1] - (-1.0)) < 1e-12

    @pytest.mark.parametrize(
        "name,text",
        [("pts.csv", "0,0,0\n1,2\n3,4,5\n"), ("pts.json", "[[0,0,0],[1,2],[3,4,5]]")],
        ids=["csv", "json"],
    )
    def test_ragged_points_name_file_and_row(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        rc = main(["demo-attention", "--variant", "ega_distance", "--points", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: expected n x 3 point rows, row 2 has 2 values" in err

    def test_non_numeric_json_point_names_row(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text('[[0, 0, 0], [1, "a", 2]]')
        rc = main(["demo-attention", "--variant", "ega_distance", "--points", str(path)])
        assert rc == 2
        assert f"{path}: bad row 2: [1, 'a', 2]" in capsys.readouterr().err

    def test_text_table_lists_pairs(self, capsys):
        rc = main(["demo-attention", "--variant", "ega_distance"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "max deviation" in text
        assert "PASS" in text


class TestNormProbe:
    def parse_csv(self, text):
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,max_abs_coeff"
        return np.array([float(l.split(",")[1]) for l in lines[1:]])

    def test_plain_conformal_growth_rate(self, capsys):
        rc = main(
            ["norm-probe", "--algebra", "cga", "--norm-variant", "plain",
             "--epsilon", "0.01", "--iterations", "6"]
        )
        series = self.parse_csv(capsys.readouterr().out)
        assert rc == 0
        ratios = series[1:] / series[:-1]
        assert np.all(np.abs(ratios - 10.0) < 0.1)  # 1/sqrt(0.01), within 1%

    def test_default_conformal_variant_is_bounded(self, capsys):
        rc = main(["norm-probe", "--algebra", "cga", "--iterations", "50"])
        series = self.parse_csv(capsys.readouterr().out)
        assert rc == 0
        assert series.max() < 2.0

    def test_euclidean_plain_converges_to_unit(self, capsys):
        rc = main(["norm-probe", "--algebra", "ega", "--iterations", "12"])
        series = self.parse_csv(capsys.readouterr().out)
        assert rc == 0
        assert abs(series[-1] - 1.0) < 1e-5
        assert abs(series[-1] - series[-2]) < 1e-12

    def test_json_payload(self, capsys):
        rc = main(["norm-probe", "--algebra", "pga", "--iterations", "3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["algebra"] == "pga"
        assert out["variant"] == "plain"
        assert len(out["max_abs_coeff"]) == 4

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rc = main(
            ["norm-probe", "--algebra", "cga", "--iterations", "2", "--out", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        series = self.parse_csv(path.read_text())
        assert len(series) == 3


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve-basis"])
        assert exc.value.code == 2

    def test_bad_algebra_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["norm-probe", "--algebra", "qga"])
        assert exc.value.code == 2

    def test_missing_points_file_exits_2(self, capsys):
        rc = main(["demo-attention", "--variant", "ega_distance",
                   "--points", "/nonexistent/points.csv"])
        assert rc == 2
        assert "gaeq:" in capsys.readouterr().err

    def test_bad_epsilon_exits_2(self, capsys):
        rc = main(["norm-probe", "--algebra", "cga", "--epsilon", "-1"])
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_no_samples_exits_2(self, capsys, samples):
        rc = main(["check-equivariance", "--variant", "E", "--samples", samples])
        assert rc == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens", ["0", "-3"])
    def test_no_tokens_exits_2(self, capsys, tokens):
        rc = main(["check-equivariance", "--variant", "E", "--tokens", tokens])
        assert rc == 2
        assert f"--tokens must be at least 1, got {tokens}" in capsys.readouterr().err

    def test_negative_iterations_exits_2(self, capsys):
        rc = main(["norm-probe", "--algebra", "cga", "--iterations", "-3"])
        assert rc == 2
        assert "--iterations" in capsys.readouterr().err

    def test_zero_iterations_prints_the_input(self, capsys):
        rc = main(["norm-probe", "--algebra", "ega", "--iterations", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "iteration,max_abs_coeff\n0,2\n"

    def test_indivisible_heads_exits_2(self, capsys):
        rc = main(["check-equivariance", "--variant", "C", "--heads", "3"])
        assert rc == 2
        assert "head" in capsys.readouterr().err
