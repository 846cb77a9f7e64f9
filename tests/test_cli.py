import dataclasses
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest

from plkernel import cli, complexes, families, linalg, nerve, prism, suite


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prism_r_counts(capsys):
    code, out, _ = run_cli(["prism-r", "1", "--counts"], capsys)
    assert code == 0
    assert out.strip() == "vertices=5 edges=7 triangles=3 chi=1"


def test_prism_r_counts_json(capsys):
    code, out, _ = run_cli(["prism-r", "1", "--counts", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [5, 7, 3]
    assert data["chi"] == 1


def test_homology_dset(tmp_path, capsys):
    from plkernel import delta

    x = complexes.delta_set_of(suite.torus_7())
    path = tmp_path / "torus.dset"
    delta.dump(x, path)
    code, out, _ = run_cli(["homology", str(path)], capsys)
    assert code == 0
    assert out.strip() == "H_0 = Z, H_1 = Z^2, H_2 = Z"


def test_validate_bad_complex_exit_2(tmp_path, capsys):
    from fractions import Fraction as F

    bad = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(1), F(-2))},
    )
    path = tmp_path / "bad.cplx"
    complexes.dump(bad, path)
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "intersection not a common face" in out


def test_validate_good_complex(tmp_path, capsys):
    path = tmp_path / "t.cplx"
    complexes.dump(suite.torus_7(), path)
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(["homology", "/nonexistent.dset"], capsys)
    assert code == 1
    assert "error" in err


def test_validate_repeated_generator_exit_1(tmp_path, capsys):
    path = tmp_path / "rep.dset"
    path.write_text("dset X\ng 0 a\ng 0 a\ng 0 b\ng 1 e\nd 1 e 0 a\nd 1 e 1 b\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "DeltaStructureError" in err and "'a' repeats in degree 0" in err


def test_vertex_without_id_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cplx"
    path.write_text("complex K ambient=1\nv\n")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "ComplexStructureError" in err


def test_map_vertex_without_id_exit_1(tmp_path, capsys):
    src = tmp_path / "seg.cplx"
    complexes.dump(families.standard_simplex_complex(1), src)
    amap = tmp_path / "f.amap"
    amap.write_text("amap f\nv\n")
    code, _, err = run_cli(["fiber", str(src), str(amap), "--at", "1/2"], capsys)
    assert code == 1
    assert "FamilyError" in err


def test_unknown_subcommand_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_rational_rejected(tmp_path, capsys):
    path = tmp_path / "w.fam"
    families.dump(suite.lift_fixtures()[3], path)
    code, _, err = run_cli(["slice", str(path), "0.5"], capsys)
    assert code == 1
    assert "bad rational" in err


def test_slice_over_dependent_base_exit_1(tmp_path, capsys):
    # a base simplex that is not affinely independent is bad input
    line = complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(1)), 2: (F(2), F(2))}
    )
    path = tmp_path / "w.fam"
    families.dump(families.constant_family(line, suite.point_fiber()), path)
    code, _, err = run_cli(["slice", str(path), "1/2,1/2"], capsys)
    assert code == 1
    assert "not affinely independent" in err


def _segment_family_with(tmp_path, part):
    # the point family over the segment [0, 1], with its base, or its stored
    # subdivision and the cell of every total simplex, replaced by a
    # triangle on three collinear points
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    flat = complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0),), 1: (F(1),), 2: (F(1, 2),)}
    )
    if part == "subdivision":
        cells = dict.fromkeys(w.projection, (0, 1, 2))
        w = dataclasses.replace(w, subdivision=flat, projection=cells)
    else:
        w = dataclasses.replace(w, base=flat)
    path = tmp_path / "w.fam"
    families.dump(w, path)
    return path


@pytest.mark.parametrize(
    "part, issue",
    [("subdivision", "stored base subdivision is not a valid complex"),
     ("base", "base is not a valid complex")],
    ids=["subdivision", "base"],
)
def test_validate_family_with_dependent_simplex_exit_2(tmp_path, capsys, part, issue):
    # the dependent simplex is a validity failure with a witness, not bad input
    path = _segment_family_with(tmp_path, part)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2, err
    assert issue in out


def test_validate_family_with_subdivision_in_another_space_exit_2(tmp_path, capsys):
    # the point family over the segment [0, 1], its stored subdivision
    # replaced by a segment in R^2: the file parses, and is invalid
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    segment = complexes.EuclideanComplex.build([(0, 1)], {0: (F(0), F(0)), 1: (F(1), F(0))})
    path = tmp_path / "w.fam"
    families.dump(dataclasses.replace(w, subdivision=segment), path)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2, err
    assert out == (
        "invalid: stored base subdivision does not live in the base's ambient space\n"
    )


@pytest.mark.parametrize("fiber", ["-1", "one"])
def test_validate_family_with_bad_fiber_header_exit_1(tmp_path, capsys, fiber):
    # a fiber dimension that is not a non-negative integer is bad input
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    text = families.dumps(w).replace("fiber=1", f"fiber={fiber}", 1)
    path = tmp_path / "w.fam"
    path.write_text(text)
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "fiber" in err


@pytest.mark.parametrize("images", [["v 0 0", "v 1 1/2"], ["v 0 0 0 0", "v 1 1/2 0 0"]])
def test_pullback_along_wrong_dimension_map_exit_1(tmp_path, capsys, images):
    # the family's base lies in R^2; the map's images have one or four coordinates
    fam, src, amap = tmp_path / "w.fam", tmp_path / "seg.cplx", tmp_path / "f.amap"
    families.dump(suite.lift_fixtures()[8], fam)
    complexes.dump(families.standard_simplex_complex(1), src)
    amap.write_text("amap f\n" + "\n".join(images) + "\n")
    code, _, err = run_cli(["pullback", str(fam), str(src), str(amap)], capsys)
    assert code == 1
    assert "dimension" in err


def test_subdivide_roundtrip(tmp_path, capsys):
    src = tmp_path / "t.cplx"
    out = tmp_path / "sd.cplx"
    complexes.dump(suite.circle_3(), src)
    code, _, _ = run_cli(["subdivide", str(src), "-o", str(out)], capsys)
    assert code == 0
    sd = complexes.load(out)
    assert sd.f_vector() == (6, 6)


def test_slice_and_pullback(tmp_path, capsys):
    fam = tmp_path / "w.fam"
    families.dump(suite.lift_fixtures()[3], fam)
    code, out, _ = run_cli(["slice", str(fam), "1/3"], capsys)
    assert code == 0
    assert out.startswith("complex")

    src = tmp_path / "seg.cplx"
    seg = families.standard_simplex_complex(1)
    complexes.dump(seg, src)
    amap = tmp_path / "f.amap"
    lines = ["amap f"] + [
        "v %d %s" % (v, " ".join(complexes.format_rational(c) for c in seg.coords[v]))
        for v in sorted(seg.coords)
    ]
    amap.write_text("\n".join(lines) + "\n")
    outp = tmp_path / "pb.fam"
    code, _, _ = run_cli(
        ["pullback", str(fam), str(src), str(amap), "-o", str(outp)], capsys
    )
    assert code == 0
    back = families.load(outp)
    assert families.check_family(back).ok


def test_nerve_requires_allow_partial_for_demo(tmp_path, capsys):
    path = tmp_path / "cob.cat"
    nerve.dump(nerve.demo_cobordism_category(), path)
    code, _, err = run_cli(["nerve", str(path)], capsys)
    assert code == 1
    code, out, _ = run_cli(["nerve", str(path), "--allow-partial", "--max-degree", "2"], capsys)
    assert code == 0
    assert "(2, 23, 169)" in out


def test_export_off(tmp_path, capsys):
    path = tmp_path / "t.cplx"
    complexes.dump(suite.boundary_tetrahedron(), path)
    code, out, _ = run_cli(["export-off", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] in ("OFF", "nOFF")


def subprocess_env():
    """The environment of a subprocess that imports the same plkernel
    package as this test."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plkernel.cli", "prism-k", "2", "--counts"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "chi=1" in proc.stdout


def test_validate_imports_no_numpy(tmp_path):
    # R(3) and one more top simplex on its vertices, which overlaps it, and
    # a surface with 3486 pairs, which only the box-and-wall scan settles
    r = prism.build_R(3).complex
    tops = r.maximal_simplices()
    extra = next(
        s for s in itertools.combinations(r.base.vertices, 5)
        if s not in tops and linalg.affinely_independent(r.points(s))
    )
    bad, surface = tmp_path / "bad.cplx", tmp_path / "sd-torus.cplx"
    complexes.dump(complexes.EuclideanComplex.build(tops + [extra], r.coords), bad)
    complexes.dump(complexes.barycentric_subdivide(suite.torus_7()), surface)
    script = (
        "import sys\n"
        "from plkernel import cli\n"
        "print(cli.main(['validate', sys.argv[1]]), cli.main(['validate', sys.argv[2]]))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(bad), str(surface)],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    witness, valid, codes, imported = proc.stdout.splitlines()
    assert witness.startswith("invalid: intersection not a common face: simplices")
    assert str(extra) in witness
    assert valid == f"valid: {surface}"
    assert (codes, imported) == ("2 0", "False")


def test_verify_suite_json_reports_failing_rows(capsys):
    rows = [("first", True, "fine"), ("second", False, "a PASS row went missing")]
    with mock.patch.object(suite, "run_criteria", lambda names=None: list(rows)):
        code, out, _ = run_cli(["verify-suite", "--json"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "command": "verify-suite",
        "ok": False,
        "rows": [
            {"criterion": "first", "ok": True},
            {"criterion": "second", "ok": False},
            {"criterion": "determinism", "ok": True},
        ],
    }


def test_parser_reuse_carries_no_state(tmp_path, capsys):
    good, bad = tmp_path / "good.cplx", tmp_path / "bad.cplx"
    complexes.dump(suite.circle_3(), good)
    complexes.dump(complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(1), F(-2))},
    ), bad)
    assert cli.build_parser() is cli.build_parser()

    code, out, _ = run_cli(["validate", "--json", str(good)], capsys)
    assert code == 0
    assert json.loads(out) == {"command": "validate", "ok": True, "witness": ""}
    # no --json this time: a text report with the witness
    code, out, _ = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    assert out == "invalid: intersection not a common face: simplices (0, 1, 2) and (1, 2, 3)\n"
    sd = tmp_path / "sd.cplx"
    code, out, _ = run_cli(["subdivide", str(good), "-r", "2", "-o", str(sd)], capsys)
    assert code == 0 and out == ""
    assert complexes.load(sd).f_vector() == (12, 12)
    # neither -r nor -o this time: one round, written to stdout, not to sd.cplx
    sd.write_text("untouched")
    code, out, _ = run_cli(["subdivide", str(good)], capsys)
    assert code == 0
    assert complexes.loads(out).f_vector() == (6, 6)
    assert sd.read_text() == "untouched"
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, _ = run_cli(["validate", str(good)], capsys)
    assert code == 0
    assert out == f"valid: {good}\n"
