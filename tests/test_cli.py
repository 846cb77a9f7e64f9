import contextlib
import dataclasses
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plkernel import cli, complexes, delta, families, homology, linalg, nerve, prism, suite


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


def test_homology_json_of_a_dset_matches_the_library(tmp_path, capsys):
    loop = delta.DeltaSet({0: ("v",), 1: ("e",)}, {(1, "e", 0): "v", (1, "e", 1): "v"}, "loop")
    named = {
        "torus": complexes.delta_set_of(suite.torus_7()),
        "rp2": complexes.delta_set_of(suite.projective_plane_6()),
        "loop": loop,
    }
    for name, x in named.items():
        delta.dump(x, tmp_path / f"{name}.dset")
    nerve.dump(nerve.demo_cobordism_category(), tmp_path / "demo.cat")
    demo = tmp_path / "demo.dset"
    code, _, _ = run_cli(["nerve", str(tmp_path / "demo.cat"), "--max-degree", "4", "-o", str(demo)], capsys)
    assert code == 0
    for name in (*named, "demo"):
        path = tmp_path / f"{name}.dset"
        code, out, _ = run_cli(["homology", str(path), "--json"], capsys)
        assert code == 0
        h = homology.homology_of_delta_set(delta.load(path))
        assert json.loads(out)["groups"] == {
            str(k): [h.betti(k), list(h.torsion(k))] for k in sorted(h.groups)
        }
    assert json.loads(out)["groups"]["4"] == [3442, []]


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


def test_validate_empty_complex(tmp_path, capsys):
    path = tmp_path / "e.cplx"
    path.write_text("complex E ambient=2\n")
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert out.startswith("valid:")


@pytest.mark.parametrize("ambient", ["-1", "x"])
def test_validate_bad_ambient_header_exit_1(tmp_path, capsys, ambient):
    path = tmp_path / "k.cplx"
    path.write_text(f"complex K ambient={ambient}\nv 0 0\ns 0\n")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "line 1: bad header" in err


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
    assert "DeltaStructureError" in err and "line 3: repeated generator 'a' in degree 0" in err


@pytest.mark.parametrize(
    "line, key",
    [
        ("d 1 zz 0 a", "(1, 'zz', 0)"),  # unknown generator
        ("d 1 e 7 a", "(1, 'e', 7)"),  # index out of range
        ("d 0 a 0 b", "(0, 'a', 0)"),  # a face in degree 0
    ],
    ids=["unknown-generator", "index", "degree-0"],
)
def test_validate_stray_face_line_exit_1(tmp_path, capsys, line, key):
    path = tmp_path / "stray.dset"
    path.write_text(f"dset X\ng 0 a\ng 0 b\ng 1 e\nd 1 e 0 a\n{line}\nd 1 e 1 b\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "DeltaStructureError" in err and f"face key {key} names no face" in err


def test_validate_repeated_face_line_exit_1(tmp_path, capsys):
    path = tmp_path / "twice.dset"
    path.write_text("dset X\ng 0 a\ng 0 b\ng 1 e\nd 1 e 0 a\nd 1 e 1 b\nd 1 e 0 b\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "DeltaStructureError" in err and "repeated face line 'd 1 e 0 b'" in err


def test_vertex_without_id_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cplx"
    path.write_text("complex K ambient=1\nv\n")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "ComplexStructureError" in err


def test_validate_repeated_vertex_id_exit_1(tmp_path, capsys):
    path = tmp_path / "twice.cplx"
    path.write_text("complex K ambient=1\nv 1 1\nv 1 5\ns 1\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "ComplexStructureError" in err and "line 3: repeated vertex id 1" in err


def test_map_vertex_without_id_exit_1(tmp_path, capsys):
    src = tmp_path / "seg.cplx"
    complexes.dump(families.standard_simplex_complex(1), src)
    amap = tmp_path / "f.amap"
    amap.write_text("amap f\nv\n")
    code, _, err = run_cli(["fiber", str(src), str(amap), "--at", "1/2"], capsys)
    assert code == 1
    assert "FamilyError" in err


def test_validate_vertex_in_no_simplex_exit_1(tmp_path, capsys):
    path = tmp_path / "stray.cplx"
    path.write_text("complex K ambient=1\nv 0 0\nv 1 1\ns 0\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "ComplexStructureError" in err and "line 3: vertex 1 is in no simplex" in err


def _run_map_command(tmp_path, capsys, command, amap_text):
    """`pullback` of the roof family or `fiber` over 1/2, along the map of
    the segment that amap_text gives; both targets lie in R^1."""
    fam, src, amap = tmp_path / "w.fam", tmp_path / "seg.cplx", tmp_path / "f.amap"
    families.dump(suite.lift_fixtures()[3], fam)
    complexes.dump(families.standard_simplex_complex(1), src)
    amap.write_text(amap_text)
    argv = {
        "pullback": ["pullback", str(fam), str(src), str(amap)],
        "fiber": ["fiber", str(src), str(amap), "--at", "1/2"],
    }[command]
    return run_cli(argv, capsys)


@pytest.mark.parametrize("command", ["pullback", "fiber"])
@pytest.mark.parametrize(
    "images, message",
    [
        (["v 0 0", "v 0 1", "v 1 1"], "line 3: repeated vertex id 0"),
        (["v 0 0", "v 1 1", "v 7 1"], "line 4: vertex 7 is not in the source"),
        (["v 0 0", "v 1 1 0"], "line 3: expected 1 coordinates"),
        (["v 0", "v 1 1"], "line 2: expected 1 coordinates"),
    ],
)
def test_map_bad_vertex_line_exit_1(tmp_path, capsys, command, images, message):
    # a second image of vertex 0 used to replace the first, an image of
    # a vertex the segment lacks used to join the images' denominator, and
    # an image of the wrong length used to fail later, naming no line
    code, out, err = _run_map_command(tmp_path, capsys, command, "amap f\n" + "\n".join(images) + "\n")
    assert code == 1
    assert out == ""
    assert "FamilyError" in err and message in err


@pytest.mark.parametrize("command", ["pullback", "fiber"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("v 0 0\nv 1 1\n", "missing amap header"),
        # a vertex line before the header used to be read as the map's
        ("v 0 0\namap f\nv 1 1\n", "missing amap header"),
        ("amap f\nv 0 0\namap g\nv 1 1\n", "line 3: repeated header"),
    ],
    ids=["missing", "late", "repeated"],
)
def test_map_reader_requires_one_header(tmp_path, capsys, command, text, message):
    assert _run_map_command(tmp_path, capsys, command, text) == (1, "", f"error: FamilyError: {message}\n")


def test_rmap_prints_the_vertex_map(capsys):
    code, out, _ = run_cli(["rmap", "1", "2", "0,2"], capsys)
    assert code == 0
    assert out.splitlines() == ["0 -> 0", "1 -> 2", "2 -> 3", "3 -> 5", "4 -> 7"]


@pytest.mark.parametrize("eta, field", [("0,x", "x"), ("0,", ""), ("0,-1", "-1"), ("0,1/2", "1/2")])
def test_rmap_bad_eta_field_exit_1(capsys, eta, field):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rmap", "1", "1", eta])
    assert exc.value.code == 1
    assert f"error: argument eta: not a non-negative integer: {field!r}" in capsys.readouterr().err


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


def test_validate_family_missing_a_base_cell_exit_2(tmp_path, capsys):
    # the stored subdivision covers the triangle but not the base's
    # dangling edge, which used to pass as a subdivision
    coords = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(-1), F(1))}
    triangle = complexes.EuclideanComplex.build([(0, 1, 2)], {v: coords[v] for v in range(3)})
    base = complexes.EuclideanComplex.build([(0, 1, 2), (2, 3)], coords)
    w = families.constant_family(triangle, families.standard_simplex_complex(0))
    path = tmp_path / "w.fam"
    families.dump(dataclasses.replace(w, base=base), path)
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == "invalid: stored subdivision does not subdivide the base\n"


def _family_lines():
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    return families.dumps(w).splitlines()


@pytest.mark.parametrize(
    "edit, message",
    [
        # a second base section used to replace the first
        (lambda lines: lines[:7] + lines[1:7] + lines[7:], "line 8: repeated section base"),
        # a second projection of a simplex used to replace the first
        (lambda lines: lines + lines[-1:], "line 21: repeated projection of (0, 1)"),
        (lambda lines: lines + ["p 0 | 0"], "line 21: simplex (0,) is not maximal in the total"),
        # an error inside a section names the file's line
        (lambda lines: lines[:16] + ["v 0 7 7"] + lines[16:], "line 17: repeated vertex id 0"),
        # ... and so does one in a section's header, on its own line
        (lambda lines: lines[:8] + ["complex Delta^1 ambient=x"] + lines[9:], "line 9: bad header"),
        (lambda lines: lines[:16] + ["complex B ambient=2"] + lines[16:], "line 17: repeated header"),
        (lambda lines: lines[:14] + lines[15:], "missing complex header"),
        (lambda lines: ["family product depth=1"] + lines[1:], "line 1: bad header"),
        (lambda lines: ["family product fiber=-1"] + lines[1:],
         "line 1: family header fiber=-1 is not a non-negative integer"),
    ],
    ids=["section", "projection", "not-maximal", "line-in-section", "section-header", "section-repeated-header",
         "section-missing-header", "header", "header-fiber"],
)
def test_validate_family_repeated_or_stray_record_exit_1(tmp_path, capsys, edit, message):
    path = tmp_path / "w.fam"
    path.write_text("\n".join(edit(_family_lines())) + "\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.endswith(f": {message}\n")


@pytest.mark.parametrize(
    "extra", ["obj A", "mor f A A", "cmp f f g"], ids=["object", "morphism", "composite"]
)
@pytest.mark.parametrize("command", ["validate", "nerve"])
def test_category_repeated_record_exit_1(tmp_path, capsys, command, extra):
    # validate used to accept a repeated object or morphism that nerve
    # rejected, and a repeated composite silently replaced the first
    path = tmp_path / "c.cat"
    path.write_text(f"category C\nobj A\nmor f A A\nmor g A A\ncmp f f f\n{extra}\n")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "CategoryStructureError: line 6: repeated" in err


def test_validate_file_opening_with_a_comment(tmp_path, capsys):
    # the kind is the first word of the first record; a leading comment
    # line used to be taken for an unknown header
    path = tmp_path / "t.cplx"
    path.write_text("# a triangle\n\n" + complexes.dumps(families.standard_simplex_complex(2)))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert out.startswith("valid:")


_SEGMENT = "complex A ambient=1\nv 0 0\nv 1 1\ns 0 1\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        # a second header used to replace the first
        ("validate", _SEGMENT + "complex B ambient=1\n", "ComplexStructureError: line 5: repeated header"),
        # ... and a second ambient= surfaced as a wrong coordinate length
        ("validate", "complex A ambient=1\nv 0 0\ncomplex A ambient=2\nv 1 1 1\ns 0 1\n",
         "ComplexStructureError: line 3: repeated header"),
        ("validate", "dset X\ng 0 a\ndset Y\n", "DeltaStructureError: line 3: repeated header"),
        ("validate", "category C\nobj A\ncategory D\n", "CategoryStructureError: line 3: repeated header"),
        ("nerve", "category C\nobj A\ncategory D\n", "CategoryStructureError: line 3: repeated header"),
        ("validate", "family F fiber=0\nfamily G fiber=0\n", "FamilyError: line 2: repeated header"),
        # an empty simplex reached the face closure, which named no line
        ("validate", _SEGMENT + "s\n", "ComplexStructureError: line 5: simplex without vertices"),
        ("nerve", "category C\nobj A\nobj\n", "CategoryStructureError: line 3: unexpected line 'obj'"),
    ],
    ids=["complex", "ambient", "dset", "category", "category-nerve", "family", "empty-simplex",
         "category-line"],
)
def test_reader_names_the_bad_header_or_record_exit_1(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# command -> its argv, with "{}" for the file under test, and the kinds it
# takes there; "{family}" and the like name good files of that kind
_FILE_SLOTS = {
    "validate": (["validate", "{}"], ("complex", "dset", "family", "category")),
    "subdivide": (["subdivide", "{}"], ("complex",)),
    "pullback-family": (["pullback", "{}", "{complex}", "{amap}"], ("family",)),
    "pullback-source": (["pullback", "{family}", "{}", "{amap}"], ("complex",)),
    "slice": (["slice", "{}", "1/3"], ("family",)),
    "fiber": (["fiber", "{}", "{amap}", "--at", "1/2"], ("complex",)),
    "hornfill": (["hornfill", "{}", "1", "0"], ("family",)),
    "homology": (["homology", "{}"], ("complex", "dset")),
    "nerve": (["nerve", "{}"], ("category",)),
    "export-off": (["export-off", "{}"], ("complex",)),
}
_KINDS = ("complex", "dset", "family", "category", "amap")


@pytest.mark.parametrize(
    "slot, kind",
    [(slot, kind) for slot, (_, takes) in _FILE_SLOTS.items() for kind in _KINDS if kind not in takes],
)
def test_wrong_file_kind_exit_1(tmp_path, capsys, slot, kind):
    seg = families.standard_simplex_complex(1)
    paths = {k: tmp_path / f"file.{k}" for k in _KINDS}
    complexes.dump(seg, paths["complex"])
    delta.dump(complexes.delta_set_of(seg), paths["dset"])
    families.dump(suite.lift_fixtures()[3], paths["family"])
    nerve.dump(nerve.demo_cobordism_category(), paths["category"])
    paths["amap"].write_text("amap f\nv 0 0\nv 1 1\n")
    template, takes = _FILE_SLOTS[slot]
    argv = [str(paths[kind]) if a == "{}" else a.format(**paths) for a in template]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: FileKindError: expected a {' or '.join(takes)} file, not {kind!r}\n"


@pytest.mark.parametrize("images", [["v 0 0", "v 1 1/2"], ["v 0 0 0 0", "v 1 1/2 0 0"]])
def test_pullback_along_wrong_dimension_map_exit_1(tmp_path, capsys, images):
    # the family's base lies in R^2; the map's images have one or four coordinates
    fam, src, amap = tmp_path / "w.fam", tmp_path / "seg.cplx", tmp_path / "f.amap"
    families.dump(suite.lift_fixtures()[8], fam)
    complexes.dump(families.standard_simplex_complex(1), src)
    amap.write_text("amap f\n" + "\n".join(images) + "\n")
    code, _, err = run_cli(["pullback", str(fam), str(src), str(amap)], capsys)
    assert code == 1
    assert "FamilyError: line 2: expected 2 coordinates" in err


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


@pytest.mark.parametrize("degree, code, text", [("0", 0, "nerve f-vector=(2,)"), ("-1", 1, "--max-degree")])
def test_nerve_max_degree_below_one(tmp_path, capsys, degree, code, text):
    path = tmp_path / "cob.cat"
    nerve.dump(nerve.demo_cobordism_category(), path)
    try:
        got = cli.main(["nerve", str(path), "--max-degree", degree])
    except SystemExit as exc:  # the parser rejects a negative degree
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert text in out.out + out.err


_Z3 = "category Z3\nobj pt\n" + "".join(f"mor z{a} pt pt\n" for a in range(3))
_Z3 += "".join(f"cmp z{a} z{b} z{(a + b) % 3}\n" for a in range(3) for b in range(3))
_CHAIN3 = "category chain\nobj 0\nobj 1\nobj 2\nmor f 0 1\nmor g 1 2\n"


@pytest.mark.parametrize(
    "text, f_vector",
    [(nerve.dumps(nerve.demo_cobordism_category()), (2, 23, 169)), (_CHAIN3, (3, 2)), (_Z3, (1, 3, 9))],
    ids=["demo", "truncated-chain", "Z3"],
)
def test_validate_and_nerve_agree_on_categories(tmp_path, capsys, text, f_vector):
    # one semantics for category tables: a table may be a truncation, as
    # the demo's drops every composite past LOOP_CAP
    path = tmp_path / "c.cat"
    path.write_text(text)
    assert run_cli(["validate", str(path)], capsys)[0] == 0
    assert run_cli(["nerve", str(path), "--max-degree", "2"], capsys)[:2] == (0, f"nerve f-vector={f_vector}\n")


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("complex K ambient=1\nv 0 0\nv a 1\ns 0 1\n", "line 3: bad number 'a'"),
        ("complex K ambient=1\nv 0 0\nv 1 1\ns 0 b\n", "line 4: bad number 'b'"),
        ("complex K ambient=1\nv 0 0\nv 1 1.5\ns 0 1\n", "line 3: bad number '1.5'"),
        ("dset D\ng 0 a\ng x e\n", "line 3: bad number 'x'"),
        ("dset D\ng 0 a\ng 1 e\nd 1 e 0 a\nd 1 e y a\n", "line 5: bad number 'y'"),
    ],
    ids=["complex-vertex", "complex-simplex", "complex-coordinate", "dset-generator", "dset-face"],
)
def test_bad_number_field_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_bad_projection_number_names_its_line(tmp_path, capsys):
    lines = families.dumps(
        families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    ).splitlines()
    path = tmp_path / "w.fam"
    path.write_text("\n".join(lines[:-1] + ["p 0 z | 0 1"]) + "\n")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert f"line {len(lines)}: bad number 'z'" in err


@pytest.mark.parametrize(
    "images, message",
    [
        (["v 0 0", "v one 1"], "line 3: bad number 'one'"),
        (["v 0 0", "v 1 0.5"], "line 3: bad number '0.5'"),
    ],
    ids=["id", "image"],
)
def test_bad_map_number_names_its_line(tmp_path, capsys, images, message):
    src, amap = tmp_path / "seg.cplx", tmp_path / "f.amap"
    complexes.dump(families.standard_simplex_complex(1), src)
    amap.write_text("amap f\n" + "\n".join(images) + "\n")
    code, out, err = run_cli(["fiber", str(src), str(amap), "--at", "1/2"], capsys)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["subdivide", "{}", "-r", "-2"], "--rounds"),
        (["export-off", "{}", "--digits", "-1"], "--digits"),
        (["prism-r", "-1"], "argument p"),
        (["prism-k", "-1", "--counts"], "argument p"),
        (["rmap", "-1", "0", "0"], "argument p"),
        (["rmap", "1", "-1", "0,0"], "argument q"),
        (["hornfill", "{}", "-1", "0"], "argument p"),
        (["hornfill", "{}", "2", "-1"], "argument j"),
    ],
    ids=["rounds", "digits", "prism-r-p", "prism-k-p", "rmap-p", "rmap-q", "hornfill-p", "hornfill-j"],
)
def test_negative_count_option_exit_1(tmp_path, capsys, argv, option):
    path = tmp_path / "seg.cplx"
    path.write_text(_SEGMENT)
    with pytest.raises(SystemExit) as exc:
        cli.main([str(path) if a == "{}" else a for a in argv])
    assert exc.value.code == 1
    assert option in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["prism-r", "7"], "p"),
        (["prism-k", "7", "--counts"], "p"),
        (["rmap", "7", "7", "0,1,2,3,4,5,6,7"], "p"),
        (["rmap", "1", "7", "0,7"], "q"),
    ],
    ids=["prism-r-p", "prism-k-p", "rmap-p", "rmap-q"],
)
def test_dimension_above_cap_exit_1_naming_the_argument(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}: 7 outside the allowed range 0..{prism.DIMENSION_CAP}\n" in err
    assert "ValueError" not in err


def test_dimension_at_cap_stays_valid(capsys):
    code, out, _ = run_cli(["rmap", "0", str(prism.DIMENSION_CAP), "6"], capsys)
    assert code == 0 and out == "0 -> 6\n1 -> 13\n"


@pytest.mark.parametrize(
    "eta, message",
    [
        ("0,5", "image outside [0..2]"),
        ("1,0", "map (1, 0) is not order-preserving"),
        ("0", "map must list the p+1 = 2 vertex images"),
    ],
)
def test_rmap_bad_image_names_eta(capsys, eta, message):
    assert run_cli(["rmap", "1", "2", eta], capsys) == (
        1, "", f"error: ValueError: argument eta: {message}\n"
    )


def test_zero_rounds_and_digits_stay_valid(tmp_path, capsys):
    path = tmp_path / "seg.cplx"
    path.write_text(_SEGMENT)
    code, out, _ = run_cli(["subdivide", str(path), "-r", "0"], capsys)
    assert code == 0 and out == _SEGMENT
    code, out, _ = run_cli(["export-off", str(path), "--digits", "0"], capsys)
    assert code == 0 and out.splitlines()[3:] == ["0", "1", "2 0 1"]


def test_format_decimal_rejects_negative_digits():
    assert prism.format_decimal(F(2, 3), 0) == "1"
    with pytest.raises(ValueError, match="digits"):
        prism.format_decimal(F(2, 3), -1)


def test_fiber_that_is_not_a_complex_fails(tmp_path, capsys):
    # a fiber builder that triangulated a shared face two ways would leave
    # overlapping simplices; validating the one fiber is what catches it
    overlap = complexes.EuclideanComplex.build(
        [(0, 1, 2), (0, 1, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(0), F(2)), 3: (F(1), F(1, 2))},
    )
    seg = families.standard_simplex_complex(1)
    src, amap = tmp_path / "seg.cplx", tmp_path / "f.amap"
    complexes.dump(seg, src)
    amap.write_text("amap f\nv 0 0\nv 1 1\n")
    with mock.patch.object(families, "_fiber", return_value=overlap):
        assert not families.regular_fiber(families.identity_map(seg), (F(1, 2),)).ok
        code, out, _ = run_cli(["fiber", str(src), str(amap), "--at", "1/2"], capsys)
    assert code == 2
    assert out.startswith("certificate=fail")


def _header_formats():
    """format -> (its reader on text, a valid text, its error class)."""
    seg = families.standard_simplex_complex(1)
    x = complexes.delta_set_of(seg)
    return {
        "complex": (complexes.loads, complexes.dumps(seg), complexes.ComplexStructureError),
        "dset": (delta.loads, delta.dumps(x), delta.DeltaStructureError),
        "map": (
            lambda t: delta.loads_morphism(t, {x.name: x}),
            delta.dumps_morphism(delta.identity_morphism(x)),
            delta.DeltaStructureError,
        ),
        "family": (families.loads, families.dumps(suite.lift_fixtures()[3]), families.FamilyError),
        "amap": (lambda t: families.loads_map(t, seg, seg), "amap f\nv 0 0\nv 1 1\n", families.FamilyError),
        "category": (nerve.loads, nerve.dumps(nerve.demo_cobordism_category()), nerve.CategoryStructureError),
    }


@pytest.mark.parametrize("fmt", ["complex", "dset", "map", "family", "amap", "category"])
@pytest.mark.parametrize("case", ["empty", "late", "repeated"])
def test_every_format_takes_its_header_first_and_once(fmt, case):
    read, text, error = _header_formats()[fmt]
    read(text)
    lines = text.splitlines()
    word = lines[0].split()[0]
    bad, message = {
        "empty": ("# nothing but a comment\n", f"missing {word} header"),
        "late": ("\n".join([lines[1], lines[0]] + lines[2:]), f"missing {word} header"),
        "repeated": (text + lines[0] + "\n", f"line {len(lines) + 1}: repeated header"),
    }[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(bad)


@pytest.mark.parametrize(
    "p, j, message",
    [
        ("9", "9", "FamilyError: horn retractions are stored for p <= 3 only"),
        ("2", "7", "FamilyError: bad horn indices"),
        ("2", "1", "FamilyError: family base is not the expected horn"),
    ],
    ids=["large-p", "bad-j", "other-horn"],
)
@pytest.mark.parametrize("empty", [True, False], ids=["empty", "non-empty"])
def test_hornfill_checks_its_arguments_on_every_family(tmp_path, capsys, empty, p, j, message):
    # an empty family used to be filled before any check ran
    horn = families.horn_complex(2, 0)
    w = families.empty_family(horn, 1) if empty else families.constant_family(horn, suite.segment_fiber())
    path = tmp_path / "w.fam"
    families.dump(w, path)
    assert run_cli(["hornfill", str(path), p, j], capsys) == (1, "", f"error: {message}\n")


def test_hornfill_of_an_empty_family_is_empty(tmp_path, capsys):
    path = tmp_path / "w.fam"
    families.dump(families.empty_family(families.horn_complex(2, 0), 1), path)
    code, out, _ = run_cli(["hornfill", str(path), "2", "0"], capsys)
    assert code == 0
    filled = families.loads(out)
    assert filled.is_empty() and filled.base == families.standard_simplex_complex(2)


@pytest.mark.parametrize(
    "argv",
    [["subdivide", "f"], ["pullback", "f", "g", "h"], ["slice", "f", "0"], ["hornfill", "f", "2", "0"],
     ["export-off", "f"]],
    ids=lambda argv: argv[0],
)
def test_json_only_on_commands_that_print_a_report(capsys, argv):
    # these commands write a complex, family or mesh; --json was accepted
    # and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --json" in capsys.readouterr().err


# every exit 1 names one of these; a bare KeyError, ValueError, IndexError
# or TypeError would be an unguarded path
_INPUT_ERRORS = (
    "ComplexStructureError", "DeltaStructureError", "FamilyError",
    "CategoryStructureError", "ChainComplexError", "FileKindError",
)
_REPLACEMENTS = (
    "0", "1", "-1", "1/2", "1/0", "x", "|", "complex", "dset", "family", "category",
    "v", "s", "g", "d", "p", "obj", "mor", "cmp", "begin", "end", "base", "total",
    "ambient=1", "ambient=x", "fiber=1", "fiber=-1", "#",
)


@functools.cache
def _mutation_seeds():
    """(valid file text, the commands besides validate that read it, with
    "{}" for the file) for every file kind."""
    seeds = []
    for k in suite.corpus():
        seeds.append((complexes.dumps(k), (["homology", "{}"],)))
        seeds.append((delta.dumps(complexes.delta_set_of(k)), (["homology", "{}"],)))
    for w in suite.lift_fixtures():
        seeds.append((families.dumps(w), (["slice", "{}", ",".join(["1/3"] * w.base.ambient_dim)],)))
    seeds.append((nerve.dumps(nerve.demo_cobordism_category()), (["nerve", "{}"],)))
    seeds.append((_Z3, (["nerve", "{}"],)))
    return seeds


def _mutate(text, edits):
    lines = text.splitlines()
    for op, i, j, k in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:  # replace one token by a keyword, a number or a token of the file
            tokens, pool = lines[i].split(), _REPLACEMENTS + tuple(text.split())
            if tokens:
                tokens[j % len(tokens)] = pool[k % len(pool)]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutants") / "mutant.txt")


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "swap", "replace"]),
            st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**4),
        ),
        min_size=1, max_size=3,
    ),
)
# the slant family with its base edge collapsed to a point: slice used to
# exit 1 with a bare ValueError from the dependent base simplex
@example(14, [("replace", 4, 2, 0)])
def test_mutated_files_exit_1_with_their_own_error_class(mutant_path, which, edits):
    seeds = _mutation_seeds()
    text, commands = seeds[which % len(seeds)]
    with open(mutant_path, "w", encoding="utf-8") as fh:
        fh.write(_mutate(text, edits))
    for template in (["validate", "{}"],) + commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{}", mutant_path) for a in template])
        assert code in (0, 1, 2)
        if code == 1:
            assert re.match(f"error: ({'|'.join(_INPUT_ERRORS)}): ", err.getvalue()), err.getvalue()
