from hilbstab.certificate import (
    CSV_COLUMNS,
    NOTE_AMPLE_CLASS,
    NOTE_COHOM_TRANSFORM,
    NOTE_EMPTY_MODULI,
    NOTE_NONPRIMITIVE_PRODUCT,
    NOTE_RANK_TWO_BASIS,
    build_certificate,
    certificate_csv_row,
    certificate_to_dict,
)
from hilbstab.hilb import HilbNSClass
from hilbstab.lattice import K3Surface, MukaiVector
from hilbstab.pfunctor import GradedDims


def test_full_certificate_worked_example_a():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2)
    assert cert.report.admissible is True
    assert cert.image_rank == 5
    assert cert.image_c1 == HilbNSClass(-1, 3)
    assert cert.taut_rank == 6
    assert cert.taut_c1 == HilbNSClass(1, -3)
    assert cert.product_c1_a == -1
    assert cert.moduli_dim == 4
    assert cert.ext_on_X == GradedDims((1, 4, 1))
    assert cert.ext_on_hilb == GradedDims((1, 4, 2, 4, 1))
    assert cert.extension_euler_formula == cert.extension_euler_direct == 6
    assert cert.notes == (NOTE_AMPLE_CLASS, NOTE_COHOM_TRANSFORM)


def test_full_certificate_worked_example_b():
    cert = build_certificate(K3Surface(186), MukaiVector(5, 1, 18), 3)
    assert cert.report.admissible is True
    assert cert.image_rank == 8
    assert cert.image_c1 == HilbNSClass(-1, 5)
    assert cert.taut_rank == 15
    assert cert.moduli_dim == 8
    assert cert.ext_on_hilb == GradedDims((1, 8, 2, 8, 2, 8, 1))


def test_certificate_k_1_omits_ns_basis_fields():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 1)
    assert cert.image_rank == 8  # chi - r
    assert cert.image_c1 is None
    assert cert.taut_rank is None
    assert cert.taut_c1 is None
    assert cert.product_c1_a is None
    assert NOTE_RANK_TWO_BASIS in cert.notes


def test_certificate_nonprimitive_drops_product_c1():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 2, 8), 2)
    assert cert.product_c1_a is None
    assert NOTE_NONPRIMITIVE_PRODUCT in cert.notes
    assert cert.image_c1 == HilbNSClass(-2, 3)
    assert cert.report.admissible is False


def test_certificate_empty_moduli_drops_ext_tables():
    cert = build_certificate(K3Surface(50), MukaiVector(1, 1, 27), 2)
    assert cert.moduli_dim is None
    assert cert.ext_on_X is None
    assert cert.ext_on_hilb is None
    assert NOTE_EMPTY_MODULI in cert.notes


def test_json_integers_are_decimal_strings():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2)
    d = certificate_to_dict(cert)
    assert d["report"]["chi"] == "11"
    assert d["input"]["h_squared"] == "50"
    assert d["image"]["c1"] == ["-1", "3"]
    assert d["ext_on_hilb"] == ["1", "4", "2", "4", "1"]
    assert d["report"]["admissible"] is True  # verdicts stay booleans


def test_json_field_order_is_fixed():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2)
    assert list(certificate_to_dict(cert, include_notes=True)) == [
        "input",
        "report",
        "image",
        "taut",
        "product_c1",
        "moduli_dim",
        "ext_on_X",
        "ext_on_hilb",
        "extension_euler",
        "notes",
    ]
    assert "notes" not in certificate_to_dict(cert, include_notes=False)


def test_csv_row_alignment():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2)
    row = certificate_csv_row(cert)
    assert len(row) == len(CSV_COLUMNS)
    record = dict(zip(CSV_COLUMNS, row))
    assert record["chi"] == "11"
    assert record["admissible"] == "true"
    assert record["gcd_triple"] == "3 50 11"
    assert record["ext_on_X"] == "1 4 1"
    assert record["image_c1_hk"] == "-1"
    assert record["image_c1_delta"] == "3"


def test_csv_row_empty_cells_for_unset_fields():
    cert = build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 1)
    record = dict(zip(CSV_COLUMNS, certificate_csv_row(cert)))
    assert record["image_c1_hk"] == ""
    assert record["taut_rank"] == ""
    assert record["product_c1"] == ""
