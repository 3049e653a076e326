from fractions import Fraction

import pytest

from kcscglue.examples import embedded_examples, example_by_name
from kcscglue.formats import (
    ParseError,
    parse_fan,
    parse_orbifold,
    serialize_fan,
    serialize_orbifold,
    sniff_kind,
)


class TestParseFan:
    def test_bundled_x1(self):
        f = parse_fan(example_by_name("x1").text)
        assert f.dim == 3
        assert f.k == 3
        assert len(f.rays) == 8
        assert len(f.max_cones) == 12
        assert f.labels[0] == "C1"
        assert f.max_cones[0] == (1, 2, 3)  # 0-based

    def test_bundled_x4(self):
        f = parse_fan(example_by_name("x4").text)
        assert len(f.rays) == 6
        assert len(f.max_cones) == 8

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_fan("")

    def test_index_out_of_range(self):
        text = "dim 2\nray [1, 0]\nray [0, 1]\ncone [1, 3]\n"
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert any("out of range" in e for e in err.value.errors)

    def test_dimension_mismatch(self):
        text = "dim 3\nray [1, 0]\ncone [1]\n"
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert any("dimension mismatch" in e for e in err.value.errors)

    def test_error_lines_are_precise(self):
        text = "dim 2\nray [1, 0]\nray [x, 1]\ncone [1, 2]\n"
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert any(e.startswith("line 3:") for e in err.value.errors)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_fan("# a line\ndim 1\nray [1]\nray [-1]\ncone [1]\ncone [2]\n")
        assert list(err.value.errors) == ["line 2: dim must be >= 2"]

    def test_default_labels(self):
        text = "dim 2\nray [1, 0]\nray [0, 1]\nray [-1, -1]\ncone [1, 2]\ncone [2, 3]\n"
        f = parse_fan(text)
        assert f.labels == ("C1", "C2")


class TestParseOrbifold:
    def test_bundled_surface(self):
        o = parse_orbifold(example_by_name("p1xp1-z2").text)
        assert (o.m, o.d, o.s, o.einstein) == (2, 2, None, True)
        assert len(o.points) == 4
        assert o.points[0].phi_values == (-1, -1)
        assert o.points[0].group_order == 2

    def test_rational_values(self):
        text = (
            "m 2\nd 1\ns 4/3\neinstein yes\n"
            "point P ricci_flat order=2 phi=[-1/2]\n"
        )
        o = parse_orbifold(text)
        assert o.s == Fraction(4, 3)
        assert o.points[0].phi_values == (Fraction(-1, 2),)

    def test_float_rejected(self):
        text = "m 2\nd 1\ns 1\neinstein yes\npoint P ricci_flat order=2 phi=[0.5]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("exact rational" in e for e in err.value.errors)

    def test_scalar_flat_needs_sign(self):
        text = "m 2\nd 1\ns 1\neinstein no\npoint Q scalar_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("e_sign" in e for e in err.value.errors)

    def test_ricci_flat_needs_dphi_without_einstein(self):
        text = "m 2\nd 1\ns 1\neinstein no\npoint P ricci_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError):
            parse_orbifold(text)

    def test_dphi_conflicts_with_einstein(self):
        text = (
            "m 2\nd 1\ns 1\neinstein yes\n"
            "point P ricci_flat order=2 phi=[1] dphi=[-2]\n"
        )
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("conflicts" in e for e in err.value.errors)

    def test_phi_length_checked(self):
        text = "m 2\nd 2\ns 1\neinstein yes\npoint P ricci_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("expected d=2" in e for e in err.value.errors)


class TestRoundTrip:
    def test_all_bundled_inputs(self):
        for ex in embedded_examples():
            if ex.kind == "fan":
                first = parse_fan(ex.text)
                again = parse_fan(serialize_fan(first))
            else:
                first = parse_orbifold(ex.text)
                again = parse_orbifold(serialize_orbifold(first))
            assert first == again

    def test_orbifold_with_optional_fields(self):
        text = (
            "m 3\nd 2\ns positive\neinstein no\n"
            "point Q scalar_flat order=4 phi=[1, 1/3] e_sign=-1 e_mag=2 c_gamma=1/2\n"
            "point P ricci_flat order=3 phi=[1, 0] dphi=[-1, 0] c_gamma=3\n"
        )
        first = parse_orbifold(text)
        assert first.points[0].e_magnitude == 2
        assert first.points[0].e_sign == -1
        assert first.points[1].c_gamma == 3
        assert parse_orbifold(serialize_orbifold(first)) == first


def test_sniff_kind():
    assert sniff_kind(example_by_name("x1").text) == "fan"
    assert sniff_kind(example_by_name("p2-z3").text) == "orbifold"
    with pytest.raises(ParseError):
        sniff_kind("\n# only comments\n")
