import math

import pytest

import checks


def test_same_numbers_allows_only_last_digit_changes():
    a = "radius,lambda1\n0.5,90.292048722469914\nscaling residual 4.673e-04\n"
    b = "radius,lambda1\n0.5,90.2920487224699\nscaling residual 4.673e-04\n"
    assert checks.same_numbers(a, b)
    assert not checks.same_numbers(a, b.replace("90.29", "90.30"))
    assert not checks.same_numbers(a, b.replace("radius", "rho"))
    assert not checks.same_numbers(a, b + "extra\n")


def test_parse_table_stops_at_notes():
    text = "cells,linf_error,order\n32,0.09,\n64,0.03,1.57\norders: 1.575, 1.802\n"
    header, rows, notes = checks.parse_table(text)
    assert header == ["cells", "linf_error", "order"]
    assert [r["cells"] for r in rows] == ["32", "64"]
    assert notes == ["orders: 1.575, 1.802"]


def test_closed_forms_at_known_points():
    assert checks.green_constant(3, 0.5) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-14)
    assert checks.kappa(0.5) == pytest.approx(1.0, rel=1e-14)
    # m = n - 2g = 1 gives the order-1/2 Bessel function, whose first zero is pi
    assert checks.lambda1_continuum(2, 0.5) == pytest.approx(math.pi**2, rel=1e-14)

    c, num = checks.coefficient(7, 0.2)
    assert num == pytest.approx(3 * 49 + 7 * (16 * 0.04 - 22) + 20 * 0.96)
    assert c > 0 and checks.dimension_gate(7, 0.2)
