import pytest

from neronjac import (
    VineCurve,
    codim_report,
    d_special_vine_scan,
    gcd_remark_audit,
    is_d_general,
    predicted_codim,
    vine,
)
from neronjac.locus import balanced_vines


class TestVine:
    def test_basic(self):
        g = vine(1, 2, 3)
        assert g.weights == (1, 2)
        assert g.n_edges == 3
        assert g.genus == 5

    def test_theta_is_a_vine(self, theta):
        assert vine(0, 0, 3) == theta

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            vine(0, 1, 2)
        with pytest.raises(ValueError, match="unstable"):
            vine(0, 0, 1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            vine(-1, 2, 1)
        with pytest.raises(ValueError):
            vine(1, 1, 0)


class TestVineScan:
    def test_genus3_degree2(self):
        assert d_special_vine_scan(3, 2) == [
            VineCurve(0, 0, 4),
            VineCurve(0, 1, 3),
            VineCurve(1, 1, 2),
            VineCurve(1, 2, 1),
        ]

    def test_min_delta_filters_bridges(self):
        assert d_special_vine_scan(3, 2, min_delta=2) == [
            VineCurve(0, 0, 4),
            VineCurve(0, 1, 3),
            VineCurve(1, 1, 2),
        ]

    def test_genus3_degree3_empty(self):
        # gcd(3 - 2, 4) = 1: no special vines at all
        assert d_special_vine_scan(3, 3) == []

    def test_genus2_degree1(self):
        assert d_special_vine_scan(2, 1) == [
            VineCurve(0, 0, 3),
            VineCurve(1, 1, 1),
        ]

    def test_genus_too_small(self):
        with pytest.raises(ValueError):
            d_special_vine_scan(1, 0)
        for genus in (1, -3):
            with pytest.raises(ValueError, match="genus must be at least 2"):
                next(balanced_vines(genus, 1))

    def test_members_are_special_and_consistent(self):
        for genus in (2, 3, 4):
            for d in range(0, 2 * genus):
                for vc in d_special_vine_scan(genus, d):
                    assert vc.genus == genus
                    assert not is_d_general(vine(vc.g1, vc.g2, vc.delta), d)


class TestPredictedCodim:
    @pytest.mark.parametrize(
        "genus,d,gcd_value,codim",
        [
            (2, 1, 2, "3"),
            (2, 2, 1, "empty"),
            (3, 2, 4, "2"),
            (3, 3, 1, "empty"),
            (4, 1, 2, "3"),
            (4, 3, 6, "2"),
        ],
    )
    def test_table(self, genus, d, gcd_value, codim):
        assert predicted_codim(genus, d) == (gcd_value, codim)

    def test_trichotomy_is_total(self):
        for genus in range(2, 8):
            for d in range(-2 * genus, 2 * genus + 1):
                _, codim = predicted_codim(genus, d)
                assert codim in ("empty", "3", "2")


class TestCodimReport:
    def test_empty_prediction_has_no_vines(self):
        r = codim_report(3, 3)
        assert r.predicted_codim == "empty"
        assert r.special_vines == ()

    def test_genus4_degree3(self):
        r = codim_report(4, 3)
        assert (r.gcd_value, r.predicted_codim) == (6, "2")
        assert len(r.special_vines) == 5
        assert all(v.delta >= 2 for v in r.special_vines)

    def test_special_vines_exist_when_predicted(self):
        for genus in (2, 3, 4):
            for d in range(0, 2 * genus):
                r = codim_report(genus, d)
                if r.predicted_codim == "empty":
                    assert r.special_vines == ()
                else:
                    assert d_special_vine_scan(genus, d)


class TestGcdAudit:
    def test_genus2_table(self):
        rows = gcd_remark_audit(2, range(0, 5), max_vertices=2)
        by_degree = {r.degree: r for r in rows}
        # modulus 2g-2 agrees with the census truth on every degree
        assert all(r.agree_2g_minus_2 for r in rows)
        # modulus 2g-1 disagrees at d = 3 and d = 4
        assert not by_degree[3].agree_2g_minus_1
        assert not by_degree[4].agree_2g_minus_1

    def test_genus3(self):
        rows = gcd_remark_audit(3, range(0, 7), max_vertices=3)
        assert all(r.agree_2g_minus_2 for r in rows)

    def test_unsupported_genus(self):
        with pytest.raises(ValueError):
            gcd_remark_audit(5, range(3))
