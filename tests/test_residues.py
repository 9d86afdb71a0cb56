import pytest

from gausspseudo.residues import GaussianBase


class TestGaussianBase:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            GaussianBase(0, 0)

    def test_component_cap(self):
        with pytest.raises(ValueError):
            GaussianBase(1 << 32, 1)

    def test_parse_and_str(self):
        assert GaussianBase.parse("1+2i") == GaussianBase(1, 2)
        assert GaussianBase.parse(" 3 - 10 i") == GaussianBase(3, -10)
        assert GaussianBase.parse("-1+7i") == GaussianBase(-1, 7)
        assert str(GaussianBase(1, 2)) == "1+2i"
        assert str(GaussianBase(3, -10)) == "3-10i"
        for text in ["", "5", "i", "1+i", "2i+1", "1 + 2j"]:
            with pytest.raises(ValueError):
                GaussianBase.parse(text)
