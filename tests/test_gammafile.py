import pytest

from puregaps.errors import GammaFileError
from puregaps.gammafile import dump_gamma, load_gamma, parse_gamma
from puregaps.lattice import validate_generating_set

import expected_gk2 as gk2

GK2_TEXT = "period 9\n" + "\n".join(f"{a}\t{b}" for a, b in sorted(gk2.GAMMA)) + "\n"


def test_parse_basic():
    gamma = parse_gamma(GK2_TEXT)
    assert gamma.period == 9
    assert list(gamma.points) == sorted(gk2.GAMMA)


def test_parse_comments_and_blanks():
    text = "# a generating set\n\nperiod 4\n# the points\n1\t5\n5\t1\n\n2\t2\n"
    gamma = parse_gamma(text)
    assert gamma.genus == 3


def test_parse_space_separated_pairs_accepted():
    assert parse_gamma("period 4\n1 5\n5 1\n2 2\n").genus == 3


def test_round_trip():
    gamma = validate_generating_set(gk2.GAMMA, 9)
    back = parse_gamma(dump_gamma(gamma))
    assert back == gamma and back.points == gamma.points


def test_dump_deterministic():
    gamma = validate_generating_set(gk2.GAMMA, 9)
    assert dump_gamma(gamma) == dump_gamma(gamma)
    assert dump_gamma(gamma).startswith("period 9\n1\t19\n")


def test_empty_set():
    gamma = parse_gamma("period 1\n")
    assert gamma.genus == 0


def test_missing_header():
    with pytest.raises(GammaFileError, match="line 1"):
        parse_gamma("1\t5\n")
    with pytest.raises(GammaFileError, match="missing"):
        parse_gamma("# nothing here\n")


def test_bad_period_value():
    with pytest.raises(GammaFileError, match="line 1"):
        parse_gamma("period nine\n")


def test_non_integer_pair():
    with pytest.raises(GammaFileError, match="line 2"):
        parse_gamma("period 4\none\ttwo\n")


def test_wrong_field_count():
    with pytest.raises(GammaFileError, match="line 3"):
        parse_gamma("period 4\n1\t5\n5\n")


def test_duplicate_beta_line_numbered():
    with pytest.raises(GammaFileError,
                       match="DuplicateFirstCoordinate at line 3"):
        parse_gamma("period 9\n3\t3\n3\t5\n")


def test_duplicate_tau_line_numbered():
    with pytest.raises(GammaFileError,
                       match="DuplicateSecondCoordinate at line 3"):
        parse_gamma("period 9\n3\t5\n4\t5\n")


def test_period_violation_names_line():
    # the violation is reported for beta=3, whose point sits on line 2
    with pytest.raises(GammaFileError, match="line 2"):
        parse_gamma("period 9\n3\t3\n12\t5\n")


def test_validation_failure_wrapped():
    with pytest.raises(GammaFileError, match="CoordinateDivisibleByPeriod"):
        parse_gamma("period 9\n9\t2\n")


def test_load_gamma(tmp_path):
    path = tmp_path / "set.gamma"
    path.write_text(GK2_TEXT, encoding="utf-8")
    gamma = load_gamma(path)
    assert gamma.genus == 10


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_gamma(tmp_path / "absent.gamma")
