import datetime as dt

import numpy as np
import pytest

from sirlimits.data import NYC_POPULATION, CaseData, load_cases, load_nyc_fixture, nyc_fixture_path
from sirlimits.errors import CaseDataError


def write_csv(path, rows, header="date,count"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadCases:
    def test_fixture_window(self):
        data = load_nyc_fixture()
        assert len(data) == 15
        assert data.dates[0] == dt.date(2020, 2, 29)
        assert data.dates[-1] == dt.date(2020, 3, 14)
        assert data.counts[0] == 1
        assert data.population == NYC_POPULATION
        # 14 observation intervals follow day zero
        assert len(data.counts[1:]) == 14

    def test_date_range_restriction(self):
        data = load_cases(
            nyc_fixture_path(), 1000,
            date_range=(dt.date(2020, 3, 1), dt.date(2020, 3, 5)),
        )
        assert len(data) == 5

    def test_empty_range(self):
        with pytest.raises(CaseDataError) as err:
            load_cases(nyc_fixture_path(), 1000,
                       date_range=(dt.date(2021, 1, 1), dt.date(2021, 1, 5)))
        assert err.value.code == "empty-series"

    def test_reversed_range(self):
        with pytest.raises(CaseDataError) as err:
            load_cases(nyc_fixture_path(), 1000,
                       date_range=(dt.date(2020, 3, 5), dt.date(2020, 3, 1)))
        assert err.value.code == "empty-series"

    def test_duplicate_date(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv",
                         ["2020-03-01,5", "2020-03-01,6", "2020-03-02,7"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "duplicate-date"

    def test_missing_day(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", ["2020-03-01,5", "2020-03-03,7"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "missing-date"

    def test_negative_count(self, tmp_path):
        path = write_csv(tmp_path / "neg.csv", ["2020-03-01,-5"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "negative-count"

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "hdr.csv", ["2020-03-01,5"], header="day,n")
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "missing-column"

    def test_bad_date(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["03/01/2020,5"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "bad-date"

    def test_non_integer_count(self, tmp_path):
        path = write_csv(tmp_path / "float.csv", ["2020-03-01,5.5"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000)
        assert err.value.code == "malformed-csv"

    def test_partial_range_coverage(self, tmp_path):
        path = write_csv(tmp_path / "part.csv", ["2020-03-02,5", "2020-03-03,6"])
        with pytest.raises(CaseDataError) as err:
            load_cases(path, 1000,
                       date_range=(dt.date(2020, 3, 1), dt.date(2020, 3, 3)))
        assert err.value.code == "missing-date"


def test_roundtrip_is_identity(tmp_path):
    original = load_nyc_fixture()
    path = tmp_path / "echo.csv"
    lines = [f"{date.isoformat()},{count}" for date, count in zip(original.dates, original.counts)]
    path.write_text("\n".join(["date,count", *lines]) + "\n")
    again = load_cases(path, NYC_POPULATION, label=original.label)
    assert again.dates == original.dates
    np.testing.assert_array_equal(again.counts, original.counts)
    assert again.population == original.population


def test_case_data_validation():
    with pytest.raises(CaseDataError):
        CaseData(dates=(dt.date(2020, 3, 1),), counts=np.array([1, 2]), population=100)
