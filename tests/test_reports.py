from beliefchange.reports import Report


def test_add_first_passes_on_no_witness():
    report = Report("demo")
    result = report.add_first("EMPTY", iter(()))
    assert result.passed and result.witness == ""
    assert report.to_machine() == "demo\tEMPTY\tPASS\t"


def test_add_first_fails_with_first_witness():
    report = Report("demo")
    result = report.add_first("FIRST", ["", "first", "second"])
    assert not result.passed
    assert result.witness == "first"
    assert report.to_text() == "FIRST FAIL  WITNESS: first"


def test_add_first_stops_reading_at_first_witness():
    read = []

    def witnesses():
        read.append("a")
        yield ""
        read.append("b")
        yield "found"
        raise AssertionError("read past the first witness")

    report = Report("demo")
    report.add_first("LAZY", witnesses())
    assert report["LAZY"].witness == "found"
    assert read == ["a", "b"]
