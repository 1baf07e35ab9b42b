"""Tests for the standalone ODL checker and the good-faith-use guard."""

from repro.odl.check import check_text, main


class TestCheckText:
    def test_clean_schema(self):
        ok, lines = check_text("interface A { attribute long x; };", "demo")
        assert ok
        assert any("ok" in line for line in lines)

    def test_parse_error(self):
        ok, lines = check_text("interface {", "demo")
        assert not ok
        assert "parse error" in lines[0]

    def test_validation_errors_with_suggestions(self):
        ok, lines = check_text("interface A : Ghost {};", "demo")
        assert not ok
        text = "\n".join(lines)
        assert "dangling-type" in text
        assert "suggested repairs:" in text
        assert "add_type_definition(Ghost)" in text

    def test_warnings_do_not_fail(self):
        ok, lines = check_text(
            "interface A {}; interface B {}; interface C : A, B {};", "demo"
        )
        assert ok
        assert "multi-root-hierarchy" in "\n".join(lines)


class TestMain:
    def test_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_ok_file(self, tmp_path, capsys):
        path = tmp_path / "good.odl"
        path.write_text("interface A { attribute long x; };")
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.odl"
        path.write_text("interface A : Ghost {};")
        assert main([str(path)]) == 1
        assert "dangling-type" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/nowhere.odl"]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin.odl"
        path.write_bytes(b"interface A {};\n\xff\xfe")
        good = tmp_path / "good.odl"
        good.write_text("interface B {};")
        assert main([str(path), str(good)]) == 1
        out = capsys.readouterr().out
        assert f"{path}: cannot read:" in out
        assert "ok" in out  # the remaining files are still checked

    def test_multiple_files(self, tmp_path):
        good = tmp_path / "good.odl"
        good.write_text("interface A {};")
        bad = tmp_path / "bad.odl"
        bad.write_text("interface A : Ghost {};")
        assert main([str(good), str(bad)]) == 1


class TestGoodFaithUse:
    def test_wholesale_replacement_cautioned(self, small):
        from repro.designer.session import DesignSession
        from repro.repository.repository import SchemaRepository

        session = DesignSession(SchemaRepository(small, custom_name="new"))
        for text in (
            "delete_type_definition(Employee)",
            "delete_type_definition(Department)",
            "delete_type_definition(Person)",
            "add_type_definition(Completely_Different)",
            "add_attribute(Completely_Different, long, x)",
        ):
            assert session.modify(text), session.feedback.render()
        deliverables = session.finish()
        assert any(
            message.code == "good-faith-use"
            for message in deliverables.consistency
        )

    def test_moderate_customization_not_cautioned(self, small):
        from repro.designer.session import DesignSession
        from repro.repository.repository import SchemaRepository

        session = DesignSession(SchemaRepository(small, custom_name="mild"))
        session.modify("delete_attribute(Employee, salary)")
        deliverables = session.finish()
        assert not any(
            message.code == "good-faith-use"
            for message in deliverables.consistency
        )
