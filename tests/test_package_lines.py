"""tools/package_lines.py counts non-blank and code lines per module."""

import textwrap

import package_lines

MODULE = textwrap.dedent('''\
    """Module docstring,

    over three lines."""

    import os  # a trailing comment keeps a code line

    # a comment-only line


    def f(x):
        """Function docstring."""
        text = """not a docstring,
    but code"""
        return os.sep + text


    class C:
        """Class docstring
        on two lines."""

        y = 1
    ''')


def test_counts_skip_blank_comment_and_docstring_lines():
    # 13 non-blank lines; the docstrings take 5 and the comment line 1
    assert package_lines.count(MODULE) == (13, 7)


def test_prints_one_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert package_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["13", "7", "a.py"], ["2", "1", "b.py"], ["15", "8", "total"]]
