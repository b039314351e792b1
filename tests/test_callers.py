"""scripts/check_callers.py: every name defined under src/ has a caller in
src/, scripts/ or perfbench/, where docstrings and comments do not count,
a string that is exactly an identifier does, and a top-level name counts
only where the code reaches it through its own module."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_callers.py"

_spec = importlib.util.spec_from_file_location("check_callers", SCRIPT)
check_callers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_callers)


def test_every_src_name_of_the_repo_has_a_caller():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT)],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def _tree(tmp_path, files: dict) -> Path:
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def test_a_name_in_a_docstring_or_comment_has_no_caller(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": '''
            """in_module_docstring is named only here."""
            import sys


            def in_module_docstring():
                pass


            def in_docstring():
                pass


            def in_comment():
                pass


            def in_text():
                pass


            def by_string():
                pass


            class Patched:
                def by_attribute(self):
                    pass


            def main():
                """in_docstring"""
                # in_comment is named only here
                print("in_text is named only here")
                return getattr(sys.modules[__name__], "by_string"), Patched().by_attribute
            ''',
        "scripts/run.py": '''
            from pkg.mod import main

            main()
            ''',
    })
    assert check_callers.uncalled(root) == [
        "mod.in_comment", "mod.in_docstring", "mod.in_module_docstring", "mod.in_text"]
    done = subprocess.run([sys.executable, str(SCRIPT), str(root)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout.split() == [
        "mod.in_comment", "mod.in_docstring", "mod.in_module_docstring", "mod.in_text"]


def test_a_name_in_an_identifier_string_has_a_caller(tmp_path):
    """The tracer's form: the function is named only as a string."""
    root = _tree(tmp_path, {
        "src/pkg/braid.py": '''
            def artin_action():
                pass
            ''',
        "perfbench/tracing.py": '''
            from pkg import braid

            setattr(braid, "artin_action", None)
            ''',
    })
    assert check_callers.uncalled(root) == []


def test_a_top_level_name_is_resolved_by_its_module(tmp_path):
    """Two modules define apply and only pl's is called, as an attribute of
    pl imported: iet's is flagged.  A method keeps the bare-name rule, so
    the same call keeps the method Map.apply alive."""
    root = _tree(tmp_path, {
        "src/pkg/iet.py": '''
            def apply():
                pass


            class Map:
                def apply(self):
                    pass
            ''',
        "src/pkg/pl.py": '''
            def apply():
                pass


            def compose():
                pass


            def inverse():
                return compose()
            ''',
        "src/pkg/core.py": '''
            from .pl import inverse

            inverse()
            ''',
        "scripts/run.py": '''
            import pkg.iet as ietmod
            from pkg import pl as plmod

            plmod.apply(ietmod.Map())
            ''',
    })
    assert check_callers.uncalled(root) == ["iet.apply"]
