"""SCAR001/SCAR002 read their facts from the per-file summaries.

The fixture suites in ``test_analysis.py`` pin each checker's contract;
these cases pin the places where the summary's shape could lose a fact
the AST has: methods sharing a name, classes below module level, files
whose module name another file shadows, and names bound through import
aliases.
"""

from __future__ import annotations

import textwrap

from repro.analysis import SourceFile, run_checkers


def _findings(*texts: str, select: str, module: str = "repro.service.x"):
    sources = [SourceFile(f"f{i}.py", textwrap.dedent(text), module=module)
               for i, text in enumerate(texts)]
    report = run_checkers(sources, select=[select])
    return [(f.path, f.line, f.message) for f in report.findings]


class TestGuardFacts:
    def test_property_getter_and_setter_are_both_checked(self):
        found = _findings("""\
            class Svc:
                def __init__(self):
                    self._jobs = {}  # guarded by: _lock

                @property
                def jobs(self):
                    return self._jobs

                @jobs.setter
                def jobs(self, value):
                    self._jobs = value
            """, select="SCAR001")
        assert [line for _, line, _ in found] == [7, 11]

    def test_class_below_module_level_is_checked(self):
        found = _findings("""\
            if True:
                class Svc:
                    def __init__(self):
                        self._jobs = {}  # guarded by: _lock

                    def peek(self):
                        return self._jobs
            """, select="SCAR001")
        assert len(found) == 1 and "Svc.peek" in found[0][2]

    def test_guard_syntax_inside_a_string_declares_nothing(self):
        found = _findings("""\
            class Svc:
                def __init__(self):
                    self._note = "# guarded by: _lock"

                def peek(self):
                    return self._note
            """, select="SCAR001")
        assert found == []


class TestSourceFacts:
    def test_import_alias_is_resolved(self):
        found = _findings("""\
            import time as _time

            def stamp():
                return _time.time()
            """, select="SCAR002", module="repro.engine.x")
        assert [message for _, _, message in found] == [
            "`time.time` reads the wall clock; results must not depend "
            "on it"]

    def test_files_sharing_a_module_name_are_each_checked(self):
        text = "import random\nx = random.random()\n"
        found = _findings(text, text, select="SCAR002",
                          module="repro.engine.x")
        assert [path for path, _, _ in found] == ["f0.py", "f1.py"]
