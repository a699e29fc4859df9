"""Unit tests for the DESIGN.md §2 file-map check in check_docs.py.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""
import tempfile
import unittest
from pathlib import Path

import check_docs

ROOT = Path(__file__).resolve().parent.parent


class FileMapTest(unittest.TestCase):
    def make_src(self, *files):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        src = Path(tmp.name) / "src"
        for f in files:
            (src / f).parent.mkdir(parents=True, exist_ok=True)
            (src / f).write_text("")
        return src

    def test_matching_map_passes(self):
        src = self.make_src("sim/a.hpp", "sim/a.cpp", "sim/b.hpp")
        design = ("## 2. Inventory\n### `src/sim` — core\n"
                  "- `a.{hpp,cpp}` — the a module.\n"
                  "- `b.hpp` — mentions `c.hpp` after the dash.\n"
                  "## 3. Next\n- `d.hpp` — outside the map.\n")
        self.assertEqual(check_docs.file_map_problems(design, src), [])

    def test_missing_and_unlisted_files_fail(self):
        src = self.make_src("sim/a.hpp", "sim/b.cpp", "net/n.hpp")
        design = ("## 2. Inventory\n### `src/sim` — core\n"
                  "- `a.hpp`, `gone.{hpp,cpp}` — two modules.\n")
        self.assertEqual(check_docs.file_map_problems(design, src), [
            "DESIGN.md §2 names src/sim/gone.hpp, which does not exist",
            "DESIGN.md §2 names src/sim/gone.cpp, which does not exist",
            "src/net/n.hpp is missing from DESIGN.md §2",
            "src/sim/b.cpp is missing from DESIGN.md §2",
        ])

    def test_repository_map_matches_src(self):
        design = (ROOT / "DESIGN.md").read_text()
        self.assertEqual(
            check_docs.file_map_problems(design, ROOT / "src"), [])


if __name__ == "__main__":
    unittest.main()
