"""Unit tests for assemble_experiments.py's section merge.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""
import os
import tempfile
import unittest

import assemble_experiments as ae

HEAD = "# Experiments\n\nIntro names <!-- RESULTS --> inline.\n"
MICRO = ae.COMMENTARY["micro"]


def block(body):
    return ae.FENCE_OPEN + body + ae.FENCE_CLOSE + "\n"


class AssembleTest(unittest.TestCase):
    def test_rewrites_bench_sections_and_keeps_the_rest_in_place(self):
        md = (HEAD + ae.MARKER + "\n"
              + "## fig_x\n" + block("old x")
              + "## Perf trajectory\n\nHand-written table.\n\n"
              + MICRO + block("old micro")
              + "Event-queue notes after the block.\n\n"
              + "## fig_gone\n" + block("kept: not in this log"))
        log = ("=== RUNNING micro ===\n[1/2] progress\nnew micro\n"
               "=== RUNNING fig_x ===\nnew x\n"
               "=== RUNNING fig_new ===\nnew bench\n")
        want = (HEAD + ae.MARKER + "\n"
                + "## fig_x\n" + block("new x")
                + "## Perf trajectory\n\nHand-written table.\n\n"
                + MICRO + block("new micro")
                + "Event-queue notes after the block.\n\n"
                + "## fig_gone\n" + block("kept: not in this log")
                + "## fig_new\n" + block("new bench"))
        self.assertEqual(ae.assemble(md, log), want)

    def test_reassembling_the_same_log_changes_nothing(self):
        log = "=== RUNNING micro ===\nbody\n=== RUNNING fig_y ===\ny\n"
        once = ae.assemble(HEAD + ae.MARKER, log)
        self.assertEqual(once, HEAD + ae.MARKER + "\n" + MICRO + block("body")
                         + "## fig_y\n" + block("y"))
        self.assertEqual(ae.assemble(once, log), once)

    def test_main_rewrites_the_file_and_rejects_a_missing_marker(self):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            self.addCleanup(os.chdir, cwd)
            with open("bench_output.txt", "w") as f:
                f.write("=== RUNNING fig_z ===\nz\n")
            with open("EXPERIMENTS.md", "w") as f:
                f.write(HEAD)
            self.assertEqual(ae.main(), 1)
            with open("EXPERIMENTS.md", "w") as f:
                f.write(HEAD + ae.MARKER + "\n## Notes\n\nKept.\n\n")
            self.assertEqual(ae.main(), 0)
            with open("EXPERIMENTS.md") as f:
                self.assertEqual(f.read(), HEAD + ae.MARKER + "\n## Notes\n\n"
                                 "Kept.\n\n## fig_z\n" + block("z"))


if __name__ == "__main__":
    unittest.main()
