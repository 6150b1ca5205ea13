#!/usr/bin/env python3
"""Contract tests for scripts/check_md_links.py's source-comment scan.

Each case plants a small repository tree in a temporary directory and runs
the checker on it with --root: a comment naming a markdown file that does
not exist must fail the check, while existing files, string literals and
non-comment code must not.

Run standalone (python3 tests/check_md_links_test.py) or via the
`check_md_links_py` ctest; CHECK_SCRIPT overrides the script path.
"""

import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.environ.get(
    "CHECK_SCRIPT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                 "scripts", "check_md_links.py"))


def run_on_tree(files):
    """Write `files` ({relative path: text}) to a temp root; run the check."""
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        proc = subprocess.run([sys.executable, SCRIPT, "--root", root],
                              capture_output=True, text=True)
    return proc.returncode, proc.stdout


class CommentReferences(unittest.TestCase):
    def test_planted_missing_design_doc_fails(self):
        code, out = run_on_tree({
            "README.md": "# readme\n",
            "src/core/knapsack.h": "// the ablation baseline (DESIGN.md §6.4)\n"
                                   "int x;\n",
        })
        self.assertEqual(code, 1, out)
        self.assertIn("src/core/knapsack.h:1: comment names missing file: "
                      "DESIGN.md", out)

    def test_every_scanned_directory_and_comment_form(self):
        code, out = run_on_tree({
            "README.md": "# readme\n",
            "tools/a.cc": "int a; /* see GONE.md */\n",
            "bench/b.cc": "/* first line\n   then docs/GONE.md\n*/ int b;\n",
            "tests/c_test.py": "x = 1  # see GONE.md\n",
            "src/d.h": "/// see sub/GONE.md\n",
        })
        self.assertEqual(code, 1, out)
        for where in ("tools/a.cc:1:", "bench/b.cc:2:", "tests/c_test.py:1:",
                      "src/d.h:1:"):
            self.assertIn(where, out)
        self.assertIn("4 dead link(s)", out)

    def test_existing_files_and_non_comments_pass(self):
        code, out = run_on_tree({
            "README.md": "# readme\n",
            "docs/architecture.md": "# arch\n",
            "src/x/NOTES.md": "notes\n",
            "src/x/y.h": "// see README.md, docs/architecture.md and "
                         "NOTES.md\n"
                         "const char* k = \"GONE.md\";  // a string, not a "
                         "comment\n"
                         "int checksum_md5;  // not a .md name: README.md5\n",
            "scripts/z.py": "# outside the scanned directories: GONE.md\n",
        })
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
