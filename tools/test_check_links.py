#!/usr/bin/env python3
"""Self-test for check_links.py: code is skipped, real links are checked.

Usage: python3 tools/test_check_links.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_links  # noqa: E402


class CheckLinksTest(unittest.TestCase):
    def check(self, text):
        with tempfile.TemporaryDirectory() as root:
            with open(os.path.join(root, "other.md"), "w",
                      encoding="utf-8") as f:
                f.write("# Present heading\n")
            path = os.path.join(root, "doc.md")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            return check_links.check_file(path, root)

    def test_lambda_in_code_span_is_not_a_link(self):
        self.assertEqual(self.check("A `[&](bool){ ++n; }` continuation.\n"),
                         [])

    def test_double_backtick_span_is_not_a_link(self):
        self.assertEqual(self.check("See ``[a](b) and `c` `` here.\n"), [])

    def test_fenced_block_is_not_a_link(self):
        self.assertEqual(self.check("```\n[x](missing.md)\n```\n"), [])

    def test_broken_link_outside_a_span_is_reported(self):
        errors = self.check("Code `[&](bool)` then [text](missing.md).\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("missing target missing.md", errors[0])

    def test_broken_anchor_is_reported(self):
        errors = self.check("[ok](other.md#present-heading) "
                            "[bad](other.md#absent)\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("other.md#absent", errors[0])

    def test_unclosed_backtick_does_not_hide_a_link(self):
        errors = self.check("A lone ` tick, then [text](missing.md).\n")
        self.assertEqual(len(errors), 1)

    def test_span_does_not_cross_a_blank_line(self):
        errors = self.check("Open `tick\n\n[text](missing.md) `\n")
        self.assertEqual(len(errors), 1)


if __name__ == "__main__":
    unittest.main()
