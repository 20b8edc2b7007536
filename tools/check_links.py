#!/usr/bin/env python3
"""Checks relative markdown links (and their anchors) across the repo docs.

Usage: python3 tools/check_links.py [file-or-dir ...]

With no arguments, checks the repo's top-level *.md plus everything under
docs/.  Fenced code blocks and inline code spans are not Markdown, so
brackets inside them are never links.  For every inline link
[text](target) elsewhere in each file:

  * http(s)/mailto targets are skipped (no network in CI);
  * a relative path target must exist, resolved against the linking file;
  * a `path#anchor` target must also contain a heading whose GitHub slug
    matches `anchor`; a bare `#anchor` is resolved within the same file.

Exits non-zero listing every broken link, so CI fails loudly when a doc
section is renamed out from under a cross-reference.
"""

import os
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
# An inline code span: a run of N backticks up to the next run of exactly N,
# within one paragraph (no blank line in between).
CODE_SPAN_RE = re.compile(r"(?<!`)(`+)(?!`)(?:[^\n]|\n(?!\n))*?(?<!`)\1(?!`)")


def strip_code(text: str) -> str:
    """`text` without fenced code blocks and inline code spans."""
    return CODE_SPAN_RE.sub("", CODE_FENCE_RE.sub("", text))


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    # Strip inline code/emphasis markers, then: lowercase, drop anything
    # that is not a word character, space, or hyphen, spaces -> hyphens.
    # Underscores survive (GitHub slugs them from the rendered text, so
    # `bench_serving` keeps its underscore).
    text = re.sub(r"[`*]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        body = CODE_FENCE_RE.sub("", f.read())
    slugs = set()
    counts = {}
    for m in HEADING_RE.finditer(body):
        slug = github_slug(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_file(path: str, repo_root: str) -> list:
    errors = []
    with open(path, encoding="utf-8") as f:
        body = strip_code(f.read())
    base = os.path.dirname(path)
    for m in LINK_RE.finditer(body):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            dest = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(dest):
                errors.append(f"{os.path.relpath(path, repo_root)}: "
                              f"missing target {target}")
                continue
        else:
            dest = path
        if anchor and dest.endswith(".md"):
            if anchor not in anchors_of(dest):
                errors.append(f"{os.path.relpath(path, repo_root)}: "
                              f"no heading for anchor {target}")
    return errors


def collect(args, repo_root):
    if args:
        seeds = args
    else:
        seeds = [os.path.join(repo_root, n) for n in os.listdir(repo_root)
                 if n.endswith(".md")]
        seeds.append(os.path.join(repo_root, "docs"))
    files = []
    for s in seeds:
        if os.path.isdir(s):
            for dirpath, _, names in os.walk(s):
                files.extend(os.path.join(dirpath, n) for n in names
                             if n.endswith(".md"))
        elif s.endswith(".md") and os.path.exists(s):
            files.append(s)
    return sorted(set(files))


def main() -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = collect(sys.argv[1:], repo_root)
    if not files:
        print("check_links: no markdown files found", file=sys.stderr)
        return 1
    errors = []
    for path in files:
        errors.extend(check_file(path, repo_root))
    for e in errors:
        print(f"::error::{e}")
    print(f"check_links: {len(files)} files, {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
