#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation (the CI `docs` stage).

Scans README.md, ROADMAP.md, and docs/**/*.md for inline links/images
(`[text](target)`) and fails on dead *intra-repo* links:

  * a relative target whose file does not exist, or
  * an anchor (`file.md#section` or `#section`) that matches no heading
    in the target markdown file (GitHub's heading-slug rules).

It also scans the comments of the sources under src/, tools/, bench/ and
tests/ (`//` and `/* */` in C++, `#` in Python) and fails on a `*.md` file
name that exists neither at the repo root nor beside the source file (a
comment citing a design document that was never written, say).

External links (http/https/mailto) and targets that resolve outside the
repository (e.g. the CI badge's `../../actions/...` GitHub-site path)
are skipped — this check never needs the network.

Usage: check_md_links.py [--root DIR]   (DIR defaults to this repo)
Exit status: 0 clean, 1 dead links (each printed as file:line: message).
"""

import argparse
import re
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", "ROADMAP.md"]
DOC_DIRS = ["docs"]
COMMENT_DIRS = ["src", "tools", "bench", "tests"]
CPP_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
# A markdown file name, optionally with a relative directory part.
MD_REF_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md)\b")

# Inline links/images: [text](target "title") — target ends at the first
# unbalanced ')' or whitespace-before-title.  Good enough for this repo's
# hand-written markdown; reference-style links are not used here.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str, seen: dict) -> str:
    """GitHub's anchor slug: strip markup-ish punctuation, lowercase,
    spaces to hyphens, then a -N suffix for repeats."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep text
    slug = re.sub(r"[^\w\- ]", "", text.lower(), flags=re.UNICODE)
    slug = slug.replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def heading_slugs(md_path: Path) -> set:
    slugs, seen, in_fence = set(), {}, False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if m:
            slugs.add(github_slug(m.group(1), seen))
    return slugs


def doc_files(root: Path):
    files = [root / f for f in DOC_FILES if (root / f).exists()]
    for d in DOC_DIRS:
        files.extend(sorted((root / d).glob("**/*.md")))
    return files


def check_file(md_path: Path, slug_cache: dict, root: Path) -> list:
    errors, in_fence = [], False
    for lineno, line in enumerate(
            md_path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if SCHEME_RE.match(target):  # http:, https:, mailto:, ...
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (md_path.parent / path_part).resolve()
                try:
                    resolved.relative_to(root)
                except ValueError:
                    continue  # escapes the repo (GitHub-site path): skip
                if not resolved.exists():
                    errors.append((lineno, f"dead link: {target} "
                                   f"({resolved.relative_to(root)} missing)"))
                    continue
            else:
                resolved = md_path
            if anchor and resolved.suffix == ".md" and resolved.is_file():
                if resolved not in slug_cache:
                    slug_cache[resolved] = heading_slugs(resolved)
                if anchor.lower() not in slug_cache[resolved]:
                    errors.append((lineno, f"dead anchor: {target} "
                                   f"(no such heading in "
                                   f"{resolved.relative_to(root)})"))
    return errors


def python_comments(path: Path):
    """(line number, text) of each `#` comment in a Python file."""
    with path.open("rb") as f:
        try:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string[1:]
        except (tokenize.TokenError, SyntaxError):
            return


def cpp_comments(path: Path):
    """(line number, comment text) for each line of a C++ file with a
    `//` or `/* */` comment (string literals are not parsed)."""
    in_block = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(),
            start=1):
        text, rest = [], line
        while rest:
            if in_block:
                end = rest.find("*/")
                text.append(rest if end < 0 else rest[:end])
                rest = "" if end < 0 else rest[end + 2:]
                in_block = end < 0
                continue
            line_c, block_c = rest.find("//"), rest.find("/*")
            if line_c >= 0 and (block_c < 0 or line_c < block_c):
                text.append(rest[line_c + 2:])
                break
            if block_c < 0:
                break
            rest, in_block = rest[block_c + 2:], True
        if text:
            yield lineno, " ".join(text)


def source_files(root: Path):
    files = []
    for d in COMMENT_DIRS:
        files.extend(p for p in sorted((root / d).glob("**/*"))
                     if p.is_file() and (p.suffix in CPP_SUFFIXES
                                         or p.suffix == ".py"))
    return files


def check_comments(src: Path, root: Path) -> list:
    errors = []
    comments = cpp_comments if src.suffix in CPP_SUFFIXES else python_comments
    for lineno, text in comments(src):
        for m in MD_REF_RE.finditer(text):
            ref = m.group(1)
            if not ((root / ref).exists() or (src.parent / ref).exists()):
                errors.append((lineno, f"comment names missing file: {ref}"))
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO,
                    help="repository root to check (default: this repo)")
    root = ap.parse_args().root.resolve()
    failed = 0
    slug_cache = {}
    docs, sources = doc_files(root), source_files(root)
    for md in docs:
        for lineno, msg in check_file(md, slug_cache, root):
            print(f"{md.relative_to(root)}:{lineno}: {msg}")
            failed += 1
    for src in sources:
        for lineno, msg in check_comments(src, root):
            print(f"{src.relative_to(root)}:{lineno}: {msg}")
            failed += 1
    n = len(docs) + len(sources)
    if failed:
        print(f"check_md_links: {failed} dead link(s) across {n} file(s)")
        return 1
    print(f"check_md_links: OK ({n} file(s) clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
