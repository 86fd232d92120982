"""The rule engine of the determinism lint suite.

Design: a *rule* is a small object with a ``check_module`` hook that receives
one parsed module at a time (path, source, AST) and yields findings, plus an
optional ``finish`` hook that runs after the whole tree has been seen — which
is what lets the ``layer-contract`` rule reason about the cross-module import
and decorator graph.  The engine owns everything rule authors should not have
to repeat: file discovery, parsing, suppression handling and report writing.

Suppressions
------------
A finding is silenced with an inline comment that names the rule *and*
justifies the exception::

    for key in self._storage.keys():  # repro: allow(ordering-hazard): log \
        append order is the replay order

    # repro: allow(layer-contract): composition root, wires the whole stack
    from .membership import GroupMembership

A comment on its own line covers the next line; a trailing comment covers its
own line.  A suppression without a justification (no ``: why`` part) is
itself reported as a ``suppression-syntax`` finding and silences nothing —
allowlisting must leave an audit trail.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

#: The meta-rule name under which malformed suppressions are reported.
SUPPRESSION_SYNTAX = "suppression-syntax"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[A-Za-z0-9_\-, ]+?)\s*\)"
    r"(?P<colon>\s*:\s*(?P<why>.*))?$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: " \
               f"[{self.rule}] {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One well-formed ``# repro: allow(...)`` comment."""

    path: str
    #: Line carrying the comment.
    line: int
    #: Lines the suppression covers (the comment line, plus the next line
    #: when the comment stands alone).
    covers: Tuple[int, ...]
    rules: Tuple[str, ...]
    justification: str


@dataclass
class ParsedModule:
    """One source file as the rules see it."""

    path: Path
    #: Posix path relative to the lint root (rules scope on this).
    relpath: str
    #: Dotted module name, rooted at the lint root's package name.
    dotted: str
    source: str
    tree: ast.Module
    #: Parent links for every AST node (rules use this to find consumers).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    def lines(self) -> List[str]:
        return self.source.splitlines()


class Rule:
    """Base class for lint rules."""

    #: Kebab-case rule identifier used in reports and suppressions.
    name: str = "abstract-rule"
    #: One-line description for ``--list-rules`` and the README catalogue.
    description: str = ""

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield findings for one module (called once per file)."""
        return iter(())

    def finish(self) -> Iterator[Finding]:
        """Yield cross-module findings (called once, after every file)."""
        return iter(())


@dataclass
class LintReport:
    """Outcome of one lint run."""

    root: str
    files: int
    rules: Tuple[str, ...]
    #: Active findings, sorted by (path, line, column).
    findings: List[Finding]
    #: Findings silenced by a justified suppression, with the justification.
    suppressed: List[Tuple[Finding, str]]

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


# -- parsing ------------------------------------------------------------------------------


def _attach_parents(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def parse_module(path: Path, root: Path) -> ParsedModule:
    source = path.read_text(encoding="utf-8")
    relpath = path.relative_to(root).as_posix()
    parts = [root.name] + relpath[:-3].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    tree = ast.parse(source, filename=str(path))
    return ParsedModule(path=path, relpath=relpath, dotted=".".join(parts),
                        source=source, tree=tree,
                        parents=_attach_parents(tree))


def find_suppressions(module: ParsedModule
                      ) -> Tuple[List[Suppression], List[Finding]]:
    """Extract suppressions and report malformed ones as findings."""
    suppressions: List[Suppression] = []
    malformed: List[Finding] = []
    for lineno, text in enumerate(module.lines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(part.strip() for part in
                      match.group("rules").split(",") if part.strip())
        justification = (match.group("why") or "").strip()
        if not rules or not justification:
            malformed.append(Finding(
                path=module.relpath, line=lineno,
                column=match.start() + 1, rule=SUPPRESSION_SYNTAX,
                message="suppression must name its rule(s) and give a "
                        "justification: # repro: allow(rule): why"))
            continue
        standalone = text[:match.start()].strip() == ""
        covers = (lineno, lineno + 1) if standalone else (lineno,)
        suppressions.append(Suppression(
            path=module.relpath, line=lineno, covers=covers, rules=rules,
            justification=justification))
    return suppressions, malformed


# -- running ------------------------------------------------------------------------------


def iter_source_files(root: Path) -> List[Path]:
    """Every ``.py`` file under ``root``, in sorted (stable) order."""
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def run_lint(root: Path, rules: Sequence[Rule]) -> LintReport:
    """Lint every source file under ``root`` with ``rules``.

    Rules carry per-run state (the layer-contract graph), so callers must
    pass fresh rule instances — see :func:`repro.analysis.rules.default_rules`.
    """
    root = Path(root).resolve()
    files = iter_source_files(root)
    raw_findings: List[Finding] = []
    unsuppressable: List[Finding] = []
    suppressions: List[Suppression] = []
    count = 0
    for path in files:
        count += 1
        try:
            module = parse_module(Path(path), root)
        except SyntaxError as error:
            unsuppressable.append(Finding(
                path=Path(path).relative_to(root).as_posix(),
                line=error.lineno or 1, column=error.offset or 1,
                rule="parse-error", message=f"syntax error: {error.msg}"))
            continue
        found, malformed = find_suppressions(module)
        suppressions.extend(found)
        unsuppressable.extend(malformed)
        for rule in rules:
            raw_findings.extend(rule.check_module(module))
    for rule in rules:
        raw_findings.extend(rule.finish())

    covered: Dict[Tuple[str, int], List[Suppression]] = {}
    for suppression in suppressions:
        for line in suppression.covers:
            covered.setdefault((suppression.path, line), []).append(
                suppression)

    active: List[Finding] = list(unsuppressable)
    silenced: List[Tuple[Finding, str]] = []
    for finding in raw_findings:
        match = None
        for suppression in covered.get((finding.path, finding.line), ()):
            if finding.rule in suppression.rules:
                match = suppression
                break
        if match is None:
            active.append(finding)
        else:
            silenced.append((finding, match.justification))
    active.sort()
    silenced.sort(key=lambda pair: pair[0])
    return LintReport(root=str(root), files=count,
                      rules=tuple(rule.name for rule in rules),
                      findings=active, suppressed=silenced)


# -- report writers -----------------------------------------------------------------------


def render_report(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [finding.format() for finding in report.findings]
    if verbose and report.suppressed:
        lines.append("")
        lines.append("suppressed:")
        for finding, justification in report.suppressed:
            lines.append(f"  {finding.format()}  -- {justification}")
    lines.append("")
    by_rule = report.counts_by_rule()
    detail = ", ".join(f"{rule}={count}"
                       for rule, count in sorted(by_rule.items()))
    lines.append(
        f"{len(report.findings)} finding(s)"
        + (f" ({detail})" if detail else "")
        + f", {len(report.suppressed)} suppressed, "
          f"{report.files} file(s) checked under {report.root}")
    return "\n".join(lines)


def json_report(report: LintReport) -> str:
    """Machine-readable report (the CI artifact)."""
    payload = {
        "schema": "repro.analysis.lint/1",
        "root": report.root,
        "files": report.files,
        "rules": list(report.rules),
        "finding_count": len(report.findings),
        "suppressed_count": len(report.suppressed),
        "counts_by_rule": report.counts_by_rule(),
        "findings": [
            {"path": f.path, "line": f.line, "column": f.column,
             "rule": f.rule, "message": f.message}
            for f in report.findings],
        "suppressed": [
            {"path": f.path, "line": f.line, "column": f.column,
             "rule": f.rule, "message": f.message,
             "justification": justification}
            for f, justification in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
