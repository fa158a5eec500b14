"""Pass/fail reports shared by all checkers.

Reports render deterministically: entries appear in the order they were
added, and every failure line carries a machine-parseable ``WITNESS:``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List


@dataclass
class CheckResult:
    check: str
    name: str
    passed: bool
    witness: str = ""

    def text_line(self) -> str:
        tail = f"  WITNESS: {self.witness}" if self.witness else ""
        return f"{self.name} {'PASS' if self.passed else 'FAIL'}{tail}"

    def machine_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "\t".join((self.check, self.name, status, self.witness))


@dataclass
class Report:
    check: str
    results: List[CheckResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, passed, witness: str = "") -> CheckResult:
        result = CheckResult(self.check, name, bool(passed), "" if passed else str(witness))
        self.results.append(result)
        return result

    def add_first(self, name: str, witnesses: Iterable[str]) -> CheckResult:
        """The counterexample search every checker shares: FAIL with the
        first non-empty witness, PASS if there is none.

        Every checker records its verdicts here, so every FAIL witness is
        the first counterexample in that checker's fixed visiting order.
        Reading stops at that first witness, so a lazy search does no work
        beyond the case that refutes the property.
        """
        witness = next(filter(None, witnesses), "")
        return self.add(name, not witness, witness)

    def note(self, text: str) -> None:
        """Scope/context remarks; text format only, never machine records."""
        self.notes.append(text)

    def __iter__(self) -> Iterator[CheckResult]:
        return iter(self.results)

    def __getitem__(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_text(self) -> str:
        lines = [r.text_line() for r in self.results]
        lines += [f"# {note}" for note in self.notes]
        return "\n".join(lines)

    def to_machine(self) -> str:
        return "\n".join(r.machine_line() for r in self.results)
