"""Check results and validation reports.

Every checker in the package returns a ValidationReport: a list of named
CheckResults, each carrying the formula identifier it verified and, on
failure, a witness string pinpointing the first offending instance.  A
checker states each identity as a defect over a sequence of cases and runs
it through ValidationReport.tally, which does the counting.  A sweep cut into
CaseBlocks is counted block by block, and on a machine with several usable
CPUs its heavier blocks are shared among forked worker processes; the counts
are merged in block order, so a report never depends on how many ran.
Reports serialize to JSON deterministically (checks sorted by id, no
wall-clock fields).
"""

from dataclasses import dataclass, field

__all__ = ["CaseBlocks", "CheckResult", "ValidationReport"]


class CaseBlocks:
    """An ordered sequence of cases in blocks: block(a) yields the cases of
    block a, for a in range(count), and iterating yields every block's cases
    in block order.  The blocks must be independent (any one can run in a
    process that ran no other), so that tally may count them apart."""

    __slots__ = ("count", "block")

    def __init__(self, count, block):
        self.count, self.block = count, block

    def __iter__(self):
        for a in range(self.count):
            yield from self.block(a)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    witness: str = ""
    details: str = ""

    def to_json(self):
        out = {"check": self.check_id, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class ValidationReport:
    subject: str = ""
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, check_id, passed, witness="", details=""):
        self.checks.append(CheckResult(check_id, bool(passed), witness, details))
        return self

    def record(self, check_id, failures, total):
        """Summarize a sweep: failures is a list of witness strings."""
        return self._summarize(check_id, total, len(failures), failures[0] if failures else None)

    def _summarize(self, check_id, total, failed, first):
        """first is the first failure's witness when failed > 0."""
        if failed:
            w = first if failed == 1 else f"{first} (+{failed - 1} more)"
            return self.add(check_id, False, witness=w)
        return self.add(check_id, True, details=f"{total} instances checked")

    def tally(self, check_id, cases, defect, witness):
        """Run one check over cases, counting exactly the cases it ran.

        Each case is an argument tuple: a case fails when defect(*case) is
        nonzero (a LinComb, a number or a bool).  Only the first failing case
        is rendered, by witness(*case); the others are counted.  CaseBlocks
        are counted block by block, through workers.in_order, and the counts
        merged in block order: the result is that of the plain loop."""
        if isinstance(cases, CaseBlocks):
            from .workers import in_order   # on the first sweep: importing stays as cheap
            counts = _merge(in_order(cases.count,
                                     lambda a: _count(cases.block(a), defect, witness)))
        else:
            counts = _count(cases, defect, witness)
        return self._summarize(check_id, *counts)

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.check_id)],
        }

    def summary(self):
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.check_id}"
                 + (f"  witness: {c.witness}" if c.witness else "")
                 + (f"  ({c.details})" if c.details else "")
                 for c in sorted(self.checks, key=lambda c: c.check_id)]
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.subject}: {status}" if self.subject else status
        return "\n".join([head] + lines)


# -- counting ---------------------------------------------------------------------------


def _count(cases, defect, witness):
    """(total, failed, the first failing case's witness or None) over cases."""
    total, failed, first = 0, 0, None
    for case in cases:
        total += 1
        if defect(*case):
            if not failed:
                first = witness(*case)
            failed += 1
    return total, failed, first


def _merge(counts):
    """The _count of consecutive runs of cases, from the _count of each."""
    total, failed, first = 0, 0, None
    for t, f, w in counts:
        total += t
        if f and not failed:
            first = w
        failed += f
    return total, failed, first
