"""The loop auditor: the array auditor in ``majoritylab.certify`` must agree
with it on every transcript, claim and certificate.

It replays equal records through a scalar union-find (union by size, path
halving), keys conflicts as a set of label pairs and walks certificates
ball by ball.  It applies the same rules, only direct conflict edges count,
and returns the same reasons, so a differential test can compare both the
verdict and the first failure it names.
"""

from __future__ import annotations

from majoritylab import (
    Answer,
    Certificate,
    CheckResult,
    ComparisonRecord,
    InconsistentTranscript,
)


class LoopEqStructure:
    """Final class labels (one ball of each class) and label-pair conflicts."""

    def __init__(self, n: int, label: list[int], size: list[int], conflicts: set):
        self.n, self.label, self.size, self.conflicts = n, label, size, conflicts

    def provably_unequal(self, x: int, y: int) -> bool:
        lx, ly = self.label[x], self.label[y]
        return ((lx, ly) if lx < ly else (ly, lx)) in self.conflicts

    def class_size(self, x: int) -> int:
        return self.size[self.label[x]]

    def class_roots(self) -> list[int]:
        return [b for b in range(1, self.n + 1) if self.label[b] == b]

    def rival_labels(self, x: int) -> set[int]:
        lx = self.label[x]
        return {b if a == lx else a for a, b in self.conflicts if lx in (a, b)}


def build_eq_structure(n: int, transcript) -> LoopEqStructure:
    records = [ComparisonRecord(x, y, bool(equal)) for x, y, equal in transcript]
    for rec in records:
        if not (1 <= rec[0] <= n and 1 <= rec[1] <= n):
            raise ValueError(f"transcript references ball out of range: {rec}")

    parent = list(range(n + 1))
    size = [1] * (n + 1)
    for x, y, equal in records:
        if not equal:
            continue
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x == y:
            continue
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]

    for b in range(1, n + 1):
        root = parent[b]
        while parent[root] != root:
            root = parent[root]
        parent[b] = root
    # Relabel each class by its smallest ball, as the array auditor does.
    smallest: dict[int, int] = {}
    for b in range(1, n + 1):
        smallest.setdefault(parent[b], b)
    label = [0] + [smallest[parent[b]] for b in range(1, n + 1)]
    sizes = [1] * (n + 1)
    for b in range(1, n + 1):
        sizes[label[b]] = size[parent[b]]

    conflicts = set()
    for x, y, equal in records:
        if equal:
            continue
        a, b = label[x], label[y]
        if a == b:
            raise InconsistentTranscript(f"balls {x} and {y} are both equal and unequal")
        conflicts.add((min(a, b), max(a, b)))
    return LoopEqStructure(n, label, sizes, conflicts)


def check_majority_claim(eq: LoopEqStructure, answer: Answer, n: int) -> CheckResult:
    if not answer.is_majority:
        return CheckResult(False, "not a majority answer")
    v = answer.witness
    if v is None or not 1 <= v <= n:
        return CheckResult(False, f"witness {v} out of range")
    mult = answer.multiplicity
    if mult is None or mult <= n // 2:
        return CheckResult(False, f"claimed multiplicity {mult} does not clear {n // 2}")
    proven = eq.class_size(v)
    if proven != mult:
        return CheckResult(False, f"witness class has {proven} proven members, claim says {mult}")
    lv = eq.label[v]
    rivals = eq.rival_labels(v)
    for r in eq.class_roots():
        if r != lv and r not in rivals:
            return CheckResult(False, f"class of ball {r} is not proven unequal to witness")
    return CheckResult(True)


def check_no_majority_claim(eq: LoopEqStructure, cert: Certificate, n: int) -> CheckResult:
    half = n // 2
    units: list[tuple[int, ...]] = [tuple(pair) for pair in cert.pairs.tolist()]
    if cert.triangle is not None:
        units.append(cert.triangle)
    covered: set[int] = set()
    for unit in units:
        for i, ball in enumerate(unit):
            if not 1 <= ball <= n:
                return CheckResult(False, f"ball {ball} of unit {unit} out of range")
            if ball in covered:
                return CheckResult(False, f"ball {ball} covered twice")
            covered.add(ball)
            for other in unit[:i]:
                if not eq.provably_unequal(other, ball):
                    return CheckResult(
                        False, f"({other}, {ball}) of unit {unit} is not provably unequal"
                    )
    uncovered = [b for b in range(1, n + 1) if b not in covered]

    if cert.candidate is None:
        if len(units) + len(uncovered) > half:
            return CheckResult(
                False,
                f"{len(units)} units + {len(uncovered)} uncovered exceeds {half}",
            )
        return CheckResult(True)

    v = cert.candidate
    if not 1 <= v <= n:
        return CheckResult(False, f"candidate {v} out of range")
    label = eq.label
    lv = label[v]
    rivals = eq.rival_labels(v)

    loose = sum(1 for b in uncovered if label[b] != lv)
    if len(units) + loose > half:
        return CheckResult(
            False, f"non-candidate bound fails: {len(units)} units + {loose} loose"
        )

    class_size = eq.class_size(v)
    suspicious = 0
    for unit in units:
        labels = {label[b] for b in unit}
        if lv not in labels and not labels <= rivals:
            suspicious += 1
    unresolved = sum(1 for b in uncovered if label[b] != lv and label[b] not in rivals)
    if class_size + suspicious + unresolved > half:
        return CheckResult(
            False,
            f"candidate bound fails: {class_size} proven + {suspicious} units"
            f" + {unresolved} unresolved exceeds {half}",
        )
    return CheckResult(True)


def verify_run(n: int, transcript, answer: Answer, certificate) -> CheckResult:
    try:
        eq = build_eq_structure(n, transcript)
    except InconsistentTranscript as exc:
        return CheckResult(False, f"inconsistent transcript: {exc}")
    if answer.is_majority:
        return check_majority_claim(eq, answer, n)
    if certificate is None:
        return CheckResult(False, "no-majority answer without a certificate")
    return check_no_majority_claim(eq, certificate, n)
