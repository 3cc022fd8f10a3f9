"""The violation printer that `roncoalg.cli` used before it wrote the
report in one write.

Kept unchanged only so that tests can check that `cli._print_violations`
prints the same bytes.
"""

from roncoalg.linalg import format_rational


def _print_violations(violations):
    for v in violations:
        indices = ",".join(str(i) for i in v.indices)
        residual = " ".join(
            f"e{k + 1}:{format_rational(c)}" for k, c in enumerate(v.residual) if c
        )
        print(f"violation: {v.axiom} at ({indices}): {residual}")
    print(f"{len(violations)} violation(s)")
