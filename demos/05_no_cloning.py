"""Composite systems and the impossibility of cloning.

Two copies of a logic embedded compatibly in a larger one support the
cloning question: is there an ambient symmetry copying an unknown atomic
state from the first copy onto a blank second copy?  The clone search
below reports the first cloner on a classical (Boolean) product, where
atoms are pairwise orthogonal, and the certificate replays why non-orthogonal atomic states
can never be cloned: the transition between them would have to equal its
own square.
"""

from qlogic import (
    CloneProblem,
    boolean_product,
    check_condition_I,
    check_condition_J,
    check_lemma2,
    classical_cloner,
    clone_search,
    theorem1_certificate,
    validate_logic,
)
from qlogic.builders import boolean_algebra

factor = validate_logic(boolean_algebra(2))
comp = boolean_product(factor)
print("== the product of the four-element algebra with itself ==")
print(f"ambient elements: {comp.ambient.n}")
for what, check in (("copies mutually compatible", check_condition_I),
                    ("embedded atom meets are atoms", check_condition_J)):
    print(f"{what}: {'holds' if check(comp).holds else 'fails'}")

print()
print("== transitions multiply across the two copies ==")
x, y = factor.atoms
rep = check_lemma2(comp, x, x, y, factor.orthocomplement(y))
print(f"P = {rep.factor_values[0]} * {rep.factor_values[1]} "
      f"= {rep.ambient_value} on the ambient meet events: {rep.holds}")

print()
print("== the first cloner among the ambient symmetries ==")
problem = CloneProblem(comp, [x, y], x)
report = clone_search(problem)
print(f"cloner found: {report.cloner is not None} "
      f"(atom permutation {report.scanned} in lexicographic order)")
print(f"pairwise transitions within C: "
      + ", ".join(f"P({factor.labels[b]}|{factor.labels[a]})={tp.value}"
                  for (a, b), tp in sorted(report.pairwise.items())))
print(f"C pairwise orthogonal: {report.orthogonal}; "
      f"consistency (cloner implies orthogonal): {report.theorem_consistent}")

print()
print("== the explicit classical cloner ==")
T = classical_cloner(problem)
moved = {comp.ambient.labels[a]: comp.ambient.labels[T.map[a]]
         for a in comp.ambient.atoms if T.map[a] != a}
print(f"atoms swapped: {moved}")

print()
print("== the certificate: transitions are forced into {0, 1} ==")
cert = theorem1_certificate(problem, T)
for row in cert.pairs:
    a, b = row.pair
    print(f"  pair ({factor.labels[a]}, {factor.labels[b]}): "
          f"direct route {row.direct}, pulled-back route {row.pulled_back} "
          f"= transition squared; both equal, so the transition is "
          f"{row.transition} (idempotent: {row.idempotent})")
print(f"certificate holds: {cert.holds}")
print()
print("a pair of non-orthogonal atoms would need transition s with "
      "s = s*s and 0 < s < 1 -- impossible, hence no cloner")
