"""Enumerate the reversing involutions for a 1:2 resonant linear center.

The linear part A = blockdiag(alpha*J, beta*J) is reversed by the diagonal
involution R0 = diag(1,-1,1,-1).  We look for every second linear involution
S that also reverses A (anticommutes with it), and sort the solutions by the
matrix group <R0, S> they generate.
"""

from fractions import Fraction

from revequiv import LinearPart, partition_by_group, solve_involutions

lin = LinearPart(Fraction(1), Fraction(2))

# --- order 2: the Klein four-group -----------------------------------------
print("=== <R0, S> of order 4 (Z2 x Z2) ===")
for sol in solve_involutions(lin, 2):
    tag = "  <- degenerate: S = R0" if sol.degenerate else ""
    diag = [str(sol.s[i, i]) for i in range(4)]
    print(f"S = diag({', '.join(diag)}), group order {sol.group_order}{tag}")

# --- order 3 and 4: genuine dihedral groups --------------------------------
for n in (3, 4):
    sols = solve_involutions(lin, n, include_degenerate=False)
    classes = partition_by_group(sols)
    print(f"\n=== <R0, S> dihedral of order {2 * n} ===")
    print(f"{len(sols)} non-degenerate solutions in {len(classes)} classes")
    for c in classes:
        reversing = sum(1 for s in c.rho.signs if s == -1)
        angles = sorted(m.block_angles for m in c.members)
        print(
            f"  angles {angles}: group order {c.group_order}, "
            f"dihedral={c.group.order == 2 * n}, {reversing} reversing elements"
        )

# The same enumeration is independent of the frequencies: only the block
# structure of A matters, not alpha and beta themselves.
other = LinearPart(Fraction(7), Fraction(3, 2))
same = [s.s for s in solve_involutions(lin, 4)] == [
    s.s for s in solve_involutions(other, 4)
]
print(f"\nsolutions identical for (alpha, beta) = (7, 3/2): {same}")
