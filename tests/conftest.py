"""Shared test helpers: deterministic random fields and group projections."""

import random
from fractions import Fraction
from functools import lru_cache

from revequiv.exactalg import Mat4
from revequiv.groups import generate_closure, sign_assignment
from revequiv.solver import R0
from revequiv.vecfield import Poly, PolyVF


def random_rational(rng, span=3, maxden=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, maxden))


def random_poly_field(rng, max_degree, nterms=12, min_degree=2):
    """A random polynomial field with terms of degree in [min_degree, max_degree]."""
    comps = [Poly() for _ in range(4)]
    for _ in range(nterms):
        i = rng.randrange(4)
        d = rng.randint(min_degree, max_degree)
        e = [0, 0, 0, 0]
        for _ in range(d):
            e[rng.randrange(4)] += 1
        comps[i] = comps[i] + Poly.monomial(tuple(e), random_rational(rng))
    return PolyVF(comps, max_degree)


def matrix_inverse_in_group(g, group):
    ident = Mat4.identity()
    for h in group.elements:
        if g * h == ident:
            return h
    raise AssertionError("group not closed under inverses")


def pushforward_linear(y, g, ginv):
    """(g_# Y)(x) = g . Y(g^-1 x) for a linear g."""
    comps = []
    for i in range(4):
        acc = Poly()
        for j in range(4):
            acc = acc + y.components[j].substitute_linear(ginv).scale(g[i, j])
        comps.append(acc)
    return PolyVF(comps, y.max_degree)


@lru_cache(maxsize=None)
def signed_group(reversor_pair, linear_part):
    """(g, g^-1, rho(g)) for each g in the group the two involutions generate."""
    group = generate_closure(list(reversor_pair))
    rho = sign_assignment(group, linear_part)
    return tuple((g, matrix_inverse_in_group(g, group), rho[g]) for g in group.elements)


def reversible_projection(y, reversor_pair, linear_part):
    """Project a field onto the reversible subspace of the group generated by
    the two involutions, by signed group averaging."""
    terms = signed_group(tuple(reversor_pair), linear_part)
    acc = PolyVF([Poly()] * 4, y.max_degree)
    for g, ginv, sign in terms:
        acc = acc + pushforward_linear(y, g, ginv).scale(sign)
    return acc.scale(Fraction(1, len(terms)))


def random_reversible_field(rng, spec, s_matrix, max_degree, nterms=24):
    """Linear resonant part plus a random nonlinear reversible perturbation
    for the group generated by diag(1,-1,1,-1) and s_matrix."""
    a = spec.linear_matrix()
    for _ in range(50):
        y = random_poly_field(rng, max_degree, nterms)
        proj = reversible_projection(y, (R0, s_matrix), a)
        if not proj.is_zero():
            return PolyVF.from_linear(a, max_degree) + proj
    raise AssertionError("reversible subspace sampling kept collapsing to zero")


def seeded_rng(name):
    return random.Random(f"revequiv-{name}")


# a 1:2 field with none of the ten candidate symmetries of the normalizer
NO_SYMMETRY_FIELD = """\
dx1 = -1*x2 + 1/2*x1*y1^2 + 3*x2*x1^2 - 2/3*x1^2*y2
dx2 = 1*x1 + x2^3 - 1/5*x1*y1*y2
dy1 = -2*y2 + 7*y1*x1^2 + y2*x2^2
dy2 = 2*y1 - 3/4*y2^3 + x1*x2*y1
"""
