"""Expected values that do not come from the library under test.

Basis sizes are closed forms, Betti tables are the theorems the paper
proves (free pieces are acyclic above degree 1, bar-unital dialgebras have
vanishing CY homology), and ranks are recomputed modulo a prime by an
eliminator written here.
"""

from math import comb, factorial, prod

# Ranks modulo P never exceed ranks over Q, so a mod-P rank sum that already
# reaches dim C_n certifies exactness over Q.
P = 2 ** 31 - 1


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def finite_basis_size(theory, k, n):
    """dim C_n of a theory over a k-dimensional algebra."""
    index = {
        "CY": catalan(n),
        "CS": factorial(n),
        "CDend": n,
        "CL": 1,
        "CZinb": 1,
    }[theory]
    return index * k ** n


def free_basis_size(theory, dim_v, weight, n):
    """dim C_n of the weight piece of the free CY or CDend complex."""
    if theory == "CY":
        index, block = catalan(n), (lambda l: l)
    else:
        index, block = n, catalan
    words = sum(prod(block(l) for l in c) for c in compositions(weight, n))
    return index * words * dim_v ** weight


def free_betti(dim_v, weight):
    return {n: dim_v if weight == 1 and n == 1 else 0
            for n in range(1, weight + 1)}


def bar_unital_betti(top):
    return {n: 0 for n in range(1, top + 1)}


def rank_mod_p(cols):
    """Rank modulo P of a matrix given as sparse rational columns."""
    pivots = {}
    rank = 0
    for col in cols:
        vec = {}
        for k, v in col.items():
            r = v.numerator * pow(v.denominator, -1, P) % P
            if r:
                vec[k] = r
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(vec[lead], -1, P)
                pivots[lead] = {k: v * inv % P for k, v in vec.items()}
                rank += 1
                break
            f = vec[lead]
            for k, v in piv.items():
                w = (vec.get(k, 0) - f * v) % P
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
    return rank
