"""Polynomials over the integers: the gcd and the univariate factorisation
that rational polynomials reduce to once their denominators are cleared.

A polynomial in k variables is a dict {exponent tuple: nonzero int}; a
univariate one is also a dense list of ints, lowest degree first, without
trailing zeros.

gcd is the heuristic gcd GCDHEU (Char, Geddes and Gonnet 1989): the last
variable is set to an integer xi above twice the coefficients, the gcd of
the images is taken recursively, the candidate is read back from its
balanced xi-adic digits, and it is the gcd when its primitive part divides
both operands.  When six values of xi fail, a primitive PRS in the first
variable (Brown 1971), with contents taken recursively, decides.

factor follows von zur Gathen and Gerhard, Modern Computer Algebra (2013),
ch. 14-15, and returns the distinct irreducible factors: the squarefree part
f/gcd(f, f') made primitive, then Zassenhaus.  That factors modulo a small
prime p (distinct-degree, then Cantor-Zassenhaus equal-degree
factorisation), lifts the factors quadratically (Hensel) to a modulus past
twice the Mignotte bound, and recombines subsets of them by increasing
size.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, zip_longest
from math import gcd as igcd, isqrt
from operator import add
from random import Random

# -- gcd in several variables ---------------------------------------------


def gcd(f, g, k):
    """The gcd over Z of two nonzero int dicts in k variables, up to sign."""
    h = _heu_gcd(f, g, k)
    return _prs_gcd(f, g, k) if h is None else h


def _heu_gcd(f, g, k):
    """GCDHEU, or None when six evaluation points fail."""
    if k == 0:
        return {(): igcd(f[()], g[()])}
    cf, cg = igcd(*f.values()), igcd(*g.values())
    f, g = _div_int(f, cf), _div_int(g, cg)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        # xi bounds the roots of one operand only: the other's image may vanish
        ff, gg = _eval_last(f, xi), _eval_last(g, xi)
        hh = ff and gg and _heu_gcd(ff, gg, k - 1)
        if hh:
            h = {}
            for e, c in hh.items():
                # the balanced xi-adic digits of c are its coefficients in
                # the last variable
                i = 0
                while c:
                    d = c % xi
                    d -= xi if 2 * d > xi else 0
                    if d:
                        h[e + (i,)] = d
                    c, i = (c - d) // xi, i + 1
            h = _div_int(h, igcd(*h.values()))
            one = len(h) == 1 and not any(max(h))
            if one or _divide(f, h) is not None and _divide(g, h) is not None:
                c = igcd(cf, cg)
                return {e: v * c for e, v in h.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _eval_last(f, xi):
    """f with its last variable set to xi."""
    out = {}
    for e, c in f.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c * xi ** e[-1]
    return {e: c for e, c in out.items() if c}


def _prs_gcd(f, g, k):
    """The gcd by a primitive PRS in the first variable, over the ring of
    the other k - 1, whose contents take gcd recursively."""
    if k == 0:
        return {(): igcd(f[()], g[()])}
    a, b = _rows(f), _rows(g)
    ca, cb = _content(a, k - 1), _content(b, k - 1)
    content = gcd(ca, cb, k - 1)
    a, b = [_divide(r, ca) for r in a], [_divide(r, cb) for r in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # the pseudo-remainder of a by b, then its primitive part
        lb, n = b[-1], len(b) - 1
        while len(a) > n:
            la, k0 = a.pop(), len(a) - n
            a = [_mul(r, lb) for r in a]
            for i, r in enumerate(b[:-1]):
                a[k0 + i] = _sub(a[k0 + i], _mul(r, la))
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        c = _content(a, k - 1)
        a, b = b, [_divide(r, c) for r in a]
    if len(b) == 1:
        b = [{(0,) * (k - 1): 1}]
    return {(i,) + e: c for i, r in enumerate(b) for e, c in _mul(r, content).items()}


def _rows(f):
    """Coefficients of f in its first variable, as dicts in the others."""
    rows = [{} for _ in range(max(e[0] for e in f) + 1)]
    for e, c in f.items():
        rows[e[0]][e[1:]] = c
    return rows


def _content(rows, k):
    return reduce(lambda h, r: gcd(h, r, k), [r for r in rows if r])


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _sub(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _div_int(f, c):
    return f if c == 1 else {e: v // c for e, v in f.items()}


def _divide(f, g):
    """f/g when g divides f over Z, else None: lex division that stops at
    the first leading term g does not divide."""
    ge = max(g)
    rest = [(e, c) for e, c in g.items() if e != ge]
    quot, rem = {}, dict(f)
    while rem:
        re = max(rem)
        de = tuple(a - b for a, b in zip(re, ge))
        q, r = divmod(rem.pop(re), g[ge])
        if r or any(d < 0 for d in de):
            return None
        quot[de] = q
        for e, c in rest:
            e = tuple(map(add, de, e))
            c = rem.get(e, 0) - q * c
            if c:
                rem[e] = c
            else:
                rem.pop(e, None)
    return quot


# -- univariate factorisation -----------------------------------------------


def factor(f):
    """The distinct irreducible factors over Z of a dense int list f of
    degree at least 1, each primitive and of positive leading coefficient:
    the power of x, then Zassenhaus on the squarefree part of the rest."""
    j = next(i for i, c in enumerate(f) if c)
    f = f[j:]
    out = [[0, 1]] if j else []
    if len(f) > 1:
        # the squarefree part f / gcd(f, f')
        h = gcd(*({(i,): c for i, c in enumerate(p) if c} for p in (f, _deriv(f))), 1)
        part = _exquo(f, [h.get((i,), 0) for i in range(max(h)[0] + 1)])
        content = igcd(*part) if part[-1] > 0 else -igcd(*part)
        out.extend(_zassenhaus([c // content for c in part]))
    return out


def _deriv(f):
    return [i * c for i, c in enumerate(f)][1:]


def _sub1(a, b, c=1):
    """a - c b for dense lists."""
    return _trim([x - c * y for x, y in zip_longest(a, b, fillvalue=0)])


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _exquo(a, b):
    """a/b for dense int lists when b divides a over Z, else None."""
    n, r = len(b) - 1, list(a)
    q = [0] * max(len(a) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k], rest = divmod(r[k + n], b[-1])
        if rest:
            return None
        for i in range(n):
            r[k + i] -= q[k] * b[i]
    return None if any(r[:n]) else q


def _zassenhaus(f):
    """The irreducible factors over Z of a squarefree primitive f with
    f(0) != 0 and a positive leading coefficient."""
    n = len(f) - 1
    p, modular = _modular_factors(f) if n > 1 else (0, [f])
    if len(modular) == 1:
        return [f]
    # a factor g of f has |g_i| <= 2^n ||f||_2 (Mignotte), and the lift
    # reconstructs lc(f)/lc(g) g, balanced modulo m
    bound = 2 * f[-1] * 2**n * (isqrt(n + 1) + 1) * max(map(abs, f))
    m = p
    while m <= bound:
        m *= m
    lifted = _hensel(f, modular, p, m)
    out, s = [], 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            # the constant term of a true factor divides lc(f) f(0)
            c = reduce(lambda c, i: c * lifted[i][0] % m, subset, f[-1])
            c -= m if 2 * c > m else 0
            if not c or f[-1] * f[0] % c:
                continue
            g = _prod([lifted[i] for i in subset], m, f[-1])
            g = [x - m if 2 * x > m else x for x in g]
            g = [x // igcd(*g) for x in g]
            q = _exquo(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


# -- arithmetic modulo m on dense lists -------------------------------------


def _mul1(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prod(polys, m, c=1):
    """c times the product of polys, modulo m."""
    return reduce(lambda acc, p: _mod(_mul1(acc, p), m), polys, [c % m])


def _mod(a, m):
    return _trim([x % m for x in a])


def _divmod(a, b, m):
    """Quotient and remainder of a by b modulo m, for b whose leading
    coefficient is a unit modulo m."""
    n, inv, r = len(b) - 1, pow(b[-1], -1, m), list(a)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] * inv % m
        for i in range(n):
            r[k + i] -= c * b[i]
    return q, _mod(r[:n], m)


def _monic_gcd(a, b, p):
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _prod([a], p, pow(a[-1], -1, p))


def _gcdex(a, b, p):
    """s, t with s a + t b = 1 modulo the prime p, for coprime a, b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub1(s0, _mul1(q, s1)), p)
        t0, t1 = t1, _mod(_sub1(t0, _mul1(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _prod([s0], p, inv), _prod([t0], p, inv)


def _hensel(f, factors, p, m):
    """Monic lifts modulo m = p^(2^j) of the monic factors modulo p of f,
    for f congruent to lc(f) times their product: each split f = g h is
    lifted by the quadratic Hensel step (von zur Gathen-Gerhard, alg. 15.10)
    and each side is split again."""
    if len(factors) == 1:
        return [_prod([f], m, pow(f[-1], -1, m))]
    k = len(factors) // 2
    g, h = _prod(factors[:k], p, f[-1]), _prod(factors[k:], p)
    s, t = _gcdex(g, h, p)
    q = p
    while q < m:
        q *= q
        e = _mod(_sub1(f, _mul1(g, h)), q)
        c, r = _divmod(_mul1(s, e), h, q)
        g = _mod(_sub1(_sub1(g, _mul1(t, e), -1), _mul1(c, g), -1), q)
        h = _mod(_sub1(h, r, -1), q)
        b = _mod(_sub1(_sub1(_mul1(s, g), _mul1(t, h), -1), [1]), q)
        c, d = _divmod(_mul1(s, b), h, q)
        s = _mod(_sub1(s, d), q)
        t = _mod(_sub1(_sub1(t, _mul1(t, b)), _mul1(c, g)), q)
    return _hensel(g, factors[:k], p, m) + _hensel(h, factors[k:], p, m)


def _modular_factors(f):
    """(p, the monic irreducible factors of f modulo p) for the one of the
    first three odd primes p dividing neither lc(f) nor disc(f) (f stays
    squarefree modulo p) with the fewest factors; an irreducible image ends
    the search."""
    best, p, tried = None, 1, 0
    while tried < 3 and (best is None or best[0] > 1):
        p += 2
        if f[-1] % p == 0 or any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        fp = _mod(f, p)
        if len(_monic_gcd(fp, _mod(_deriv(fp), p), p)) > 1:
            continue
        tried += 1
        ddf = _ddf(_prod([fp], p, pow(fp[-1], -1, p)), p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if best is None or count < best[0]:
            best = count, p, ddf
    _, p, ddf = best
    # a fixed seed: the same input always takes the same splits
    rng = Random(0)
    return p, [h for g, d in ddf for h in _edf(g, d, p, rng)]


def _ddf(f, p):
    """Distinct-degree factorisation of a squarefree monic f modulo p:
    (g, d) for each d such that the product g of the irreducible factors of
    f of degree d is not 1."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        # h = x^(p^d) modulo what is left of f; gcd(h - x, f) takes every
        # factor of degree d
        d += 1
        h = _powmod(h, p, f, p)
        g = _monic_gcd(f, _mod(_sub1(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g, d, p, rng):
    """Equal-degree factorisation (Cantor-Zassenhaus): the monic
    irreducible factors of g, a product of distinct ones of degree d modulo
    the odd prime p.  For a random a, gcd(a^((p^d - 1)/2) - 1, g) splits g
    with probability at least 1/2."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        h = _monic_gcd(g, _mod(_sub1(_powmod(a, (p**d - 1) // 2, g, p), [1]), p), p)
        if 1 < len(h) < len(g):
            return _edf(h, d, p, rng) + _edf(_divmod(g, h, p)[0], d, p, rng)


def _powmod(a, e, f, p):
    """a^e modulo f and p."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul1(out, a), f, p)[1]
        a, e = _divmod(_mul1(a, a), f, p)[1], e >> 1
    return out
