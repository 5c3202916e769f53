"""Reference implementations: valuation, literal comparisons, generators."""

import hashlib

import pytest

from ordcalc.names import ZERO, format_name, omega, suc_list, sup_finite, und
from ordcalc.oracle import (GenParams, clear_oracle_memo, gen_finitary,
                            gen_name, naive_le, naive_lt, val)


class TestVal:
    def test_naturals_are_their_height(self):
        for n in range(11):
            assert val(und(n)) == n

    def test_sup_is_max(self):
        assert val(sup_finite([und(2), und(3)])) == 3

    def test_suc_list_is_max_plus_one(self):
        assert val(suc_list([und(1), und(2)])) == 3

    def test_rejects_natural_indexing(self):
        with pytest.raises(ValueError):
            val(omega())


class TestNaive:
    def test_le_iff_val_le_on_naturals(self):
        for m in range(6):
            for n in range(6):
                assert naive_le(und(m), [und(n)]) == (m <= n)
                assert naive_lt(und(m), [und(n)]) == (m < n)

    def test_zero_least(self):
        assert naive_le(ZERO, [ZERO])
        assert naive_le(ZERO, [und(4), und(1)])

    def test_nothing_under_zero_bounds(self):
        assert not naive_lt(und(1), [ZERO])
        assert not naive_lt(ZERO, [ZERO, ZERO])

    def test_selection_may_mix_bounds(self):
        # {1, 2} covers suc_list([1,2]) only jointly
        a = sup_finite([und(1), und(2)])
        assert naive_le(a, [und(2)])
        assert naive_lt(a, [und(1), suc_list([und(2)])])

    def test_memo_can_be_dropped(self):
        naive_le(und(3), [und(3)])
        clear_oracle_memo()
        assert naive_le(und(3), [und(3)])


class TestGenerators:
    def test_zero_depth_forces_zero(self):
        assert gen_name(GenParams(max_depth=0, seed=9)) is ZERO

    def test_fixed_seed_reproduces_the_name(self):
        a = gen_finitary(41)
        b = gen_finitary(41)
        assert a is b  # hash-consing makes equal constructions identical

    def test_distinct_seeds_vary(self):
        names = {gen_finitary(s).ident for s in range(40)}
        assert len(names) > 10

    def test_val_bounded_by_depth(self):
        for s in range(60):
            assert val(gen_finitary(s, max_depth=3)) <= 3

    def test_draws_are_pinned(self):
        # the names these seeds draw: a change of draws would change every
        # seeded corpus.  With omega drawn, format_name would print idents,
        # so the second pin spells the tree out
        def shape(x):
            if x is omega():
                return "w"
            return "0" if x.is_zero else "(" + ",".join(
                shape(x.child(i)) for i in range(x.arity)) + ")"

        def digest(show, params):
            joined = "|".join(show(gen_name(p)) for p in params)
            return hashlib.sha1(joined.encode()).hexdigest()

        assert digest(format_name, (GenParams(5, 5, seed=s)
                                    for s in range(300))) == (
            "e2f3c1f1ece5812481ab502d7fff8cabaf5b428b")
        assert digest(shape, (GenParams(4, 3, omega_probability=0.2, seed=s)
                              for s in range(100))) == (
            "5eb90a1e4bc2054b34bf9cc6d65577d65a995c49")
