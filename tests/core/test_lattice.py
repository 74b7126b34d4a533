"""Unit and property tests for the knowledge/curiosity lattices."""

import itertools

import pytest

from repro.core.lattice import K, KnowledgeConflictError, k_lub

SAFE = [K.Q, K.S, K.D, K.F, K.DSTAR]


class TestKnowledgeLub:
    def test_q_is_bottom(self):
        for value in SAFE:
            assert k_lub(K.Q, value) == value
            assert k_lub(value, K.Q) == value

    def test_idempotent(self):
        for value in SAFE:
            assert k_lub(value, value) == value

    def test_commutative(self):
        for a, b in itertools.product(SAFE, SAFE):
            try:
                left = k_lub(a, b)
            except KnowledgeConflictError:
                with pytest.raises(KnowledgeConflictError):
                    k_lub(b, a)
                continue
            assert left == k_lub(b, a)

    def test_associative_where_defined(self):
        for a, b, c in itertools.product(SAFE, SAFE, SAFE):
            try:
                left = k_lub(k_lub(a, b), c)
            except KnowledgeConflictError:
                continue
            try:
                right = k_lub(a, k_lub(b, c))
            except KnowledgeConflictError:
                continue
            assert left == right

    def test_data_plus_final_is_delivered(self):
        assert k_lub(K.D, K.F) == K.DSTAR

    def test_silence_plus_final_is_final(self):
        assert k_lub(K.S, K.F) == K.F

    def test_silence_vs_data_conflicts(self):
        with pytest.raises(KnowledgeConflictError):
            k_lub(K.S, K.D)

    def test_dstar_vs_silence_conflicts(self):
        with pytest.raises(KnowledgeConflictError):
            k_lub(K.DSTAR, K.S)

    def test_error_element_always_raises(self):
        for value in SAFE:
            with pytest.raises(KnowledgeConflictError):
                k_lub(K.E, value)

    def test_monotone_growth(self):
        """Accumulating more knowledge never lowers a final verdict."""
        assert k_lub(k_lub(K.Q, K.D), K.F) == K.DSTAR
        assert k_lub(k_lub(K.Q, K.S), K.F) == K.F
