"""Finite subset spaces of finite simplicial sets: construction, exact
integer homology, and connectivity verification."""
