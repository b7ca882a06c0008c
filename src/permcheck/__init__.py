"""Exact F_p computer algebra for permanental ideals and Frobenius-power criteria."""

__version__ = "0.1.0"
