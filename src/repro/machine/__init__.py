"""Simulated machine components (cache model, address space)."""

from .cache import AddressSpace, CacheSimulator

__all__ = ["CacheSimulator", "AddressSpace"]
