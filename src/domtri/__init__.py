"""Plane triangulation toolkit.

Rotation-system plane graphs, seeded generators for triangulation
families, proper / dynamic / acyclic colorings, independent-domination
constructions with exact oracles, and a verification harness.

The package re-exports nothing: import each name from its module, as the
Layout table of README.md lists them.
"""
